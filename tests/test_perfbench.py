"""The names the benchmark's tracer wraps exist in confdyn.

perfbench/bench_trace.py installs its spans by module and dotted name.  A
name it cannot resolve does not fail the benchmark: the run reports it as an
absent layer and leaves that metric out of its result line.  So a rename or
deletion in confdyn is caught here instead.
"""

import importlib.util
from pathlib import Path

_BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def test_every_traced_place_resolves():
    spec = importlib.util.spec_from_file_location("bench_trace", _BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    places = [place for table in (bench_trace.SPANS, bench_trace.COUNTS)
              for group in table.values() for place in group]
    assert places
    for module, path in places:
        *_, target = bench_trace._resolve(module, path)
        assert callable(target), (module, path)
