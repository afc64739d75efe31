"""The names the benchmark's tracer wraps exist in confdyn.

perfbench/bench_trace.py installs its spans by module and dotted name.  A
name it cannot resolve does not fail the benchmark: the run reports it as an
absent layer and leaves that metric out of its result line.  So a rename or
deletion in confdyn is caught here instead.  A traced run of a few static
commands in this process checks the rest of what the result line needs:
every layer measured, every place wrapped and every metric strict JSON.
"""

import importlib.util
import json
from pathlib import Path

from confdyn import cli

_BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", _BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def test_every_traced_place_resolves():
    bench_trace = _bench_trace()
    places = [place for table in (bench_trace.SPANS, bench_trace.COUNTS)
              for group in table.values() for place in group]
    assert places
    for module, path in places:
        *_, target = bench_trace._resolve(module, path)
        assert callable(target), (module, path)


# static-workload command lines, one with transverse data for the closed-form
# conformal orbit
_STATIC_CALLS = [
    ["orbit", "--preset", "fig2"],
    ["orbit", "--preset", "fig2", "--set", "initial.xperp=0.2,-0.1",
     "--set", "initial.pperp=0.1,0.05"],
    ["certify", "--preset", "conformal", "--set", "certify.count=24"],
    ["kg", "--preset", "conformal"],
]


def test_traced_static_calls_give_strict_json_metrics(tmp_path):
    # the benchmark's result line is strict JSON; a traced call that leaves a
    # layer absent, misses a place, or yields a non-finite metric breaks it
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(_STATIC_CALLS):
            tracer.begin_job()
            assert cli.main(argv + ["--out-dir", str(tmp_path / str(i))]) == 0, argv
            tracer.end_job()
    finally:
        tracer.uninstall()
    values, absent = bench_trace.layer_metrics(tracer)
    assert not tracer.absent and not absent
    assert not tracer.missing
    assert values["analytic.samples"][0] > 0
    for name, (value, unit) in values.items():
        json.dumps({name: {"value": value, "unit": unit}}, allow_nan=False)
