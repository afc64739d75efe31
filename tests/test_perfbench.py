"""The names the benchmark's tracer wraps exist in confdyn, and the flow
workload's outputs keep their bytes.

perfbench/bench_trace.py installs its spans by module and dotted name.  A
name it cannot resolve does not fail the benchmark: the run reports it as an
absent layer and leaves that metric out of its result line.  So a rename or
deletion in confdyn is caught here instead.  A traced run of a few static
commands in this process checks the rest of what the result line needs:
every layer measured, every place wrapped and every metric strict JSON.
The first flow jobs of one seed are run as the benchmark runs them, and the
SHA-256 fingerprint of their outputs is pinned.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from confdyn import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# perfbench/run.py --workload flow --trace 1 --seed 1: "fingerprint of the
# first 20 jobs"
_FLOW_FINGERPRINT = "84f5452026e0d76b55b5a3c39e634a8d859c4c6873abcd19fcb49d74686e62a8"


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file; perfbench is no package.
    The module is registered under its name first, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _bench_trace():
    return _perfbench_module("bench_trace")


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


def test_flow_fingerprint_is_pinned(tmp_path):
    # the first 20 flow jobs at seed 1, every integrator, monitor and writer
    # path of the workload, hashed as perfbench/run.py hashes them: any
    # changed output byte shows here.  static's fingerprint is not pinned:
    # its certify singular values depend on the machine's SVD kernel
    bench_jobs = _perfbench_module("bench_jobs")
    digests = []
    for i, job in enumerate(bench_jobs.first_jobs(bench_jobs.WORKLOADS["flow"], 1, 20)):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(job.cli_args(out_dir))
        digests.append(bench_jobs.digest(out_dir))
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == _FLOW_FINGERPRINT
