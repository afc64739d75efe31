"""Spans and counts around confdyn's public functions, installed at runtime
from outside the package and removed again after the traced pass.

Each wrapped call records its inclusive and self time (inclusive minus the
time of wrapped calls nested in it) on a span stack kept per thread, because
``simulate`` runs its trajectories in the CLI's worker threads.  Spans that
open on an empty stack are the children of the job; their union against the
job's wall time gives the CLI's own time, and their sum over that union
(``cli.overlap``) says how far the workers overlapped.  Times of overlapping
workers include their waits for the interpreter lock, so on ``flow`` the
per-layer seconds add up to more than the wall time.  A name that cannot be
found is reported as an absent layer instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

import numpy as np

# span -> places it is installed; calls through any of them count as the span
SPANS = {
    "backgrounds.m2": [("confdyn.backgrounds", "ScalarBackground.m2")],
    "backgrounds.grad_m2": [("confdyn.backgrounds", "ScalarBackground.grad_m2")],
    "backgrounds.m2_integral": [("confdyn.backgrounds", "ScalarBackground.m2_integral")],
    "dynamics.evolve": [("confdyn.cli", "evolve")],
    "dynamics.monitor": [("confdyn.dynamics", "monitor")],
    "dynamics.write": [("confdyn.dynamics", "Trajectory.to_csv"),
                       ("confdyn.dynamics", "Trajectory.to_json")],
    # poisson_bracket reaches quantity_partials through the dynamics module
    "integrability.partials": [("confdyn.integrability", "quantity_partials"),
                               ("confdyn.dynamics", "quantity_partials")],
    "integrability.bracket": [("confdyn.integrability", "poisson_bracket")],
    "integrability.rank": [("confdyn.integrability", "independence_rank")],
    "integrability.involution": [("confdyn.integrability", "involution_table")],
    "integrability.sample": [("confdyn.integrability", "random_states")],
    "integrability.classify": [("confdyn.integrability", "classify")],
    "kgverify.residual": [("confdyn.kgverify", "residual_convergence")],
    "kgverify.eigen": [("confdyn.kgverify", "eigen_defect")],
    "kgverify.write": [("confdyn.kgverify", "write_convergence_csv")],
    "kgverify.quad": [("confdyn.kgverify", "quad")],
    "kgverify.phi": [("confdyn.kgverify", "Wavefunction.__call__")],
    "analytic.quad": [("confdyn.analytic", "quad")],
    "analytic.brentq": [("confdyn.analytic", "brentq")],
    "analytic.sample": [("confdyn.analytic", "ClosedFormOrbit.sample")],
    "analytic.build": [("confdyn.analytic", name) for name in
                       ("spacelike_orbit", "timelike_orbit", "planewave_orbit",
                        "conformal_orbit")],
}
# counted without a span: constructed far too often to time
COUNTS = {"geometry.fourvectors": [("confdyn.geometry", "FourVector.__init__")]}


def _evolve_hook(st, args, traj):
    for key in ("nfev", "segments", "event_crossings"):
        st.counts[f"dynamics.{key}"] += int(traj.stats[key])


def _monitor_hook(st, args, result):
    traj, quantities = args[0], args[1]
    st.counts["dynamics.monitor_evals"] += len(traj) * len(quantities)


def _write_hook(st, args, result):
    st.counts["dynamics.write_bytes"] += os.path.getsize(args[1])


def _partials_hook(st, args, result):
    quant, state = args[0], args[1]
    st.keys.add((id(quant), state.form, state.time, state.q.tobytes(),
                 state.p.tobytes()))


def _sample_hook(st, args, result):
    st.counts["analytic.samples"] += int(np.size(args[1]))


HOOKS = {
    "dynamics.evolve": (_evolve_hook, ("dynamics.nfev", "dynamics.segments",
                                       "dynamics.event_crossings")),
    "dynamics.monitor": (_monitor_hook, ("dynamics.monitor_evals",)),
    "dynamics.write": (_write_hook, ("dynamics.write_bytes",)),
    "integrability.partials": (_partials_hook, ("integrability.distinct",)),
    "analytic.sample": (_sample_hook, ("analytic.samples",)),
}


class _ThreadStats:
    __slots__ = ("stack", "spans", "counts", "keys")

    def __init__(self):
        self.stack = []                                  # [child seconds] per open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.counts = defaultdict(int)
        self.keys = set()                                # distinct partials per job


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """One traced pass: install, run jobs between begin_job/end_job,
    uninstall, then read totals()."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._top = []
        self._patches = []
        self.absent = set()       # spans, counts and hook counters not measured
        self.missing = []         # places that could not be wrapped
        self.cli_self = 0.0
        self.child_sum = 0.0
        self.child_union = 0.0
        self.distinct = 0
        self._job_t0 = 0.0

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
            return st

    def _span(self, name, fn, hook):
        perf = time.perf_counter
        stats = self._stats
        top = self._top
        failed = self.absent
        hook_fn, hook_keys = hook if hook else (None, ())

        def wrapper(*args, **kwargs):
            st = stats()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                rec = st.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    top.append((t0, t1))
            if hook_fn is not None:
                try:
                    hook_fn(st, args, result)
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    failed.update(hook_keys)
            return result
        return functools.update_wrapper(wrapper, fn)

    def _count(self, name, fn):
        stats = self._stats

        def wrapper(*args, **kwargs):
            stats().counts[name] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def install(self):
        for table, make in ((SPANS, lambda n, f: self._span(n, f, HOOKS.get(n))),
                            (COUNTS, self._count)):
            for name, places in table.items():
                found = 0
                for module, path in places:
                    try:
                        owner, attr, fn = _resolve(module, path)
                    except (ImportError, AttributeError):
                        self.missing.append(f"{module}.{path}")
                        continue
                    own = attr in getattr(owner, "__dict__", {})
                    self._patches.append((owner, attr, fn, own))
                    setattr(owner, attr, make(name, fn))
                    found += 1
                if not found:
                    self.absent.add(name)
                    self.absent.update(HOOKS.get(name, (None, ()))[1])

    def uninstall(self):
        while self._patches:
            owner, attr, fn, own = self._patches.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)

    def begin_job(self):
        del self._top[:]
        self._job_t0 = time.perf_counter()

    def end_job(self) -> float:
        """Close a job after every thread it started has finished; returns
        its wall time."""
        wall = time.perf_counter() - self._job_t0
        union = _union(self._top)
        self.cli_self += wall - union
        self.child_sum += sum(e - s for s, e in self._top)
        self.child_union += union
        keys = set()
        for st in self._threads:
            keys |= st.keys
            st.keys.clear()
        self.distinct += len(keys)
        del self._top[:]
        return wall

    def totals(self):
        """(spans, counts) summed over threads: spans[name] = [calls,
        inclusive s, self s]."""
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(int)
        for st in self._threads:
            for name, rec in st.spans.items():
                agg = spans[name]
                for i in range(3):
                    agg[i] += rec[i]
            for name, n in st.counts.items():
                counts[name] += n
        counts["integrability.distinct"] = self.distinct
        return spans, counts


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


# (metric, unit, spans and counters it needs, value from (tracer, spans, counts))
def _calls(name):
    return lambda t, s, c: s[name][0]


def _incl(*names):
    return lambda t, s, c: sum(s[n][1] for n in names)


def _self(*names):
    return lambda t, s, c: sum(s[n][2] for n in names)


def _counter(name):
    return lambda t, s, c: c[name]


_FIELD = ("backgrounds.m2", "backgrounds.grad_m2", "backgrounds.m2_integral")

PER_LAYER = [
    ("cli.self_s", "s", (), lambda t, s, c: t.cli_self),
    ("cli.overlap", "ratio", (), lambda t, s, c: _ratio(t.child_sum, t.child_union)),
    ("geometry.fourvectors", "count", ("geometry.fourvectors",),
     _counter("geometry.fourvectors")),
    ("backgrounds.m2_calls", "count", ("backgrounds.m2",), _calls("backgrounds.m2")),
    ("backgrounds.grad_calls", "count", ("backgrounds.grad_m2",),
     _calls("backgrounds.grad_m2")),
    ("backgrounds.field_s", "s", _FIELD, _self(*_FIELD)),
    ("backgrounds.us_per_call", "us", _FIELD,
     lambda t, s, c: _ratio(_self(*_FIELD)(t, s, c),
                            s["backgrounds.m2"][0] + s["backgrounds.grad_m2"][0], 1e6)),
    ("dynamics.evolve_s", "s", ("dynamics.evolve",), _self("dynamics.evolve")),
    ("dynamics.nfev", "count", ("dynamics.nfev",), _counter("dynamics.nfev")),
    ("dynamics.us_per_fev", "us", ("dynamics.evolve", "dynamics.monitor", "dynamics.nfev"),
     lambda t, s, c: _ratio(s["dynamics.evolve"][1] - s["dynamics.monitor"][1],
                            c["dynamics.nfev"], 1e6)),
    ("dynamics.segments", "count", ("dynamics.segments",), _counter("dynamics.segments")),
    ("dynamics.event_crossings", "count", ("dynamics.event_crossings",),
     _counter("dynamics.event_crossings")),
    ("dynamics.monitor_s", "s", ("dynamics.monitor",), _incl("dynamics.monitor")),
    ("dynamics.monitor_evals", "count", ("dynamics.monitor_evals",),
     _counter("dynamics.monitor_evals")),
    ("dynamics.us_per_monitor_eval", "us", ("dynamics.monitor", "dynamics.monitor_evals"),
     lambda t, s, c: _ratio(s["dynamics.monitor"][1], c["dynamics.monitor_evals"], 1e6)),
    ("dynamics.write_s", "s", ("dynamics.write",), _incl("dynamics.write")),
    ("dynamics.write_bytes", "bytes", ("dynamics.write_bytes",),
     _counter("dynamics.write_bytes")),
    ("integrability.classify_s", "s", ("integrability.classify",),
     _incl("integrability.classify")),
    ("integrability.rank_s", "s", ("integrability.rank",), _incl("integrability.rank")),
    ("integrability.involution_s", "s", ("integrability.involution",),
     _incl("integrability.involution")),
    ("integrability.sample_s", "s", ("integrability.sample",),
     _incl("integrability.sample")),
    ("integrability.brackets", "count", ("integrability.bracket",),
     _calls("integrability.bracket")),
    ("integrability.partials_calls", "count", ("integrability.partials",),
     _calls("integrability.partials")),
    ("integrability.partials_useful", "ratio",
     ("integrability.partials", "integrability.distinct"),
     lambda t, s, c: _ratio(c["integrability.distinct"], s["integrability.partials"][0])),
    ("kgverify.residual_s", "s", ("kgverify.residual",), _incl("kgverify.residual")),
    ("kgverify.eigen_s", "s", ("kgverify.eigen",), _incl("kgverify.eigen")),
    ("kgverify.phi_evals", "count", ("kgverify.phi",), _calls("kgverify.phi")),
    ("kgverify.us_per_phi_eval", "us", ("kgverify.phi",),
     lambda t, s, c: _ratio(s["kgverify.phi"][1], s["kgverify.phi"][0], 1e6)),
    ("kgverify.quad_calls", "count", ("kgverify.quad",), _calls("kgverify.quad")),
    ("kgverify.write_s", "s", ("kgverify.write",), _incl("kgverify.write")),
    ("analytic.build_s", "s", ("analytic.build",), _incl("analytic.build")),
    ("analytic.sample_s", "s", ("analytic.sample",), _incl("analytic.sample")),
    ("analytic.samples", "count", ("analytic.samples",), _counter("analytic.samples")),
    ("analytic.ms_per_sample", "ms", ("analytic.sample", "analytic.samples"),
     lambda t, s, c: _ratio(s["analytic.sample"][1], c["analytic.samples"], 1e3)),
    ("analytic.quad_calls", "count", ("analytic.quad",), _calls("analytic.quad")),
    ("analytic.brentq_calls", "count", ("analytic.brentq",), _calls("analytic.brentq")),
]

# counts that must repeat exactly between two traced passes at one seed
EXACT_COUNTS = ("dynamics.nfev", "backgrounds.m2_calls", "integrability.partials_calls",
                "kgverify.phi_evals", "kgverify.quad_calls", "analytic.quad_calls",
                "analytic.brentq_calls")


def layer_metrics(tracer: Tracer):
    """{metric: (value, unit)} for every per-layer metric that could be
    measured, and the sorted names of those that could not."""
    spans, counts = tracer.totals()
    values, absent = {}, []
    for name, unit, needs, value in PER_LAYER:
        if tracer.absent.intersection(needs):
            absent.append(name)
        else:
            values[name] = (float(value(tracer, spans, counts)), unit)
    return values, sorted(absent)
