"""End-to-end runs of the command line driver via main(argv)."""

import copy
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import confdyn
from confdyn import backgrounds, cli, integrability, kgverify
from confdyn.cli import _get, _parse, main
from confdyn.errors import ConfigError
from oracles import gaussian_slope, quad_antiderivative


def _args(command, preset, out, *extra):
    return [command, "--preset", preset, "--out-dir", str(out), *extra]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fig1(tmp_path, capsys):
    assert main(_args("simulate", "fig1", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["runs"]) == 4
    for r in summary["runs"]:
        assert r["max_drift"] <= 1e-8
        assert (tmp_path / r["file"]).exists()
        # the linear field is entered and exited once per orbit
        assert any(name == "z=0" for name, _ in r["events"])
        # the diagnostics include the deliberately non-conserved p3
        assert "p3" in r["drifts"] and "p3" not in r["gated"]
        assert r["drifts"]["p3"] > 0.1
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_simulate_fig2(tmp_path):
    assert main(_args("simulate", "fig2", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["runs"]) == 4


def test_simulate_planewave(tmp_path):
    assert main(_args("simulate", "planewave", tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    run = summary["runs"][0]
    assert set(run["gated"]) == {f"Q{i}" for i in range(1, 8)}
    assert run["max_drift"] <= 1e-8


def test_simulate_gate_failure_exits_one(tmp_path):
    # an impossible drift gate turns the same healthy run into a failure
    code = main(_args("simulate", "planewave", tmp_path, "--tol-rel", "1e-18"))
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is False


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("first", [True, False])
def test_non_finite_gated_drift_fails_the_gate(monkeypatch, bad, first):
    # max([0.0, nan]) is 0.0: the gate must see a NaN wherever it stands,
    # and an ungated diagnostic's NaN must not fail the run
    drifts = {"Q1": bad, "Q2": 1e-12} if first else {"Q1": 1e-12, "Q2": bad}
    traj = SimpleNamespace(drifts=drifts | {"p3": math.nan}, events_log=[],
                           stats={}, to_json=None, to_csv=None)
    monkeypatch.setattr(cli, "evolve", lambda *args, **kw: traj)
    setup = (None, None, None, None, [], ["Q1", "Q2"])
    result, _ = cli._run_one(setup, 0, "csv", 1e-8)
    assert result["pass"] is False
    assert not math.isfinite(result["max_drift"])
    assert math.isnan(result["max_drift"]) == math.isnan(bad)
    traj.drifts = {"Q1": 1e-12, "Q2": 0.0, "p3": math.nan}
    result, _ = cli._run_one(setup, 0, "csv", 1e-8)
    assert result["pass"] is True and result["max_drift"] == 1e-12


def test_simulate_overflowing_planewave_fails_without_a_traceback(tmp_path, capsys):
    # at p- = 1e200 the squares of p- overflow to inf and Q7 is NaN along
    # the run: the drift gate reports it, with no warning and no
    # OverflowError, and summary.json, strict JSON, writes the drift as null
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_args("simulate", "planewave", tmp_path,
                          "--set", "initial.pminus=1e200"))
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert capsys.readouterr().out == "run   0: max drift nan FAIL  -> run_000.csv\n"
    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_refuse)
    (run,) = summary["runs"]
    assert run["drifts"]["Q7"] is None and run["pass"] is False


# fig. 1's head-on orbit leaves the field, crossing z = 0, at
# t = 2.236067977467977: a run whose end lies within the restart nudge
# (1e-12 of the span) past it ends at its tend, sampled there
@pytest.mark.parametrize("past", [1e-13, 1e-12, 2e-12])
def test_simulate_crossing_within_a_nudge_of_the_end(tmp_path, past):
    tend = 2.236067977467977 + past
    assert main(_args("simulate", "fig1", tmp_path, "--set", "sweep.count=1",
                      "--set", "sweep.override_0=initial.p=0,0,-0.5",
                      "--set", f"run.tend={tend!r}")) == 0
    (run,) = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert [name for name, _ in run["events"]] == ["z=0"]
    rows = np.loadtxt(tmp_path / "run_000.csv", delimiter=",", skiprows=1)
    assert rows[-1, 0] == tend and np.all(np.diff(rows[:, 0]) > 0.0)
    assert abs(rows[-1, 3]) < 1e-11       # z, just past the crossing


def test_simulate_crossing_in_the_end_window_ends_at_tend(tmp_path):
    # the exit crossing at t = 2.2360679774679775 lies within 1e-14 of the
    # span before tend: the run still takes its last step off the surface
    # to tend and writes a row there, after the crossing's row
    tend = 2.236067977467987
    assert main(_args("simulate", "fig1", tmp_path, "--set", "sweep.count=1",
                      "--set", "sweep.override_0=initial.p=0,0,-0.5",
                      "--set", f"run.tend={tend!r}")) == 0
    (run,) = json.loads((tmp_path / "summary.json").read_text())["runs"]
    ((name, t_cross),) = run["events"]
    assert name == "z=0" and tend - 1e-14 * tend <= t_cross < tend
    rows = np.loadtxt(tmp_path / "run_000.csv", delimiter=",", skiprows=1)
    assert rows[-2, 0] == t_cross and rows[-1, 0] == tend
    assert len(rows) == 502 and np.all(np.diff(rows[:, 0]) > 0.0)


def test_simulate_off_shell_extended_start(tmp_path):
    # a number for initial.pplus starts the extended flow off shell there
    first = {}
    for pplus in ("0.7", "shell"):
        out = tmp_path / pplus
        assert main(_args("simulate", "planewave", out, "--set", f"initial.pplus={pplus}",
                          "--set", "run.tend=1", "--set", "run.samples=5")) == 0
        lines = (out / "run_000.csv").read_text().splitlines()
        first[pplus] = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["0.7"]["pplus"] == 0.7
    assert first["shell"]["pplus"] != 0.7


def test_simulate_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("simulate", "fig1", a)) == 0
    assert main(_args("simulate", "fig1", b)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names == [f"run_{i:03d}.csv" for i in range(4)] + ["summary.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    runs = json.loads((a / "summary.json").read_text())["runs"]
    assert [r["index"] for r in runs] == [0, 1, 2, 3]
    assert [r["file"] for r in runs] == names[:4]


_COVARIANT = ("--set", "run.form=covariant", "--set", "initial.x4=2,0.1,-0.1,0.3",
              "--set", "initial.xdot=1,0,0,0", "--set", "run.tstart=0",
              "--set", "run.tend=1.5", "--set", "monitor.extra=")


@pytest.mark.parametrize("preset, extra", [("fig2", ()), ("dilation", _COVARIANT)],
                         ids=["fig2-front", "dilation-covariant"])
def test_simulate_deterministic_output_other_forms(tmp_path, preset, extra):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("simulate", preset, a, *extra)) == 0
    assert main(_args("simulate", preset, b, *extra)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == len(json.loads((a / "summary.json").read_text())["runs"]) + 1
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_json_format(tmp_path):
    assert main(_args("simulate", "dilation", tmp_path, "--format", "json")) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    run = summary["runs"][0]
    assert run["file"].endswith(".json")
    blob = json.loads((tmp_path / run["file"]).read_text())
    assert blob["form"] == "instant"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_spacelike(tmp_path, capsys):
    assert main(_args("certify", "spacelike", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "maximally superintegrable"
    assert cert["rank"] == 5
    assert "maximally superintegrable" in capsys.readouterr().out


def test_certify_conformal(tmp_path):
    assert main(_args("certify", "conformal", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "minimally superintegrable"
    assert cert["rank"] == 5
    assert cert["involutive_subset"] == ["Q1", "Q2", "Q3", "K"]


def test_certify_planewave(tmp_path):
    assert main(_args("certify", "planewave", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "maximally superintegrable"
    assert cert["rank"] == 7


def test_certify_truncated_set(tmp_path):
    # the preset expects (and therefore passes on) "not certified"
    assert main(_args("certify", "truncated", tmp_path)) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == "not certified"


@pytest.mark.parametrize("preset", ["conformal", "planewave"])
def test_certify_deterministic_output(tmp_path, preset):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("certify", preset, a)) == 0
    assert main(_args("certify", preset, b)) == 0
    assert ((a / "certification.json").read_bytes()
            == (b / "certification.json").read_bytes())


def test_certify_count_past_the_draw_budget(tmp_path):
    # the sampler's 1000-draw budget counts rejected draws only
    assert main(_args("certify", "spacelike", tmp_path,
                      "--set", "certify.count=1001")) == 0
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert len(cert["independence"]["ranks"]) == 1001


@pytest.mark.parametrize("form, label, code", [("front", "integrable", 0),
                                               ("extended", "not certified", 1)])
def test_certify_dilation_on_light_front_forms(tmp_path, capsys, form, label, code):
    # the dilation rule (x.x > 0.1 inside the forward cone) fills the
    # light-front boxes too, clear of the cone, where m^2 and the brackets
    # would grow without bound: the largest stays far under --tol-abs 1e-9;
    # the extended form's four degrees of freedom outnumber its 3 quantities
    assert main(_args("certify", "dilation", tmp_path,
                      "--set", f"certify.form={form}")) == code
    assert capsys.readouterr().out.splitlines()[-1] == f"classification: {label}"
    cert = json.loads((tmp_path / "certification.json").read_text())
    assert cert["label"] == label and cert["rank"] == 3
    assert np.max(np.abs(cert["involution"]["brackets"])) < 1e-12


@pytest.mark.parametrize("csq", ["0.01", "0.2"])
def test_certify_dilation_keeps_every_instant_draw_at_any_csq(tmp_path, capsys, csq):
    # m^2 = csq/x.x scales with csq, but the instant box lies inside the
    # light cone (x.x >= 2.76), so every draw is kept whatever csq is: the
    # sample is the unfiltered draw's, as under the light-cone rule before
    bg = backgrounds.dilation_mass(float(csq))
    box = {"t_range": (1.8, 2.6), "q_range": (-0.4, 0.4)}
    got = cli._certify_states(bg, "instant", 24, np.random.default_rng(7))
    want = integrability.random_states("instant", 24, np.random.default_rng(7),
                                       **box, accept=lambda st: True)
    assert np.array_equal(got.time, want.time)
    assert np.array_equal(got.q, want.q) and np.array_equal(got.p, want.p)
    assert main(_args("certify", "dilation", tmp_path,
                      "--set", f"background.csq={csq}")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "classification: integrable"


def test_certify_unexpected_label_fails(tmp_path):
    code = main(_args("certify", "spacelike", tmp_path,
                      "--set", "certify.expect=integrable"))
    assert code == 1


# ---------------------------------------------------------------------------
# kg
# ---------------------------------------------------------------------------

def test_kg_planewave(tmp_path):
    assert main(_args("kg", "planewave", tmp_path)) == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "point,h,residual_h,residual_h2,ratio"
    ratios = [float(row.split(",")[4]) for row in lines[1:]]
    assert len(ratios) == 60
    assert all(3.5 < r < 4.5 for r in ratios)
    summary = json.loads((tmp_path / "kg_summary.json").read_text())
    assert summary["pass"] is True


def test_kg_conformal(tmp_path):
    assert main(_args("kg", "conformal", tmp_path)) == 0
    summary = json.loads((tmp_path / "kg_summary.json").read_text())
    assert summary["pass"] is True


def test_kg_conformal_same_verdict_without_the_antiderivative(tmp_path, monkeypatch):
    # the mode's phase from the erf antiderivative, then from quadrature of f
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_args("kg", "conformal", a)) == 0
    real = kgverify.make_conformal_solution

    def by_quadrature(qperp, q3, bg):
        f, _ = bg.profile
        return real(qperp, q3, backgrounds.special_conformal_mass(
            f, gaussian_slope(f, bg.params["k"]), quad_antiderivative(f)))

    monkeypatch.setattr(kgverify, "make_conformal_solution", by_quadrature)
    assert main(_args("kg", "conformal", b)) == 0
    ratios = [np.loadtxt(d / "convergence.csv", delimiter=",", skiprows=1)[:, 4]
              for d in (a, b)]
    assert np.max(np.abs(ratios[0] - ratios[1])) <= 1e-3
    summaries = [json.loads((d / "kg_summary.json").read_text()) for d in (a, b)]
    assert summaries[0]["pass"] is summaries[1]["pass"] is True


@pytest.mark.parametrize("k", ["0", "-0.7"])
@pytest.mark.parametrize("command, preset, out", [
    ("orbit", "fig2", "orbit.csv"), ("kg", "conformal", "kg_summary.json")])
def test_gaussian_flat_and_negative_steepness(tmp_path, command, preset, out, k):
    assert main(_args(command, preset, tmp_path, "--set", f"background.k={k}")) == 0
    assert (tmp_path / out).exists()


_SWITCHED_Z = ["--set", "background.family=linear_z", "--set", "background.B=1"]


def test_kg_draw_shortfall_exits_two(tmp_path, capsys):
    # kg.points is at most 1000, checked before any draw
    out = tmp_path / "out"
    assert main(_args("kg", "planewave", out, "--set", "kg.points=1001")) == 2
    assert capsys.readouterr().err == ("configuration error: [kg] points: '1001' is "
                                       "not an integer of at least 1 and at most 1000\n")
    assert not out.exists() or list(out.iterdir()) == []
    # at h = 0.6 every 2h stencil in the box z in (-1, 1) crosses z = 0, so
    # the draw rejects 1000 points and the run writes nothing
    assert main(_args("kg", "kgcontrol", out, *_SWITCHED_Z, "--set", "kg.h=0.6")) == 2
    assert capsys.readouterr().err == (
        "configuration error: cannot draw 60 points whose 2h stencils stay in the "
        "domain of 'offshell_control' and meet no switch surface of 'linear_z': "
        "accept predicate rejected too many samples\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", range(1, 7))
def test_kg_on_a_switched_field_draws_clear_of_the_surface(tmp_path, capsys, seed):
    # the draw keeps the points whose stencils stay off z = 0, so the
    # off-shell control reads its residuals and fails as a control should
    assert main(_args("kg", "kgcontrol", tmp_path, *_SWITCHED_Z,
                      "--seed", str(seed))) == 1
    out, err = capsys.readouterr()
    assert "domain error" not in err
    assert out.startswith("offshell_control: 60 points") and out.endswith("-> FAIL\n")


def test_kg_offshell_control_fails(tmp_path):
    assert main(_args("kg", "kgcontrol", tmp_path)) == 1
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    ratios = [float(row.split(",")[4]) for row in lines[1:]]
    # the control plateaus instead of converging
    assert all(r < 1.5 for r in ratios)


@pytest.mark.parametrize("q3", [0.0, 1.0])
def test_kg_dilation_at_an_integer_order(tmp_path, capsys, q3):
    # csq = 1 and Q3 = 0 or 1 put the Bessel order on 1 or 0, where sin(pi alpha)
    # vanishes and Gamma(1 - alpha) has a pole: mpmath takes those orders
    assert main(_args("kg", "dilation", tmp_path, "--set", f"kg.q3={q3:g}")) == 0
    assert capsys.readouterr().out == ("dilation_mode: 60 points, h-halving ratios "
                                       "in [4.00, 4.00] -> PASS\n")
    summary = json.loads((tmp_path / "kg_summary.json").read_text())
    assert summary["pass"] is True and summary["eigen_defects"][0]["Q"] == q3


def test_kg_subnormal_bessel_argument_exits_three(tmp_path, capsys):
    # |Q_perp| = 1e-320 makes every y = |Q_perp| v subnormal, where the
    # series keeps only a few digits: the read refuses it and writes nothing
    out = tmp_path / "out"
    assert main(_args("kg", "dilation", out, "--set", "kg.qperp=1e-320,0",
                      "--set", "kg.points=5")) == 3
    assert capsys.readouterr().err == ("runtime domain error: Bessel argument |Q_perp| "
                                       "v = 8.36453e-321 is subnormal at v = 0.836287\n")
    assert list(out.iterdir()) == []


def test_kg_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("kg", "dilation", a)) == 0
    assert main(_args("kg", "dilation", b)) == 0
    for name in ("convergence.csv", "kg_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def test_orbit_fig2_csv(tmp_path):
    assert main(_args("orbit", "fig2", tmp_path)) == 0
    lines = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "xplus,x0,x1,x2,x3,p0,p1,p2,p3"
    assert len(lines) > 100


def test_orbit_fig1_json(tmp_path):
    assert main(_args("orbit", "fig1", tmp_path, "--format", "json",
                      "--set", "run.tend=2.2")) == 0
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["family"] == "spacelike"
    assert doc["constants"]["Q5"] == pytest.approx(1.1180339887498948482)


def test_orbit_constant_mass_is_the_timelike_quadrature(tmp_path):
    # on m^2 = m0^2 the timelike orbit's quadrature of 1/H gives
    # x(t) = x(0) - p t/H, H = sqrt(p.p + m0^2)
    assert main(_args("orbit", "kgcontrol", tmp_path, "--set", "run.tend=2",
                      "--set", "initial.p=0.1,0.2,-0.3", "--set", "run.samples=5")) == 0
    rows = np.loadtxt(tmp_path / "orbit.csv", delimiter=",", skiprows=1)
    p = np.array([0.1, 0.2, -0.3])
    bg = backgrounds.from_params(cli.preset_config("kgcontrol")["background"])
    H = np.sqrt(p @ p + bg.params["m0sq"])
    t = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(rows[:, 0], t) and np.array_equal(rows[:, 1], t)
    assert np.allclose(rows[:, 2:5], rows[0, 2:5] - np.outer(t, p) / H,
                       rtol=0.0, atol=1e-12)
    assert np.all(rows[:, 5] == H) and np.all(rows[:, 6:] == p)


_GAUSSIAN_ORBIT = ("--set", "run.form=front", "--set", "initial.xplus=1.5",
                   "--set", "initial.pminus=0.4", "--set", "run.tstart=1.5",
                   "--set", "run.tend=2")


@pytest.mark.parametrize("preset, extra", [
    ("fig2", ()), ("fig2", ("--format", "json")), ("conformal", _GAUSSIAN_ORBIT),
], ids=["fig2-csv", "fig2-json", "gaussian-front"])
def test_orbit_deterministic_output(tmp_path, preset, extra):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(_args("orbit", preset, a, *extra)) == 0
    assert main(_args("orbit", preset, b, *extra)) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names in (["orbit.csv"], ["orbit.json"])
    assert (a / names[0]).read_bytes() == (b / names[0]).read_bytes()


def _refuse(name):
    raise ValueError(f"{name} is not strict JSON")


def test_orbit_json_writes_a_non_finite_constant_as_null(tmp_path):
    # off the axis the fig2 orbit has transverse charges and no x+
    # asymptote: the constant is inf, and strict JSON writes it as null
    assert main(_args("orbit", "fig2", tmp_path, "--format", "json",
                      "--set", "initial.xperp=0.2,-0.1",
                      "--set", "initial.pperp=0.1,0.05")) == 0
    doc = json.loads((tmp_path / "orbit.json").read_text(), parse_constant=_refuse)
    assert doc["constants"]["xplus_asymptote"] is None
    assert all(v is not None for k, v in doc["constants"].items()
               if k != "xplus_asymptote")


def test_orbit_past_asymptote_exits_three(tmp_path):
    # orbit samples the base p- = 0.4 orbit (it reads no [sweep]), whose
    # asymptote lies at x+ ~ 2.31; asking for 12 leaves the domain
    code = main(_args("orbit", "fig2", tmp_path, "--set", "run.tend=12"))
    assert code == 3


# a start a solver cannot take: the flow is inf or nan at the start itself
# (p-^2 underflows, and no step is taken off the p- = 0 guard), or the step
# off a switch surface overflows
@pytest.mark.parametrize("preset, sets, err", [
    ("planewave", ["initial.pminus=1e-300"],
     "the flow is not finite at its start (s = 0, p- = 1e-300)"),
    ("planewave", ["initial.pminus=1e-170"],
     "the flow is not finite at its start (s = 0, p- = 1e-170)"),
    ("planewave", ["initial.pminus=-1e-300"],
     "the flow is not finite at its start (s = 0, p- = -1e-300)"),
    # (p_perp^2 + m^2)/(4 p-^2) = inf: a zero first step
    ("fig2", ["background.m0sq=1e300", "run.tstart=1.5", "initial.xplus=1.5",
              "sweep.count=1", "sweep.override_0=initial.pminus=2e-13;run.tend=2"],
     "the flow is not finite at its start (xplus = 1.5, p- = 2e-13)"),
    # massless, p.p = 0 in floats: H = 0 and a nan flow
    ("dilation", ["background.family=constant", "background.m0sq=0",
                  "initial.p=0,0,1e-200", "monitor.set=poincare"],
     "the flow is not finite at its start (t = 2)"),
    # fig. 2 starts on its switch surface x+ = L
    ("fig2", ["sweep.count=1", "sweep.override_0=initial.pminus=1e-300;run.tend=2"],
     "the step off a surface at xplus = 1, p- = 1e-300 is not finite"),
])
def test_non_finite_start_exits_three(tmp_path, capsys, preset, sets, err):
    argv = _args("simulate", preset, tmp_path, *[a for s in sets for a in ("--set", s)])
    with np.errstate(all="ignore"):
        assert main(argv) == 3
    assert capsys.readouterr().err == f"runtime domain error: {err}\n"


# coordinates whose powers overflow in the field kernel: float ** raises
# OverflowError there, which must exit 3, not escape as a traceback
@pytest.mark.parametrize("preset, sets, err", [
    ("fig2", ["run.tstart=1e110", "initial.xplus=1e110", "sweep.count=1",
              "sweep.override_0=run.tend=2e110"],
     "x+ = 1e+110 is too large: (x+)^3 overflows in special_conformal"),
    ("dilation", ["run.tstart=1e80", "initial.t=1e80", "run.tend=2e80"],
     "x.x = 1e+160 is too large: (x.x)^2 overflows in dilation"),
])
def test_huge_coordinate_exits_three(tmp_path, capsys, preset, sets, err):
    argv = _args("simulate", preset, tmp_path, *[a for s in sets for a in ("--set", s)])
    assert main(argv) == 3
    assert capsys.readouterr().err == f"runtime domain error: {err}\n"
    assert list(tmp_path.iterdir()) == []


# a Gaussian so steep that (k u)^2 overflows off u = 0: a domain error naming
# k and u (the orbit's x+ lies past an asymptote at x+ = 1 + 1e-200)
@pytest.mark.parametrize("command, preset, sets, err", [
    ("simulate", "fig2", ["sweep.count=1"],
     "k = 1e+200, u = 6.33049e-13: (k u)^2 overflows in the Gaussian profile"),
    ("kg", "conformal", [],
     "k = 1e+200, u = -0.486261: (k u)^2 overflows in the Gaussian profile"),
    ("orbit", "fig2", [],
     "u(x+) bracketing stalled: x+ lies beyond the orbit's asymptote"),
])
def test_steep_gaussian_exits_three(tmp_path, capsys, command, preset, sets, err):
    sets = [*sets, "background.k=1e200"]
    argv = _args(command, preset, tmp_path, *[a for s in sets for a in ("--set", s)])
    assert main(argv) == 3
    assert capsys.readouterr().err == f"runtime domain error: {err}\n"
    assert list(tmp_path.iterdir()) == []


# inputs that a command refuses before writing anything: an infinite Bessel
# order (Q3^2 overflows), an order mpmath cannot take, an order of 1.2e8
# whose series stops once its terms are 0, orbits whose rows are not finite
# (Q3^2 underflows; p0 = inf), the nonrelativistic flow off the instant
# form, a power-law dilation mode (Q_perp = 0) whose v^alpha overflows, and
# a sin^2 wave whose 2 k overflows, refused when the background is built.
# No exception escapes main and no file is written
@pytest.mark.parametrize("command, preset, sets, err", [
    ("kg", "dilation", ["kg.q3=1e200"], "configuration error: kg solution: the "
     "order sqrt(csq - Q3^2) = infj is not finite"),
    ("kg", "dilation", ["background.csq=1e300"], "runtime domain error: mpmath "
     "cannot evaluate the Bessel pair of order 1e+150+0j (ZeroDivisionError)"),
    ("kg", "dilation", ["background.csq=1.5e16"], "runtime domain error: Bessel "
     "evaluation overflowed at v = 0.836287"),
    ("orbit", "planewave", ["initial.pminus=1e-300"], "runtime domain error: the "
     "plane_wave orbit is not finite at xplus = 0"),
    ("orbit", "kgcontrol", ["initial.p=1e300,0,0", "run.tend=1"], "runtime domain "
     "error: the timelike orbit is not finite at t = 0"),
    ("simulate", "planewave", ["run.nonrelativistic=true"], "configuration error: "
     "the nonrelativistic flow applies to the instant form, not 'extended'"),
    ("kg", "dilation", ["kg.qperp=0,0", "background.csq=1e8"], "runtime domain "
     "error: power law c1 v^alpha + c2 v^-alpha overflowed at v = 0.836287"),
    *[(command, "planewave", ["background.k=1e308"], "configuration error: bad "
       "background: k = 1e+308 overflows 2 k in the sin^2 profile")
      for command in ("kg", "certify", "simulate")],
])
def test_refused_input_exits_two_or_three_and_writes_nothing(tmp_path, capsys, command,
                                                            preset, sets, err):
    out = tmp_path / "out"
    argv = _args(command, preset, out, *[a for s in sets for a in ("--set", s)])
    with np.errstate(all="ignore"):
        assert main(argv) == (2 if err.startswith("configuration") else 3)
    assert capsys.readouterr().err == f"{err}\n"
    assert list(out.iterdir()) == []


def test_nonrelativistic_run_gates_only_the_translations(tmp_path, capsys):
    # the relativistic sets' charges drift under the nonrelativistic flow
    # (fig1 failed all four runs, max drift 4.6e-4 to 1.2e-2), so a run that
    # would gate them is refused before it runs; none and truncated, whose
    # translations that flow conserves, stay, and extras are not gated
    out = tmp_path / "out"
    assert main(_args("simulate", "fig1", out, "--set", "run.nonrelativistic=true")) == 2
    assert capsys.readouterr().err == (
        "configuration error: the nonrelativistic flow conserves only quantity set "
        "'none' or 'truncated', not 'spacelike'\n")
    assert list(out.iterdir()) == []
    for qset in ("spacelike", "conformal_front", "dilation", "poincare", "none",
                 "truncated"):
        cfg = cli.apply_overrides(cli.preset_config("fig1"), [
            "run.nonrelativistic=true", f"monitor.set={qset}", "monitor.extra=p3,BLz"])
        for run_cfg in cli._sweep_configs(cfg):
            if qset in ("none", "truncated"):
                quantities, gated = cli._setup_run(run_cfg)[4:]
                assert [q.label for q in quantities][len(gated):] == ["p3", "Lz"]
            else:
                with pytest.raises(ConfigError, match=f"not '{qset}'$"):
                    cli._setup_run(run_cfg)


# overflows that a command reports as its error line alone: the dilation
# mode's power law at Q_perp = 0 and alpha = 1e4, the timelike orbit's
# constants p.p and p.L at p = 1e300, the sin^2 wave's 2 k w past x+ = 1e308
# (w = t + z reaches inf) and certify's partials at amp = 1e308, named
# before any SVD, take no numpy warning on the way
@pytest.mark.parametrize("command, preset, sets, err", [
    ("kg", "dilation", ["kg.qperp=0,0", "background.csq=1e8"],
     "power law c1 v^alpha + c2 v^-alpha overflowed at v = 0.836287"),
    ("orbit", "kgcontrol", ["initial.p=1e300,0,0", "run.tend=1"],
     "the timelike orbit is not finite at t = 0"),
    ("orbit", "planewave", ["run.tend=1e308"],
     "k = 1, w = inf: 2 k w is not finite in the sin^2 profile"),
    ("certify", "planewave", ["background.amp=1e308"],
     "the partials of Q6 are not finite at sampled state 0"),
])
def test_overflow_exits_three_with_its_error_line_alone(tmp_path, capsys, command,
                                                       preset, sets, err):
    argv = _args(command, preset, tmp_path, *[a for s in sets for a in ("--set", s)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"runtime domain error: {err}\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_main_calls_in_one_process_parse_their_own_flags(tmp_path, capsys):
    # main builds its parser once; each call's --set list is its own
    runs = {"a": ["--set", "run.samples=3"], "b": ["--set", "run.samples=5"], "c": []}
    for name, sets in runs.items():
        assert main(_args("orbit", "planewave", tmp_path / name, *sets)) == 0
    rows = {name: len((tmp_path / name / "orbit.csv").read_text().splitlines()) - 1
            for name in runs}
    assert rows["a"] == 3 and rows["b"] == 5
    assert rows["c"] == cli._parse(cli.preset_config("planewave"))["run"]["samples"]
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--preset", "planewave", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(_args("orbit", "planewave", tmp_path / "d")) == 0
    assert cli.build_parser() is cli.build_parser()


def test_unknown_preset_exits_two(tmp_path, capsys):
    assert main(_args("simulate", "fig3", tmp_path)) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_bad_override_grammar_exits_two(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path, "--set", "nodot")) == 2


def test_bad_numeric_value_exits_two(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "run.tend=fast")) == 2


def test_boolean_typo_exits_two(tmp_path, capsys):
    # a misspelt boolean must not silently integrate the unswitched field
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "background.switched=ture")) == 2
    assert "not a boolean" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("raw, value", [("1", True), (" TRUE ", True),
                                        ("Yes", True), ("on", True),
                                        ("0", False), ("False", False),
                                        (" no", False), ("OFF", False)])
def test_boolean_spellings(raw, value):
    cfg = _parse({"run": {"nonrelativistic": raw}})
    assert _get(cfg, "run", "nonrelativistic") is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "y", "none"])
def test_boolean_typos_rejected(raw):
    with pytest.raises(ConfigError):
        _get(_parse({"run": {"nonrelativistic": raw}}), "run", "nonrelativistic")


_COVARIANT_DILATION = ["run.form=covariant", "run.tstart=0", "run.tend=3",
                       "initial.x4=2,0.1,-0.2,0.05"]


@pytest.mark.parametrize("command, preset, overrides", [
    ("certify", "spacelike", ["certify.set=none"]),
    ("certify", "spacelike", ["certify.form=covariant"]),
    ("simulate", "dilation", ["run.tend=1"]),
    ("simulate", "dilation", ["run.method=rk4"]),
    ("simulate", "dilation", ["initial.p=nan,0,0"]),
    ("simulate", "dilation", ["run.method=euler"]),
    # rk45 is the only method, with or without a step
    ("simulate", "fig1", ["run.method=rk4", "run.step=0.01"]),
    # the state's own time (initial.t, initial.xplus) must open the span
    ("simulate", "dilation", ["run.tstart=1"]),
    ("simulate", "fig2", ["run.tstart=1.2"]),
    # a quantity set evaluated on a form it is not written for
    ("certify", "conformal", ["certify.form=front"]),
    ("certify", "planewave", ["certify.form=instant"]),
    ("certify", "spacelike", ["certify.form=extended"]),
    # a dilation field without coupling (csq must be positive)
    ("certify", "dilation", ["background.csq=0"]),
    # non-finite background numbers
    ("simulate", "dilation", ["background.csq=inf"]),
    ("simulate", "fig1", ["background.m0sq=nan"]),
    ("simulate", "fig2", ["background.k=inf"]),
    ("certify", "spacelike", ["background.m0sq=inf"]),
    ("kg", "conformal", ["background.L=nan"]),
    # empty sizes, zero steps and backward windows
    ("kg", "planewave", ["kg.points=0"]),
    ("certify", "spacelike", ["certify.count=0"]),
    ("kg", "conformal", ["kg.h=0"]),
    ("orbit", "fig1", ["run.tend=-1"]),
    # a covariant start velocity off the unit shell
    ("simulate", "dilation", _COVARIANT_DILATION + ["initial.xdot=1.0198039027185568,0.1,0.1,-0.1"]),
    # extras written for the instant layout on another form
    ("simulate", "dilation", _COVARIANT_DILATION + ["initial.xdot=1,0,0,0"]),
    ("simulate", "fig2", ["monitor.extra=BLz"]),
    # fewer than two samples
    ("orbit", "fig1", ["run.samples=0"]),
    ("orbit", "fig1", ["run.samples=-3"]),
    ("simulate", "dilation", ["run.samples=0"]),
    ("simulate", "dilation", ["run.samples=-3"]),
    ("simulate", "dilation", ["run.samples=1"]),
    # counts that are not integers
    ("orbit", "fig1", ["run.samples=2.9"]),
    ("simulate", "fig1", ["sweep.count=2.5"]),
    ("certify", "spacelike", ["certify.count=23.5"]),
    ("kg", "planewave", ["kg.points=2.5"]),
    # integration tolerances at or below zero
    ("simulate", "dilation", ["run.atol=-1"]),
    ("simulate", "dilation", ["run.rtol=-1"]),
    ("simulate", "fig1", ["run.rtol=0"]),
    # an orbit sampled from another time than its initial state's own
    ("orbit", "fig1", ["run.tstart=-1"]),
    ("orbit", "fig2", ["run.tstart=0.5"]),
    # an x- wave where m^2 of x+ alone is needed
    ("simulate", "planewave", ["background.argument=xminus"]),
    ("certify", "planewave", ["background.argument=xminus"]),
    ("kg", "planewave", ["background.argument=xminus"]),
    ("orbit", "planewave", ["background.argument=xminus"]),
    # a closed-form orbit started off its entry surface, on B = 0 or from a
    # form it is not written for; a mode with a vanishing eigenvalue
    ("orbit", "fig1", ["initial.x=0,0,0.5"]),
    ("orbit", "fig1", ["initial.t=1", "run.tstart=1"]),
    ("orbit", "fig1", ["background.B=0"]),
    ("orbit", "fig1", ["run.form=front", "initial.xplus=0", "initial.pminus=0.5"]),
    ("orbit", "fig2", ["run.form=instant", "initial.p=0,0,0.1", "run.tstart=0"]),
    ("kg", "planewave", ["kg.qminus=0"]),
    ("kg", "conformal", ["kg.q3=0"]),
    # a kg mode, quantity set or extra on a family that lacks the constant
    # or the profile it reads from the background
    ("kg", "kgcontrol", ["kg.solution=dilation"]),
    ("kg", "dilation", ["background.family=constant"]),
    ("kg", "kgcontrol", ["kg.solution=conformal"]),
    ("certify", "dilation", ["certify.set=spacelike"]),
    ("simulate", "dilation", ["monitor.extra=BLz"]),
    # a fig. 2 orbit started before the switch-on at x+ = L
    ("orbit", "fig2", ["initial.xplus=0.5", "run.tstart=0.5", "run.tend=1.5"]),
    # tolerance flags, given as (flag, value), that are not finite and above 0
    ("simulate", "dilation", [("--tol-rel", "nan")]),
    ("simulate", "dilation", [("--tol-rel", "-1")]),
    ("certify", "spacelike", [("--tol-rel", "inf")]),
    ("certify", "spacelike", [("--tol-abs", "nan")]),
    ("certify", "spacelike", [("--tol-abs", "0")]),
    # a switch position within 1e-12 of the singular surface x+ = 0
    ("simulate", "fig2", ["background.L=1e-13"]),
    # a kg step whose square, the stencils' divisor, underflows to 0
    ("kg", "planewave", ["kg.h=1e-200"]),
    ("kg", "conformal", ["kg.h=1e-200"]),
    ("kg", "dilation", ["kg.h=1e-200"]),
])
def test_config_mistake_exits_two_before_any_work(tmp_path, capsys, command,
                                                   preset, overrides):
    sets = [a for o in overrides
            for a in (o if isinstance(o, tuple) else ("--set", o))]
    assert main(_args(command, preset, tmp_path, *sets)) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert list(tmp_path.iterdir()) == []


def _typed_keys():
    """(section, key) of every schema key whose parser refuses free text."""
    return [(sec, key) for sec, keys in cli._SCHEMA.items()
            for key, (parse, _) in keys.items()
            if parse not in (str, cli._names) and key != "override_<i>"]


def _reader_free(sec, key):
    """A (command, preset) whose command never reads [sec] key."""
    if sec == "certify":
        return "simulate", "dilation"
    if (sec, key) == ("background", "csq"):
        return "certify", "spacelike"      # linear_z reads no csq
    return "certify", "dilation"           # reads only certify and csq


@pytest.mark.parametrize("sec, key", _typed_keys(),
                         ids=[f"{s}.{k}" for s, k in _typed_keys()])
def test_every_typed_key_is_checked_before_any_work(tmp_path, capsys, sec, key):
    command, preset = _reader_free(sec, key)
    out = tmp_path / "out"
    assert main(_args(command, preset, out, "--set", f"{sec}.{key}=abc")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"[{sec}] {key}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, preset, overrides", [
    ("simulate", "dilation", ["run.rtoll=1e-3"]),
    ("simulate", "dilation", ["runn.tend=1"]),
    ("kg", "dilation", ["kg.csq=2"]),
    ("simulate", "dilation", ["run.method=rk45"]),
    ("simulate", "fig1", ["sweep.override_0=initial.pp=0,0,-0.3"]),
], ids=["typo-key", "typo-section", "kg-csq", "run-method", "sweep-override"])
def test_unknown_key_exits_two_and_writes_nothing(tmp_path, capsys, command,
                                                  preset, overrides):
    sets = [a for o in overrides for a in ("--set", o)]
    out = tmp_path / "out"
    assert main(_args(command, preset, out, *sets)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown ")
    assert not out.exists()


@pytest.mark.parametrize("override, err", [
    ("sweep.override_0=initial.pp=0",
     "unknown key [initial] pp (in [sweep] override_0)"),
    ("sweep.override_1=nodot",
     "'nodot' is not section.key=value (in [sweep] override_1)"),
    ("sweep.override_2=run.tend=abc",
     "[run] tend: 'abc' is not a number (in [sweep] override_2)"),
    ("nodot", "'nodot' is not section.key=value"),
], ids=["key", "grammar", "value", "set-grammar"])
def test_override_errors_name_their_source(tmp_path, capsys, override, err):
    out = tmp_path / "out"
    assert main(_args("simulate", "fig1", out, "--set", override)) == 2
    assert capsys.readouterr().err == f"configuration error: {err}\n"
    assert not out.exists()


def _tabulated(path):
    """--set arguments that read the planewave preset's profile from a table."""
    return "--set", "background.profile=tabulated", "--set", f"background.path={path}"


@pytest.mark.parametrize("table, what", [
    (None, "not found"), ("", "Is a directory"),
    ("1\n2\n3\n", "shape (3, 1) has no (w, m^2)"), ("\n", "shape (0, 1) has no (w, m^2)"),
], ids=["missing", "directory", "one-column", "empty"])
def test_unreadable_background_table_exits_two(tmp_path, capsys, table, what):
    path = tmp_path / "table"
    if table == "":
        path.mkdir()
    elif table is not None:
        path.write_text(table)
    out = tmp_path / "out"
    assert main(_args("orbit", "planewave", out, *_tabulated(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: bad background: ")
    assert repr(str(path)) in err and what in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_tabulated_background_from_the_config(tmp_path):
    # the preset's sin2 profile sampled over the orbit's x+ in [0, 10]: the
    # spline's orbit follows the closed form's
    w = np.linspace(-1.0, 11.0, 241)
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack([w, 1.0 + 0.5 * np.sin(w) ** 2]), delimiter=",")
    assert main(_args("orbit", "planewave", tmp_path / "tab", *_tabulated(path))) == 0
    assert main(_args("orbit", "planewave", tmp_path / "sin2")) == 0
    tab, sin2 = (np.loadtxt(tmp_path / d / "orbit.csv", delimiter=",", skiprows=1)
                 for d in ("tab", "sin2"))
    assert tab.shape == sin2.shape and np.allclose(tab, sin2, rtol=1e-6, atol=1e-6)


def test_planewave_mode_still_runs_on_a_constant_mass(tmp_path):
    # a constant m^2 is a function of x+ alone: it has an x+ antiderivative
    assert main(_args("kg", "kgcontrol", tmp_path,
                      "--set", "kg.solution=planewave")) == 0


def test_ini_unknown_key_exits_two(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nrtoll = 1e-3\n")
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "dilation", "--config", str(ini),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("configuration error: unknown key "
                                       "[run] rtoll\n")
    assert not out.exists()


@pytest.mark.parametrize("preset", sorted(cli._PRESETS))
def test_presets_parse_with_no_unknown_key(preset):
    cfg = cli.preset_config(preset)
    typed = cli._parse(cfg)
    # every written section and key survives; the schema's defaults fill
    # the rest, and no other section appears
    assert typed.keys() == cfg.keys() | cli._parse({}).keys()
    assert all(kv.keys() <= typed[sec].keys() for sec, kv in cfg.items())
    assert len(cli._sweep_configs(cfg)) == int(cfg.get("sweep", {}).get("count", 1))


@pytest.mark.parametrize("preset", sorted(cli._PRESETS))
def test_preset_config_is_a_fresh_copy(preset):
    want = copy.deepcopy(cli._PRESETS[preset])
    cfg = cli.preset_config(preset)
    assert cfg == want
    for kv in cfg.values():
        kv.clear()
    cfg["kg"] = {"solution": "offshell"}
    assert cli.preset_config(preset) == want and cli._PRESETS[preset] == want


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err  # explains what is missing


def test_ini_config_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[background]\n"
        "family = linear_z\n"
        "B = 1.0\n"
        "m0sq = 1.0\n"
        "switched = true\n"
        "[run]\n"
        "form = instant\n"
        "tstart = 0\n"
        "tend = 4\n"
        "[initial]\n"
        "t = 0\n"
        "x = 0,0,0\n"
        "p = 0,0,-0.5\n"
        "[monitor]\n"
        "set = spacelike\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(ini), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 1
    assert summary["runs"][0]["max_drift"] <= 1e-8


def test_override_wins_over_preset(tmp_path):
    assert main(_args("simulate", "fig1", tmp_path,
                      "--set", "sweep.count=1", "--set", "run.tend=1.0")) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["runs"]) == 1


# (command, config) of a cheap run that reads each key below
_LINEAR_Z = {"family": "linear_z", "B": "1"}
_OMITTING = {
    "orbit-instant": ("orbit", {"background": _LINEAR_Z, "run": {"tend": "2"},
                                "initial": {"p": "0,0,-0.5"}}),
    "orbit-front": ("orbit", {"background": {"family": "plane_wave"},
                              "run": {"form": "front", "tend": "1"},
                              "initial": {"xplus": "0", "pminus": "0.5"}}),
    "orbit-extended": ("orbit", {"background": {"family": "plane_wave"},
                                 "run": {"form": "extended", "tend": "1"},
                                 "initial": {"xplus": "0", "pminus": "0.5"}}),
    "simulate": ("simulate", {"background": _LINEAR_Z,
                              "run": {"tend": "0.5", "samples": "5"},
                              "initial": {"p": "0,0,-0.5"}}),
    "certify": ("certify", {"background": _LINEAR_Z | {"switched": "false"},
                            "certify": {"set": "spacelike"}}),
    **{f"kg-{sol}": ("kg", {"background": {"family": family},
                            "kg": {"solution": sol, "points": "5"}})
       for sol, family in [("planewave", "plane_wave"),
                           ("conformal", "special_conformal_gaussian"),
                           ("dilation", "dilation")]},
    "kg-offshell": ("kg", {"background": {"family": "constant"},
                           "kg": {"solution": "offshell"}}),
}
# (run, section.key, the README's default of the key): every config default,
# the [run] integrator keys' included
_DEFAULTED_KEYS = [
    *[("orbit-instant", k, v) for k, v in [
        ("run.form", "instant"), ("run.tstart", "0"), ("run.samples", "400"),
        ("initial.t", "0"), ("initial.x", "0,0,0")]],
    *[("orbit-front", k, "0,0") for k in ("initial.xperp", "initial.pperp")],
    ("orbit-front", "initial.xminus", "0"), ("orbit-extended", "initial.pplus", "shell"),
    *[("simulate", k, v) for k, v in [
        ("run.rtol", "1e-10"), ("run.atol", "1e-10"), ("run.nonrelativistic", "false"),
        ("monitor.set", "none"), ("monitor.extra", "")]],
    *[("certify", k, v) for k, v in [
        ("certify.form", "instant"), ("certify.count", "24"), ("certify.expect", "")]],
    ("kg-planewave", "kg.qperp", "0.3,-0.2"), ("kg-planewave", "kg.qminus", "0.7"),
    ("kg-conformal", "kg.qperp", "0.25,-0.15"), ("kg-conformal", "kg.q3", "0.8"),
    *[("kg-dilation", k, v) for k, v in [
        ("kg.qperp", "0.4,0.1"), ("kg.q3", "0.6"), ("kg.c1", "1"), ("kg.c2", "0")]],
    *[("kg-offshell", k, v) for k, v in [
        ("kg.p", "1.3,0.2,-0.1,0.3"), ("kg.points", "60"), ("kg.h", "1e-3")]],
]


@pytest.mark.parametrize("run, key, default", _DEFAULTED_KEYS,
                         ids=[f"{key}@{run}" for run, key, _ in _DEFAULTED_KEYS])
def test_omitted_key_runs_as_its_documented_default(tmp_path, capsys, run, key,
                                                    default):
    command, cfg = _OMITTING[run]
    sec, name = key.split(".")
    assert name not in cfg.get(sec, {})
    ini = tmp_path / "run.ini"
    ini.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                           for s, kv in cfg.items()))
    results = []
    for i, sets in enumerate([[], ["--set", f"{key}={default}"]]):
        out = tmp_path / f"out{i}"
        code = main([command, "--config", str(ini), "--out-dir", str(out), *sets])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((code, capsys.readouterr(), files))
    assert results[0][0] in (0, 1) and results[0][2]
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# commands compute; main writes, prints and exits
# ---------------------------------------------------------------------------

def test_sweep_that_raises_writes_no_file(tmp_path, capsys):
    # run 1 raises after run 0 has its trajectory: no file of either is written
    out = tmp_path / "out"
    assert main(_args("simulate", "fig2", out, "--set", "sweep.count=2", "--set",
                      "sweep.override_1=run.tstart=1e110;initial.xplus=1e110;"
                      "run.tend=2e110")) == 3
    assert capsys.readouterr().err.startswith("runtime domain error: ")
    assert list(out.iterdir()) == []


_DIRECT = {
    "simulate": lambda: cli.cmd_simulate(
        cli._sweep_configs(cli.preset_config("fig1")), "csv", 1e-8, 7),
    "certify": lambda: cli.cmd_certify(
        cli._parse(cli.preset_config("spacelike")), 1e-9, 1e-8, 7),
    "kg": lambda: cli.cmd_kg(cli._parse(cli.preset_config("kgcontrol")), 7),
    "orbit": lambda: cli.cmd_orbit(cli._parse(cli.preset_config("fig1")), "json"),
}


@pytest.mark.parametrize("command", sorted(_DIRECT))
def test_command_returns_files_lines_and_verdict(tmp_path, monkeypatch, capsys,
                                                 command):
    monkeypatch.chdir(tmp_path)
    files, lines, ok = _DIRECT[command]()
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    # each file is (name, writer, *data), written as writer(path, *data)
    assert files and all(isinstance(name, str) and callable(write)
                         for name, write, *_ in files)
    assert lines and all(isinstance(line, str) for line in lines)
    assert ok is (command != "kg")          # kgcontrol is the failing control


@pytest.mark.parametrize("command, preset, fmt", [
    ("simulate", "fig1", "csv"), ("simulate", "planewave", "json"),
    ("certify", "truncated", "csv"), ("kg", "kgcontrol", "csv"),
    ("orbit", "fig1", "csv"), ("orbit", "fig1", "json")])
def test_main_writes_exactly_the_returned_files(tmp_path, monkeypatch, capsys,
                                                command, preset, fmt):
    returned = []
    parse, cmd, options = cli._COMMANDS[command]

    def record(*args):
        result = cmd(*args)
        returned.append(result)
        return result

    monkeypatch.setitem(cli._COMMANDS, command, (parse, record, options))
    code = main(_args(command, preset, tmp_path, "--format", fmt))
    (files, lines, ok), = returned
    assert code == (0 if ok else 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f[0] for f in files)
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("data", [
    b"family = constant\n",                                  # no section header
    b"[background]\nfamily = constant\nfamily = dilation\n",  # duplicate key
    b"[background]\nfamily = 100%\n",                        # bad interpolation
    b"[background]\nfamily = \xff\xfe\n",                    # not UTF-8
], ids=["no-header", "duplicate", "interpolation", "not-utf8"])
def test_malformed_config_file_exits_two(tmp_path, capsys, data):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(data)
    out = tmp_path / "out"
    assert main(["orbit", "--preset", "fig1", "--config", str(ini),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config file {ini}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_unusable_out_dir_exits_two_before_any_work(tmp_path, monkeypatch, capsys,
                                                    under):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / under if under else blocker

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow was integrated")

    monkeypatch.setattr(cli, "evolve", no_flow)
    assert main(_args("simulate", "dilation", out)) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: --out-dir {out}: ")
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command, preset", [
    ("simulate", "dilation"), ("certify", "spacelike"), ("kg", "planewave"),
    ("orbit", "fig1")])
def test_negative_seed_exits_two(tmp_path, capsys, command, preset):
    out = tmp_path / "out"
    assert main(_args(command, preset, out, "--seed", "-1")) == 2
    assert capsys.readouterr().err == "configuration error: --seed: -1 is negative\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

def _python(*args, cwd, timeout=300):
    """A fresh interpreter that imports confdyn from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(confdyn.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=timeout)


# runs each group of (command, preset, --set list, exit code) in argv[1] and
# then prints the scipy modules loaded so far
_NO_SCIPY = """
import json, sys
import confdyn, confdyn.cli
for group in json.loads(sys.argv[1]):
    for command, preset, sets, rc in group:
        argv = [command, "--preset", preset, "--out-dir", "out"]
        argv += [a for s in sets for a in ("--set", s)]
        assert confdyn.cli.main(argv) == rc, (command, preset)
    print("scipy:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_after(tmp_path, *groups):
    proc = _python("-c", _NO_SCIPY, json.dumps(groups), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return [line[7:] for line in proc.stdout.splitlines()
            if line.startswith("scipy: ")]


def test_simulate_and_certify_load_no_scipy(tmp_path):
    runs = [("simulate", p, [], 0) for p in ("fig1", "fig2", "planewave", "dilation")]
    runs.append(("simulate", "dilation", [
        "run.form=covariant", "run.tstart=0", "run.tend=3",
        "initial.x4=2,0.1,-0.2,0.05", "monitor.extra=",
        f"initial.xdot={math.sqrt(1.03):.17g},0.1,0.1,-0.1"], 0))
    runs += [("certify", p, [], 0) for p in
             ("spacelike", "conformal", "truncated", "planewave", "dilation")]
    assert _scipy_after(tmp_path, runs) == ["[]"]


def test_kg_and_orbit_without_quadrature_load_no_scipy(tmp_path):
    # the Gaussian profile's integral is an error function: the conformal
    # orbit and mode take no quadrature; the dilation mode's Bessel pair is a
    # power series
    runs = [("orbit", "fig1", [], 0), ("orbit", "planewave", [], 0),
            ("orbit", "fig2", [], 0), ("kg", "planewave", [], 0),
            ("kg", "kgcontrol", [], 1), ("kg", "conformal", [], 0),
            ("kg", "dilation", ["kg.points=2"], 0)]
    # the constant-family orbit integrates 1/H(t) by ode.quad: the listing sees
    # scipy load
    control = [("orbit", "kgcontrol", ["run.tend=2", "initial.p=0.1,0.2,-0.3",
                                       "run.samples=5"], 0)]
    after = _scipy_after(tmp_path, runs, control)
    assert after[0] == "[]" and "'scipy.integrate'" in after[1]


def test_run_as_module_writes_nothing_to_stderr(tmp_path):
    proc = _python("-m", "confdyn.cli", "simulate", "--preset", "dilation",
                   "--out-dir", str(tmp_path), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_unresolvable_flow_exits_three_and_writes_nothing(tmp_path):
    # k = 1e200 puts the sin^2 wave's scale below any step the span can
    # resolve: RK45's own floor, 10 ulp(t), shrinks with t near t = 0, so
    # the flow would creep on for ever; the stepping loop refuses a step
    # under EPS times the span that is no longer than the step before it
    proc = _python("-m", "confdyn.cli", "simulate", "--preset", "planewave",
                   "--set", "background.k=1e200", "--out-dir", "out",
                   cwd=tmp_path, timeout=30)
    assert proc.returncode == 3
    assert proc.stderr.startswith("runtime domain error: integration failed: "
                                  "the flow stalls at steps of ")
    assert "below the span's float resolution 2.22e-15" in proc.stderr
    assert list((tmp_path / "out").iterdir()) == []


def test_flat_gaussian_orbit_writes_nothing_to_stderr(tmp_path):
    # k = 0 makes the weight integral diverge: no asymptote and no warning
    proc = _python("-m", "confdyn.cli", "orbit", "--preset", "fig2", "--set",
                   "background.k=0", "--format", "json", "--out-dir", str(tmp_path),
                   cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads((tmp_path / "orbit.json").read_text(), parse_constant=_refuse)
    assert doc["constants"]["xplus_asymptote"] is None


_LAZY = """
import sys
import warnings
import confdyn
lazy = ("analytic", "cli", "kgverify")
print(sorted(m for m in sys.modules if m.startswith("confdyn.") and m[8:] in lazy))
print([getattr(confdyn, name).__name__ for name in lazy])
from confdyn import *
print([globals()[name].__name__ for name in lazy])
try:
    confdyn.no_such_module
except AttributeError as exc:
    print(exc)
"""


def test_package_serves_lazy_modules_on_first_access(tmp_path):
    proc = _python("-c", _LAZY, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = "['confdyn.analytic', 'confdyn.cli', 'confdyn.kgverify']"
    assert proc.stdout.splitlines() == [
        "[]", names, names,
        "module 'confdyn' has no attribute 'no_such_module'"]


def test_fig2_literals_are_the_erf_window():
    from scipy.special import erf
    from oracles import pminus_for_kappa
    for kappa, pminus, tend in cli._FIG2_RUNS:
        assert pminus == f"{pminus_for_kappa(kappa):.17g}"
        assert tend == f"{1.0 / (1.0 - kappa * erf(3.75)):.17g}"
    overrides = cli.preset_config("fig2")["sweep"]
    assert [overrides[f"override_{i}"] for i in range(4)] == [
        "initial.pminus=0.29090967246237009;run.tend=1.4285713589424993",
        "initial.pminus=0.37556277223247125;run.tend=1.9999997725455128",
        "initial.pminus=0.44437186481787383;run.tend=3.3333324487882381",
        "initial.pminus=0.50387033311804574;run.tend=9.9999897645573821"]


# ---------------------------------------------------------------------------
# tools/output_digests.py and tools/settable_values.py
# ---------------------------------------------------------------------------

def test_output_digests_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    proc = _python(str(script), "--preset", "planewave", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:4] for line in lines] == [
        [command, "planewave", fmt, "exit=0"]
        for command in ("simulate", "certify", "kg", "orbit")
        for fmt in ("csv", "json")] + [["certify", "planewave", "count=96", "exit=0"],
                                        ["simulate", "planewave",
                                         "initial.pminus=1e200;--format=json", "exit=1"],
                                        ["simulate", "planewave", "initial.pminus=1e200",
                                         "exit=1"]]
    # stderr names the BLAS core and numpy's dispatch the bytes came from
    (machine,) = proc.stderr.splitlines()
    targets = re.fullmatch(r"machine: openblas=\S+ numpy=(\S*)", machine).group(1)
    from numpy._core import _multiarray_umath as umath
    assert targets == ",".join(t for t in umath.__cpu_dispatch__
                               if umath.__cpu_features__[t])
    assert list(tmp_path.iterdir()) == []         # runs write into temp dirs
    # stderr's error line, empty on exit 0
    empty = hashlib.sha256(b"").hexdigest()
    assert [line[5] for line in lines] == [f"stderr={empty}"] * len(lines)
    # the kg csv line digests what a direct run at the same seed writes
    out = tmp_path / "kg"
    assert main(_args("kg", "planewave", out, "--seed", "7")) == 0
    want = [f"{p.name}={hashlib.sha256(p.read_bytes()).hexdigest()}"
            for p in sorted(out.iterdir())]
    assert [w.split("=")[0] for w in want] == ["convergence.csv", "kg_summary.json"]
    assert lines[4][6:] == want
    # an error run digests the line main prints to stderr, and only that
    spec = importlib.util.spec_from_file_location("output_digests", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.error_line("warn\nruntime domain error: x+ must stay positive\n") \
        == "runtime domain error: x+ must stay positive"
    assert tool.error_line("RuntimeWarning: overflow\n") == ""
    assert ("orbit", "fig2", "run.tend=50", ["--set", "run.tend=50"]) \
        in tool.runs(cli, ["fig2"])
    # a run with settings follows every preset's own runs
    assert tool.runs(cli, ["kgcontrol"])[-1] == (
        "kg", "kgcontrol", "background.family=linear_z;background.B=1",
        ["--set", "background.family=linear_z", "--set", "background.B=1"])


def test_output_digests_against_itself(tmp_path, capsys, monkeypatch):
    # a checkout against itself differs in no line; the comparison pairs the
    # numbers of two outputs in order and sets the text around them apart
    script = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = str(Path(confdyn.__file__).parents[1])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))    # main puts src first
    assert tool.main(["--src", src, "--preset", "spacelike", "--against", src]) == 0
    assert capsys.readouterr().out == "differing lines: 0 of 9\n"
    assert list(tmp_path.iterdir()) == []
    # the relative move is that of the largest absolute move's own pair,
    # not the 0.5 of the pair near zero
    assert tool.compare_text('{"Q1": [1.0, -0.0, 4e-08]}', '{"Q1": [1.5, 0.0, 2e-08]}') \
        == "max_abs=0.5 rel=0.333 text=equal"
    assert tool.compare_text("x,p3\n1,2\n", "x,p2\n1,2\n") \
        == "max_abs=0 rel=0 text=differs"
    # a NaN against a number is the largest move; two NaNs do not move
    assert tool.compare_text("[NaN, 1.0, 2.0]", "[NaN, NaN, 2.5]") \
        == "max_abs=inf rel=inf text=equal"
    assert tool.compare_text("rank 3", "rank 3 of 5") == "numbers=1/2 text=differs"


# every run of tools/output_digests.py, digested in a process on the
# OpenBLAS core and numpy dispatch of the environment: the tool's machine
# line and its lines, each certify line that wrote a certification.json
# followed by that file without independence.singular_values
_DIGEST_CHILD = """
import json
from confdyn import cli
from output_digests import digest_run, machine_line, runs
print(machine_line())
for run in runs(cli, sorted(cli._PRESETS)):
    line, files = digest_run(cli.main, *run)
    print(line)
    if "certification.json" in files:
        doc = json.loads(files["certification.json"])
        del doc["independence"]["singular_values"]
        print("masked", json.dumps(doc, sort_keys=True))
"""
_MACHINES = {"default": {},
             "haswell-avx2": {"OPENBLAS_CORETYPE": "Haswell",
                              "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
             "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"}}
# the record of tools/output_digests.py's lines (see its docstring)
_RECORD = Path(__file__).resolve().parent / "output_digests.txt"


def _versions() -> str:
    return "versions: " + " ".join(
        f"{name}={version}" for name, version in (
            ("python", platform.python_version()),
            ("numpy", importlib.metadata.version("numpy")),
            ("scipy", importlib.metadata.version("scipy"))))


def _certify(line: str) -> bool:
    return line.startswith("certify ")


def test_outputs_keep_their_bits_on_other_blas_kernels_and_dispatch(tmp_path):
    # every output but certify's singular values takes no BLAS call and no
    # SIMD-dispatched transcendental, so on the AVX2 machine's BLAS kernel
    # and numpy dispatch, and on the Nehalem kernel, each has the committed
    # bits; on the recorded machine all of them do
    from numpy._core import _multiarray_umath as umath
    versions, recorded, *want = _RECORD.read_text().splitlines()
    assert versions == _versions(), (
        f"{_RECORD.name} holds the digests of {versions[10:]}; this is "
        f"{_versions()[10:]}")
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  root / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    features = umath.__cpu_features__
    if tool.blas_core() is None or not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("needs numpy's bundled scipy-openblas on a CPU with AVX2 and FMA3")
    path = os.pathsep.join(str(root / d) for d in ("src", "tests", "tools"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    procs = {name: subprocess.Popen([sys.executable, "-B", "-c", _DIGEST_CHILD],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, cwd=tmp_path,
                                    env=dict(env, PYTHONPATH=path, **extra))
             for name, extra in _MACHINES.items()}
    outs = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs[name] = out.splitlines()
    assert len(want) == 85
    kept = [line for line in want if not _certify(line)]
    assert len(kept) == 63 and {line.split()[0] for line in kept} \
        == {"simulate", "orbit", "kg"}
    masked = {}
    for name, (machine, *out) in outs.items():
        lines = [line for line in out if not line.startswith("masked ")]
        masked[name] = [line for line in out if line.startswith("masked ")]
        assert len(lines) == 85 and len(masked[name]) == 16
        if machine == recorded:
            assert lines == want, name
        # the 63 simulate, orbit and kg lines, whole
        assert [line for line in lines if not _certify(line)] == kept, name
        # certify's exit code, stdout and stderr error line
        assert [line.split()[:6] for line in lines if _certify(line)] \
            == [line.split()[:6] for line in want if _certify(line)], name
    assert outs["default"][0] == tool.machine_line()
    assert masked["haswell-avx2"] == masked["default"]
    assert masked["nehalem"] == masked["default"]


def test_settable_values_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "tools" / "settable_values.py"
    proc = _python(str(script), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    assert list(counts) == ["defaults", "fields", "schema", "config", "total"]
    counts = {k: int(v) for k, v in counts.items()}
    assert min(counts.values()) > 0
    assert counts["total"] == sum(counts[k] for k in ("defaults", "fields", "schema",
                                                      "config"))
    assert counts["schema"] == sum(len(keys) for keys in cli._SCHEMA.values())
    # the schema's defaults but those read from EvolveOptions' fields, and
    # the kg mode constants (each solution's entries but its box and mode)
    assert counts["config"] == (
        sum(d is not cli.REQUIRED for keys in cli._SCHEMA.values() for _, d in keys.values())
        - len(cli._OPTIONS) + sum(len(sol) - 2 for sol in cli._KG_SOLUTIONS.values()))
    # ceilings: a new settable value has to raise them in the same change;
    # the first holds the three kinds counted before config defaults were
    assert counts["total"] - counts["config"] <= 126
    assert counts["total"] <= 150


def test_paired_jobs_smoke(tmp_path):
    # both sides on one checkout: every pair runs the same job on the same
    # code, so the outputs agree and every kind of the stream is reported
    root = Path(__file__).resolve().parents[1]
    src = str(Path(confdyn.__file__).parents[1])
    proc = _python(str(root / "tools" / "paired_jobs.py"), "--a", src, "--b", src,
                   "--workload", "flow", "--seed", "1", "--jobs", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "paired_jobs:", "total", "p50", "p90", "b/a", "failed"]
    assert lines[4].startswith("b/a per kind: fig1 ") and "(n=2), fig2 " in lines[4]
    assert lines[5].endswith("outputs differ in 0 of 3 jobs")
    assert list(tmp_path.iterdir()) == []
