"""The batched drift monitor against a per-sample reference loop, and the
trajectory writer against a per-value reference writer."""

import numpy as np
import pytest

from confdyn import backgrounds, cli, conformal
from confdyn.dynamics import Trajectory, evolve, monitor, quantity_values
from confdyn.errors import ConfigError, RealityError, SingularityError
from oracles import points, with_split_squares

# (preset, overrides): every monitor set and form the command line reaches
_COVARIANT = ["run.form=covariant", "run.tstart=0", "run.tend=3",
              "initial.x4=2,0.1,-0.2,0.15",
              f"initial.xdot={float(np.sqrt(1.06))!r},0.1,-0.2,0.1", "monitor.extra="]
CASES = {
    "spacelike+p3+BLz/instant": ("fig1", []),
    "conformal_front/front": ("fig2", []),
    "planewave/extended": ("planewave", []),
    "dilation+Lz/instant": ("dilation", []),
    "dilation/covariant": ("dilation", _COVARIANT),
    "poincare/instant": ("fig1", ["monitor.set=poincare", "monitor.extra="]),
    "poincare/front": ("fig2", ["monitor.set=poincare"]),
    "truncated/instant": ("fig1", ["monitor.set=truncated", "monitor.extra="]),
    "conformal/extended": ("planewave", [
        "background.family=special_conformal_gaussian", "initial.xplus=1",
        "initial.pminus=0.4", "initial.pperp=0.1,-0.05", "run.tend=1",
        "monitor.set=conformal"]),
}


def _cli_run(preset, overrides, samples=60):
    cfg = cli.apply_overrides(cli.preset_config(preset), overrides)
    bg, state, span, opts, quantities, _ = cli._setup_run(cli._sweep_configs(cfg)[0])
    opts.samples = samples
    return evolve(state, bg, span, opts), quantities, bg


def _head(traj, n):
    return Trajectory(traj.form, traj.times[:n], traj.q[:n], traj.p[:n],
                      traj.background)


def _is_translation(q):
    g = q.generator
    return (g is not None and not g.omega.any() and g.lam == 0.0
            and not g.c.any())


@pytest.mark.parametrize("samples", [None, 4], ids=["full", "4-samples"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_monitor_matches_per_sample_reference(case, samples):
    traj, quantities, bg = _cli_run(*CASES[case])
    if samples is not None:
        # a batch of exactly 4 points would broadcast a (4,) constant vector
        # along the point axis without any shape error
        traj = _head(traj, samples)
    values, drifts = monitor(traj, quantities, bg)
    assert list(values) == [q.label for q in quantities]
    states = points(traj.batch_state())
    for q in quantities:
        ref = np.array([q(st, bg) for st in states])
        got = values[q.label]
        assert got.shape == ref.shape == (len(traj),)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.array_equal(got, ref), q.label
        if _is_translation(q):
            assert got.tobytes() == ref.tobytes(), q.label
        ref_drift = np.max(np.abs(ref - ref[0])) / max(1.0, abs(ref[0]))
        assert abs(drifts[q.label] - ref_drift) <= 2e-15 * scale.max() / scale[0]


# every named quantity set on each form it is written for, and every
# preset's field (truncated's is spacelike's)
_ANY_FORM_SETS = ["conformal_front", "dilation", "poincare", "truncated"]
_SETS = {"instant": ["spacelike", *_ANY_FORM_SETS], "front": _ANY_FORM_SETS,
         "extended": ["planewave", "conformal", *_ANY_FORM_SETS]}
_FIELD_PRESETS = ["fig1", "fig2", "planewave", "dilation", "spacelike", "conformal",
                  "kgcontrol"]


@pytest.mark.parametrize("form", ["instant", "front", "extended"])
def test_batch_values_keep_per_state_bits(form):
    # a front or extended batch takes its p-, p1 and p2 where numpy's array
    # square rounds apart from a float's **: the on-shell p+ (a front
    # state's four-momentum, K) and Q7 square them
    rng = np.random.default_rng(42)
    checked = set()
    for preset in _FIELD_PRESETS:
        bg = cli._background(cli._parse(cli.preset_config(preset)))
        try:
            states = cli._certify_states(bg, form, 8, rng)
        except ConfigError:   # the dilation field's light cone: instant form only
            continue
        if form != "instant":
            states = with_split_squares(states, rng)
        for name in _SETS[form]:
            try:
                quantities, _ = cli._quantity_set(name, [], bg, form)
            except ConfigError:   # spacelike needs linear_z, planewave an x+ wave
                continue
            batch = quantity_values(quantities, states, bg)
            per_state = np.array([quantity_values(quantities, st, bg)
                                  for st in points(states)]).T
            for q, got, ref in zip(quantities, batch, per_state):
                assert np.array_equal(got, ref), (preset, name, q.label)
            checked.add(name)
    assert checked == set(_SETS[form])


def _bad_point_trajectory(form, times, q, p, label):
    return Trajectory(form, np.asarray(times, float), np.asarray(q, float),
                      np.asarray(p, float), label)


@pytest.mark.parametrize("name", ["m2<0/instant", "xplus=0/front",
                                  "xplus=0/extended"])
def test_monitor_raises_like_the_scalar_call(name):
    if name == "m2<0/instant":
        # m^2 = 1 + z is negative at z = -2
        bg = backgrounds.linear_z(1.0, 1.0, switched=False)
        traj = _bad_point_trajectory(
            "instant", [0.0, 0.1, 0.2], [[0, 0, 0.5], [0, 0, -2.0], [0, 0, 0.3]],
            [[0, 0, -0.5]] * 3, bg.label)
        quantity, expected = conformal.spacelike_set(1.0)[4], RealityError
    elif name == "xplus=0/front":
        bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
        traj = _bad_point_trajectory(
            "front", [0.5, 0.0, 0.7], [[0, 0, 0]] * 3, [[0.4, 0, 0]] * 3, bg.label)
        quantity, expected = conformal.conformal_front_set()[2], SingularityError
    else:
        bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
        traj = _bad_point_trajectory(
            "extended", [0.0, 0.1, 0.2],
            [[0.5, 0, 0, 0], [0.0, 0, 0, 0], [0.7, 0, 0, 0]],
            [[1.0, 0.4, 0, 0]] * 3, bg.label)
        quantity, expected = conformal.extended_hamiltonian_quantity(), SingularityError
    with pytest.raises(expected) as scalar:
        quantity(points(traj.batch_state())[1], bg)
    with pytest.raises(scalar.type):
        monitor(traj, [quantity], bg)


def test_monitor_rejects_a_quantity_without_batch_values():
    traj, _, bg = _cli_run("dilation", [], samples=10)
    with pytest.raises(ValueError, match="shape"):
        monitor(traj, [conformal.ConservedQuantity("one", lambda state, b: 1.0)], bg)


def _reference_csv(traj):
    tname, qn, pn = traj.column_names()
    labels = list(traj.quantities)
    lines = [",".join([tname] + qn + pn + labels)]
    for i in range(len(traj)):
        row = ([traj.times[i]] + list(traj.q[i]) + list(traj.p[i])
               + [traj.quantities[l][i] for l in labels])
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_to_csv_matches_per_value_formatting(tmp_path):
    traj, quantities, bg = _cli_run("fig1", [])
    traj.quantities, traj.drifts = monitor(traj, quantities, bg)
    # values whose formatting has corner cases
    traj.quantities["p3"][:6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    assert path.read_text() == _reference_csv(traj)


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_monitor_evaluates_the_value_kernel_once_per_sample(preset, monkeypatch):
    # fig1: spacelike set with p3 and BLz (Q1, Q2, Q5 and p3 are generator
    # charges); fig2: conformal_front (four generator charges).  They share
    # one on-shell four-momentum, so one m^2 per sample
    traj, quantities, bg = _cli_run(preset, [], samples=50)
    assert sum(q.generator is not None for q in quantities) == 4
    calls = []
    kernel = bg._field
    monkeypatch.setattr(bg, "_field", lambda *c: calls.append(c) or kernel(*c))
    values, _ = monitor(traj, quantities, bg)
    assert len(calls) == len(traj)    # the grid plus the event crossings
    assert list(values) == [q.label for q in quantities]
