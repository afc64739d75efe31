"""Independence ranks, involution tables, and certification labels."""

import importlib.util
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from confdyn import backgrounds, cli, conformal, dynamics, errors, integrability
from confdyn.conformal import ConservedQuantity, generator_quantity
from confdyn.dynamics import extended_state_on_shell
from confdyn.integrability import (
    classify,
    independence_rank,
    involution_table,
    random_states,
)
from oracles import batch_of, points, random_states_one_by_one, with_split_squares

# the command line's --tol-rel and --tol-abs defaults
_TOLS = {"rank_tol": 1e-8, "bracket_tol": 1e-9}
_ANYWHERE = lambda st: True   # random_states' accept, taking every draw


def _spacelike_states(count=24, seed=3):
    rng = np.random.default_rng(seed)
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    states = random_states("instant", count, rng,
                           accept=lambda st: bg.m2(st.position()) > 0.05)
    return bg, states


def _reshelled(bg, states):
    # involution of a charge algebra that closes on the mass shell is an
    # on-shell statement: project the sampled states back onto 4 p+ p- = ...
    return batch_of([extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4],
                                             st.p[1], st.p[2:4], s=st.time)
                     for st in points(states)])


# ---------------------------------------------------------------------------
# spacelike linear field
# ---------------------------------------------------------------------------

def test_spacelike_bracket_table_frozen():
    bg, states = _spacelike_states()
    tab = involution_table(conformal.spacelike_set(1.0), states, bg, tol=1e-9)
    # hand-derived algebra: {Q1,Q3} = {Q2,Q4} = -B, everything else closes
    assert tab.brackets[0, 2] == pytest.approx(1.0, rel=1e-9)
    assert tab.brackets[1, 3] == pytest.approx(1.0, rel=1e-9)
    zero_pairs = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4),
                  (2, 3), (2, 4), (3, 4)]
    for i, j in zero_pairs:
        assert tab.brackets[i, j] < 1e-9, (i, j)
    assert tab.is_involutive([0, 1, 4])
    assert not tab.is_involutive([0, 2, 4])
    assert tab.brackets[0, 1] <= tab.tol     # Q1, Q2


def test_spacelike_maximally_superintegrable():
    bg, states = _spacelike_states()
    cert = classify(conformal.spacelike_set(1.0), states, bg, **_TOLS)
    assert cert.rank == 5
    assert cert.dof == 3
    assert cert.extra == 2
    assert cert.label == "maximally superintegrable"
    assert cert.involutive_subset == ["Q1", "Q2", "Q5"]
    assert cert.independence.unanimous


def test_rank_invariant_under_recombination():
    # rescaling and squaring members must not change the Jacobian rank
    bg, states = _spacelike_states()
    q1, q2, q3, q4, q5 = conformal.spacelike_set(1.0)
    b = 2.0

    def scaled(q, label):
        parts = None
        if q.partials is not None:
            parts = lambda s, bgr=None: tuple(x / b for x in q.partials(s, bgr))
        return ConservedQuantity(label, lambda s, bgr=None: q(s, bgr) / b,
                                 parts)

    def squared(q, label):
        def parts(s, bgr):
            v = q(s, bgr)
            dq, dp = dynamics.quantity_partials([q], s, bgr)[0]
            return 2.0 * v * dq, 2.0 * v * dp     # product rule
        return ConservedQuantity(label, lambda s, bgr: q(s, bgr) ** 2, parts)

    recombined = [scaled(q3, "F1"), scaled(q4, "F2"),
                  scaled(squared(q5, "Q5sq"), "F3"), q1, q2]
    r0 = independence_rank(conformal.spacelike_set(1.0), states, bg, tol=1e-8)
    r1 = independence_rank(recombined, states, bg, tol=1e-8)
    assert r0.rank == r1.rank == 5


def test_duplicated_quantity_drops_rank():
    bg, states = _spacelike_states(count=10, seed=5)
    p1 = generator_quantity(conformal.translation_axis(1), "A")
    p1_again = generator_quantity(conformal.translation_axis(1), "B")
    h = conformal.spacelike_set(1.0)[4]
    rep = independence_rank([p1, p1_again, h], states, bg, tol=1e-8)
    assert rep.rank == 2


# ---------------------------------------------------------------------------
# free particle and truncated sets
# ---------------------------------------------------------------------------

def test_free_momenta_integrable():
    rng = np.random.default_rng(9)
    bg = backgrounds.constant(1.0)
    states = random_states("instant", 12, rng, accept=_ANYWHERE)
    qs = [generator_quantity(conformal.translation_axis(j), f"P{j}")
          for j in (1, 2, 3)]
    cert = classify(qs, states, bg, **_TOLS)
    assert cert.rank == 3
    assert cert.label == "integrable"
    assert sorted(cert.involutive_subset) == ["P1", "P2", "P3"]


def test_truncated_set_not_certified():
    rng = np.random.default_rng(10)
    bg = backgrounds.constant(1.0)
    states = random_states("instant", 12, rng, accept=_ANYWHERE)
    qs = [generator_quantity(conformal.translation_axis(j), f"P{j}")
          for j in (1, 2)]
    cert = classify(qs, states, bg, **_TOLS)
    assert cert.rank == 2
    assert cert.label == "not certified"
    assert cert.involutive_subset == []


# ---------------------------------------------------------------------------
# plane-wave extended algebra
# ---------------------------------------------------------------------------

def test_planewave_extended_rank_seven():
    rng = np.random.default_rng(12)
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    states = _reshelled(bg, random_states("extended", 20, rng, accept=_ANYWHERE))
    cert = classify(conformal.planewave_extended_set(), states, bg, **_TOLS)
    assert cert.rank == 7
    assert cert.dof == 4
    assert cert.extra == 3
    assert cert.label == "maximally superintegrable"
    assert cert.involutive_subset == ["Q1", "Q2", "Q3", "Q6"]


def test_planewave_mass_shell_vanishes_on_shell():
    rng = np.random.default_rng(13)
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    q6 = conformal.planewave_extended_set()[5]
    for st in points(_reshelled(bg, random_states("extended", 10, rng,
                                                  accept=_ANYWHERE))):
        assert abs(q6(st, bg)) < 1e-10


# ---------------------------------------------------------------------------
# conformal inverse-square algebra
# ---------------------------------------------------------------------------

def test_conformal_extended_minimally_superintegrable():
    rng = np.random.default_rng(14)
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    states = _reshelled(bg, random_states("extended", 20, rng, accept=_ANYWHERE))
    cert = classify(conformal.conformal_extended_set(), states, bg, **_TOLS)
    assert cert.rank == 5
    assert cert.dof == 4
    assert cert.extra == 1
    assert cert.label == "minimally superintegrable"
    assert cert.involutive_subset == ["Q1", "Q2", "Q3", "K"]


def test_conformal_involution_needs_mass_shell():
    # off-shell extended states leak a bracket proportional to the constraint
    rng = np.random.default_rng(15)
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    raw = random_states("extended", 6, rng, accept=_ANYWHERE)
    qs = conformal.conformal_extended_set()
    off = involution_table(qs, raw, bg, tol=1e-9)
    assert off.brackets[2, 4] > 1e-3  # {Q3, K} before projection
    on = involution_table(qs, _reshelled(bg, raw), bg, tol=1e-9)
    assert on.brackets[2, 4] < 1e-9


def test_conformal_front_charges_independent():
    rng = np.random.default_rng(16)
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    states = random_states("front", 15, rng, accept=_ANYWHERE)
    qs = conformal.conformal_front_set()
    rep = independence_rank(qs, states, bg, tol=1e-8)
    assert rep.rank == 4
    tab = involution_table(qs, states, bg, tol=1e-8)
    assert tab.is_involutive([0, 1, 2])


# ---------------------------------------------------------------------------
# sampling helpers and errors
# ---------------------------------------------------------------------------

def test_random_states_accept_and_reproducible():
    states = random_states("instant", 8, np.random.default_rng(21),
                           accept=lambda st: st.q[2] > 0.0)
    assert states.time.size == 8
    assert all(states.q[2] > 0.0)
    again = random_states("instant", 8, np.random.default_rng(21),
                          accept=lambda st: st.q[2] > 0.0)
    assert np.array_equal(states.q, again.q) and np.array_equal(states.p, again.p)


def test_random_states_exhausts_tries():
    with pytest.raises(ValueError):
        random_states("instant", 3, np.random.default_rng(22),
                      accept=lambda st: False)


@pytest.mark.parametrize("rejections, fails", [(999, False), (1000, True)])
def test_random_states_budget_counts_rejected_draws_only(rejections, fails):
    # 1000 rejected draws exhaust the budget; accepted draws never do
    drawn = []

    def accept(st):
        first = len(drawn)
        drawn.extend(points(st))
        return np.arange(first, len(drawn)) >= rejections

    if fails:
        with pytest.raises(ValueError, match="rejected too many samples"):
            random_states("instant", 1500, np.random.default_rng(23), accept=accept)
    else:
        states = random_states("instant", 1500, np.random.default_rng(23),
                               accept=accept)
        assert states.time.size == 1500 and len(drawn) == 2499


def test_missing_partials_raise_before_any_field_read(monkeypatch):
    # the error names the quantity as one state's partials do, before the
    # batch reads the field for the generator charges listed ahead of it
    _, states = _spacelike_states(count=4)
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    calls = []
    monkeypatch.setattr(bg, "_field", lambda *c: calls.append(c))
    qs = conformal.spacelike_set(1.0) + [conformal.angular_momentum_z_quantity()]
    with pytest.raises(ValueError, match="^quantity 'Lz' has no closed-form partials$"):
        classify(qs, states, bg, **_TOLS)
    assert calls == []


def test_empty_state_list_rejected():
    bg = backgrounds.constant(1.0)
    qs = conformal.spacelike_set(1.0)
    empty = random_states("instant", 0, np.random.default_rng(0), accept=_ANYWHERE)
    with pytest.raises(ValueError):
        independence_rank(qs, empty, bg, tol=1e-8)
    with pytest.raises(ValueError):
        involution_table(qs, empty, bg, tol=1e-9)
    with pytest.raises(ValueError, match="need at least one state"):
        classify(qs, empty, bg, **_TOLS)
    _, states = _spacelike_states(count=2)
    with pytest.raises(ValueError):
        independence_rank([], states, bg, tol=1e-8)


@pytest.mark.parametrize("dof, ranks, subset, label, rank, extra", [
    (3, [5, 5], [], "not certified", 5, 0),
    (3, [3, 3], ["Q0", "Q1", "Q2"], "integrable", 3, 0),
    (3, [4, 3, 4], ["Q0", "Q1", "Q2"], "minimally superintegrable", 4, 1),
    (4, [5], ["Q0", "Q1", "Q2", "Q3"], "minimally superintegrable", 5, 1),
    (4, [6, 6], ["Q0", "Q1", "Q2", "Q3"], "superintegrable", 6, 2),
    (3, [5, 5], ["Q0", "Q1", "Q2"], "maximally superintegrable", 5, 2),
    (4, [7], ["Q0", "Q1", "Q2", "Q3"], "maximally superintegrable", 7, 3),
])
def test_certification_label_rank_and_k(dof, ranks, subset, label, rank, extra):
    # hand-made reports through every branch of the label rule, including
    # plain "superintegrable" (1 < k < n - 1), which no preset reaches
    names = [f"Q{i}" for i in range(max(ranks))]
    indep = integrability.IndependenceReport(names, ranks, np.ones(len(names)), 1e-8)
    invol = integrability.InvolutionTable(names, np.zeros((len(names),) * 2), 1e-9)
    cert = integrability.Certification(dof, subset, indep, invol)
    assert (cert.label, cert.rank, cert.extra) == (label, rank, extra)
    assert indep.unanimous == all(r == rank for r in ranks)
    d = cert.to_dict()
    assert list(d)[:5] == ["label", "rank", "dof", "extra", "involutive_subset"]
    assert (d["label"], d["rank"], d["dof"], d["extra"]) == (label, rank, dof, extra)


def test_certification_json_roundtrip(tmp_path):
    import json

    from confdyn.jsonio import write_json
    bg, states = _spacelike_states(count=8, seed=30)
    cert = classify(conformal.spacelike_set(1.0), states, bg, **_TOLS)
    path = tmp_path / "cert.json"
    write_json(path, cert.to_dict(), sort_keys=False)
    blob = json.loads(path.read_text())
    assert blob["label"] == cert.label
    assert blob["rank"] == 5
    assert blob["independence"]["unanimous"] is True
    assert len(blob["involution"]["brackets"]) == 5


# ---------------------------------------------------------------------------
# the shared partials table against the per-call algorithm
# ---------------------------------------------------------------------------

_CERTIFY_PRESETS = ["planewave", "dilation", "spacelike", "conformal", "truncated"]


def _cli_certify_inputs(preset, count=24):
    # the quantities and states `certify --preset NAME` classifies at count
    # 24, or at certify.count=COUNT
    cfg = cli._parse(cli.preset_config(preset))
    assert cfg["certify"]["count"] == 24
    bg = cli._background(cfg)
    form = cfg["certify"]["form"]
    states = cli._certify_states(bg, form, count, np.random.default_rng(20240811))
    quantities, _ = cli._quantity_set(cfg["certify"]["set"], [], bg, form)
    return quantities, states, bg


def _certify_inputs_96(name):
    """A certify preset's set, form and background at the benchmark's 96
    states, or (name "front") the conformal charges on front states, or
    (name "front-squares") on front states whose p-, p1 and p2 square
    apart in numpy's arrays and in floats."""
    if name not in ("front", "front-squares"):
        return _cli_certify_inputs(name, 96)
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    rng = np.random.default_rng(16)
    states = random_states("front", 96, rng, accept=_ANYWHERE)
    if name == "front-squares":
        states = with_split_squares(states, rng)
    return conformal.conformal_front_set(), states, bg


@pytest.mark.parametrize("name", _CERTIFY_PRESETS + ["front", "front-squares"])
def test_batch_partials_and_brackets_equal_per_state_calls(name):
    # the table is one quantity_partials call on a batch state; the instant
    # and front forms add the dH term (n != 0), spacelike and planewave mix
    # hand-written and generator charges, conformal adds K; the brackets of
    # a table of N states are those of the N tables of one state
    quantities, states, bg = _certify_inputs_96(name)
    table = integrability._partials_table(quantities, states, bg)
    brackets = dynamics.brackets(table)
    for i, st in enumerate(points(states)):
        single = [np.concatenate(qp) for qp in dynamics.quantity_partials(
            quantities, st, bg)]
        assert np.array_equal(table[i], single)
        assert np.array_equal(brackets[i], dynamics.brackets(np.array([single]))[0])


def _per_call_certification(quantities, states, bg, rank_tol, bracket_tol):
    """classify().to_dict() rebuilt the slow way: one poisson_bracket per
    pair and state, one Jacobian from quantity_partials per subset and state."""
    labels = [q.label for q in quantities]
    m = len(quantities)
    brackets = np.zeros((m, m))
    for st in points(states):
        for i, j in itertools.combinations(range(m), 2):
            b = abs(dynamics.poisson_bracket(quantities[i], quantities[j], st, bg))
            if b > brackets[i, j]:
                brackets[i, j] = brackets[j, i] = b

    def vote(qs):
        ranks, sv0 = [], None
        for st in points(states):
            jac = np.asarray([np.concatenate(dynamics.quantity_partials([q], st, bg)[0])
                              for q in qs])
            s = np.linalg.svd(jac, compute_uv=False)
            ranks.append(0 if s[0] == 0.0 else int(np.sum(s > rank_tol * s[0])))
            if sv0 is None:
                sv0 = s
        return Counter(ranks).most_common(1)[0][0], ranks, sv0

    n = {"instant": 3, "front": 3, "extended": 4}[states.form]
    rank, ranks, sv0 = vote(quantities)
    subset = None
    if rank >= n and m >= n:
        for idx in itertools.combinations(range(m), n):
            if any(brackets[i, j] > bracket_tol
                   for i, j in itertools.combinations(idx, 2)):
                continue
            if vote([quantities[i] for i in idx])[0] == n:
                subset = [labels[i] for i in idx]
                break
    k = 0 if subset is None else rank - n
    if subset is None:
        label = "not certified"
    elif k <= 0:
        label = "integrable"
    elif k >= n - 1:
        label = "maximally superintegrable"
    elif k == 1:
        label = "minimally superintegrable"
    else:
        label = "superintegrable"
    return {"label": label, "rank": rank, "dof": n, "extra": k,
            "involutive_subset": subset or [],
            "independence": {"labels": labels, "rank": rank, "ranks": ranks,
                             "singular_values": [float(s) for s in sv0],
                             "tol": rank_tol,
                             "unanimous": all(r == rank for r in ranks)},
            "involution": {"labels": labels, "tol": bracket_tol,
                           "brackets": [[float(v) for v in row]
                                        for row in brackets]}}


@pytest.mark.parametrize("preset", _CERTIFY_PRESETS)
def test_classify_equals_per_call_algorithm(preset, monkeypatch):
    quantities, states, bg = _cli_certify_inputs(preset)
    expected = _per_call_certification(quantities, states, bg, 1e-8, 1e-9)
    calls = []

    def counted(quants, state, bgr, *args):
        calls.append(1)
        return dynamics.quantity_partials(quants, state, bgr, *args)

    monkeypatch.setattr(integrability, "quantity_partials", counted)
    got = classify(quantities, states, bg, **_TOLS)
    assert got.to_dict() == expected
    assert len(calls) == 1    # one batch call for the whole set and all states


# the bracket table of each named certify preset at the benchmark's 96
# states against one poisson_bracket per pair and state, in a process on the
# OpenBLAS core argv[1]
_KERNEL_CHILD = """
import itertools, sys
import numpy as np
from confdyn import cli, dynamics, integrability
from oracles import points
from output_digests import blas_core

assert blas_core() == sys.argv[1], blas_core()
for preset in sys.argv[2:]:
    cfg = cli._parse(cli.preset_config(preset))
    bg, form = cli._background(cfg), cfg["certify"]["form"]
    states = cli._certify_states(bg, form, 96, np.random.default_rng(20240811))
    quantities, _ = cli._quantity_set(cfg["certify"]["set"], [], bg, form)
    m = len(quantities)
    brackets = np.zeros((m, m))
    for st in points(states):
        for a, b in itertools.combinations(range(m), 2):
            v = abs(dynamics.poisson_bracket(quantities[a], quantities[b], st, bg))
            brackets[a, b] = brackets[b, a] = max(brackets[a, b], v)
    table = integrability.involution_table(quantities, states, bg, tol=1e-9)
    assert np.array_equal(table.brackets, brackets), preset
"""


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_brackets_keep_their_bits_on_other_blas_kernels(core, tmp_path):
    # a single bracket and the table take one code path, so they agree on
    # the BLAS kernels of other x86 CPUs too; OPENBLAS_CORETYPE acts on the
    # child alone
    from numpy._core import _multiarray_umath as umath
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  root / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    features = umath.__cpu_features__
    if tool.blas_core() is None or not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("needs numpy's bundled scipy-openblas on a CPU with AVX2 and FMA3")
    path = os.pathsep.join(str(root / d) for d in ("src", "tests", "tools"))
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-B", "-c", _KERNEL_CHILD, core, "planewave",
                           "dilation", "conformal"], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the batch sample, on-shell p+, partials and rank vote against per-state calls
# ---------------------------------------------------------------------------

def _above(bg):
    # certify's m^2 > 0.05 predicate on one state; m^2 < 0 or a singular
    # point rejects it
    def accept(st):
        try:
            return bg.m2(st.position()) > 0.05
        except (errors.RealityError, errors.SingularityError):
            return False
    return accept


def _inside_cone(st):
    # certify's dilation rule on one state: inside the forward light cone
    # and clear of it
    x = st.position()
    return x.norm2() > 0.1 and x.t > 0


# a field that m^2 > 0.05 rejects on part of every box, raising RealityError
# where m^2 < 0, and the dilation field with its light-cone predicate
_PREDICATES = {"above": (backgrounds.linear_z(2.0, 0.3, switched=False), {}),
               "cone": (backgrounds.dilation_mass(1.0),
                        {"t_range": (1.8, 2.6), "q_range": (-0.4, 0.4)})}


@pytest.mark.parametrize("form", ["instant", "front", "extended"])
@pytest.mark.parametrize("predicate", sorted(_PREDICATES))
def test_batch_sample_is_the_state_by_state_sample(form, predicate):
    # certify's sample is the loop's bit for bit, extended p+ on shell as
    # extended_state_on_shell puts it, and the generator ends where the
    # loop leaves it; where the loop rejects 1000 draws certify names the
    # loop's text
    bg, box = _PREDICATES[predicate]
    accept = _above(bg) if predicate == "above" else _inside_cone
    for seed in range(1, 21):
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            got = cli._certify_states(bg, form, 24, rng)
        except errors.ConfigError as exc:
            got = str(exc)
        want = _outcome(random_states_one_by_one, form, 24, rng_loop,
                        accept=accept, **box)
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        if isinstance(want, str):
            assert got == f"cannot sample 24 {form} states on {bg.label}: {want}"
            continue
        if form == "extended":
            want = _reshelled(bg, want)
        assert got.form == form
        assert np.array_equal(got.time, want.time)
        assert np.array_equal(got.q, want.q) and np.array_equal(got.p, want.p)


def _outcome(sample, *args, **kw):
    try:
        st = sample(*args, **kw)
    except ValueError as exc:
        return str(exc)
    return st if isinstance(st, dynamics.PhaseSpaceState) else batch_of(st)


@pytest.mark.parametrize("rejections", [999, 1000])
def test_rejection_budget_as_the_state_by_state_loop(rejections):
    # the first `rejections` draws rejected: 999 leave the sample one draw
    # later, the 1000th raises the loop's text
    def reject_first(seen):
        def accept(st):
            first = len(seen)
            seen.extend(points(st) if np.ndim(st.time) else [st])
            return np.arange(first, len(seen)) >= rejections
        return accept

    seen_batch, seen_loop = [], []
    got = _outcome(random_states, "front", 30, np.random.default_rng(4),
                   accept=reject_first(seen_batch))
    want = _outcome(random_states_one_by_one, "front", 30, np.random.default_rng(4),
                    accept=lambda st: bool(reject_first(seen_loop)(st)[0]))
    assert len(seen_batch) == len(seen_loop) == {999: 1029, 1000: 1000}[rejections]
    if rejections == 1000:
        assert got == want == "accept predicate rejected too many samples"
    else:
        assert np.array_equal(got.q, want.q) and np.array_equal(got.p, want.p)
        assert np.array_equal(got.time, want.time)


def test_unknown_form_raises_the_loop_text():
    texts = {_outcome(sample, "covariant", 3, np.random.default_rng(5),
                      accept=_ANYWHERE)
             for sample in (random_states, random_states_one_by_one)}
    assert texts == {"no sampler for form 'covariant'"}


def test_on_shell_pplus_is_extended_state_on_shell():
    # numpy's array square rounds apart from Python's ** on about 1 in 1 300
    # inputs: 3 000 states put p+ on shell with the scalar power or fail
    bg = backgrounds.plane_wave_sin2(1.0, 0.5, 1.0, "xplus")
    states = cli._certify_states(bg, "extended", 3000, np.random.default_rng(6))
    want = [extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4], st.p[1],
                                    st.p[2:4], s=st.time).p[0]
            for st in points(states)]
    assert np.array_equal(states.p[0], want)


def _stacked(fn, batch, bg):
    return tuple(np.stack(col, axis=-1)
                 for col in zip(*(fn(st, bg) for st in points(batch))))


@pytest.mark.parametrize("preset, labels, count", [("spacelike", ["Q3", "Q4"], 96),
                                                   ("planewave", ["Q6", "Q7"], 3000),
                                                   ("conformal", ["K"], 96)])
def test_batch_hand_written_partials_equal_per_point_calls(preset, labels, count):
    # 3 000 plane-wave states hold p- whose square numpy's array power
    # rounds apart from Python's **, which Q7's 4 p-^2 takes
    quantities, states, bg = _cli_certify_inputs(preset, count)
    for quant in quantities:
        if quant.label in labels:
            got = quant.partials(states, bg)
            want = _stacked(quant.partials, states, bg)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), quant.label


@pytest.mark.parametrize("name", _CERTIFY_PRESETS + ["front"])
def test_batch_hamiltonian_partials_equal_per_point_calls(name):
    _, states, bg = _certify_inputs_96(name)
    got = dynamics.hamiltonian_partials(states, bg)
    want = _stacked(dynamics.hamiltonian_partials, states, bg)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_rank_vote_is_the_per_state_count():
    # random Jacobians of every rank from 0 to 5, one of them all zero
    rng = np.random.default_rng(7)
    jac = np.stack([rng.standard_normal((5, r)) @ rng.standard_normal((r, 6))
                    for r in (0, 1, 2, 3, 4, 5, 5, 3, 0)])
    jac[1] *= 1e-300
    for tol in (1e-8, 0.5, 0.0):
        sv = np.linalg.svd(jac, compute_uv=False)
        want = [0 if s[0] == 0.0 else int(np.sum(s > tol * s[0])) for s in sv]
        rep = integrability._rank_vote(jac, list("abcde"), tol)
        assert rep.ranks == want and all(type(r) is int for r in rep.ranks)
        assert np.array_equal(rep.singular_values, sv[0])
