"""Independence ranks, involution tables, and certification labels."""

import itertools
from collections import Counter

import numpy as np
import pytest

from confdyn import backgrounds, cli, conformal, dynamics, integrability
from confdyn.conformal import ConservedQuantity, generator_quantity
from confdyn.dynamics import extended_state_on_shell
from confdyn.integrability import (
    classify,
    independence_rank,
    involution_table,
    random_states,
)

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
    return [extended_state_on_shell(bg, st.q[0], st.q[1], st.q[2:4],
                                    st.p[1], st.p[2:4], s=st.time)
            for st in states]


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
    for st in _reshelled(bg, random_states("extended", 10, rng, accept=_ANYWHERE)):
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
    assert len(states) == 8
    assert all(st.q[2] > 0.0 for st in states)
    again = random_states("instant", 8, np.random.default_rng(21),
                          accept=lambda st: st.q[2] > 0.0)
    for a, b in zip(states, again):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


def test_random_states_exhausts_tries():
    with pytest.raises(ValueError):
        random_states("instant", 3, np.random.default_rng(22),
                      accept=lambda st: False)


@pytest.mark.parametrize("rejections, fails", [(999, False), (1000, True)])
def test_random_states_budget_counts_rejected_draws_only(rejections, fails):
    # 1000 rejected draws exhaust the budget; accepted draws never do
    drawn = []

    def accept(st):
        drawn.append(st)
        return len(drawn) > rejections

    if fails:
        with pytest.raises(ValueError, match="rejected too many samples"):
            random_states("instant", 1500, np.random.default_rng(23), accept=accept)
    else:
        states = random_states("instant", 1500, np.random.default_rng(23),
                               accept=accept)
        assert len(states) == 1500 and len(drawn) == 2499


def test_mixed_form_states_name_both_forms():
    bg = backgrounds.constant(1.0)
    qs = [generator_quantity(conformal.translation_axis(j), f"P{j}") for j in (1, 2)]
    states = [dynamics.instant_state(0.1, (0.2, 0.0, -0.1), (0.1, 0.0, 0.2)),
              dynamics.front_state(1.0, 0.3, (0.0, 0.1), 0.5, (0.1, 0.0))]
    with pytest.raises(ValueError, match="states mix the 'instant' and 'front' forms"):
        classify(qs, states, bg, **_TOLS)


def test_missing_partials_raise_before_any_field_read(monkeypatch):
    # the error names the quantity as one state's partials do, before the
    # batch reads the field for the generator charges listed ahead of it
    _, states = _spacelike_states(count=4)
    bg = backgrounds.linear_z(1.0, 1.0, switched=False)
    calls = []
    monkeypatch.setattr(bg, "_value", lambda *c: calls.append(c))
    monkeypatch.setattr(bg, "_field", lambda *c: calls.append(c))
    qs = conformal.spacelike_set(1.0) + [conformal.angular_momentum_z_quantity()]
    with pytest.raises(ValueError, match="^quantity 'Lz' has no closed-form partials$"):
        classify(qs, states, bg, **_TOLS)
    assert calls == []


def test_empty_state_list_rejected():
    bg = backgrounds.constant(1.0)
    qs = conformal.spacelike_set(1.0)
    with pytest.raises(ValueError):
        independence_rank(qs, [], bg, tol=1e-8)
    with pytest.raises(ValueError):
        involution_table(qs, [], bg, tol=1e-9)
    with pytest.raises(ValueError, match="need at least one state"):
        classify(qs, [], bg, **_TOLS)
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
    states, or (name "front") the conformal charges on front states."""
    if name != "front":
        return _cli_certify_inputs(name, 96)
    bg = backgrounds.special_conformal_gaussian(1.0, 1.0, 1.0)
    states = random_states("front", 96, np.random.default_rng(16), accept=_ANYWHERE)
    return conformal.conformal_front_set(), states, bg


@pytest.mark.parametrize("name", _CERTIFY_PRESETS + ["front"])
def test_batch_partials_and_brackets_equal_per_state_calls(name):
    # the table is one quantity_partials call on a batch state; the instant
    # and front forms add the dH term (n != 0), spacelike and planewave mix
    # hand-written and generator charges, conformal adds K
    quantities, states, bg = _certify_inputs_96(name)
    table = integrability._partials_table(quantities, states, bg)
    m = len(quantities)
    brackets = np.zeros((m, m))
    for i, st in enumerate(states):
        single = [np.concatenate(qp) for qp in dynamics.quantity_partials(
            quantities, st, bg)]
        assert np.array_equal(table[i], single)
        for a, b in itertools.combinations(range(m), 2):
            v = abs(dynamics.poisson_bracket(quantities[a], quantities[b], st, bg))
            brackets[a, b] = brackets[b, a] = max(brackets[a, b], v)
    table = involution_table(quantities, states, bg, tol=1e-9)
    assert np.array_equal(table.brackets, brackets)


def _per_call_certification(quantities, states, bg, rank_tol, bracket_tol):
    """classify().to_dict() rebuilt the slow way: one poisson_bracket per
    pair and state, one Jacobian from quantity_partials per subset and state."""
    labels = [q.label for q in quantities]
    m = len(quantities)
    brackets = np.zeros((m, m))
    for st in states:
        for i, j in itertools.combinations(range(m), 2):
            b = abs(dynamics.poisson_bracket(quantities[i], quantities[j], st, bg))
            if b > brackets[i, j]:
                brackets[i, j] = brackets[j, i] = b

    def vote(qs):
        ranks, sv0 = [], None
        for st in states:
            jac = np.asarray([np.concatenate(dynamics.quantity_partials([q], st, bg)[0])
                              for q in qs])
            s = np.linalg.svd(jac, compute_uv=False)
            ranks.append(0 if s[0] == 0.0 else int(np.sum(s > rank_tol * s[0])))
            if sv0 is None:
                sv0 = s
        return Counter(ranks).most_common(1)[0][0], ranks, sv0

    n = {"instant": 3, "front": 3, "extended": 4}[states[0].form]
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
