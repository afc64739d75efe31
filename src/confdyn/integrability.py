"""Functional independence, involution, and superintegrability certification.

A system with n degrees of freedom and r functionally independent constants
of motion, n of which are mutually in involution, is integrable for r = n and
superintegrable for r = n + k with k >= 1: minimally so at k = 1, maximally
at k = n - 1.  Independence is certified by the numerical rank of the
Jacobian of the constants with respect to the phase-space variables (SVD with
a relative threshold), voted across a sample of states so single degenerate
points cannot skew the result; involution by the maximum absolute Poisson
bracket over the same states.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# poisson_bracket stays importable from here; perfbench/bench_trace.py wraps it
# under this name
from .dynamics import PhaseSpaceState, poisson_bracket, quantity_partials  # noqa: F401

_DOF = {"instant": 3, "front": 3, "extended": 4}


def _partials_table(quantities: Sequence, states: Sequence[PhaseSpaceState],
                    bg) -> tuple[list, np.ndarray]:
    """Each quantity's (dQ/dq, dQ/dp) at each state, computed once, state by
    state in quantity order (so a failing quantity raises at the same state
    as in a per-state loop).

    Returns the partials pairs per state and the stacked Jacobians J[state],
    whose rows are (dQ/dq, dQ/dp) per quantity; ranks, brackets and the
    subset search all read this one table.
    """
    if not states:
        raise ValueError("need at least one state")
    parts = [[quantity_partials(quant, st, bg) for quant in quantities]
             for st in states]
    jacobians = np.asarray([[np.concatenate([dq, dp]) for dq, dp in row]
                            for row in parts])
    return parts, jacobians


def _labels(quantities: Sequence) -> list:
    return [getattr(q, "label", f"Q{i+1}") for i, q in enumerate(quantities)]


@dataclass
class IndependenceReport:
    labels: list
    ranks: list
    rank: int
    singular_values: np.ndarray  # at the first sampled state
    tol: float

    @property
    def unanimous(self) -> bool:
        return all(r == self.rank for r in self.ranks)

    def to_dict(self):
        return {"labels": self.labels, "rank": self.rank, "ranks": self.ranks,
                "singular_values": [float(s) for s in self.singular_values],
                "tol": self.tol, "unanimous": self.unanimous}


def _rank_vote(jacobians: np.ndarray, labels: list,
               tol: float) -> IndependenceReport:
    """Rank of each state's Jacobian (singular values above tol times the
    largest), majority-voted over the states."""
    if not labels:
        raise ValueError("need at least one quantity")
    sv = np.linalg.svd(jacobians, compute_uv=False)
    ranks = [0 if s[0] == 0.0 else int(np.sum(s > tol * s[0])) for s in sv]
    rank = Counter(ranks).most_common(1)[0][0]
    return IndependenceReport(labels, ranks, rank, sv[0], tol)


def independence_rank(quantities: Sequence, states: Sequence[PhaseSpaceState],
                      bg, tol: float = 1e-8) -> IndependenceReport:
    """Numerical rank of the quantity Jacobian, majority-voted over states."""
    _, jacobians = _partials_table(quantities, states, bg)
    return _rank_vote(jacobians, _labels(quantities), tol)


@dataclass
class InvolutionTable:
    labels: list
    brackets: np.ndarray  # max |{Qi, Qj}| over the sampled states
    tol: float

    def pair(self, i: int, j: int) -> float:
        return float(self.brackets[i, j])

    def is_involutive(self, idx: Sequence[int]) -> bool:
        idx = list(idx)
        return all(self.brackets[i, j] <= self.tol
                   for i, j in itertools.combinations(idx, 2))

    def involutive_pairs(self):
        n = len(self.labels)
        return [(self.labels[i], self.labels[j])
                for i, j in itertools.combinations(range(n), 2)
                if self.brackets[i, j] <= self.tol]

    def to_dict(self):
        return {"labels": self.labels, "tol": self.tol,
                "brackets": [[float(v) for v in row] for row in self.brackets]}


def _bracket_table(parts: Sequence[list], labels: list, tol: float) -> InvolutionTable:
    # the same expression as dynamics.poisson_bracket, so every bracket keeps
    # its last bit; a matrix product would reorder the sums
    n = len(labels)
    out = np.zeros((n, n))
    for row in parts:
        for i, j in itertools.combinations(range(n), 2):
            (dqf, dpf), (dqg, dpg) = row[i], row[j]
            b = abs(float(dqf @ dpg - dpf @ dqg))
            if b > out[i, j]:
                out[i, j] = b
                out[j, i] = b
    return InvolutionTable(labels, out, tol)


def _check_canonical(states: Sequence[PhaseSpaceState]) -> None:
    for st in states:
        if st.form not in _DOF:
            raise ValueError(f"no canonical structure for form {st.form!r}")


def involution_table(quantities: Sequence, states: Sequence[PhaseSpaceState],
                     bg, tol: float = 1e-9) -> InvolutionTable:
    """Pairwise Poisson brackets, maximized in magnitude over the states."""
    _check_canonical(states)
    parts, _ = _partials_table(quantities, states, bg)
    return _bracket_table(parts, _labels(quantities), tol)


@dataclass
class Certification:
    label: str
    rank: int
    dof: int
    extra: int                      # k = rank - dof (when certified)
    involutive_subset: list
    independence: IndependenceReport
    involution: InvolutionTable

    def to_dict(self):
        return {"label": self.label, "rank": self.rank, "dof": self.dof,
                "extra": self.extra, "involutive_subset": self.involutive_subset,
                "independence": self.independence.to_dict(),
                "involution": self.involution.to_dict()}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def classify(quantities: Sequence, states: Sequence[PhaseSpaceState], bg,
             rank_tol: float = 1e-8, bracket_tol: float = 1e-9) -> Certification:
    """Certify (super)integrability of a quantity set on sampled states.

    Requires r = rank(quantities) >= n and an n-element subset that is both
    mutually in involution and itself of full rank n; the label then follows
    from k = r - n.  Returns "not certified" when either requirement fails.
    """
    if not states:
        raise ValueError("need at least one state")
    _check_canonical(states)
    n = _DOF[states[0].form]
    labels = _labels(quantities)
    parts, jacobians = _partials_table(quantities, states, bg)
    indep = _rank_vote(jacobians, labels, rank_tol)
    invol = _bracket_table(parts, labels, bracket_tol)
    r = indep.rank

    subset = None
    if r >= n and len(quantities) >= n:
        for idx in itertools.combinations(range(len(quantities)), n):
            if not invol.is_involutive(idx):
                continue
            sub = [labels[i] for i in idx]
            if _rank_vote(jacobians[:, list(idx)], sub, rank_tol).rank == n:
                subset = sub
                break

    if subset is None:
        label = "not certified"
        k = 0
    else:
        k = r - n
        if k <= 0:
            label = "integrable"
        elif k >= n - 1:
            label = "maximally superintegrable"
        elif k == 1:
            label = "minimally superintegrable"
        else:
            label = "superintegrable"

    return Certification(label, r, n, k, subset or [], indep, invol)


def random_states(form: str, count: int, rng: np.random.Generator,
                  q_range: tuple = (-1.0, 1.0), p_range: tuple = (-0.5, 0.5),
                  pminus_range: tuple = (0.2, 1.0),
                  xplus_range: tuple = (0.5, 1.5),
                  t_range: tuple = (-1.0, 1.0),
                  accept=None, max_tries: int = 1000) -> list:
    """Seeded sample of non-degenerate states for rank/involution voting.

    p- is kept away from zero (front/extended) and x+ positive (extended) so
    the light-front charts and the inverse-square backgrounds stay regular;
    an accept predicate can restrict further (e.g. interior of the light
    cone).  Raises if the predicate rejects too often.
    """
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise ValueError("accept predicate rejected too many samples")
        if form == "instant":
            st = PhaseSpaceState("instant", rng.uniform(*t_range),
                                 rng.uniform(*q_range, size=3),
                                 rng.uniform(*p_range, size=3))
        elif form == "front":
            q = rng.uniform(*q_range, size=3)
            p = np.concatenate([[rng.uniform(*pminus_range)],
                                rng.uniform(*p_range, size=2)])
            st = PhaseSpaceState("front", rng.uniform(*xplus_range), q, p)
        elif form == "extended":
            q = np.concatenate([[rng.uniform(*xplus_range)],
                                rng.uniform(*q_range, size=3)])
            p = np.concatenate([rng.uniform(*p_range, size=1),
                                [rng.uniform(*pminus_range)],
                                rng.uniform(*p_range, size=2)])
            st = PhaseSpaceState("extended", 0.0, q, p)
        else:
            raise ValueError(f"no sampler for form {form!r}")
        if accept is None or accept(st):
            out.append(st)
    return out
