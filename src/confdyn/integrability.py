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
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# poisson_bracket stays importable from here; perfbench/bench_trace.py wraps it
# under this name
from .dynamics import (FORMS, PhaseSpaceState, poisson_bracket,  # noqa: F401
                       quantity_partials)


def _partials_table(quantities: Sequence, states: Sequence[PhaseSpaceState],
                    bg) -> np.ndarray:
    """The stacked Jacobians J[state] of shape (N, K, 2n), whose rows are
    (dQ/dq, dQ/dp) per quantity, from one quantity_partials call on the
    states as one batch state; ranks, brackets and the subset search all
    read this one table.  The states must share one form."""
    if not states:
        raise ValueError("need at least one state")
    form = states[0].form
    other = next((st.form for st in states if st.form != form), None)
    if other is not None:
        raise ValueError(f"states mix the {form!r} and {other!r} forms")
    batch = PhaseSpaceState(form, np.array([st.time for st in states]),
                            np.array([st.q for st in states]).T,
                            np.array([st.p for st in states]).T)
    parts = quantity_partials(quantities, batch, bg)
    return np.transpose([np.concatenate(qp) for qp in parts], (2, 0, 1))


def _labels(quantities: Sequence) -> list:
    return [q.label for q in quantities]


@dataclass
class IndependenceReport:
    labels: list
    ranks: list                  # one per sampled state
    singular_values: np.ndarray  # at the first sampled state
    tol: float

    @property
    def rank(self) -> int:
        """The most common of the per-state ranks."""
        return Counter(self.ranks).most_common(1)[0][0]

    @property
    def unanimous(self) -> bool:
        return len(set(self.ranks)) == 1

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
    return IndependenceReport(labels, ranks, sv[0], tol)


# no command calls this (classify reads the shared table); tests do, and
# perfbench/bench_trace.py wraps it as the span integrability.rank
def independence_rank(quantities: Sequence, states: Sequence[PhaseSpaceState],
                      bg, tol: float) -> IndependenceReport:
    """Numerical rank of the quantity Jacobian, majority-voted over states."""
    return _rank_vote(_partials_table(quantities, states, bg),
                      _labels(quantities), tol)


@dataclass
class InvolutionTable:
    labels: list
    brackets: np.ndarray  # max |{Qi, Qj}| over the sampled states
    tol: float

    def is_involutive(self, idx: Sequence[int]) -> bool:
        idx = list(idx)
        return all(self.brackets[i, j] <= self.tol
                   for i, j in itertools.combinations(idx, 2))

    def to_dict(self):
        return {"labels": self.labels, "tol": self.tol,
                "brackets": [[float(v) for v in row] for row in self.brackets]}


def _bracket_table(jacobians: np.ndarray, labels: list, tol: float) -> InvolutionTable:
    """max over the states of |{Qi, Qj}| = |X[i, j] - X[j, i]|, X the
    stacked product dQ/dq (dQ/dp)^T.  Each entry of X is the dot product
    dynamics.poisson_bracket takes, so every bracket keeps its last bit; a
    sum over an einsum axis would not."""
    n = jacobians.shape[-1] // 2
    x = jacobians[..., :n] @ np.swapaxes(jacobians[..., n:], -1, -2)
    return InvolutionTable(labels, np.abs(x - np.swapaxes(x, -1, -2)).max(axis=0),
                           tol)


# no command calls this (classify reads the shared table); tests do, and
# perfbench/bench_trace.py wraps it as the span integrability.involution
def involution_table(quantities: Sequence, states: Sequence[PhaseSpaceState],
                     bg, tol: float) -> InvolutionTable:
    """Pairwise Poisson brackets, maximized in magnitude over the states."""
    return _bracket_table(_partials_table(quantities, states, bg),
                          _labels(quantities), tol)


@dataclass
class Certification:
    dof: int
    involutive_subset: list         # empty when no subset qualifies
    independence: IndependenceReport
    involution: InvolutionTable

    @property
    def rank(self) -> int:
        return self.independence.rank

    @property
    def extra(self) -> int:
        """k = rank - dof when a subset was found, else 0."""
        return self.rank - self.dof if self.involutive_subset else 0

    @property
    def label(self) -> str:
        """The class of k = rank - dof over an involutive subset (Miller,
        Post and Winternitz, J. Phys. A 46 (2013) 423001)."""
        if not self.involutive_subset:
            return "not certified"
        k, n = self.extra, self.dof
        if k <= 0:
            return "integrable"
        if k >= n - 1:
            return "maximally superintegrable"
        if k == 1:
            return "minimally superintegrable"
        return "superintegrable"

    def to_dict(self):
        return {"label": self.label, "rank": self.rank, "dof": self.dof,
                "extra": self.extra, "involutive_subset": self.involutive_subset,
                "independence": self.independence.to_dict(),
                "involution": self.involution.to_dict()}


def classify(quantities: Sequence, states: Sequence[PhaseSpaceState], bg,
             rank_tol: float, bracket_tol: float) -> Certification:
    """Certify (super)integrability of a quantity set on sampled states.

    Looks for an n-element subset that is both mutually in involution and
    itself of full rank n, given r = rank(quantities) >= n; the subset is
    left empty when either requirement fails.  Certification.label reads
    the class off k = r - n.
    """
    if not states:
        raise ValueError("need at least one state")
    n = FORMS[states[0].form].dof
    labels = _labels(quantities)
    jacobians = _partials_table(quantities, states, bg)
    indep = _rank_vote(jacobians, labels, rank_tol)
    invol = _bracket_table(jacobians, labels, bracket_tol)
    r = indep.rank

    subset = []
    if r >= n and len(quantities) >= n:
        for idx in itertools.combinations(range(len(quantities)), n):
            if not invol.is_involutive(idx):
                continue
            sub = [labels[i] for i in idx]
            if _rank_vote(jacobians[:, list(idx)], sub, rank_tol).rank == n:
                subset = sub
                break
    return Certification(n, subset, indep, invol)


def random_states(form: str, count: int, rng: np.random.Generator,
                  q_range: tuple = (-1.0, 1.0), t_range: tuple = (-1.0, 1.0), *,
                  accept) -> list:
    """Seeded sample of non-degenerate states for rank/involution voting.

    p- is kept away from zero (front/extended) and x+ positive (extended) so
    the light-front charts and the inverse-square backgrounds stay regular;
    the accept predicate restricts further (e.g. interior of the light
    cone).  Raises once it has rejected 1000 draws; accepted draws count
    against no budget.
    """
    out = []
    rejected = 0
    while len(out) < count:
        if form == "instant":
            st = PhaseSpaceState("instant", rng.uniform(*t_range),
                                 rng.uniform(*q_range, size=3),
                                 rng.uniform(-0.5, 0.5, size=3))
        elif form == "front":
            q = rng.uniform(*q_range, size=3)
            p = np.concatenate([[rng.uniform(0.2, 1.0)],
                                rng.uniform(-0.5, 0.5, size=2)])
            st = PhaseSpaceState("front", rng.uniform(0.5, 1.5), q, p)
        elif form == "extended":
            q = np.concatenate([[rng.uniform(0.5, 1.5)],
                                rng.uniform(*q_range, size=3)])
            p = np.concatenate([rng.uniform(-0.5, 0.5, size=1),
                                [rng.uniform(0.2, 1.0)],
                                rng.uniform(-0.5, 0.5, size=2)])
            st = PhaseSpaceState("extended", 0.0, q, p)
        else:
            raise ValueError(f"no sampler for form {form!r}")
        if accept(st):
            out.append(st)
            continue
        rejected += 1
        if rejected == 1000:
            raise ValueError("accept predicate rejected too many samples")
    return out
