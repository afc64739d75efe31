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

from .dynamics import FORMS, PhaseSpaceState, brackets, quantity_partials
from .errors import DomainError
# poisson_bracket stays importable from here; perfbench/bench_trace.py wraps it
# under this name
from .dynamics import poisson_bracket  # noqa: F401


def _partials_table(quantities: Sequence, states: PhaseSpaceState,
                    bg) -> np.ndarray:
    """The stacked Jacobians J[state] of shape (N, K, 2n), whose rows are
    (dQ/dq, dQ/dp) per quantity, from one quantity_partials call on the
    batch state; ranks, brackets and the subset search all read this one
    table.  Partials that are not finite raise DomainError, naming the
    first state and its first quantity that has them."""
    if not np.size(states.time):
        raise ValueError("need at least one state")
    # an inf or a nan that reaches the table is reported below, by state and
    # quantity, in place of numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = quantity_partials(quantities, states, bg)
    table = np.transpose([np.concatenate(qp) for qp in parts], (2, 0, 1))
    bad = ~np.isfinite(table).all(axis=2)
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)
        raise DomainError(f"the partials of {quantities[k].label} are not "
                          f"finite at sampled state {i}")
    return table


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
    # an all-zero Jacobian gets rank 0: no s exceeds tol * 0
    ranks = (sv > tol * sv[:, :1]).sum(axis=1).tolist()
    return IndependenceReport(labels, ranks, sv[0], tol)


# no command calls this (classify reads the shared table); tests do, and
# perfbench/bench_trace.py wraps it as the span integrability.rank
def independence_rank(quantities: Sequence, states: PhaseSpaceState,
                      bg, tol: float) -> IndependenceReport:
    """Numerical rank of the quantity Jacobian, majority-voted over the
    points of a batch state."""
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
    """max over the states of |{Qi, Qj}|, from dynamics.brackets."""
    return InvolutionTable(labels, np.abs(brackets(jacobians)).max(axis=0), tol)


# no command calls this (classify reads the shared table); tests do, and
# perfbench/bench_trace.py wraps it as the span integrability.involution
def involution_table(quantities: Sequence, states: PhaseSpaceState,
                     bg, tol: float) -> InvolutionTable:
    """Pairwise Poisson brackets, maximized in magnitude over the points of
    a batch state."""
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


def classify(quantities: Sequence, states: PhaseSpaceState, bg,
             rank_tol: float, bracket_tol: float) -> Certification:
    """Certify (super)integrability of a quantity set on sampled states, one
    component-first batch state (random_states' sample).

    Ranks, brackets and the subset search read one Jacobian table, built by
    one quantity_partials call on the batch.  Looks for an n-element subset that is both mutually in involution and
    itself of full rank n, given r = rank(quantities) >= n; the subset is
    left empty when either requirement fails.  Certification.label reads
    the class off k = r - n.
    """
    n = FORMS[states.form].dof
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


# each form's sampling box: per column of one candidate row, its uniform
# draw's bounds (lo, hi), named by the column's place in the per-state draw
# order; q_range and t_range fill the "q" and "t" bounds
_BOXES = {
    "instant": ("t", "q", "q", "q", (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)),
    "front": ("q", "q", "q", (0.2, 1.0), (-0.5, 0.5), (-0.5, 0.5), (0.5, 1.5)),
    "extended": ((0.5, 1.5), "q", "q", "q", (-0.5, 0.5), (0.2, 1.0),
                 (-0.5, 0.5), (-0.5, 0.5)),
}


def _rows_state(form: str, rows: np.ndarray) -> PhaseSpaceState:
    """The batch state of candidate rows laid out as _BOXES[form]: instant
    (t, q, p), front (q, p-, p_perp, x+), extended (q, p) at s = 0."""
    if form == "instant":
        return PhaseSpaceState(form, rows[:, 0], rows[:, 1:4].T, rows[:, 4:7].T)
    if form == "front":
        return PhaseSpaceState(form, rows[:, 6], rows[:, :3].T, rows[:, 3:6].T)
    return PhaseSpaceState(form, np.zeros(len(rows)), rows[:, :4].T, rows[:, 4:].T)


# the rejected rows at which draw_rows gives up; kg.points is bounded by it too
DRAW_BUDGET = 1000


def draw_rows(rng: np.random.Generator, lo, hi, count: int, accept) -> np.ndarray:
    """The first count uniform rows in [lo, hi) that accept keeps: accept(block)
    returns a mask of the rows to keep, or one bool for all.  Each round
    draws one block of uniform rows, which holds the values of a row-by-row
    draw, and reaches past neither the count-th accepted nor the
    DRAW_BUDGET-th rejected row, so accept sees the rows a row-by-row loop
    would and the generator ends where that loop's would.  Raises
    ValueError at the DRAW_BUDGET-th rejected row; accepted rows count
    against no budget."""
    rows = np.empty((0, np.size(lo)))
    rejected = 0
    while len(rows) < count:
        m = min(count - len(rows), DRAW_BUDGET - rejected)
        block = rng.uniform(lo, hi, size=(m, rows.shape[1]))
        keep = np.broadcast_to(np.asarray(accept(block), bool), (m,))
        rows = np.concatenate([rows, block[keep]])
        rejected += m - int(np.count_nonzero(keep))
        if rejected == DRAW_BUDGET:
            raise ValueError("accept predicate rejected too many samples")
    return rows


def random_states(form: str, count: int, rng: np.random.Generator,
                  q_range: tuple = (-1.0, 1.0), t_range: tuple = (-1.0, 1.0), *,
                  accept) -> PhaseSpaceState:
    """Seeded sample of count non-degenerate states, as one batch state, for
    rank/involution voting.

    p- is kept away from zero (front/extended) and x+ positive (extended) so
    the light-front charts and the inverse-square backgrounds stay regular.
    accept(batch) restricts further, as draw_rows' accept.  The columns of
    draw_rows' rows follow the order of one-state-at-a-time draws, so the
    sample is that of drawing and accepting state by state.
    """
    if form not in _BOXES:
        raise ValueError(f"no sampler for form {form!r}")
    named = {"q": q_range, "t": t_range}
    lo, hi = np.array([named.get(b, b) for b in _BOXES[form]], dtype=float).T
    return _rows_state(form, draw_rows(rng, lo, hi, count,
                                       lambda block: accept(_rows_state(form, block))))
