"""Receiver best-response structure compiled into belief-space pieces.

For each receiver action, the beliefs where it is optimal form a closed
polytope; attaching the sender's value of that action gives a piecewise
description of the achievable-value correspondence.  These single-action
regions already fix the correspondence: a tie set's region is the
intersection of its members' regions (``tie_region`` builds it on demand) and
its value bounds are attained by those members.  Every envelope computation
downstream consumes this compiled form, so abstract value structures (given
directly as polytopes with value intervals) plug into the same solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .core import Belief, PersuasionGame
from .lp import (
    EQ, FREE, GE, LE, NONNEG, OPTIMAL, IntRows, LinearProgram, integer_rows, rows_hold, solve
)
from .rational import ZERO, Rational, RationalLike, over_common_denominator, rat


@dataclass(frozen=True)
class Polytope:
    """A region of the belief simplex, as homogeneous rows on integers.

    A row ``a.mu REL b`` is stored as ``(a - b*1).z REL 0``.  On the simplex
    (mu >= 0, sum mu = 1) the two agree, and scaling a belief by a nonnegative
    mass keeps the homogeneous row, so ``rows`` cuts out both the region and
    the cone over it that the envelope programs read.  The simplex itself is
    implied and every belief a caller tests already lies on it, so rows that
    z >= 0 already implies are dropped: a ``>=`` row with no negative
    coefficient, a ``<=`` row with no positive coefficient, and an ``=`` row
    that homogenizes to all zeros.  Kept rows stay in input order, in
    ``integer_rows`` form over the coordinates ``t``.
    """

    dim: int
    rows: IntRows

    @staticmethod
    def on_simplex(
        dim: int, extra: Iterable[tuple[Sequence[RationalLike], str, RationalLike]] = ()
    ) -> "Polytope":
        kept = []
        for coeffs, relation, rhs in extra:
            if len(coeffs) != dim:
                raise ValueError("polytope row has wrong dimension")
            if relation not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {relation!r}")
            b = rat(rhs)
            row = {t: h for t, h in enumerate(rat(c) - b for c in coeffs) if h}
            negative = any(h < 0 for h in row.values())
            positive = any(h > 0 for h in row.values())
            if relation == GE:
                needed = negative
            elif relation == LE:
                needed = positive
            else:
                needed = negative or positive
            if needed:
                kept.append((row, relation, ZERO))
        return Polytope(dim, integer_rows(kept))

    def contains(self, mu: Belief) -> bool:
        return self.contains_scaled(*over_common_denominator(mu.weights))

    def contains_scaled(self, point: Sequence[int], scale: int) -> bool:
        """Whether the belief ``point[t] / scale`` (``scale > 0``) lies in the polytope."""
        return len(point) == self.dim and rows_hold(self.rows, point, scale)

    def is_empty(self) -> bool:
        """Whether no belief satisfies the rows: one LP, the sum-to-one row then ``rows``."""
        n = self.dim
        simplex = ((tuple([(t, 1) for t in range(n)]), EQ, 1, 1),)
        lp = LinearProgram("max", (NONNEG,) * n, {}, simplex + self.rows)
        return solve(lp).status != OPTIMAL


@dataclass(frozen=True)
class ValuePiece:
    """A region of beliefs with the value interval achievable on it.

    ``actions`` holds the receiver action whose best-response region a
    compiled piece is; directly supplied pieces leave it empty.
    """

    region: Polytope
    vmin: Rational
    vmax: Rational
    actions: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.vmin > self.vmax:
            raise ValueError("piece has vmin > vmax")


@dataclass(frozen=True)
class PiecewiseValueStructure:
    """All pieces plus the prior they will be concavified against."""

    pieces: tuple[ValuePiece, ...]
    prior: Belief

    @property
    def dim(self) -> int:
        return len(self.prior)

    def pieces_at(self, mu: Belief) -> tuple[int, ...]:
        return self.pieces_at_scaled(*over_common_denominator(mu.weights))

    def pieces_at_scaled(self, point: Sequence[int], scale: int) -> tuple[int, ...]:
        """Indices of the pieces holding the belief ``point[t] / scale``."""
        return tuple([i for i, p in enumerate(self.pieces) if p.region.contains_scaled(point, scale)])

    def interval_at(self, mu: Belief) -> tuple[Rational, Rational]:
        """Achievable-value hull at ``mu`` over the pieces containing it."""
        idx = self.pieces_at(mu)
        if not idx:
            raise ValueError(f"no piece covers belief {mu}")
        return (
            min(self.pieces[i].vmin for i in idx),
            max(self.pieces[i].vmax for i in idx),
        )

    def with_prior(self, prior: Belief) -> "PiecewiseValueStructure":
        if len(prior) != self.dim:
            raise ValueError("prior dimension mismatch")
        return _covering_prior(self.pieces, prior)


def direct_structure(
    pieces: Iterable[ValuePiece], prior: Belief
) -> PiecewiseValueStructure:
    packed = tuple(pieces)
    if not packed:
        raise ValueError("need at least one piece")
    for p in packed:
        if p.region.dim != len(prior):
            raise ValueError("piece dimension does not match prior")
        if p.region.is_empty():
            raise ValueError(f"piece {p.label!r} has an empty region")
    return _covering_prior(packed, prior)


def _covering_prior(pieces: tuple[ValuePiece, ...], prior: Belief) -> PiecewiseValueStructure:
    """The structure, once some piece is known to hold the prior.

    Only the prior is checked: a gap elsewhere in the simplex goes unnoticed.
    """
    structure = PiecewiseValueStructure(pieces, prior)
    if not structure.pieces_at(prior):
        raise ValueError(f"no piece covers the prior {prior}")
    return structure


def best_responses(game: PersuasionGame, mu: Belief) -> tuple[int, ...]:
    """Exact argmax set of the receiver's expected payoff at ``mu``."""
    scores = [game.expected_u(a, mu) for a in range(game.n_actions)]
    top = max(scores)
    return tuple([a for a, s in enumerate(scores) if s == top])


def value_interval(game: PersuasionGame, mu: Belief) -> tuple[Rational, Rational]:
    ro = best_responses(game, mu)
    values = [game.v[a] for a in ro]
    return min(values), max(values)


def tie_region(game: PersuasionGame, actions: tuple[int, ...]) -> Polytope:
    """Beliefs where every action in ``actions`` is a best response."""
    n = game.n_types
    rows = []
    for a in actions:
        for b in range(game.n_actions):
            if b == a:
                continue
            coeffs = tuple(game.u[a][t] - game.u[b][t] for t in range(n))
            rows.append((coeffs, GE, ZERO))
    return Polytope.on_simplex(n, rows)


def compile_pieces(game: PersuasionGame) -> PiecewiseValueStructure:
    """Nonempty single-action best-response regions with their values.

    Solves one emptiness LP per action and keeps the pieces in action order;
    an action that is never a best response gets no piece.
    """
    pieces = []
    for a in range(game.n_actions):
        region = tie_region(game, (a,))
        if not region.is_empty():
            label = "{" + game.actions[a] + "}"
            pieces.append(ValuePiece(region, game.v[a], game.v[a], (a,), label))
    return PiecewiseValueStructure(tuple(pieces), game.prior)


MAX_GENERIC_TYPES = 10


class GenericityBoundExceeded(ValueError):
    """``is_generic`` refuses a game with more than ``MAX_GENERIC_TYPES`` types:
    it may solve two LPs per (support face, action), and there are 2^|T| - 1 faces."""


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    witnesses: tuple[tuple[tuple[int, ...], int, Belief], ...]
    failing: tuple[tuple[int, ...], int] | None


def is_generic(game: PersuasionGame) -> GenericityReport:
    """Check that any action tied at some belief is uniquely optimal at another
    belief with the same support.

    Per support face and action: one LP decides whether the action is optimal
    somewhere strictly inside the face, a second maximizes its minimum strict
    win margin there.  A positive margin yields a witness belief; a
    nonpositive one on a face where the action is optimal fails the check.
    Games with more than ``MAX_GENERIC_TYPES`` types raise
    ``GenericityBoundExceeded`` before any LP runs.
    """
    n = game.n_types
    if n > MAX_GENERIC_TYPES:
        raise GenericityBoundExceeded(f"{n} types exceeds the bound of {MAX_GENERIC_TYPES}")
    witnesses = []
    for support in _nonempty_subsets(n):
        for a in range(game.n_actions):
            if not _optimal_inside_face(game, support, a):
                continue
            witness = _unique_witness(game, support, a)
            if witness is None:
                return GenericityReport(False, tuple(witnesses), (support, a))
            witnesses.append((support, a, witness))
    return GenericityReport(True, tuple(witnesses), None)


def _nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    return [c for size in range(1, n + 1) for c in combinations(range(n), size)]


def _face_lp(
    game: PersuasionGame, support: tuple[int, ...], a: int, strict_opt: bool
) -> LinearProgram:
    # variables: mu_0..mu_{n-1} (nonneg), s (free, maximized)
    n = game.n_types
    s_var = n
    cons: list[tuple[dict, str, RationalLike]] = []
    cons.append(({t: 1 for t in range(n)}, EQ, 1))
    for t in range(n):
        if t in support:
            cons.append(({t: 1, s_var: -1}, GE, 0))
        else:
            cons.append(({t: 1}, EQ, 0))
    for b in range(game.n_actions):
        if b == a:
            continue
        row = {t: game.u[a][t] - game.u[b][t] for t in range(n)}
        if strict_opt:
            row[s_var] = rat(-1)
        cons.append((row, GE, 0))
    return LinearProgram("max", (NONNEG,) * n + (FREE,), {s_var: 1}, integer_rows(cons))


def _optimal_inside_face(game: PersuasionGame, support: tuple[int, ...], a: int) -> bool:
    sol = solve(_face_lp(game, support, a, strict_opt=False))
    return sol.status == OPTIMAL and sol.value > 0


def _unique_witness(
    game: PersuasionGame, support: tuple[int, ...], a: int
) -> Belief | None:
    sol = solve(_face_lp(game, support, a, strict_opt=True))
    if sol.status != OPTIMAL or sol.value <= 0:
        return None
    return Belief(sol.primal[: game.n_types])
