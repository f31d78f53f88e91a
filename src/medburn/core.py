"""Game primitives: types, actions, payoffs, priors, and belief objects.

A game is a finite sender-receiver interaction: the sender privately knows a
type, the receiver picks an action, the receiver's payoff depends on both, and
the sender's value depends on the action alone (state-independent motives).
Everything downstream consumes the validated, support-restricted form built
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .rational import (
    ONE, ZERO, Rational, RationalLike, format_fraction, over_common_denominator, rat
)


class GameValidationError(ValueError):
    """Base class for rejected game descriptions."""


class DimensionMismatch(GameValidationError):
    pass


class PriorNotOnSimplex(GameValidationError):
    pass


class EmptyTypeOrActionSet(GameValidationError):
    pass


class AllTypesNull(GameValidationError):
    pass


def _rat_tuple(values: Iterable[RationalLike]) -> tuple[Rational, ...]:
    return tuple([rat(v) for v in values])


def _sums_to_one(values: Sequence[Rational]) -> bool:
    """Whether ``values`` add up to one, by an integer sum over their common denominator."""
    nums, den = over_common_denominator(values)
    return sum(nums) == den


@dataclass(frozen=True)
class Belief:
    """A point on the probability simplex over types."""

    weights: tuple[Rational, ...]

    def __init__(self, weights: Iterable[RationalLike]):
        object.__setattr__(self, "weights", _rat_tuple(weights))
        if any(w.numerator < 0 for w in self.weights):
            raise PriorNotOnSimplex(f"negative belief weight in {self}")
        if not _sums_to_one(self.weights):
            raise PriorNotOnSimplex(f"belief weights sum to {sum(self.weights, ZERO)}, not 1")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Rational:
        return self.weights[i]

    def support(self) -> tuple[int, ...]:
        return tuple([i for i, w in enumerate(self.weights) if w > 0])

    @staticmethod
    def degenerate(n: int, i: int) -> "Belief":
        return Belief([ONE if j == i else ZERO for j in range(n)])

    def __str__(self) -> str:
        return "(" + ", ".join(format_fraction(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class SubjectivePrior:
    """A reweighting of types: an affine combination, weights summing to one.

    Mediation without burning minimizes over affine reweightings (negative
    weights allowed), the money-burning protocol over simplex ones; the
    weights alone say which, through ``in_simplex``.
    """

    weights: tuple[Rational, ...]

    def __init__(self, weights: Iterable[RationalLike]):
        object.__setattr__(self, "weights", _rat_tuple(weights))
        if not _sums_to_one(self.weights):
            raise ValueError("subjective prior weights must sum to 1")

    def in_simplex(self) -> bool:
        return all(w >= 0 for w in self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Rational:
        return self.weights[i]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w != 0)

    @staticmethod
    def degenerate(n: int, i: int) -> "SubjectivePrior":
        return SubjectivePrior([ONE if j == i else ZERO for j in range(n)])

    @staticmethod
    def from_belief(belief: Belief) -> "SubjectivePrior":
        return SubjectivePrior(belief.weights)

    def __str__(self) -> str:
        return "(" + ", ".join(format_fraction(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class PosteriorDistribution:
    """Finitely supported distribution over posterior beliefs.

    This is a signaling scheme in unconditional form: atom ``(belief, weight)``
    says the receiver ends at ``belief`` with total probability ``weight``.
    """

    atoms: tuple[tuple[Belief, Rational], ...]

    def __init__(self, atoms: Iterable[tuple[Belief, RationalLike]]):
        packed = tuple([(b, rat(w)) for b, w in atoms])
        object.__setattr__(self, "atoms", packed)
        if not packed:
            raise ValueError("posterior distribution needs at least one atom")
        if any(w.numerator <= 0 for _, w in packed):
            raise ValueError("atom weights must be positive")
        if not _sums_to_one([w for _, w in packed]):
            raise ValueError("atom weights must sum to 1")
        n = len(packed[0][0])
        if any(len(b) != n for b, _ in packed):
            raise DimensionMismatch("atoms live on simplices of different dimension")

    def mean(self) -> Belief:
        n = len(self.atoms[0][0])
        totals = [ZERO] * n
        for belief, weight in self.atoms:
            for i in range(n):
                totals[i] += weight * belief[i]
        return Belief(totals)

    def is_bayes_plausible(self, prior: Belief) -> bool:
        return self.mean() == prior

    def merged(self) -> "PosteriorDistribution":
        """Combine atoms that share a belief, in first-seen order."""
        grouped: dict[tuple[Rational, ...], Rational] = {}
        for belief, weight in self.atoms:
            grouped[belief.weights] = grouped.get(belief.weights, ZERO) + weight
        return PosteriorDistribution((Belief(k), w) for k, w in grouped.items())

    def __str__(self) -> str:
        return ", ".join(f"{b} w.p. {format_fraction(w)}" for b, w in self.atoms)


@dataclass(frozen=True)
class PersuasionGame:
    """Validated game: types, actions, receiver payoffs u(a, t), sender values v(a)."""

    types: tuple[str, ...]
    actions: tuple[str, ...]
    u: tuple[tuple[Rational, ...], ...]  # indexed action x type
    v: tuple[Rational, ...]  # indexed by action
    prior: Belief

    @property
    def n_types(self) -> int:
        return len(self.types)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def expected_u(self, action: int, belief: Belief) -> Rational:
        row = self.u[action]
        return sum((belief[t] * row[t] for t in range(self.n_types)), ZERO)

    def with_prior(self, prior: Belief) -> "PersuasionGame":
        if len(prior) != self.n_types:
            raise DimensionMismatch("prior length does not match type count")
        return PersuasionGame(self.types, self.actions, self.u, self.v, prior)


def validate_game(
    types: Sequence[str],
    actions: Sequence[str],
    u: Sequence[Sequence[RationalLike]],
    v: Sequence[RationalLike],
    prior: Sequence[RationalLike] | Belief,
) -> PersuasionGame:
    """Check dimensions and the prior, returning an immutable game.

    ``u`` is row-major action x type.  ``v`` has one entry per action: the
    sender's value cannot depend on the type.
    """
    if len(types) == 0 or len(actions) == 0:
        raise EmptyTypeOrActionSet("need at least one type and one action")
    if len(set(types)) != len(types) or len(set(actions)) != len(actions):
        raise GameValidationError("type and action labels must be distinct")
    if len(u) != len(actions):
        raise DimensionMismatch(f"u has {len(u)} rows for {len(actions)} actions")
    rows = []
    for a, row in enumerate(u):
        if len(row) != len(types):
            raise DimensionMismatch(f"u row {a} has {len(row)} entries for {len(types)} types")
        rows.append(_rat_tuple(row))
    if len(v) != len(actions):
        raise DimensionMismatch(f"v has {len(v)} entries for {len(actions)} actions")
    if len(prior) != len(types):
        raise PriorNotOnSimplex(f"prior has {len(prior)} entries for {len(types)} types")
    if not isinstance(prior, Belief):
        prior = Belief(prior)
    return PersuasionGame(tuple(types), tuple(actions), tuple(rows), _rat_tuple(v), prior)


def restrict_to_support(game: PersuasionGame) -> PersuasionGame:
    """Drop zero-prior types.  Solver entry points call this first.

    The removed types carry no mass, so the prior needs no renormalization.
    Idempotent; returns the same game object when the prior has full support.
    """
    keep = game.prior.support()
    if not keep:
        raise AllTypesNull("prior assigns zero to every type")
    if len(keep) == game.n_types:
        return game
    types = tuple(game.types[t] for t in keep)
    u = tuple(tuple(row[t] for t in keep) for row in game.u)
    prior = Belief([game.prior[t] for t in keep])
    return PersuasionGame(types, game.actions, u, game.v, prior)
