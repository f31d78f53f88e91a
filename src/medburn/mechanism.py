"""Money-burning mechanisms: construction and incentive audits.

A canonical mechanism reports a type to the mediator, who publishes a
posterior belief and burns a deterministic amount tied to that belief.  The
near-optimal construction takes any signaling scheme, reserves probability
``delta`` for a fully revealing message per type, and burns exactly enough on
those revealing messages to equalize every type's net payoff, which makes
truth-telling exactly incentive-compatible at any ``delta`` in (0, 1) while
the payoff loss vanishes as ``delta`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Belief, PersuasionGame, PosteriorDistribution, restrict_to_support
from .geometry import value_interval
from .lp import CertificateError
from .rational import ONE, ZERO, Rational, RationalLike, rat


class InvalidDelta(ValueError):
    pass


def validate_delta(delta: RationalLike) -> Rational:
    """``delta`` as a rational strictly between 0 and 1, else ``InvalidDelta``."""
    try:
        d = rat(delta)
    except ValueError as exc:
        raise InvalidDelta(f"bad delta: {exc}") from exc
    if not (0 < d < 1):
        raise InvalidDelta(f"delta must lie strictly between 0 and 1, got {d}")
    return d


class NotIncentiveCompatible(ValueError):
    pass


@dataclass(frozen=True)
class CanonicalMDMB:
    """Posterior atoms, per-type reporting distribution, and burn per atom.

    ``values`` pins the sender's expected action value at each atom; when
    omitted, audits use the best receiver-optimal value there.
    """

    atoms: tuple[Belief, ...]
    pi: tuple[tuple[Rational, ...], ...]  # indexed type x atom
    x: tuple[Rational, ...]
    values: tuple[Rational, ...] | None = None

    def n_atoms(self) -> int:
        return len(self.atoms)


def validate_mechanism(game: PersuasionGame, mech: CanonicalMDMB) -> None:
    game = restrict_to_support(game)
    n, k = game.n_types, mech.n_atoms()
    if len(mech.pi) != n or any(len(row) != k for row in mech.pi):
        raise ValueError("reporting matrix has wrong shape")
    if len(mech.x) != k:
        raise ValueError("one burn per atom required")
    for row in mech.pi:
        if any(p < 0 for p in row):
            raise ValueError("reporting probabilities must be nonnegative")
        if sum(row, ZERO) != ONE:
            raise ValueError("each type's reporting row must sum to 1")
    if any(b < 0 for b in mech.x):
        raise ValueError("burns must be nonnegative")
    for j, belief in enumerate(mech.atoms):
        reach = sum((game.prior[t] * mech.pi[t][j] for t in range(n)), ZERO)
        for t in range(n):
            if belief[t] * reach != game.prior[t] * mech.pi[t][j]:
                raise ValueError(
                    f"atom {belief} is not the Bayesian posterior of its message"
                )


def atom_values(game: PersuasionGame, mech: CanonicalMDMB) -> tuple[Rational, ...]:
    if mech.values is not None:
        return mech.values
    return tuple([value_interval(game, b)[1] for b in mech.atoms])


def net_payoffs(game: PersuasionGame, mech: CanonicalMDMB) -> tuple[Rational, ...]:
    """Each type's truthful expected value net of burning."""
    game = restrict_to_support(game)
    vals = atom_values(game, mech)
    out = []
    for t in range(game.n_types):
        out.append(
            sum(
                (mech.pi[t][j] * (vals[j] - mech.x[j]) for j in range(mech.n_atoms())),
                ZERO,
            )
        )
    return tuple(out)


def check_ic(game: PersuasionGame, mech: CanonicalMDMB) -> tuple[tuple[Rational, ...], ...]:
    """Residual matrix: truthful net payoff minus the payoff of misreporting.

    A misreporting type inherits the target type's message distribution, so
    the residual is just the difference of net payoffs.  Incentive
    compatibility holds exactly when every entry is zero, equivalently when
    every entry is nonnegative.
    """
    nets = net_payoffs(game, mech)
    return tuple(
        tuple(nets[t] - nets[s] for s in range(len(nets))) for t in range(len(nets))
    )


def sender_payoff(game: PersuasionGame, mech: CanonicalMDMB) -> Rational:
    game = restrict_to_support(game)
    residuals = check_ic(game, mech)
    if any(r != 0 for row in residuals for r in row):
        raise NotIncentiveCompatible("net payoffs differ across types")
    nets = net_payoffs(game, mech)
    return sum((game.prior[t] * nets[t] for t in range(game.n_types)), ZERO)


def construct_optimal_mdmb(
    game: PersuasionGame, p_star: PosteriorDistribution, delta: RationalLike
) -> CanonicalMDMB:
    """Equal-net-payoff mechanism built on ``p_star`` with revelation mass ``delta``.

    Burns sit only on the fully revealing messages and are sized from the
    delta-blended interim payoffs, so net payoffs coincide exactly for every
    delta rather than only in the limit.
    """
    d = validate_delta(delta)
    game = restrict_to_support(game)
    if not p_star.is_bayes_plausible(game.prior):
        raise ValueError("scheme must be Bayes-plausible at the prior")
    n = game.n_types
    base = p_star.merged()
    beliefs: list[Belief] = [b for b, _ in base.atoms]
    index: dict[tuple[Rational, ...], int] = {b.weights: j for j, b in enumerate(beliefs)}
    degenerate_at: list[int] = []
    for t in range(n):
        b = Belief.degenerate(n, t)
        if b.weights not in index:
            index[b.weights] = len(beliefs)
            beliefs.append(b)
        degenerate_at.append(index[b.weights])

    one_minus = ONE - d
    pi = [[ZERO] * len(beliefs) for _ in range(n)]
    for j, (belief, weight) in enumerate(base.atoms):
        for t in range(n):
            if belief[t] != 0:
                pi[t][j] = one_minus * weight * belief[t] / game.prior[t]
    for t in range(n):
        pi[t][degenerate_at[t]] += d

    vals = tuple([value_interval(game, b)[1] for b in beliefs])
    interim = [
        sum((pi[t][j] * vals[j] for j in range(len(beliefs))), ZERO) for t in range(n)
    ]
    floor = min(interim)
    burns = [ZERO] * len(beliefs)
    for t in range(n):
        j = degenerate_at[t]
        burns[j] = (interim[t] - floor) / pi[t][j]

    mech = CanonicalMDMB(tuple(beliefs), tuple(tuple(r) for r in pi), tuple(burns), vals)
    validate_mechanism(game, mech)
    if any(v != floor for v in net_payoffs(game, mech)):
        raise CertificateError("construction must equalize payoffs")
    return mech
