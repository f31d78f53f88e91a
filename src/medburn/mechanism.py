"""Money-burning mechanisms: construction, canonical form, and audits.

A canonical mechanism reports a type to the mediator, who publishes a
posterior belief and burns a deterministic amount tied to that belief.  The
near-optimal construction takes any signaling scheme, reserves probability
``delta`` for a fully revealing message per type, and burns exactly enough on
those revealing messages to equalize every type's net payoff, which makes
truth-telling exactly incentive-compatible at any ``delta`` in (0, 1) while
the payoff loss vanishes as ``delta`` does.

Arbitrary message mechanisms are handled by checking an asserted equilibrium
(sender optimality, receiver optimality, and exact Bayes updating) and folding
information sets with a common posterior into canonical form, preserving every
type's expected payoff exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import Belief, PersuasionGame, PosteriorDistribution, restrict_to_support
from .geometry import best_responses, value_interval
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


class NotAnEquilibrium(ValueError):
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


def deviation_findings(game: PersuasionGame, mech: CanonicalMDMB) -> tuple[tuple[int, int], ...]:
    """All strictly profitable pure misreports (truth-teller, report)."""
    residuals = check_ic(game, mech)
    return tuple(
        (t, s)
        for t, row in enumerate(residuals)
        for s, r in enumerate(row)
        if r < 0
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


# -- arbitrary message mechanisms and their equilibria ----------------------

InfoSet = tuple[str, Rational]


@dataclass(frozen=True)
class RawMDMB:
    """Message mechanism: finite inputs, outputs, and stochastic (output, burn)."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    phi: tuple[tuple[str, tuple[tuple[InfoSet, Rational], ...]], ...]

    def __init__(
        self,
        inputs: Iterable[str],
        outputs: Iterable[str],
        phi: Mapping[str, Iterable[tuple[tuple[str, RationalLike], RationalLike]]],
    ):
        ins = tuple(inputs)
        outs = tuple(outputs)
        packed = []
        for m in ins:
            if m not in phi:
                raise ValueError(f"no distribution for input {m!r}")
            entries = []
            total = ZERO
            for (s, burn), prob in phi[m]:
                if s not in outs:
                    raise ValueError(f"unknown output label {s!r}")
                b, p = rat(burn), rat(prob)
                if b < 0:
                    raise ValueError("burn amounts must be nonnegative")
                if p < 0:
                    raise ValueError("probabilities must be nonnegative")
                if p > 0:
                    entries.append(((s, b), p))
                    total += p
            if total != ONE:
                raise ValueError(f"phi({m!r}) sums to {total}, not 1")
            packed.append((m, tuple(entries)))
        object.__setattr__(self, "inputs", ins)
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "phi", tuple(packed))

    def phi_of(self, m: str) -> tuple[tuple[InfoSet, Rational], ...]:
        for mm, entries in self.phi:
            if mm == m:
                return entries
        raise KeyError(m)

    def info_sets(self) -> tuple[InfoSet, ...]:
        seen: list[InfoSet] = []
        for _, entries in self.phi:
            for key, _ in entries:
                if key not in seen:
                    seen.append(key)
        return tuple(seen)


def _normalize_dist(dist: Mapping[str, RationalLike], what: str) -> dict[str, Rational]:
    out = {k: rat(p) for k, p in dist.items() if rat(p) != 0}
    if any(p < 0 for p in out.values()):
        raise ValueError(f"{what} has negative probabilities")
    if sum(out.values(), ZERO) != ONE:
        raise ValueError(f"{what} does not sum to 1")
    return out


@dataclass(frozen=True)
class Assessment:
    """Sender reporting strategy, receiver response, and receiver beliefs."""

    sigma: tuple[tuple[str, tuple[tuple[str, Rational], ...]], ...]
    alpha: tuple[tuple[InfoSet, tuple[tuple[str, Rational], ...]], ...]
    beliefs: tuple[tuple[InfoSet, Belief], ...]

    def __init__(
        self,
        sigma: Mapping[str, Mapping[str, RationalLike]],
        alpha: Mapping[tuple[str, RationalLike], Mapping[str, RationalLike]],
        beliefs: Mapping[tuple[str, RationalLike], Belief],
    ):
        sig = tuple(
            (t, tuple(sorted(_normalize_dist(d, f"sigma({t})").items())))
            for t, d in sigma.items()
        )
        alp = tuple(
            ((s, rat(b)), tuple(sorted(_normalize_dist(d, f"alpha({s},{b})").items())))
            for (s, b), d in alpha.items()
        )
        bel = tuple(((s, rat(b)), mu) for (s, b), mu in beliefs.items())
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "alpha", alp)
        object.__setattr__(self, "beliefs", bel)

    def sigma_of(self, t: str) -> dict[str, Rational]:
        for tt, d in self.sigma:
            if tt == t:
                return dict(d)
        raise KeyError(t)

    def alpha_of(self, key: InfoSet) -> dict[str, Rational]:
        for kk, d in self.alpha:
            if kk == key:
                return dict(d)
        raise KeyError(key)

    def belief_of(self, key: InfoSet) -> Belief:
        for kk, mu in self.beliefs:
            if kk == key:
                return mu
        raise KeyError(key)


@dataclass(frozen=True)
class PbeCheck:
    ok: bool
    first_violation: str | None = None


def _expected_action_value(game: PersuasionGame, dist: dict[str, Rational]) -> Rational:
    idx = {a: i for i, a in enumerate(game.actions)}
    return sum((p * game.v[idx[a]] for a, p in dist.items()), ZERO)


def _report_payoff(
    game: PersuasionGame, raw: RawMDMB, assess: Assessment, m: str
) -> Rational:
    total = ZERO
    for (s, burn), prob in raw.phi_of(m):
        total += prob * (_expected_action_value(game, assess.alpha_of((s, burn))) - burn)
    return total


def _reach(
    game: PersuasionGame, raw: RawMDMB, assess: Assessment, key: InfoSet
) -> tuple[list[Rational], Rational]:
    """Each type's probability of reaching ``key``, and the prior-weighted total."""
    by_type = []
    for t_label in game.types:
        mass = ZERO
        for m, pm in assess.sigma_of(t_label).items():
            for kk, prob in raw.phi_of(m):
                if kk == key:
                    mass += pm * prob
        by_type.append(mass)
    total = sum((game.prior[i] * by_type[i] for i in range(game.n_types)), ZERO)
    return by_type, total


def check_pbe(game: PersuasionGame, raw: RawMDMB, assess: Assessment) -> PbeCheck:
    """Verify the three equilibrium conditions exactly.

    Receiver responses must best-respond to the stated belief at every
    information set; beliefs must satisfy Bayes updating wherever the set is
    reached; no pure report may beat a type's prescribed reports.
    """
    game = restrict_to_support(game)
    action_index = {a: i for i, a in enumerate(game.actions)}

    for t_label in game.types:
        try:
            reports = assess.sigma_of(t_label)
        except KeyError:
            return PbeCheck(False, f"assessment has no strategy for type {t_label!r}")
        for m in reports:
            if m not in raw.inputs:
                return PbeCheck(False, f"type {t_label!r} reports {m!r}, not a mechanism input")

    for key in raw.info_sets():
        try:
            mu = assess.belief_of(key)
            act = assess.alpha_of(key)
        except KeyError:
            return PbeCheck(False, f"assessment missing information set {key}")
        if len(mu) != game.n_types:
            return PbeCheck(False, f"belief at {key} has wrong dimension")
        ro = set(best_responses(game, mu))
        for a in act:
            if a not in action_index:
                return PbeCheck(False, f"receiver action {a!r} at {key} is not a game action")
            if action_index[a] not in ro:
                return PbeCheck(
                    False, f"receiver action {a!r} at {key} is not optimal under its belief"
                )

    # Reach probabilities and exact Bayes updating at reached sets.
    for key in raw.info_sets():
        mu = assess.belief_of(key)
        reach_by_type, denom = _reach(game, raw, assess, key)
        if denom == 0:
            continue
        for i in range(game.n_types):
            if mu[i] * denom != game.prior[i] * reach_by_type[i]:
                return PbeCheck(False, f"belief at {key} violates Bayes updating")

    # reporting payoffs are type-independent: the sender's value ignores the type
    payoffs = {m: _report_payoff(game, raw, assess, m) for m in raw.inputs}
    best = max(payoffs.values())
    for t_label in game.types:
        for m, pm in assess.sigma_of(t_label).items():
            if pm > 0 and payoffs[m] != best:
                return PbeCheck(
                    False,
                    f"type {t_label!r} reports {m!r} worth {payoffs[m]} but {best} is available",
                )
    return PbeCheck(True, None)


def raw_sender_payoff(game: PersuasionGame, raw: RawMDMB, assess: Assessment) -> Rational:
    game = restrict_to_support(game)
    total = ZERO
    for i, t_label in enumerate(game.types):
        for m, pm in assess.sigma_of(t_label).items():
            total += game.prior[i] * pm * _report_payoff(game, raw, assess, m)
    return total


def canonicalize(game: PersuasionGame, raw: RawMDMB, assess: Assessment) -> CanonicalMDMB:
    """Fold an equilibrium of a message mechanism into canonical form.

    Information sets sharing a posterior merge into one atom; the atom's burn
    is the reach-weighted average burn and its value the reach-weighted
    expected action value.  Per-type expected payoffs survive exactly.
    """
    game = restrict_to_support(game)
    verdict = check_pbe(game, raw, assess)
    if not verdict.ok:
        raise NotAnEquilibrium(verdict.first_violation or "assessment is not an equilibrium")

    n = game.n_types
    groups: dict[tuple[Rational, ...], list[InfoSet]] = {}
    reach: dict[InfoSet, Rational] = {}
    reach_by_type: dict[InfoSet, list[Rational]] = {}
    for key in raw.info_sets():
        by_type, total = _reach(game, raw, assess, key)
        if total == 0:
            continue
        reach[key] = total
        reach_by_type[key] = by_type
        groups.setdefault(assess.belief_of(key).weights, []).append(key)

    atoms, pi_cols, burns, vals = [], [], [], []
    for mu_key, keys in groups.items():
        mass = sum((reach[k] for k in keys), ZERO)
        atoms.append(Belief(mu_key))
        pi_cols.append(
            [sum((reach_by_type[k][t] for k in keys), ZERO) for t in range(n)]
        )
        burns.append(sum((reach[k] * k[1] for k in keys), ZERO) / mass)
        vals.append(
            sum(
                (reach[k] * _expected_action_value(game, assess.alpha_of(k)) for k in keys),
                ZERO,
            )
            / mass
        )
    pi = tuple(tuple(pi_cols[j][t] for j in range(len(atoms))) for t in range(n))
    mech = CanonicalMDMB(tuple(atoms), pi, tuple(burns), tuple(vals))
    validate_mechanism(game, mech)

    nets = net_payoffs(game, mech)
    for i, t_label in enumerate(game.types):
        direct = sum(
            (pm * _report_payoff(game, raw, assess, m) for m, pm in assess.sigma_of(t_label).items()),
            ZERO,
        )
        if nets[i] != direct:
            raise CertificateError("canonical form must preserve per-type payoffs")
    return mech
