"""Arbitrary message mechanisms, their equilibria, and canonical form.

The revelation-principle reference for the canonical mechanisms of
``medburn.mechanism``.  Arbitrary message mechanisms are handled by checking an
asserted equilibrium (sender optimality, receiver optimality, and exact Bayes
updating) and folding information sets with a common posterior into canonical
form, preserving every type's expected payoff exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from medburn.core import Belief, PersuasionGame, restrict_to_support
from medburn.geometry import best_responses
from medburn.lp import CertificateError
from medburn.mechanism import CanonicalMDMB, net_payoffs, validate_mechanism
from medburn.rational import ONE, ZERO, Rational, RationalLike, rat


class NotAnEquilibrium(ValueError):
    pass


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
