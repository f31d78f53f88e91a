"""Protocol values and certificates.

Five sender-optimal values for one game: cheap talk (quasi-concave envelope),
mediation (worst affine reweighting), mediation with budget-capped burning,
mediation with unlimited burning (worst simplex reweighting), and full
commitment (plain concavification).  The burning protocols also return a
saddle certificate: the worst reweighting, an optimal posterior decomposition,
and per-type directional payoffs witnessing optimality.

Each burning value passes only its budget down to ``envelopes``: ``None``
for unlimited burning, ``C`` for a cap, and 0 for mediation.

Every operation also exists at the structure level, so abstract value
structures given directly as pieces run through the identical pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    PersuasionGame,
    PosteriorDistribution,
    SubjectivePrior,
    restrict_to_support,
)
from .envelopes import (
    EnvelopeBasis,
    WorstPriorResult,
    concavify_weighted,
    evaluate_subjective,
    quasiconcavify,
    worst_prior_envelope,
)
from .geometry import PiecewiseValueStructure, compile_pieces, value_interval
from .lp import EQ, FREE, GE, OPTIMAL, CertificateError, LinearProgram, integer_rows, solve
from .rational import ONE, ZERO, Rational, RationalLike, over_common_denominator, rat


class InadmissibleValue(ValueError):
    pass


class NotBinary(ValueError):
    pass


@dataclass(frozen=True)
class SaddleCertificate:
    lambda_star: SubjectivePrior
    p_star: PosteriorDistribution
    value: Rational
    per_type_payoffs: tuple[Rational, ...]


def _structure_of(game: PersuasionGame) -> PiecewiseValueStructure:
    return compile_pieces(restrict_to_support(game))


def max_selection(game: PersuasionGame, p: PosteriorDistribution) -> tuple[Rational, ...]:
    """The best achievable sender value at each atom."""
    game = restrict_to_support(game)
    return tuple([value_interval(game, belief)[1] for belief, _ in p.atoms])


def interim_payoffs(
    game: PersuasionGame,
    p: PosteriorDistribution,
    values: Sequence[RationalLike],
) -> tuple[Rational, ...]:
    """Per-type expected payoff shares of a signaling scheme.

    Type t receives sum over atoms of weight * belief(t)/prior(t) * value.
    Each selected value must be achievable at its atom.
    """
    game = restrict_to_support(game)
    if len(values) != len(p.atoms):
        raise ValueError("one value per atom required")
    if any(len(belief) != game.n_types for belief, _ in p.atoms):
        raise ValueError("atom beliefs do not match the supported type count")
    vals = [rat(v) for v in values]
    for (belief, _), v in zip(p.atoms, vals):
        lo, hi = value_interval(game, belief)
        if not (lo <= v <= hi):
            raise InadmissibleValue(
                f"value {v} outside achievable interval [{lo}, {hi}] at {belief}"
            )
    return _payoff_shares(game.prior, p, vals)


def _payoff_shares(prior, p: PosteriorDistribution, vals) -> tuple[Rational, ...]:
    """Type t's share ``sum_a w_a * mu_a[t] / prior[t] * v_a``, on integers.

    The joint masses ``w_a * mu_a[t]`` go over one denominator; they must
    add up to the prior, and each share is the one rational built per type.
    """
    joint = []
    for belief, weight in p.atoms:
        nums, den = over_common_denominator(belief.weights)
        joint.append(([weight.numerator * v for v in nums], weight.denominator * den))
    den = math.lcm(*[d for _, d in joint])
    masses = [[v * (den // d) for v in nums] for nums, d in joint]
    pnums, pden = over_common_denominator(prior.weights)
    vnums, vden = over_common_denominator(vals)
    out = []
    for t, pt in enumerate(pnums):
        if sum([m[t] for m in masses]) * pden != pt * den:
            raise ValueError("posterior distribution does not average to the prior")
        total = sum([m[t] * v for m, v in zip(masses, vnums)])
        out.append(rat(total * pden, den * vden * pt))
    return tuple(out)


# -- structure-level values --------------------------------------------------


def value_bp_structure(structure: PiecewiseValueStructure) -> Rational:
    return concavify_weighted(structure, SubjectivePrior.from_belief(structure.prior)).value


def value_ct_structure(structure: PiecewiseValueStructure) -> Rational:
    return quasiconcavify(structure)


def _certificate(
    structure: PiecewiseValueStructure, result: WorstPriorResult
) -> SaddleCertificate:
    p_star = result.envelope.posterior()
    vals = [structure.interval_at(belief)[1] for belief, _ in p_star.atoms]
    payoffs = _payoff_shares(structure.prior, p_star, vals)
    return SaddleCertificate(result.lam, p_star, result.envelope.value, payoffs)


def value_mdmb_structure(
    structure: PiecewiseValueStructure, start: EnvelopeBasis | None = None
) -> tuple[Rational, SaddleCertificate]:
    cert = _certificate(structure, worst_prior_envelope(structure, None, start))
    if min(cert.per_type_payoffs) != cert.value:
        raise CertificateError("optimal scheme's worst type payoff must equal the protocol value")
    return cert.value, cert


def value_mdmb_budget_structure(
    structure: PiecewiseValueStructure, budget: RationalLike
) -> tuple[Rational, SaddleCertificate]:
    cert = _certificate(structure, worst_prior_envelope(structure, rat(budget)))
    return cert.value, cert


# -- game-level values -------------------------------------------------------


def value_bp(game: PersuasionGame) -> Rational:
    """Full-commitment value: concavification at the prior."""
    return value_bp_structure(_structure_of(game))


def value_ct(game: PersuasionGame) -> Rational:
    """Cheap-talk value: quasi-concave envelope at the prior."""
    return value_ct_structure(_structure_of(game))


def value_mdmb(game: PersuasionGame) -> tuple[Rational, SaddleCertificate]:
    """Value of mediation with unlimited money burning, with its saddle.

    Equals both the max over schemes of the minimum per-type payoff and the
    min over simplex reweightings of the concavified reweighted value; the
    certificate carries a maximizer of the former and a minimizer of the
    latter, which together form a saddle point.
    """
    return value_mdmb_structure(_structure_of(game))


def value_mdmb_budget(
    game: PersuasionGame, budget: RationalLike
) -> tuple[Rational, SaddleCertificate]:
    """Value of mediation with burning capped at ``budget`` per message."""
    return value_mdmb_budget_structure(_structure_of(game), budget)


def value_md(game: PersuasionGame) -> Rational:
    """Value of mediation without burning: the zero-budget cap."""
    return value_mdmb_budget(game, 0)[0]


def value_mdmb_binary(game: PersuasionGame) -> Rational:
    """Two-type shortcut: the worst reweighting sits at a vertex."""
    structure = _structure_of(game)
    if structure.dim != 2:
        raise NotBinary(f"{structure.dim} supported types; shortcut needs exactly 2")
    return min(
        concavify_weighted(structure, SubjectivePrior.degenerate(2, t)).value for t in range(2)
    )


# -- saddle verification -----------------------------------------------------


@dataclass(frozen=True)
class SaddleDiagnostics:
    ok: bool
    first_violation: str | None


def _mixture_payoff(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None,
    p: PosteriorDistribution,
) -> Rational:
    return sum(
        (w * evaluate_subjective(structure, lam, budget, belief) for belief, w in p.atoms),
        ZERO,
    )


def _min_affine_payoff(
    structure: PiecewiseValueStructure, budget: Rational, p: PosteriorDistribution
) -> Rational:
    """min over affine reweightings of the budgeted mixture payoff (small LP)."""
    n = structure.dim
    prior = structure.prior
    atoms = list(p.atoms)
    # variables: lam_0..lam_{n-1} free, then one epigraph variable per atom
    s0 = n
    cons: list[tuple[dict, str, RationalLike]] = [({t: 1 for t in range(n)}, EQ, 1)]
    objective: dict[int, Rational] = {}
    for i, (belief, weight) in enumerate(atoms):
        lo, hi = structure.interval_at(belief)
        shares = {t: belief[t] / prior[t] for t in range(n) if belief[t] != 0}
        for coeff in (hi, lo - budget):
            row: dict[int, Rational] = {s0 + i: ONE}
            for t, share in shares.items():
                if coeff != 0:
                    row[t] = -share * coeff
            cons.append((row, GE, 0))
        objective[s0 + i] = weight
    signs = (FREE,) * (n + len(atoms))
    sol = solve(LinearProgram("min", signs, objective, integer_rows(cons)))
    if sol.status != OPTIMAL:
        raise CertificateError("affine best-response LP must be solvable")
    return sol.value


def verify_saddle_structure(
    structure: PiecewiseValueStructure,
    cert: SaddleCertificate,
    budget: RationalLike | None = None,
    type_labels: Sequence[str] | None = None,
) -> SaddleDiagnostics:
    labels = type_labels or [str(t) for t in range(structure.dim)]
    cap = None if budget is None else rat(budget)
    if cap is None and not cert.lambda_star.in_simplex():
        return SaddleDiagnostics(
            False, "unlimited-budget certificate needs a simplex reweighting"
        )
    if not cert.p_star.is_bayes_plausible(structure.prior):
        return SaddleDiagnostics(False, "scheme is not Bayes-plausible at the prior")

    at_saddle = _mixture_payoff(structure, cert.lambda_star, cap, cert.p_star)
    cav = concavify_weighted(structure, cert.lambda_star, cap).value
    if at_saddle != cav:
        return SaddleDiagnostics(
            False,
            f"mixture payoff {at_saddle} differs from concavified value {cav}",
        )

    if cap is None:
        directional = [
            _mixture_payoff(
                structure, SubjectivePrior.degenerate(structure.dim, t), None, cert.p_star
            )
            for t in range(structure.dim)
        ]
        support = set(cert.lambda_star.support())
        for t, d in enumerate(directional):
            if t in support and d != cert.value:
                return SaddleDiagnostics(
                    False,
                    f"supported type {labels[t]} has directional payoff {d} != value {cert.value}",
                )
            if t not in support and d < cert.value:
                return SaddleDiagnostics(
                    False,
                    f"unsupported type {labels[t]} has directional payoff {d} < value {cert.value}",
                )
    else:
        best_response = _min_affine_payoff(structure, cap, cert.p_star)
        if best_response != cert.value:
            return SaddleDiagnostics(
                False,
                f"affine best response {best_response} differs from value {cert.value}",
            )
    if at_saddle != cert.value:
        return SaddleDiagnostics(
            False,
            f"mixture payoff {at_saddle} differs from stated value {cert.value}",
        )
    return SaddleDiagnostics(True, None)


def verify_saddle(
    game: PersuasionGame,
    cert: SaddleCertificate,
    budget: RationalLike | None = None,
) -> SaddleDiagnostics:
    """Exact saddle-point audit of a certificate.

    Simplex mode (``budget`` None): the mixture payoff at the certificate pair
    must equal the concavified value at its reweighting; every supported type's
    directional payoff must equal the value; every unsupported type's must not
    fall below it.  Budget mode replaces the per-type conditions with the
    affine best-response check, since burning makes supported directional
    payoffs exceed the net value by the amount burned.
    """
    restricted = restrict_to_support(game)
    return verify_saddle_structure(
        compile_pieces(restricted), cert, budget, restricted.types
    )


# -- the full comparison -----------------------------------------------------


@dataclass(frozen=True)
class ProtocolReport:
    """The five protocol values.  ``capped`` keeps each capped solve's
    (budget, certificate), budget 0 (MD) first and then the distinct caps
    ascending; a cap of 0 shares MD's certificate.  The oracle audit reads
    each value and worst reweighting from it.  ``certificate`` is the saddle
    behind ``mdmb``."""

    ct: Rational
    capped: tuple[tuple[Rational, SaddleCertificate], ...]
    mdmb: Rational
    bp: Rational
    certificate: SaddleCertificate

    @property
    def md(self) -> Rational:
        return self.capped[0][1].value

    @property
    def budgeted(self) -> tuple[tuple[Rational, Rational], ...]:
        return tuple([(c, cert.value) for c, cert in self.capped[1:]])

    def chain(self) -> tuple[Rational, ...]:
        return (self.ct, self.md) + tuple([v for _, v in self.budgeted]) + (self.mdmb, self.bp)


def protocol_report_structure(
    structure: PiecewiseValueStructure, budgets: Sequence[RationalLike] = ()
) -> ProtocolReport:
    caps = [ZERO] + sorted({rat(c) for c in budgets})
    ct = value_ct_structure(structure)
    # Every cap above 0 and unlimited burning start from mediation's optimal
    # basis, which stays feasible for them unless mediation burns (see
    # ``envelopes``).
    md = worst_prior_envelope(structure, ZERO)
    certs = {ZERO: _certificate(structure, md)}
    for c in caps:
        if c not in certs:
            certs[c] = _certificate(structure, worst_prior_envelope(structure, c, md.basis))
    capped = tuple([(c, certs[c]) for c in caps])
    mdmb, cert = value_mdmb_structure(structure, md.basis)
    bp = value_bp_structure(structure)
    report = ProtocolReport(ct, capped, mdmb, bp, cert)
    values = report.chain()
    for lo, hi in zip(values, values[1:]):
        if lo > hi:
            raise CertificateError(f"protocol ordering violated: {lo} > {hi}")
    return report


def protocol_report(
    game: PersuasionGame, budgets: Sequence[RationalLike] = ()
) -> ProtocolReport:
    """All five protocol values, with the value chain checked before return."""
    return protocol_report_structure(_structure_of(game), budgets)
