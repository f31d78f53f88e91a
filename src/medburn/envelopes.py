"""Concave and quasi-concave envelope evaluation at the prior.

The concavification of a reweighted piecewise value is one LP: a nonnegative
``mass x belief`` vector per (piece, branch) constrained to the piece's cone,
summing to the prior.  The minimization over reweightings (worst subjective
prior) is the LP dual of a max-min program over the same blocks, so a single
solve returns the value, the optimal posterior decomposition, and the worst
prior as the payoff rows' multipliers.

The burning budget alone picks the program.  Without a budget (unlimited
burning) every piece pays its best value and reweightings range over the
simplex.  With a budget C (capped burning; C = 0 is plain mediation) each
piece also gets a ``min`` branch paying its worst value less C, and
reweightings range over the affine hull.  Offering both branches as separate
blocks at the same region realizes the pointwise max exactly, because
concavification already maximizes over decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Belief, PosteriorDistribution, SubjectivePrior
from .geometry import PiecewiseValueStructure
from .lp import EQ, FREE, LE, NONNEG, OPTIMAL, CertificateError, LinearProgram, solve
from .rational import ONE, ZERO, Rational, over_common_denominator, rat

MAX_BRANCH = "max"
MIN_BRANCH = "min"

@dataclass(frozen=True)
class DecompositionAtom:
    belief: Belief
    weight: Rational
    piece: int  # index into structure.pieces
    branch: str
    value: Rational  # branch coefficient: vmax, or vmin - budget


@dataclass(frozen=True)
class EnvelopeResult:
    value: Rational
    atoms: tuple[DecompositionAtom, ...]

    def posterior(self) -> PosteriorDistribution:
        return PosteriorDistribution(
            (a.belief, a.weight) for a in self.atoms
        ).merged()


def subjective_weight(lam: SubjectivePrior, prior: Belief, mu: Belief) -> Rational:
    """Likelihood reweighting sum(lam_t * mu_t / prior_t); identically 1 at lam == prior."""
    total = ZERO
    for t in range(len(prior)):
        lt = lam[t]
        if lt != 0:
            total += lt * mu[t] / prior[t]
    return total


def evaluate_subjective(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None,
    mu: Belief,
) -> Rational:
    """Pointwise reweighted value at ``mu`` with the exact tie set there."""
    w = subjective_weight(lam, structure.prior, mu)
    lo, hi = structure.interval_at(mu)
    if budget is None:
        if not lam.in_simplex():
            raise ValueError("unlimited budget requires a simplex reweighting")
        return w * hi
    return max(w * hi, w * (lo - budget))


def _require_full_support(structure: PiecewiseValueStructure) -> None:
    if any(w == 0 for w in structure.prior.weights):
        raise ValueError("envelope operations need a full-support prior; restrict first")


def _blocks(
    structure: PiecewiseValueStructure, budget: Rational | None
) -> list[tuple[int, str, Rational]]:
    out = []
    for k, piece in enumerate(structure.pieces):
        out.append((k, MAX_BRANCH, piece.vmax))
        if budget is not None:
            out.append((k, MIN_BRANCH, piece.vmin - budget))
    return out


def _cone_blocks(structure: PiecewiseValueStructure, pieces: list[int]):
    """Variables, prior-mass rows and cone rows for one block per listed piece.

    Block ``b`` holds the nonnegative ``mass x belief`` vector ``z{b}_{t}`` at
    columns ``b * dim + t``.  The mass rows make the blocks sum to the prior;
    the cone rows keep each block in the cone over its piece's region.
    """
    n = structure.dim
    variables = [(f"z{b}_{t}", NONNEG) for b in range(len(pieces)) for t in range(n)]
    mass = [
        ({b * n + t: ONE for b in range(len(pieces))}, EQ, structure.prior[t])
        for t in range(n)
    ]
    cone = []
    for b, k in enumerate(pieces):
        for coeffs, relation in structure.pieces[k].region.cone_rows:
            cone.append(({b * n + t: c for t, c in enumerate(coeffs) if c != 0}, relation, ZERO))
    return variables, mass, cone


def _extract_atoms(
    structure: PiecewiseValueStructure,
    blocks: list[tuple[int, str, Rational]],
    primal,
) -> tuple[DecompositionAtom, ...]:
    n = structure.dim
    atoms = []
    for b, (k, branch, coeff) in enumerate(blocks):
        z, den = over_common_denominator(primal[b * n : (b + 1) * n])
        mass = sum(z)
        if mass == 0:
            continue
        # the atom's belief is z / mass
        if not structure.pieces[k].region.contains_scaled(z, mass):
            raise CertificateError("atom left its piece")
        belief = Belief([rat(v, mass) for v in z])
        atoms.append(DecompositionAtom(belief, rat(mass, den), k, branch, coeff))
    return _merge_atoms(atoms)


def _merge_atoms(atoms) -> tuple[DecompositionAtom, ...]:
    grouped: dict[tuple, DecompositionAtom] = {}
    order = []
    for a in atoms:
        key = (a.belief.weights, a.branch, a.value)
        if key in grouped:
            old = grouped[key]
            grouped[key] = DecompositionAtom(
                old.belief, old.weight + a.weight, old.piece, old.branch, old.value
            )
        else:
            grouped[key] = a
            order.append(key)
    return tuple(grouped[k] for k in order)


def _check_result(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    result: EnvelopeResult,
) -> None:
    n = structure.dim
    totals = [ZERO] * n
    recombined = ZERO
    for a in result.atoms:
        for t in range(n):
            totals[t] += a.weight * a.belief[t]
        recombined += a.weight * subjective_weight(lam, structure.prior, a.belief) * a.value
    if tuple(totals) != structure.prior.weights:
        raise CertificateError("decomposition is not Bayes-plausible")
    if recombined != result.value:
        raise CertificateError("decomposition does not re-evaluate to the value")


def concavify_weighted(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None = None,
) -> EnvelopeResult:
    """Value and optimal split of the concavified reweighted piecewise value.

    ``budget`` None is unlimited burning and needs a simplex ``lam``; a
    budget adds each piece's ``min`` branch.
    """
    if budget is None:
        if not lam.in_simplex():
            raise ValueError("unlimited budget requires a simplex reweighting")
    else:
        budget = rat(budget)
        if budget < 0:
            raise ValueError("budget must be nonnegative")
    if len(lam) != structure.dim:
        raise ValueError("reweighting dimension mismatch")
    _require_full_support(structure)
    n = structure.dim
    blocks = _blocks(structure, budget)
    objective: dict[int, Rational] = {}
    for b, (_, _, coeff) in enumerate(blocks):
        if coeff == 0:
            continue
        for t in range(n):
            lt = lam[t]
            if lt != 0:
                objective[b * n + t] = coeff * lt / structure.prior[t]
    variables, mass, cone = _cone_blocks(structure, [k for k, _, _ in blocks])
    lp = LinearProgram("max", variables, objective, mass + cone)
    sol = solve(lp)
    if sol.status != OPTIMAL:
        raise CertificateError(f"envelope LP came back {sol.status}")
    atoms = _extract_atoms(structure, blocks, sol.primal)
    if budget is None:
        atoms = _caratheodory_reduce(structure, lam, atoms, sol.value)
        if len(atoms) > n + 1:
            raise CertificateError("max-only decomposition exceeds the Caratheodory bound")
    result = EnvelopeResult(sol.value, atoms)
    _check_result(structure, lam, result)
    return result


def _caratheodory_reduce(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    atoms: tuple[DecompositionAtom, ...],
    value: Rational,
) -> tuple[DecompositionAtom, ...]:
    """Rebalance onto a basic subset: at most |types|+1 atoms carry the split.

    The reweighting constraints (prior coordinates plus total objective) have
    rank at most |types|+1, so any basic feasible reweighting of the existing
    atoms has support that small; beliefs and branch values never move.
    """
    n = structure.dim
    if len(atoms) <= n + 1:
        return atoms
    gains = [
        subjective_weight(lam, structure.prior, a.belief) * a.value for a in atoms
    ]
    cons: list[tuple[dict, str, Rational]] = []
    for t in range(n):
        cons.append(
            ({i: atoms[i].belief[t] for i in range(len(atoms))}, EQ, structure.prior[t])
        )
    cons.append(({i: gains[i] for i in range(len(atoms))}, EQ, value))
    lp = LinearProgram(
        "max",
        [(f"w{i}", NONNEG) for i in range(len(atoms))],
        {},
        cons,
    )
    sol = solve(lp)
    if sol.status != OPTIMAL:
        raise CertificateError("reduction LP must stay feasible")
    kept = [
        DecompositionAtom(a.belief, w, a.piece, a.branch, a.value)
        for a, w in zip(atoms, sol.primal)
        if w > 0
    ]
    return _merge_atoms(kept)


@dataclass(frozen=True)
class WorstPriorResult:
    lam: SubjectivePrior
    envelope: EnvelopeResult


def worst_prior_envelope(
    structure: PiecewiseValueStructure, budget: Rational | None
) -> WorstPriorResult:
    """Minimize the concavified reweighted value over reweightings.

    Solved from the max-min side: maximize the worst per-type payoff of a
    decomposition whose atom values come from the (piece, branch) blocks.
    Without a budget the reweightings range over the simplex, so the per-type
    payoffs are only bounded below; with one they range over the affine hull,
    so the payoffs are forced equal.  The reweighting that attains the outer
    minimum falls out as the payoff rows' dual multipliers, and strong duality
    (checked exactly in the solver) makes both sides equal.
    """
    _require_full_support(structure)
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    n = structure.dim
    blocks = _blocks(structure, budget)
    eta = len(blocks) * n
    variables, mass, cone = _cone_blocks(structure, [k for k, _, _ in blocks])
    variables.append(("eta", FREE))

    # Payoff rows sit right after the n mass rows, so their duals are sol.dual[n + t].
    payoff: list[tuple[dict, str, Rational]] = []
    relation = LE if budget is None else EQ
    for t in range(n):
        row: dict[int, Rational] = {eta: ONE}
        for b, (_, _, coeff) in enumerate(blocks):
            if coeff != 0:
                row[b * n + t] = -coeff / structure.prior[t]
        payoff.append((row, relation, ZERO))

    lp = LinearProgram("max", variables, {eta: ONE}, mass + payoff + cone)
    sol = solve(lp)
    if sol.status != OPTIMAL:
        raise CertificateError(f"worst-prior LP came back {sol.status}")
    lam_weights = [sol.dual[n + t] for t in range(n)]
    if sum(lam_weights, ZERO) != ONE:
        raise CertificateError("payoff-row multipliers must sum to 1")
    if budget is None and any(w < 0 for w in lam_weights):
        raise CertificateError("simplex multipliers must be nonnegative")
    lam = SubjectivePrior(lam_weights)
    atoms = _extract_atoms(structure, blocks, sol.primal)
    envelope = EnvelopeResult(sol.value, atoms)
    _check_result(structure, lam, envelope)
    return WorstPriorResult(lam, envelope)


def quasiconcavify(structure: PiecewiseValueStructure) -> Rational:
    """Largest level whose superlevel pieces convexly cover the prior.

    Candidate levels are the pieces' best values in decreasing order; coverage
    is one feasibility LP over the qualifying pieces' cones.  The lowest level
    is always feasible because the regions cover the simplex.
    """
    _require_full_support(structure)
    pieces = structure.pieces
    levels = sorted({p.vmax for p in pieces}, reverse=True)
    for level in levels:
        qualifying = [k for k, p in enumerate(pieces) if p.vmax >= level]
        variables, mass, cone = _cone_blocks(structure, qualifying)
        if solve(LinearProgram("max", variables, {}, mass + cone)).status == OPTIMAL:
            return level
    raise CertificateError("piece regions failed to cover the simplex")
