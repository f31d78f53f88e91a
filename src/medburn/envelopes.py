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
piece also gets a ``min`` branch paying its worst value less C, unless that
is its best value, and reweightings range over the affine hull.  Offering
both branches as separate blocks at the same region realizes the pointwise
max exactly, because concavification already maximizes over
decompositions.  A compiled piece pays one value, so mediation has ``max``
blocks only.

A program starts at the prior's piece: all the prior's mass on the ``max``
block of a piece that holds the prior is feasible, so the simplex is handed
that basis and skips phase 1.  A structure with no piece at the prior is
refused.  A worst-prior program can start from another budget's optimal
basis instead, named by (piece, branch, coordinate), ``eta`` and row.
Mediation's suits every cap C > 0 and unlimited burning when no ``min``
variable is basic in it: the capped program is mediation's plus ``min``
columns and their cone rows, and the unlimited one relaxes mediation's
payoff equalities to ``<=``, so mediation's basic point stays feasible.
With a basic ``min`` variable, whose coefficient moves with the budget, the
program starts at the prior's piece.

The programs are assembled on integers (mass rows from the prior, each
piece's region rows, which are homogeneous and so already cut out the cone
over the region, shifted to its blocks) and their answers are read on
integers: atoms come from the block sums of the optimal point, and the
decomposition checks (Bayes plausibility, recombination to the value) are
integer sums.  Beliefs, weights and reweightings become rationals once, for
the returned result.

The simplex returns a basic point, and a split is read off it as is.  A
concavification has mass and cone rows only, so if the blocks carrying mass
were linearly dependent, scaling each by ``1 +- eps * alpha_b`` would keep
every row and the point would be no vertex: ``concavify_weighted`` refuses a
split with more than |types| atoms.  The worst-prior payoff rows add |types|
rows and ``eta``, so its split can have up to 2|types| - 1 atoms, and a ``max``
and a ``min`` atom at one belief, which ``posterior`` merges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

from .core import Belief, PosteriorDistribution, SubjectivePrior
from .geometry import PiecewiseValueStructure
from .lp import (
    EQ, FREE, LE, NONNEG, OPTIMAL, Basis, CertificateError, IntRows, LinearProgram, LpSolution,
    solve,
)
from .rational import ONE, ZERO, Rational, RationalLike, ScaledVector, over_common_denominator, rat

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
        """The split as a distribution over beliefs: atoms at one belief (a
        piece's two branches, or pieces meeting there) merge into one."""
        return PosteriorDistribution([(a.belief, a.weight) for a in self.atoms]).merged()


def subjective_weight(
    lam: SubjectivePrior, prior: Belief, mu: Belief | Sequence[RationalLike]
) -> Rational:
    """Likelihood reweighting sum(lam_t * mu_t / prior_t); identically 1 at lam == prior.

    Linear in ``mu``, which may be any vector over the types, not only a belief.
    """
    total = ZERO
    for t in range(len(prior)):
        lt = lam[t]
        if lt != 0 and mu[t] != 0:
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
    """``(piece, branch, coefficient)`` per block: every piece's ``max``
    branch, and with a budget its ``min`` branch unless that pays the same."""
    out = []
    for k, piece in enumerate(structure.pieces):
        out.append((k, MAX_BRANCH, piece.vmax))
        if budget is not None and piece.vmin - budget != piece.vmax:
            out.append((k, MIN_BRANCH, piece.vmin - budget))
    return out


def _cone_blocks(
    structure: PiecewiseValueStructure, pieces: list[int]
) -> tuple[tuple[str, ...], IntRows, IntRows]:
    """Variable signs, prior-mass rows and cone rows for one block per listed piece.

    Block ``b`` holds the nonnegative ``mass x belief`` vector ``z{b}_{t}`` at
    columns ``b * dim + t``.  The mass rows make the blocks sum to the prior;
    the cone rows keep each block in the cone over its piece's region.  Both
    are on integers: a mass row is the prior coordinate's denominator per
    block over its numerator, and a block's cone rows are its piece's region
    ``rows`` (homogeneous, so they hold at any mass) shifted to the block's
    columns.
    """
    n = structure.dim
    signs = (NONNEG,) * (len(pieces) * n)
    mass = []
    for t, p in enumerate(structure.prior.weights):
        d = p.denominator
        mass.append((tuple([(b * n + t, d) for b in range(len(pieces))]), EQ, p.numerator, d))
    cone = []
    for b, k in enumerate(pieces):
        off = b * n
        for pairs, relation, rhs, den in structure.pieces[k].region.rows:
            cone.append((tuple([(off + t, v) for t, v in pairs]), relation, rhs, den))
    return signs, tuple(mass), tuple(cone)


def _prior_start(
    structure: PiecewiseValueStructure,
    blocks: list[tuple[int, str, Rational]],
    eta: int | None = None,
) -> Basis:
    """A feasible basis: all the prior's mass on one block.

    The block is the ``max`` branch of the first piece, among those holding
    the prior, with the largest ``vmax``; ``z{b}_{t}`` is basic in mass row
    ``t``.  A worst-prior program also makes ``eta`` basic in payoff row 0,
    the row after the mass rows, on the half of its value, the block's.
    """
    held = structure.pieces_at(structure.prior)
    if not held:
        raise ValueError(f"no piece covers the prior {structure.prior}")
    k = max(held, key=lambda i: structure.pieces[i].vmax)
    vmax = structure.pieces[k].vmax
    b = blocks.index((k, MAX_BRANCH, vmax))
    n = structure.dim
    variables = [(b * n + t, 1) for t in range(n)]
    if eta is None:
        return Basis(tuple(variables), tuple(range(n)))
    variables.append((eta, 1 if vmax >= 0 else -1))
    return Basis(tuple(variables), tuple(range(n + 1)))


class _Part(NamedTuple):
    """One atom of a split on integers: ``z / den`` is its weight times its
    belief, for the ``den`` the split is over."""

    z: tuple[int, ...]
    piece: int
    branch: str
    value: Rational


def _parts(
    structure: PiecewiseValueStructure,
    blocks: list[tuple[int, str, Rational]],
    primal: ScaledVector,
) -> list[_Part]:
    """The blocks that carry mass, over ``primal.den``.  A basic point has no
    two at one belief with one value: moving mass between them keeps every row."""
    n = structure.dim
    parts = []
    for b, (k, branch, coeff) in enumerate(blocks):
        z = primal.nums[b * n : (b + 1) * n]
        mass = sum(z)
        if mass == 0:
            continue
        # the atom's belief is z / mass
        if not structure.pieces[k].region.contains_scaled(z, mass):
            raise CertificateError("atom left its piece")
        parts.append(_Part(z, k, branch, coeff))
    return parts


def _atoms(parts: list[_Part], den: int) -> tuple[DecompositionAtom, ...]:
    atoms = []
    for part in parts:
        mass = sum(part.z)
        belief = Belief([rat(v, mass) for v in part.z])
        atoms.append(DecompositionAtom(belief, rat(mass, den), part.piece, part.branch, part.value))
    return tuple(atoms)


def _check_split(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    parts: list[_Part],
    den: int,
    value: Rational,
) -> None:
    """Bayes plausibility and recombination of a split over ``den``, on integers.

    The atoms' ``z`` must add up to the prior, and re-evaluating every atom
    under ``lam`` must give back ``value``.  A unit of mass on type ``t`` is
    worth ``subjective_weight`` at that type's vertex, ``lam_t / prior_t``.
    """
    n = structure.dim
    prior, pden = over_common_denominator(structure.prior.weights)
    for t in range(n):
        if sum(part.z[t] for part in parts) * pden != prior[t] * den:
            raise CertificateError("decomposition is not Bayes-plausible")
    vertices = [[int(s == t) for s in range(n)] for t in range(n)]
    ratios, rden = over_common_denominator(
        [subjective_weight(lam, structure.prior, e) for e in vertices]
    )
    coeffs, cden = over_common_denominator([part.value for part in parts])
    total = 0
    for part, c in zip(parts, coeffs):
        if c:
            total += c * sum([r * v for r, v in zip(ratios, part.z)])
    if total * value.denominator != value.numerator * den * rden * cden:
        raise CertificateError("decomposition does not re-evaluate to the value")


def concavify_weighted(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None = None,
) -> EnvelopeResult:
    """Value and optimal split of the concavified reweighted piecewise value.

    ``budget`` None is unlimited burning and needs a simplex ``lam``; a
    budget adds each piece's ``min`` branch.  The split is the basic optimum
    read as is: at most |types| atoms, or ``CertificateError``.
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
    ratios = [lam[t] / structure.prior[t] for t in range(n)]
    objective: dict[int, Rational] = {}
    for b, (_, _, coeff) in enumerate(blocks):
        if coeff == 0:
            continue
        for t in range(n):
            if ratios[t] != 0:
                objective[b * n + t] = coeff * ratios[t]
    signs, mass, cone = _cone_blocks(structure, [k for k, _, _ in blocks])
    lp = LinearProgram("max", signs, objective, mass + cone)
    sol = solve(lp, _prior_start(structure, blocks))
    if sol.status != OPTIMAL:
        raise CertificateError(f"envelope LP came back {sol.status}")
    parts = _parts(structure, blocks, sol.primal_scaled)
    if len(parts) > n:
        raise CertificateError("decomposition has more atoms than types: not basic")
    den = sol.primal_scaled.den
    _check_split(structure, lam, parts, den, sol.value)
    return EnvelopeResult(sol.value, _atoms(parts, den))


ETA = "eta"


class EnvelopeBasis(NamedTuple):
    """A worst-prior program's final ``Basis`` by name instead of index, so
    that the program of another budget can start from it.  A variable is
    ``(piece, branch, t)``, coordinate ``t`` of that block, or ``ETA``, each
    with its half; a row is ``("mass", t)``, ``("payoff", t)`` or
    ``(piece, branch, r)``, the block's ``r``-th cone row."""

    variables: tuple[tuple[object, int], ...]
    rows: tuple[object, ...]


def _worst_prior_keys(
    structure: PiecewiseValueStructure, blocks: list[tuple[int, str, Rational]]
) -> tuple[list, list]:
    """The names of a worst-prior program's variables and rows, by index."""
    n = structure.dim
    variables = [(k, branch, t) for k, branch, _ in blocks for t in range(n)] + [ETA]
    rows = [("mass", t) for t in range(n)] + [("payoff", t) for t in range(n)]
    for k, branch, _ in blocks:
        rows += [(k, branch, r) for r in range(len(structure.pieces[k].region.rows))]
    return variables, rows


def _named_basis(
    structure: PiecewiseValueStructure, blocks: list[tuple[int, str, Rational]], sol: LpSolution
) -> EnvelopeBasis:
    variables, rows = _worst_prior_keys(structure, blocks)
    basis = sol.basis
    return EnvelopeBasis(
        tuple([(variables[j], half) for j, half in basis.variables]),
        tuple([rows[i] for i in basis.rows]),
    )


def _start_from(
    structure: PiecewiseValueStructure,
    blocks: list[tuple[int, str, Rational]],
    start: EnvelopeBasis,
) -> Basis | None:
    """``start`` on this program's indices, or None if a ``min``-branch
    variable is basic in it: that branch's coefficient depends on the budget,
    so the basic point need not stay feasible."""
    if any(key != ETA and key[1] == MIN_BRANCH for key, _ in start.variables):
        return None
    variables, rows = _worst_prior_keys(structure, blocks)
    var_index = {key: j for j, key in enumerate(variables)}
    row_index = {key: i for i, key in enumerate(rows)}
    return Basis(
        tuple(sorted([(var_index[key], half) for key, half in start.variables])),
        tuple(sorted([row_index[key] for key in start.rows])),
    )


@dataclass(frozen=True)
class WorstPriorResult:
    """The worst reweighting and its split.  ``basis``, the program's final
    basis by name, is built the first time it is read."""

    lam: SubjectivePrior
    envelope: EnvelopeResult
    read_basis: Callable[[], EnvelopeBasis] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def basis(self) -> EnvelopeBasis | None:
        return None if self.read_basis is None else self.read_basis()


def worst_prior_envelope(
    structure: PiecewiseValueStructure,
    budget: Rational | None,
    start: EnvelopeBasis | None = None,
) -> WorstPriorResult:
    """Minimize the concavified reweighted value over reweightings.

    Solved from the max-min side: maximize the worst per-type payoff of a
    decomposition whose atom values come from the (piece, branch) blocks.
    Without a budget the reweightings range over the simplex, so the per-type
    payoffs are only bounded below; with one they range over the affine hull,
    so the payoffs are forced equal.  The reweighting that attains the outer
    minimum falls out as the payoff rows' dual multipliers, and strong duality
    (checked exactly in the solver) makes both sides equal.

    ``start`` is another budget's ``basis``, typically mediation's: the
    program starts there unless a ``min``-branch variable is basic in it, and
    at the prior's piece otherwise.
    """
    _require_full_support(structure)
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    n = structure.dim
    blocks = _blocks(structure, budget)
    eta = len(blocks) * n
    signs, mass, cone = _cone_blocks(structure, [k for k, _, _ in blocks])

    # Payoff rows sit right after the n mass rows, so their duals are dual[n + t].
    # Row t is eta - sum_b coeff_b / prior_t * z{b}_{t} REL 0: with the
    # coefficients as numerators over cden, its entries are over cden * p_t's
    # numerator, then reduced to their least common denominator.
    relation = LE if budget is None else EQ
    coeffs, cden = over_common_denominator([coeff for _, _, coeff in blocks])
    payoff = []
    for t, p in enumerate(structure.prior.weights):
        den = cden * p.numerator
        row = [(b * n + t, -c * p.denominator) for b, c in enumerate(coeffs) if c] + [(eta, den)]
        g = math.gcd(den, *[v for _, v in row])
        payoff.append((tuple([(j, v // g) for j, v in row]), relation, 0, den // g))

    lp = LinearProgram("max", signs + (FREE,), {eta: ONE}, mass + tuple(payoff) + cone)
    basis = None if start is None else _start_from(structure, blocks, start)
    sol = solve(lp, basis or _prior_start(structure, blocks, eta))
    if sol.status != OPTIMAL:
        raise CertificateError(f"worst-prior LP came back {sol.status}")
    y = sol.dual_scaled
    lam_nums = y.nums[n : 2 * n]
    if sum(lam_nums) != y.den:
        raise CertificateError("payoff-row multipliers must sum to 1")
    if budget is None and any(v < 0 for v in lam_nums):
        raise CertificateError("simplex multipliers must be nonnegative")
    lam = SubjectivePrior([rat(v, y.den) for v in lam_nums])
    parts = _parts(structure, blocks, sol.primal_scaled)
    _check_split(structure, lam, parts, sol.primal_scaled.den, sol.value)
    envelope = EnvelopeResult(sol.value, _atoms(parts, sol.primal_scaled.den))
    return WorstPriorResult(lam, envelope, partial(_named_basis, structure, blocks, sol))


def quasiconcavify(structure: PiecewiseValueStructure) -> Rational:
    """Largest level whose superlevel pieces convexly cover the prior.

    Candidate levels are the pieces' best values in decreasing order; coverage
    is one feasibility LP over the qualifying pieces' cones.  The lowest level
    is always feasible because every piece qualifies there and one of them
    holds the prior: compiled pieces cover the simplex, and ``direct_structure``
    and ``with_prior`` check the prior's piece when they build a structure.
    """
    _require_full_support(structure)
    pieces = structure.pieces
    levels = sorted({p.vmax for p in pieces}, reverse=True)
    for level in levels:
        qualifying = [k for k, p in enumerate(pieces) if p.vmax >= level]
        signs, mass, cone = _cone_blocks(structure, qualifying)
        lp = LinearProgram("max", signs, {}, mass + cone)
        if solve(lp).status == OPTIMAL:
            return level
    raise CertificateError("piece regions failed to cover the simplex")
