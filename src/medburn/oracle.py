"""Brute-force grid bounds that certify the LP pipeline on small instances.

The concavification oracle evaluates the reweighted value pointwise on a
simplex grid and maximizes over explicit decompositions of the prior into
grid points: upper-hull chords for two types; for three types, exhaustive
grid pairs collinear with the prior, all triples from a pool of region
boundary points, and seeded random triples.  Every candidate split is a
genuine decomposition, so the result is always a lower bound on the true
envelope; restricted minima over reweighting grids bound the worst-prior
values from the other side.  Gap allowances come from the pieces' affine
slopes.

A two-type table is reduced once to its run endpoints: walking the points by
first coordinate, a run is a stretch with one ``(lo, hi)``.  On a run the
reweighted share ``w`` is affine, so the value ``w * hi``, or
``max(w * hi, w * (lo - b))`` under a budget, is affine or convex there, and
no interior point rises above the chord of the run's endpoints: the hull, and
the quasi-concave levels, read those endpoints and the prior alone.

Candidate decompositions depend only on the structure and the grid, never on
the reweighting, so they are built once and reused across reweightings.  Pool
triples take their weights from one table of cross products of the pool
points about the prior.  Without a budget a split's reweighted value is
``c . A / delta``, linear in the nonnegative ``c_t = lam_t / p_t``, so a split
whose ``A / delta`` is componentwise at most another's never wins: the
candidates keep their Pareto front of ``(A, delta)`` beside the full list, and
simplex reweightings of three types are scored on the front alone (budgeted
values are not linear in ``c``, so budgeted calls score every candidate).

The arithmetic is exact and runs on Python integers.  Grid points (and the
prior) carry integer coordinates over one common denominator, value bounds
integer numerators over another; each reweighting (and budget) turns the
pointwise values into integer numerators over one denominator per
(structure, grid, reweighting, budget).  Candidates carry integer barycentric
weights from Cramer's rule, chords and candidate values are compared by
cross-multiplication, and a rational is built once, where a bound is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .core import Belief, PersuasionGame, SubjectivePrior, restrict_to_support
from .geometry import PiecewiseValueStructure, compile_pieces
from .lp import CertificateError
from .rational import (
    ONE,
    ZERO,
    Rational,
    RationalLike,
    lcm_of_denominators,
    numerator_over,
    over_common_denominator,
    rat,
)
from .solvers import ProtocolReport, protocol_report_structure

_SEED = 177013  # seeds the random triples of every three-type candidate set
_RESTARTS = 800  # random triples drawn per candidate set
_POOL_CAP = 64


class TooManyTypes(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid of step 1/resolution; points are integer compositions."""

    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("grid resolution must be at least 2")


def snapped_resolution(structure: PiecewiseValueStructure, target: int) -> int:
    """Smallest multiple of ``target``'s order that puts every piece boundary
    and the prior on the grid (two types only; otherwise ``target``).

    With boundaries on-grid the concavification oracle captures optimal
    splits exactly instead of up to one grid step.
    """
    if structure.dim != 2:
        return target
    denoms = {w.denominator for w in structure.prior.weights}
    for piece in structure.pieces:
        for pairs, _, _, _ in piece.region.rows:
            h = dict(pairs)
            h0, h1 = h.get(0, 0), h.get(1, 0)
            if h0 == h1:
                continue
            x = rat(h1, h1 - h0)  # where h0 * x + h1 * (1 - x) = 0
            if 0 <= x <= 1:
                denoms.add(x.denominator)
    base = 1
    for d in denoms:
        base = base * d // gcd(base, d)
        if base > 4096:  # boundary denominators too ragged; accept grid error
            return target
    return base * -(-target // base)


def _compositions(dim: int, n: int) -> list[tuple[int, ...]]:
    """Every ``dim``-tuple of nonnegative integers summing to ``n``, in
    lexicographic order: the simplex grid of step ``1/n`` in numerators."""
    if dim > 3:
        raise TooManyTypes(f"grids support at most 3 types, got {dim}")
    if dim == 1:
        return [(n,)]
    return [(k,) + rest for k in range(n + 1) for rest in _compositions(dim - 1, n - k)]


@lru_cache(maxsize=32)
def grid_beliefs(dim: int, resolution: int) -> tuple[Belief, ...]:
    return tuple([Belief([rat(k, resolution) for k in c]) for c in _compositions(dim, resolution)])


class _GridTable(NamedTuple):
    """Grid points, and an off-grid prior, in integer form.

    Point ``i`` has weight ``coords[i][t] / scale`` on type ``t``, achievable
    values between ``lo[i] / vden`` and ``hi[i] / vden``, and lies in
    ``cover[i]`` pieces.  The first ``n_grid`` points are the grid.
    ``scored`` lists the points whose values the oracle reads, in the order it
    reads them: for two types the run endpoints in ascending first
    coordinate, for three types every point.
    """

    coords: tuple[tuple[int, ...], ...]
    scale: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    vden: int
    cover: tuple[int, ...]
    prior_idx: int
    n_grid: int
    scored: Sequence[int]


@lru_cache(maxsize=64)
def _grid_table(structure: PiecewiseValueStructure, resolution: int) -> _GridTable:
    """Integer coordinates, value bounds and piece coverage per grid point.

    The prior itself is appended when off-grid, so index ``prior_idx`` always
    exists.
    """
    scale = lcm(resolution, lcm_of_denominators(structure.prior.weights))
    step = scale // resolution
    coords = [tuple([v * step for v in c]) for c in _compositions(structure.dim, resolution)]
    n_grid = len(coords)
    prior = tuple(numerator_over(w, scale) for w in structure.prior.weights)
    index = {k: i for i, k in enumerate(coords)}
    if prior not in index:
        index[prior] = n_grid
        coords.append(prior)
    pieces = structure.pieces
    bounds, vden = over_common_denominator([p.vmin for p in pieces] + [p.vmax for p in pieces])
    vmin, vmax = bounds[: len(pieces)], bounds[len(pieces) :]
    lo, hi, cover = [], [], []
    for k in coords:
        covering = structure.pieces_at_scaled(k, scale)
        if not covering:
            raise ValueError(f"no piece covers belief {Belief([rat(v, scale) for v in k])}")
        lo.append(min([vmin[i] for i in covering]))
        hi.append(max([vmax[i] for i in covering]))
        cover.append(len(covering))
    prior_idx = index[prior]
    scored = range(len(coords))
    if structure.dim <= 2:
        # walk by first coordinate and keep the first and last point, the
        # prior, and each point whose (lo, hi) differs from a neighbour's
        order = sorted(scored, key=lambda i: coords[i][0])
        runs = [(lo[i], hi[i]) for i in order]
        last = len(order) - 1
        scored = tuple([
            i for j, i in enumerate(order)
            if j in (0, last) or i == prior_idx or runs[j] != runs[j - 1] or runs[j] != runs[j + 1]
        ])
    return _GridTable(
        tuple(coords), scale, tuple(lo), tuple(hi), vden, tuple(cover), prior_idx, n_grid, scored
    )


def _pointwise_values(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None,
    table: _GridTable,
) -> tuple[list[int], int]:
    """Value numerators at the table's ``scored`` points, in that order, over
    one returned denominator.

    The reweighted value at ``mu`` is ``w * hi``, or ``max(w * hi, w * (lo - b))``
    under budget ``b``, with ``w = sum_t lam_t * mu_t / p_t``.  Writing
    ``lam_t / p_t = c_t / C`` makes ``C * scale * w = sum_t c_t * k_t`` an
    integer for integer coordinates ``k``; ``w`` may be negative.
    """
    c, c_den = _reweighting(structure, lam)
    coords, lo, hi, scored = table.coords, table.lo, table.hi, table.scored
    ws = [sum(map(mul, c, coords[i])) for i in scored]
    den = c_den * table.scale * table.vden
    if budget is None:
        return [w * hi[i] for w, i in zip(ws, scored)], den
    b = rat(budget)
    b_den = b.denominator
    shift = b.numerator * table.vden
    vals = [max(w * (hi[i] * b_den), w * (lo[i] * b_den - shift)) for w, i in zip(ws, scored)]
    return vals, den * b_den


def _reweighting(
    structure: PiecewiseValueStructure, lam: SubjectivePrior
) -> tuple[list[int], int]:
    """``lam_t / p_t`` as integers ``c_t`` over one denominator ``C``."""
    return over_common_denominator([lam[t] / structure.prior[t] for t in range(structure.dim)])


def lipschitz_slack(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None,
    grid: GridSpec,
) -> Rational:
    """Grid-resolution allowance: (2/n) times the steepest piece slope."""
    span = ZERO
    for piece in structure.pieces:
        coeffs = [piece.vmax] if budget is None else [piece.vmax, piece.vmin - budget]
        for c in coeffs:
            grads = [lam[t] * c / structure.prior[t] for t in range(structure.dim)]
            s = max(grads) - min(grads)
            span = max(span, s)
    return rat(2, grid.resolution) * span


class _Candidates(NamedTuple):
    """The three-type candidate splits of the prior and their Pareto front.

    ``every`` holds each candidate as ``(combo, weights, delta)`` with
    nonnegative integer weights and ``delta > 0``:
    ``sum_k weights[k] * point[combo[k]] == delta * prior``.  ``front`` holds
    the maximal ``(A0, A1, A2, delta)`` of those candidates, where
    ``A_t = sum_k weights[k] * hi[combo[k]] * point[combo[k]][t]``; no two
    front entries dominate each other, and every candidate's ``A / delta``
    is componentwise at most some front entry's.
    """

    every: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    front: tuple[tuple[int, int, int, int], ...]


@lru_cache(maxsize=64)
def _candidates(structure: PiecewiseValueStructure, resolution: int) -> _Candidates:
    """Index combinations with integer barycentric weights that exactly
    rebuild the prior (3 types), with their front under the table's ``hi``."""
    table = _grid_table(structure, resolution)
    coords, prior_idx = table.coords, table.prior_idx
    prior = coords[prior_idx]
    index = {k: i for i, k in enumerate(coords)}
    out: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []

    # Exhaustive collinear pairs, walking the exact ray from each grid point
    # through the prior; needs the prior itself on the grid, so every step
    # that stays nonnegative lands on a grid point.  Points on one ray share
    # its far side, so each direction is walked once.
    step = table.scale // resolution
    if all(v % step == 0 for v in prior):
        p0, p1, p2 = prior
        rays: dict[tuple[int, int, int], list[int]] = {}
        for i, (k0, k1, k2) in enumerate(coords):
            if i == prior_idx:
                continue
            d0, d1, d2 = p0 - k0, p1 - k1, p2 - k2
            g = gcd(d0, d1, d2) // step
            d0, d1, d2 = d = (d0 // g, d1 // g, d2 // g)
            others = rays.get(d)
            if others is None:
                # d sums to zero and is nonzero, so some entry is negative
                j_max = min(prior[t] // -d[t] for t in range(3) if d[t] < 0)
                others = rays[d] = [
                    index[(p0 + j * d0, p1 + j * d1, p2 + j * d2)] for j in range(1, j_max + 1)
                ]
            # prior = (j * point_i + g * point_other) / (g + j)
            out += [((i, other), (j, g), g + j) for j, other in enumerate(others, 1)]

    out += _pool_triples(coords, prior, _boundary_pool(structure.dim, table, index))

    rng = Random(_SEED)
    all_idx = list(range(len(coords)))
    for _ in range(_RESTARTS):
        combo = tuple(rng.sample(all_idx, 3))
        w = _barycentric(prior, *(coords[i] for i in combo))
        if w is not None:
            out.append((combo, *w))
    front = _front(out, table)
    return _Candidates(tuple(out), front)


def _pool_triples(
    coords: Sequence[tuple[int, ...]], prior: tuple[int, ...], pool: list[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every pool triple whose triangle holds the prior, with its weights.

    The weights come from one table of cross products about the prior: in
    triangle (a, b, c) the prior has weights (cross[b][c], cross[c][a],
    cross[a][b]), the integers Cramer's rule gives.
    """
    rel = [(coords[i][0] - prior[0], coords[i][1] - prior[1]) for i in pool]
    cross = [[ux * vy - uy * vx for vx, vy in rel] for ux, uy in rel]
    out = []
    for a, b, c in combinations(range(len(pool)), 3):
        n_a, n_b, n_c = cross[b][c], cross[c][a], cross[a][b]
        delta = n_a + n_b + n_c
        if delta < 0:
            delta, n_a, n_b, n_c = -delta, -n_a, -n_b, -n_c
        if delta and n_a >= 0 and n_b >= 0 and n_c >= 0:
            out.append(((pool[a], pool[b], pool[c]), (n_a, n_b, n_c), delta))
    return out


def _front(
    candidates: Iterable[tuple[tuple[int, ...], tuple[int, ...], int]], table: _GridTable
) -> tuple[tuple[int, int, int, int], ...]:
    """The maximal ``(A0, A1, A2, delta)`` of three-type candidates, kept by a
    streaming filter that compares ``A / delta`` by cross-multiplication.

    Without a budget a candidate's reweighted value is ``c . A / delta`` with
    ``c >= 0``, so a dominated candidate never beats the entry dominating it.
    """
    coords, hi = table.coords, table.hi
    front: list[tuple[int, int, int, int]] = []
    # (b0, b1, b2, e) is the front entry that last dominated or joined, tried
    # first; e == 0 while the front is empty
    b0 = b1 = b2 = e = 0
    for combo, weights, d in candidates:
        a0 = a1 = a2 = 0
        for i, w in zip(combo, weights):
            h = w * hi[i]
            k0, k1, k2 = coords[i]
            a0 += h * k0
            a1 += h * k1
            a2 += h * k2
        if e and a0 * e <= b0 * d and a1 * e <= b1 * d and a2 * e <= b2 * d:
            continue
        for b0, b1, b2, e in front:
            if a0 * e <= b0 * d and a1 * e <= b1 * d and a2 * e <= b2 * d:
                break  # dominated, or equal to a kept entry
        else:
            front = [
                f for f in front
                if not (f[0] * d <= a0 * f[3] and f[1] * d <= a1 * f[3] and f[2] * d <= a2 * f[3])
            ]
            b0, b1, b2, e = a0, a1, a2, d
            front.append((a0, a1, a2, d))
    return tuple(front)


def _boundary_pool(dim: int, table: _GridTable, index) -> list[int]:
    pool = [i for i in range(table.n_grid) if table.cover[i] >= 2]
    if len(pool) > _POOL_CAP:
        pool = [pool[i * len(pool) // _POOL_CAP] for i in range(_POOL_CAP)]
    scale = table.scale
    extras = [index[tuple(scale if j == t else 0 for j in range(dim))] for t in range(dim)]
    extras.append(table.prior_idx)
    for i in extras:
        if i not in pool:
            pool.append(i)
    return pool


def _barycentric(p, a, b, c) -> tuple[tuple[int, int, int], int] | None:
    """Integer weights ``(n_a, n_b, n_c)`` and ``delta > 0`` with
    ``n_a * a + n_b * b + n_c * c == delta * p`` and ``n_a + n_b + n_c == delta``,
    by Cramer's rule on the first two coordinates; None when the points are
    collinear or the prior lies outside their triangle."""
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    delta = ux * vy - uy * vx
    if delta == 0:
        return None
    n_b = px * vy - py * vx
    n_c = ux * py - uy * px
    if delta < 0:
        delta, n_b, n_c = -delta, -n_b, -n_c
    n_a = delta - n_b - n_c
    if n_a < 0 or n_b < 0 or n_c < 0:
        return None
    return (n_a, n_b, n_c), delta


def grid_concavify(
    structure: PiecewiseValueStructure,
    lam: SubjectivePrior,
    budget: Rational | None,
    grid: GridSpec,
) -> Rational:
    """Best split of the prior into grid atoms; a lower bound on the envelope.

    The prior itself always counts as one admissible atom, so the bound is at
    least the pointwise value there.
    """
    dim = structure.dim
    if dim > 3:
        raise TooManyTypes("concavification oracle supports at most 3 types")
    if budget is None and not lam.in_simplex():
        raise ValueError("unlimited-budget oracle needs a simplex reweighting")
    table = _grid_table(structure, grid.resolution)
    if dim == 3 and budget is None:
        # values are c . A / delta with c >= 0, so the front holds the best split
        c, c_den = _reweighting(structure, lam)
        p = table.prior_idx
        best, best_den = sum(map(mul, c, table.coords[p])) * table.hi[p], 1
        for *a, delta in _candidates(structure, grid.resolution).front:
            v = sum(map(mul, c, a))
            if v * best_den > best * delta:
                best, best_den = v, delta
        return rat(best, best_den * c_den * table.scale * table.vden)
    vals, den = _pointwise_values(structure, lam, budget, table)
    if dim < 3:
        # the prior is a hull point, so the hull is at least its own value
        num, hull_den = _hull_value_at(table, vals)
        return rat(num, hull_den * den)
    # the best value so far is best / (best_den * den)
    best, best_den = vals[table.prior_idx], 1
    for combo, weights, delta in _candidates(structure, grid.resolution).every:
        v = sum(map(mul, weights, map(vals.__getitem__, combo)))
        if v * best_den > best * delta:
            best, best_den = v, delta
    return rat(best, best_den * den)


def _hull_value_at(table: _GridTable, vals: list[int]) -> tuple[int, int]:
    """Exact upper-concave-hull interpolation at the prior (two types) over the
    values of the ``scored`` points, as a numerator and a multiplier of the
    values' denominator."""
    hull: list[tuple[int, int]] = []
    for p in zip([table.coords[i][0] for i in table.scored], vals):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or under the chord
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    x0 = table.coords[table.prior_idx][0]
    if x0 <= hull[0][0]:
        return hull[0][1], 1
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x0 <= x2:
            return y1 * (x2 - x1) + (y2 - y1) * (x0 - x1), x2 - x1
    return hull[-1][1], 1


def grid_min_lambda(
    structure: PiecewiseValueStructure,
    lambdas: Iterable[SubjectivePrior],
    budget: Rational | None,
    grid: GridSpec,
) -> tuple[Rational, SubjectivePrior]:
    """Minimum of the grid concavification over a supplied reweighting grid.

    The exact min over all reweightings never exceeds the exact envelope at
    any grid reweighting, so this bounds it from above up to the allowance.
    """
    best = None
    arg = None
    for lam in lambdas:
        v = grid_concavify(structure, lam, budget, grid)
        if best is None or v < best:
            best, arg = v, lam
    if best is None:
        raise ValueError("empty reweighting grid")
    return best, arg


def grid_qcav_binary(structure: PiecewiseValueStructure, grid: GridSpec) -> Rational:
    """Grid quasi-concave envelope for two types: best level whose superlevel
    grid points straddle the prior."""
    if structure.dim != 2:
        raise TooManyTypes("grid quasi-concavification implemented for 2 types")
    table = _grid_table(structure, grid.resolution)
    coords, hi = table.coords, table.hi
    x0 = coords[table.prior_idx][0]
    # a run's endpoints share its hi and span its first coordinates
    left = [hi[i] for i in table.scored if coords[i][0] <= x0]
    right = [hi[i] for i in table.scored if coords[i][0] >= x0]
    if not (left and right):
        raise CertificateError("no grid level straddles the prior")
    return rat(min(max(left), max(right)), table.vden)


def simplex_lambda_grid(dim: int, steps: int) -> list[SubjectivePrior]:
    return [SubjectivePrior([rat(k, steps) for k in c]) for c in _compositions(dim, steps)]


def affine_lambda_grid_binary(
    lo: RationalLike, hi: RationalLike, steps: int
) -> list[SubjectivePrior]:
    lo, hi = rat(lo), rat(hi)
    step = (hi - lo) / steps
    out = []
    for k in range(steps + 1):
        first = lo + k * step
        out.append(SubjectivePrior([first, ONE - first]))
    return out


@dataclass(frozen=True)
class AuditRow:
    protocol: str
    exact: Rational
    lower: Rational | None
    upper: Rational | None
    slack: Rational
    satisfied: bool


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.satisfied for r in self.rows)


def _row(protocol, exact, lower, upper, slack) -> AuditRow:
    ok = True
    if lower is not None:
        ok = ok and lower <= exact and exact - lower <= slack
    if upper is not None:
        ok = ok and abs(exact - upper) <= slack
    return AuditRow(protocol, exact, lower, upper, slack, ok)


def audit_structure(
    structure: PiecewiseValueStructure,
    report: ProtocolReport,
    grid: GridSpec | None = None,
) -> AuditReport:
    """Bracket the exact values of ``report``, solved for ``structure``, by
    grid-oracle bounds.

    The audit solves no LP: it reads each value and worst reweighting from the
    report, and its reweighting grids include those reweightings, pinning each
    restricted minimum to the solver's own.  The budgets are the report's caps.
    """
    dim = structure.dim
    if dim > 3:
        raise TooManyTypes("oracle audits support at most 3 types")
    if grid is None:
        grid = GridSpec(snapped_resolution(structure, 256) if dim <= 2 else 60)

    cert = report.certificate
    prior_lam = SubjectivePrior.from_belief(structure.prior)
    rows = []

    bp_lower = grid_concavify(structure, prior_lam, None, grid)
    rows.append(
        _row("bp", report.bp, bp_lower, None, lipschitz_slack(structure, prior_lam, None, grid))
    )

    if dim == 2:
        ct_lower = grid_qcav_binary(structure, grid)
        rows.append(
            _row("ct", report.ct, ct_lower, None, lipschitz_slack(structure, prior_lam, None, grid))
        )

    lam_grid = simplex_lambda_grid(dim, 32 if dim <= 2 else 4)
    lam_grid.append(cert.lambda_star)
    upper, upper_arg = grid_min_lambda(structure, lam_grid, None, grid)
    slack = max(
        lipschitz_slack(structure, lam, None, grid) for lam in (upper_arg, cert.lambda_star)
    )
    if dim == 2:
        vertex_lower = min(
            grid_concavify(structure, SubjectivePrior.degenerate(2, t), None, grid)
            for t in range(2)
        )
        vslack = max(
            lipschitz_slack(structure, SubjectivePrior.degenerate(2, t), None, grid)
            for t in range(2)
        )
        rows.append(_row("mdmb", report.mdmb, vertex_lower, upper, max(slack, vslack)))
    else:
        rows.append(_row("mdmb", report.mdmb, None, upper, slack))

    for i, (cap, c_cert) in enumerate(report.capped):
        label = f"mdmb[C={cap}]" if i else "md"
        if i and (cap, c_cert) == report.capped[0]:
            # a zero cap repeats MD's certificate, so it gets MD's bound
            rows.append(replace(md_row, protocol=label))
            continue
        c_grid: list[SubjectivePrior] = [c_cert.lambda_star]
        if dim == 2:
            c_grid.extend(affine_lambda_grid_binary(-4, 2, 48))
        c_upper, c_arg = grid_min_lambda(structure, c_grid, cap, grid)
        c_slack = max(
            lipschitz_slack(structure, lam, cap, grid) for lam in (c_arg, c_cert.lambda_star)
        )
        rows.append(_row(label, c_cert.value, None, c_upper, c_slack))
        if not i:
            md_row = rows[-1]

    return AuditReport(tuple(rows))


def audit_report(
    game: PersuasionGame,
    budgets: Sequence[RationalLike] = (),
    grid: GridSpec | None = None,
) -> AuditReport:
    """Solve ``game``'s protocol report at ``budgets`` once, then audit it."""
    game = restrict_to_support(game)
    if game.n_types > 3:
        raise TooManyTypes("oracle audits support at most 3 types")
    structure = compile_pieces(game)
    report = protocol_report_structure(structure, budgets)
    return audit_structure(structure, report, grid)
