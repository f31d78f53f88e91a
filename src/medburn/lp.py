"""Exact linear programming over rationals with certified answers.

Two-phase tableau simplex with Bland's anti-cycling rule.  A program keeps
its rational ``constraints`` and derives ``int_rows`` from them once: each
row's numerators over its least common denominator.  The tableau starts from
those rows and stays fraction-free: a pivot updates a row by integer
cross-multiplication (integer-preserving elimination in the style of Edmonds
1967 and Bareiss 1968) and divides out the gcd of the row and its
denominator only once the denominator passes ``REDUCE_BITS`` bits.
Rationals are rebuilt only for the returned vectors.  An ``optimal`` answer
comes with a primal point and dual multipliers that satisfy feasibility and
strong duality exactly, and an ``infeasible`` answer carries a Farkas
combination of the rows.  The checks scale the answer to one denominator
and compare integer sums against ``int_rows``; a failed check raises
``CertificateError`` in every interpreter mode.  There are no tolerances.

Scale target is desk-sized instances (up to a few hundred variables); no
attempt is made at sparse factorizations or revised-simplex bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .rational import ONE, ZERO, Rational, RationalLike, over_common_denominator, rat

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

NONNEG = "nonneg"
FREE = "free"

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)


class MalformedProgram(ValueError):
    pass


class CertificateError(RuntimeError):
    """An exact check of a simplex answer failed: the answer is not returned.

    Not a ``ValueError``: it reports a solver fault, not a bad input.
    """


SparseRow = Mapping[int, RationalLike]


def _pack_row(row: SparseRow, nvars: int, what: str) -> tuple[tuple[int, Rational], ...]:
    packed = []
    for j, coeff in row.items():
        if not isinstance(j, int) or isinstance(j, bool) or j < 0 or j >= nvars:
            raise MalformedProgram(f"{what} references undeclared variable {j!r}")
        c = coeff if type(coeff) is Rational else rat(coeff)
        if c:
            packed.append((j, c))
    return tuple(sorted(packed))


IntRows = tuple[tuple[tuple[tuple[int, int], ...], str, int, int], ...]


def integer_rows(rows: Iterable[tuple[Sequence[tuple[int, Rational]], str, Rational]]) -> IntRows:
    """Sparse rows ``(pairs, relation, rhs)`` on integers: each row's ``(j, numerator)``
    pairs, relation, rhs numerator and least common denominator they are over."""
    out = []
    for pairs, relation, rhs in rows:
        nums, den = over_common_denominator([c for _, c in pairs] + [rhs])
        out.append((tuple([(j, v) for (j, _), v in zip(pairs, nums)]), relation, nums[-1], den))
    return tuple(out)


def rows_hold(rows: IntRows, point: Sequence[int], scale: int) -> bool:
    """Whether the point ``point[j] / scale`` (``scale > 0``) satisfies every integer row."""
    for pairs, relation, rhs, _ in rows:
        excess = -rhs * scale
        for j, c in pairs:
            excess += c * point[j]
        if excess > 0 and relation != GE or excess < 0 and relation != LE:
            return False
    return True


@dataclass(frozen=True)
class LinearProgram:
    sense: str
    variables: tuple[tuple[str, str], ...]  # (name, "nonneg" | "free")
    objective: tuple[tuple[int, Rational], ...]
    constraints: tuple[tuple[tuple[tuple[int, Rational], ...], str, Rational], ...]

    def __init__(
        self,
        sense: str,
        variables: Sequence[tuple[str, str]],
        objective: SparseRow,
        constraints: Iterable[tuple[SparseRow, str, RationalLike]],
    ):
        if sense not in ("max", "min"):
            raise MalformedProgram(f"sense must be 'max' or 'min', got {sense!r}")
        vars_packed = tuple([(str(n), s) for n, s in variables])  # see lcm_of_denominators
        for name, sign in vars_packed:
            if sign not in (NONNEG, FREE):
                raise MalformedProgram(f"variable {name!r} has unknown sign {sign!r}")
        n = len(vars_packed)
        cons = []
        for row, relation, rhs in constraints:
            if relation not in _RELS:
                raise MalformedProgram(f"unknown relation {relation!r}")
            cons.append((_pack_row(row, n, "constraint"), relation, rat(rhs)))
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "variables", vars_packed)
        object.__setattr__(self, "objective", _pack_row(objective, n, "objective"))
        object.__setattr__(self, "constraints", tuple(cons))

    @cached_property
    def int_rows(self) -> IntRows:
        """``constraints`` on integers, built once per program."""
        return integer_rows(self.constraints)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def objective_value(self, x: Sequence[Rational]) -> Rational:
        return sum((c * x[j] for j, c in self.objective), ZERO)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Rational | None = None
    primal: tuple[Rational, ...] | None = None
    dual: tuple[Rational, ...] | None = None
    farkas: tuple[Rational, ...] | None = None


def primal_feasible(lp: LinearProgram, x: Sequence[Rational]) -> bool:
    nums, den = over_common_denominator(x)
    for (_, sign), v in zip(lp.variables, nums):
        if sign == NONNEG and v < 0:
            return False
    return rows_hold(lp.int_rows, nums, den)


def _combine(lp: LinearProgram, y: Sequence[Rational]) -> tuple[list[int], list[int], int, int]:
    """``sum_i y[i] * (row_i, rhs_i)`` on integers: multipliers ``f`` with
    ``f[i] / w == y[i] / den_i``, so of ``y[i]``'s sign, then the combined row
    and rhs as numerators over the one positive denominator ``w``."""
    rows = lp.int_rows
    w = math.lcm(*[yi.denominator * r[3] for yi, r in zip(y, rows) if yi])
    f = [yi.numerator * (w // (yi.denominator * r[3])) for yi, r in zip(y, rows)]
    combo = [0] * lp.n_vars
    rhs = 0
    for fi, (row, _, b, _) in zip(f, rows):
        if fi:
            rhs += fi * b
            for j, c in row:
                combo[j] += fi * c
    return f, combo, rhs, w


def dual_feasible(lp: LinearProgram, y: Sequence[Rational]) -> bool:
    """Exact feasibility of ``y`` for the dual of ``lp`` (signs and rows)."""
    is_max = lp.sense == "max"
    f, combo, _, w = _combine(lp, y)
    for fi, (_, relation, _) in zip(f, lp.constraints):
        if relation == LE and (fi < 0 if is_max else fi > 0):
            return False
        if relation == GE and (fi > 0 if is_max else fi < 0):
            return False
    # compare combo / w with the cost row c / cden
    nums, cden = over_common_denominator([c for _, c in lp.objective])
    cost = [0] * lp.n_vars
    for (j, _), v in zip(lp.objective, nums):
        cost[j] = v * w
    for j, (_, sign) in enumerate(lp.variables):
        excess = combo[j] * cden - cost[j]
        # free: combo == cost; nonneg: combo >= cost (max) or <= cost (min)
        if excess and (sign == FREE or (excess < 0) == is_max):
            return False
    return True


def dual_objective(lp: LinearProgram, y: Sequence[Rational]) -> Rational:
    _, _, rhs, w = _combine(lp, y)
    return rat(rhs, w)


def farkas_valid(lp: LinearProgram, u: Sequence[Rational]) -> bool:
    """Check that ``u`` certifies infeasibility.

    Sign-compatible multipliers whose combined row no sign-feasible point can
    make positive, yet with a positive combined rhs: a contradiction witness.
    """
    f, combo, rhs, _ = _combine(lp, u)
    for fi, (_, relation, _) in zip(f, lp.constraints):
        if relation == LE and fi > 0:
            return False
        if relation == GE and fi < 0:
            return False
    for j, (_, sign) in enumerate(lp.variables):
        if sign == FREE and combo[j] != 0:
            return False
        if sign == NONNEG and combo[j] > 0:
            return False
    return rhs > 0


# A row is divided by the gcd of its denominator and numerators only once the
# denominator grows past this many bits.  Below it, a gcd of the whole row
# costs more than the longer integers it would save.
REDUCE_BITS = 256


def _eliminate(
    other: list[int], den: int, row: list[int], support: list[int], p: int, f: int
) -> tuple[list[int], int]:
    """``other/den - (f/den) * row/p`` over one positive common denominator.

    ``row/p`` is a pivot row whose entry in the eliminated column is one
    (``row[c] == p``), ``support`` lists its nonzero positions, and ``f`` is
    ``other``'s numerator in that column, so the result is zero there.  The
    result is reduced to lowest terms only when its denominator exceeds
    ``REDUCE_BITS`` bits.
    """
    q = math.gcd(f, p)
    if q > 1:
        f //= q
        p //= q
    if p == 1:
        new = other[:]
    else:
        new = [o * p for o in other]
        den *= p
    for k in support:
        new[k] -= f * row[k]
    if den.bit_length() > REDUCE_BITS:
        g = math.gcd(den, *new)
        if g > 1:
            new = [v // g for v in new]
            den //= g
    return new, den


class _Tableau:
    """Dense two-phase simplex working state.

    Row ``i`` holds the rationals ``rows[i][k] / dens[i]``: Python ints over
    one positive denominator per row.  Either ``dens[i]`` has at most
    ``REDUCE_BITS`` bits, or it is the least common denominator of the
    row's entries: below the bound a row may share a factor with its
    denominator.  The objective row is ``objrow[k] / objden`` in the same
    form.  Signs and ratio-test comparisons read the numerators of
    one row at a time, so a common factor changes no decision; rationals,
    in lowest terms, are rebuilt only when the primal and dual vectors are
    extracted.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # Structural columns: nonneg -> one column, free -> plus/minus pair.
        self.col_of_var: list[tuple[int, int | None]] = []
        ncols = 0
        for _, sign in lp.variables:
            if sign == NONNEG:
                self.col_of_var.append((ncols, None))
                ncols += 1
            else:
                self.col_of_var.append((ncols, ncols + 1))
                ncols += 2
        self.n_struct = ncols

        # Standardize every row to rhs >= 0: ">=" rows are negated into "<="
        # form, and "<=" or "=" rows with a negative rhs are negated.
        m = len(lp.constraints)
        self.row_scale: list[int] = []  # sign that standardized row i
        kinds: list[str] = []  # "slack" (kept <=) | "tight" (>= or =, rhs >= 0)
        for _, relation, b, _ in lp.int_rows:
            scale = 1
            if relation == GE:
                b, scale, relation = -b, -scale, LE
            if relation == LE and b < 0:
                scale, relation = -scale, GE
            if relation == EQ and b < 0:
                scale = -scale
            self.row_scale.append(scale)
            kinds.append("slack" if relation == LE else "tight")

        # One slack or surplus column per original inequality, then one
        # artificial column per row that lacks an identity column.
        col = self.n_struct
        aux_of_row: list[int | None] = [None] * m
        for i, (_, relation, _) in enumerate(lp.constraints):
            if relation != EQ:
                aux_of_row[i] = col
                col += 1
        art_of_row: list[int | None] = [None] * m
        for i, kind in enumerate(kinds):
            if kind != "slack":
                art_of_row[i] = col
                col += 1
        self.ncols = col
        self.artificial_cols = {c for c in art_of_row if c is not None}

        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.row_of_orig: list[int] = list(range(m))  # tableau row -> original row
        self.id_col: list[int] = [0] * m  # original row -> its identity column
        for i, (row, _, b, den) in enumerate(lp.int_rows):
            sign = self.row_scale[i]
            nums = [0] * (self.ncols + 1)
            for j, v in row:
                pos, neg = self.col_of_var[j]
                nums[pos] = sign * v
                if neg is not None:
                    nums[neg] = -sign * v
            nums[self.ncols] = sign * b
            aux = aux_of_row[i]
            if aux is not None:
                nums[aux] = den if kinds[i] == "slack" else -den
            art = art_of_row[i]
            if art is not None:
                nums[art] = den
            ident = aux if art is None else art
            if ident is None:
                raise CertificateError(f"row {i} has no identity column")
            self.basis.append(ident)
            self.id_col[i] = ident
            self.rows.append(nums)
            self.dens.append(den)
        self.objrow: list[int] = []
        self.objden = 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        # Dividing row r by its pivot entry leaves numerators ``row`` over
        # denominator ``row[c]``, made positive and reduced to lowest terms.
        row = self.rows[r]
        p = row[c]
        if p < 0:
            row = [-v for v in row]
            p = -p
        g = math.gcd(*row)
        if g > 1:
            row = [v // g for v in row]
            p //= g
        self.rows[r] = row
        self.dens[r] = p
        support = [k for k, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            f = other[c]
            if f and i != r:
                self.rows[i], self.dens[i] = _eliminate(other, self.dens[i], row, support, p, f)
        f = self.objrow[c]
        if f:
            self.objrow, self.objden = _eliminate(self.objrow, self.objden, row, support, p, f)
        self.basis[r] = c

    def _set_objective(self, cost: list[Rational]) -> None:
        self.objrow, self.objden = over_common_denominator(cost)
        self.objrow.append(0)
        for r, b in enumerate(self.basis):
            f = self.objrow[b]
            if f:
                row = self.rows[r]
                support = [k for k, v in enumerate(row) if v]
                self.objrow, self.objden = _eliminate(
                    self.objrow, self.objden, row, support, self.dens[r], f
                )

    def _iterate(self, banned: set[int]) -> str:
        """Bland's rule on a minimization tableau until optimal or unbounded."""
        while True:
            enter = -1
            for j in range(self.ncols):
                if self.objrow[j] < 0 and j not in banned:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # A row's ratio rhs/a is the ratio of its numerators, the shared
            # denominator cancelling; compare ratios by cross-multiplication.
            leave = -1
            best_b = best_a = 0
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[self.ncols]
                    if (
                        leave < 0
                        or b * best_a < best_b * a
                        or (b * best_a == best_b * a and self.basis[r] < self.basis[leave])
                    ):
                        best_b, best_a, leave = b, a, r
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    # -- phases -----------------------------------------------------------

    def run(self) -> LpSolution:
        lp = self.lp
        minimize = lp.sense == "min"
        cost = [ZERO] * self.ncols
        for j, c in lp.objective:
            pos, neg = self.col_of_var[j]
            cc = c if minimize else -c
            cost[pos] += cc
            if neg is not None:
                cost[neg] -= cc

        if self.artificial_cols:
            phase1 = [ONE if c in self.artificial_cols else ZERO for c in range(self.ncols)]
            self._set_objective(phase1)
            if self._iterate(banned=set()) != OPTIMAL:
                raise CertificateError("phase 1 reported an unbounded auxiliary program")
            if self.objrow[self.ncols] != 0:
                farkas = self._extract_duals(phase1_duals=True)
                if not farkas_valid(lp, farkas):
                    raise CertificateError("invalid Farkas certificate")
                return LpSolution(status=INFEASIBLE, farkas=tuple(farkas))
            self._purge_artificials()

        self._set_objective(cost)
        status = self._iterate(banned=self.artificial_cols)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED)
        x = self._extract_primal()
        y = self._extract_duals(phase1_duals=False)
        value = lp.objective_value(x)
        if not primal_feasible(lp, x):
            raise CertificateError("simplex primal point is infeasible")
        if not dual_feasible(lp, y):
            raise CertificateError("simplex dual multipliers are infeasible")
        if dual_objective(lp, y) != value:
            raise CertificateError("strong duality violated")
        return LpSolution(status=OPTIMAL, value=value, primal=tuple(x), dual=tuple(y))

    def _purge_artificials(self) -> None:
        """Drive zero-level artificials out of the basis; drop redundant rows."""
        r = 0
        while r < len(self.rows):
            if self.basis[r] in self.artificial_cols:
                row = self.rows[r]
                pivot_col = -1
                for j in range(self.ncols):
                    if j not in self.artificial_cols and row[j] != 0:
                        pivot_col = j
                        break
                if pivot_col < 0:
                    del self.rows[r]
                    del self.dens[r]
                    del self.basis[r]
                    del self.row_of_orig[r]
                    continue
                self._pivot(r, pivot_col)
            r += 1

    def _extract_primal(self) -> list[Rational]:
        vals = [ZERO] * self.ncols
        for r, b in enumerate(self.basis):
            vals[b] = rat(self.rows[r][self.ncols], self.dens[r])
        x = []
        for pos, neg in self.col_of_var:
            x.append(vals[pos] - (vals[neg] if neg is not None else ZERO))
        return x

    def _extract_duals(self, phase1_duals: bool) -> list[Rational]:
        """Read y = (basis cost) . B^-1 off the identity columns.

        The identity column of row i satisfies reduced_cost = cost_col - y_i.
        Slacks cost zero in both phases; artificials cost one in phase 1.
        Multipliers for rows deleted as redundant stay zero.
        """
        m = len(self.lp.constraints)
        y = [ZERO] * m
        present = set(self.row_of_orig)
        for orig in range(m):
            if orig not in present:
                continue
            col = self.id_col[orig]
            reduced = rat(self.objrow[col], self.objden)
            col_cost = ONE if (phase1_duals and col in self.artificial_cols) else ZERO
            y[orig] = self.row_scale[orig] * (col_cost - reduced)
        if not phase1_duals and self.lp.sense == "max":
            y = [-v for v in y]
        return y


def solve(lp: LinearProgram) -> LpSolution:
    """Solve exactly; the returned certificates verify under rational arithmetic."""
    return _Tableau(lp).run()
