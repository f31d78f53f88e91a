"""Exact linear programming over rationals with certified answers.

Two-phase simplex with Bland's anti-cycling rule on a condensed tableau:
only the nonbasic columns are stored, since a basic column is a unit vector.
The stored entries are those of the full-width tableau, and Bland's rule
reads nothing else, so it takes the same pivots on fewer cells.  A program
is stored on integers and its variables carry only their signs:
``int_rows`` holds each constraint row's numerators over its least common
denominator, handed to ``LinearProgram`` as they are (``integer_rows``
turns sparse rational rows into that form), the objective is packed once
over one denominator, and ``constraints``, the rows as rationals, is built
only when read.  The tableau starts from those rows and stays
fraction-free: a pivot updates a row by integer cross-multiplication
(integer-preserving elimination in the style of Edmonds 1967 and Bareiss
1968) and divides out the gcd of the row and its denominator only once the
denominator passes ``REDUCE_BITS`` bits.

A caller that knows a feasible basis can hand ``solve`` a *start*, a
``Basis``: the structural variables that enter it, a free one on its
recorded half, and the rows that give up their slack or artificial to them
(a crash basis, Bixby 1992).  The solver pairs each variable with the first
listed row, not yet taken, that has a nonzero entry in its column, which is
Gaussian elimination in the listed order, and pivots it in.  It refuses the
basis unless the counts match, no variable is left without a row, every
basic value is nonnegative and every artificial zero; then it drives the
zero-level artificials out and goes straight to phase 2.  An ``optimal``
answer hands back its final basis in the same form, built only when read,
so a related program can start where this one stopped.  The envelope
programs always pass a start; every other program gets phase 1.

An ``optimal`` answer is read back as integers: the primal point over the
least common denominator of its basic values, the dual multipliers over the
objective row's denominator.  The solver checks them on those integers:
primal rows by integer sums, dual signs and the cost row by one combination
of the rows, and strong duality by the multipliers' dot product with the
right-hand sides.  ``LpSolution.primal`` and ``.dual`` build their
``Rational`` tuples only when read; the value is the one rational built per
answer.  An ``infeasible`` answer carries a Farkas combination of the rows,
checked the same way.  A failed check raises ``CertificateError`` in every
interpreter mode.  There are no tolerances.

Scale target is desk-sized instances (up to a few hundred variables); the
rows stay dense over the nonbasic columns, with no sparse factorization of
the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .rational import Rational, RationalLike, ScaledVector, over_common_denominator, rat, scaled

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
IntRows = tuple[tuple[tuple[tuple[int, int], ...], str, int, int], ...]


def integer_rows(rows: Iterable[tuple[SparseRow, str, RationalLike]]) -> IntRows:
    """Sparse rational rows ``({j: coeff}, relation, rhs)`` on integers: each
    row's ``(j, numerator)`` pairs, sorted by ``j`` and without zeros, its
    relation, its rhs numerator, and the least common denominator they are
    all over."""
    out = []
    for row, relation, rhs in rows:
        pairs = []
        for j, c in sorted(row.items()):
            c = rat(c)
            if c:
                pairs.append((j, c))
        nums, den = over_common_denominator([c for _, c in pairs] + [rat(rhs)])
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
    """Maximize or minimize ``objective`` over variables of the given
    ``signs`` (``NONNEG`` or ``FREE``) subject to ``int_rows``, which come in
    ``integer_rows`` form.  The sparse rational objective ``{j: coeff}`` is
    kept as ``(j, numerator)`` pairs, sorted and without zeros, over one
    denominator."""

    sense: str
    signs: tuple[str, ...]
    objective: tuple[tuple[tuple[int, int], ...], int]
    int_rows: IntRows

    def __init__(
        self,
        sense: str,
        signs: Iterable[str],
        objective: SparseRow,
        int_rows: Iterable[tuple[tuple[tuple[int, int], ...], str, int, int]],
    ):
        if sense not in ("max", "min"):
            raise MalformedProgram(f"sense must be 'max' or 'min', got {sense!r}")
        signs = tuple(signs)
        for j, sign in enumerate(signs):
            if sign not in (NONNEG, FREE):
                raise MalformedProgram(f"variable {j} has unknown sign {sign!r}")
        n = len(signs)
        if any(not 0 <= j < n for j in objective):
            raise MalformedProgram("objective references an undeclared variable")
        pairs, _, _, den = integer_rows([(objective, EQ, 0)])[0]
        rows = tuple(int_rows)
        for row, relation, _, d in rows:
            if relation not in _RELS:
                raise MalformedProgram(f"unknown relation {relation!r}")
            if d <= 0 or row and (row[0][0] < 0 or row[-1][0] >= n):
                raise MalformedProgram("integer row out of range")
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "objective", (pairs, den))
        object.__setattr__(self, "int_rows", rows)

    @cached_property
    def constraints(self) -> tuple[tuple[tuple[tuple[int, Rational], ...], str, Rational], ...]:
        """``int_rows`` as rationals: sorted ``(j, coefficient)`` pairs, relation, rhs."""
        return tuple([
            (tuple([(j, rat(v, den)) for j, v in pairs]), relation, rat(b, den))
            for pairs, relation, b, den in self.int_rows
        ])

    @property
    def n_vars(self) -> int:
        return len(self.signs)

    def objective_value(self, x: Sequence[Rational] | ScaledVector) -> Rational:
        nums, den = scaled(x)
        pairs, cden = self.objective
        total = 0
        for j, c in pairs:
            total += c * nums[j]
        return rat(total, cden * den)


class Basis(NamedTuple):
    """A basis by its structural part: ``variables`` lists the basic
    variables as ``(j, half)`` pairs, ``half`` -1 for the negative half of a
    free variable and 1 otherwise, and ``rows`` lists, in ascending order,
    the rows none of whose own columns (slack, surplus, artificial) is
    basic.  Every other row is basic in its slack or surplus, or in a
    zero-level artificial.  A nonsingular basis lists as many rows as
    variables."""

    variables: tuple[tuple[int, int], ...]
    rows: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A solver answer.  ``primal`` and ``dual`` are tuples of rationals built,
    the first time they are read, from the integer vectors the solver checked,
    ``primal_scaled`` and ``dual_scaled``; an ``optimal`` answer's ``basis``
    is built the first time it is read, too.  Two answers are equal when
    their status, value, primal, dual and Farkas vectors are."""

    status: str
    value: Rational | None = None
    primal_scaled: ScaledVector | None = None
    dual_scaled: ScaledVector | None = None
    farkas: tuple[Rational, ...] | None = None
    read_basis: Callable[[], Basis] | None = field(default=None, repr=False)

    @cached_property
    def basis(self) -> Basis | None:
        """The final basis; ``None`` unless optimal.  Rows that phase 1 or the
        start's purge deleted as redundant are not listed."""
        return None if self.read_basis is None else self.read_basis()

    @cached_property
    def primal(self) -> tuple[Rational, ...] | None:
        return None if self.primal_scaled is None else self.primal_scaled.rationals()

    @cached_property
    def dual(self) -> tuple[Rational, ...] | None:
        return None if self.dual_scaled is None else self.dual_scaled.rationals()

    def _key(self) -> tuple:
        return (self.status, self.value, self.primal, self.dual, self.farkas)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LpSolution):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def primal_feasible(lp: LinearProgram, x: Sequence[Rational] | ScaledVector) -> bool:
    nums, den = scaled(x)
    for sign, v in zip(lp.signs, nums):
        if sign == NONNEG and v < 0:
            return False
    return rows_hold(lp.int_rows, nums, den)


def _combine(
    lp: LinearProgram, y: Sequence[Rational] | ScaledVector
) -> tuple[Sequence[int], list[int], int, int]:
    """``sum_i y[i] * (row_i, rhs_i)`` on integers: the numerators of ``y``
    over one positive denominator, so of ``y``'s signs, then the combined row
    and rhs as numerators over the one positive denominator ``w``."""
    nums, den = scaled(y)
    rows = lp.int_rows
    scale = math.lcm(*[r[3] for yi, r in zip(nums, rows) if yi])
    combo = [0] * lp.n_vars
    rhs = 0
    for yi, (row, _, b, d) in zip(nums, rows):
        if yi:
            f = yi * (scale // d)
            rhs += f * b
            for j, c in row:
                combo[j] += f * c
    return nums, combo, rhs, den * scale


def dual_feasible(lp: LinearProgram, y: Sequence[Rational] | ScaledVector) -> bool:
    """Exact feasibility of ``y`` for the dual of ``lp`` (signs and rows)."""
    is_max = lp.sense == "max"
    nums, combo, _, w = _combine(lp, y)
    for yi, (_, relation, _, _) in zip(nums, lp.int_rows):
        if relation == LE and (yi < 0 if is_max else yi > 0):
            return False
        if relation == GE and (yi > 0 if is_max else yi < 0):
            return False
    # compare combo / w with the cost row c / cden
    pairs, cden = lp.objective
    cost = [0] * lp.n_vars
    for j, v in pairs:
        cost[j] = v * w
    for j, sign in enumerate(lp.signs):
        excess = combo[j] * cden - cost[j]
        # free: combo == cost; nonneg: combo >= cost (max) or <= cost (min)
        if excess and (sign == FREE or (excess < 0) == is_max):
            return False
    return True


def dual_objective(lp: LinearProgram, y: Sequence[Rational] | ScaledVector) -> Rational:
    """``sum_i y[i] * rhs_i``: the rhs part of the row combination alone."""
    nums, den = scaled(y)
    rows = lp.int_rows
    scale = math.lcm(*[r[3] for yi, r in zip(nums, rows) if yi and r[2]])
    total = 0
    for yi, (_, _, b, d) in zip(nums, rows):
        if yi and b:
            total += yi * b * (scale // d)
    return rat(total, den * scale)


def farkas_valid(lp: LinearProgram, u: Sequence[Rational] | ScaledVector) -> bool:
    """Check that ``u`` certifies infeasibility.

    Sign-compatible multipliers whose combined row no sign-feasible point can
    make positive, yet with a positive combined rhs: a contradiction witness.
    """
    nums, combo, rhs, _ = _combine(lp, u)
    for ui, (_, relation, _, _) in zip(nums, lp.int_rows):
        if relation == LE and ui > 0:
            return False
        if relation == GE and ui < 0:
            return False
    for j, sign in enumerate(lp.signs):
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
    """Condensed two-phase simplex working state: only nonbasic columns are stored.

    A basic column is a unit vector, so it is left implicit (Tucker's
    condensed tableau, the dictionary form of Chvatal 1983).  Slot ``k`` of
    every row, and of the objective row, holds column ``slot_col[k]``; the
    last entry is the rhs.  Row ``i`` holds the rationals
    ``rows[i][k] / dens[i]``: Python ints over one positive denominator per
    row, and its basic column ``basis[i]`` is one.  Either ``dens[i]`` has
    at most ``REDUCE_BITS`` bits, or it is the least common denominator of
    the row's entries: below the bound a row may share a factor with its
    denominator.  The objective row is ``objrow[k] / objden`` in the same
    form.  Signs and ratio-test comparisons read the numerators of one row
    at a time, so a common factor changes no decision.  The answer is read
    back on integers too (``_read_primal``, ``_read_duals``).

    The stored entries are the full-width tableau's nonbasic entries, number
    for number, and the basic entries it drops are one in their own row and
    zero elsewhere, objective row included.  So Bland's rule, which reads
    only negative reduced costs, column indices and ratios, makes the same
    pivots as on the full tableau.
    """

    def __init__(self, lp: LinearProgram, start: Basis | None = None):
        self.lp = lp
        self.start = start
        # Structural columns: nonneg -> one column, free -> plus/minus pair.
        self.col_of_var: list[tuple[int, int | None]] = []
        ncols = 0
        for sign in lp.signs:
            if sign == NONNEG:
                self.col_of_var.append((ncols, None))
                ncols += 1
            else:
                self.col_of_var.append((ncols, ncols + 1))
                ncols += 2
        self.n_struct = ncols

        # Standardize every row to rhs >= 0: ">=" rows are negated into "<="
        # form, and "<=" or "=" rows with a negative rhs are negated.
        m = len(lp.int_rows)
        self.row_scale: list[int] = []  # sign that standardized row i
        slack: list[bool] = []  # kept "<=" (else ">=" or "=", rhs >= 0)
        for _, relation, b, _ in lp.int_rows:
            scale = 1
            if relation == GE:
                b, scale, relation = -b, -scale, LE
            if relation == LE and b < 0:
                scale, relation = -scale, GE
            if relation == EQ and b < 0:
                scale = -scale
            self.row_scale.append(scale)
            slack.append(relation == LE)

        # One slack or surplus column per original inequality, then one
        # artificial column per row that lacks an identity column.  A slack
        # row starts basic in its slack, any other row in its artificial.
        col = self.n_struct
        aux_of_row: list[int | None] = [None] * m
        for i, (_, relation, _, _) in enumerate(lp.int_rows):
            if relation != EQ:
                aux_of_row[i] = col
                col += 1
        self.aux_of_row = aux_of_row  # original row -> its slack or surplus column
        self.id_col: list[int] = []  # original row -> its identity column
        for i in range(m):
            if slack[i]:
                self.id_col.append(aux_of_row[i])
            else:
                self.id_col.append(col)
                col += 1
        self.ncols = col
        self.artificial_cols = {c for i, c in enumerate(self.id_col) if not slack[i]}
        self.basis: list[int] = self.id_col[:]
        idents = set(self.id_col)
        self.slot_col: list[int] = [c for c in range(col) if c not in idents]
        slot_of = {c: k for k, c in enumerate(self.slot_col)}

        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.row_of_orig: list[int] = list(range(m))  # tableau row -> original row
        for i, (row, _, b, den) in enumerate(lp.int_rows):
            sign = self.row_scale[i]
            nums = [0] * (len(self.slot_col) + 1)
            # structural columns are never basic at the start: column j is slot j
            for j, v in row:
                pos, neg = self.col_of_var[j]
                nums[pos] = sign * v
                if neg is not None:
                    nums[neg] = -sign * v
            nums[-1] = sign * b
            if not slack[i] and aux_of_row[i] is not None:
                nums[slot_of[aux_of_row[i]]] = -den  # surplus of a ">=" row
            self.rows.append(nums)
            self.dens.append(den)
        # no objective until a phase sets one; a start pivots a zero row along
        self.objrow: list[int] = [0] * (len(self.slot_col) + 1)
        self.objden = 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, s: int) -> None:
        """Column ``slot_col[s]`` enters the basis in row ``r``; the column it
        replaces, ``basis[r]``, takes over slot ``s``."""
        # Dividing row r by its pivot entry leaves numerators ``row`` over
        # denominator ``p``, made positive and reduced to lowest terms.  The
        # leaving column's entry was one, ``dens[r]`` over ``dens[r]``.
        row = self.rows[r]
        p = row[s]
        row[s] = self.dens[r]
        if p < 0:
            row = [-v for v in row]
            p = -p
        g = math.gcd(p, *row)
        if g > 1:
            row = [v // g for v in row]
            p //= g
        self.rows[r] = row
        self.dens[r] = p
        # Every other row's leaving-column entry was zero: ``_eliminate`` on
        # a zeroed slot s leaves ``-f * row[s]`` there, the new entry.
        support = [k for k, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            f = other[s]
            if f and i != r:
                other[s] = 0
                self.rows[i], self.dens[i] = _eliminate(other, self.dens[i], row, support, p, f)
        f = self.objrow[s]
        if f:
            self.objrow[s] = 0
            self.objrow, self.objden = _eliminate(self.objrow, self.objden, row, support, p, f)
        self.basis[r], self.slot_col[s] = self.slot_col[s], self.basis[r]

    def _set_objective(self, cost: Sequence[int], den: int) -> None:
        """Install the cost row ``cost[c] / den`` (one entry per column) and
        price out the basis.

        Basic columns are not stored, so the basic costs come off in one
        combination of the rows whose basic column costs something: over the
        lcm ``scale`` of their denominators the objective row is
        ``c_N * scale - sum_r c[basis[r]] * (scale / dens[r]) * rows[r]``,
        over ``den * scale``.
        """
        priced = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        scale = math.lcm(*[self.dens[r] for _, r in priced])
        obj = [cost[c] * scale for c in self.slot_col]
        obj.append(0)
        for cb, r in priced:
            f = cb * (scale // self.dens[r])
            for k, v in enumerate(self.rows[r]):
                if v:
                    obj[k] -= f * v
        den *= scale
        if den.bit_length() > REDUCE_BITS:
            g = math.gcd(den, *obj)
            if g > 1:
                obj = [v // g for v in obj]
                den //= g
        self.objrow, self.objden = obj, den

    def _iterate(self, banned: set[int]) -> str:
        """Bland's rule on a minimization tableau until optimal or unbounded."""
        while True:
            # The entering column is the lowest-numbered one with a negative
            # reduced cost; basic columns have none.
            obj = self.objrow
            enter, lowest = -1, self.ncols
            for s, c in enumerate(self.slot_col):
                if obj[s] < 0 and c < lowest and c not in banned:
                    enter, lowest = s, c
            if enter < 0:
                return OPTIMAL
            # A row's ratio rhs/a is the ratio of its numerators, the shared
            # denominator cancelling; compare ratios by cross-multiplication.
            leave = -1
            best_b = best_a = 0
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
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
        if self.start is not None:
            self._enter_start()
        elif self.artificial_cols:
            phase1 = [int(c in self.artificial_cols) for c in range(self.ncols)]
            self._set_objective(phase1, 1)
            if self._iterate(banned=set()) != OPTIMAL:
                raise CertificateError("phase 1 reported an unbounded auxiliary program")
            if self.objrow[-1] != 0:
                farkas = self._read_duals(phase1=True)
                if not farkas_valid(lp, farkas):
                    raise CertificateError("invalid Farkas certificate")
                return LpSolution(status=INFEASIBLE, farkas=farkas.rationals())
            self._purge_artificials()

        # Phase 2 minimizes: a max program's costs are negated.
        pairs, cden = lp.objective
        flip = 1 if lp.sense == "min" else -1
        cost = [0] * self.ncols
        for j, v in pairs:
            pos, neg = self.col_of_var[j]
            cost[pos] = flip * v
            if neg is not None:
                cost[neg] = -flip * v
        self._set_objective(cost, cden)
        status = self._iterate(banned=self.artificial_cols)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED)
        x = self._read_primal()
        y = self._read_duals(phase1=False)
        value = lp.objective_value(x)
        if not primal_feasible(lp, x):
            raise CertificateError("simplex primal point is infeasible")
        if not dual_feasible(lp, y):
            raise CertificateError("simplex dual multipliers are infeasible")
        if dual_objective(lp, y) != value:
            raise CertificateError("strong duality violated")
        final = partial(
            _final_basis, self.basis, self.row_of_orig, self.id_col, self.aux_of_row,
            self.col_of_var,
        )
        return LpSolution(OPTIMAL, value, x, y, read_basis=final)

    def _enter_start(self) -> None:
        """Pivot the start in, refuse it unless its basis is feasible, then
        drive out the artificials it leaves basic at level zero.

        Rows are original rows: none is deleted before the purge.  An
        unlisted row that has a surplus but no slack first takes its surplus
        in place of its artificial.  Then each variable, on its half, enters
        in the first listed row not yet taken whose entry in its column is
        nonzero; a variable with none makes the basis singular.
        """
        variables, rows = self.start
        m = len(self.rows)
        if len(rows) != len(variables):
            raise CertificateError(f"start lists {len(rows)} rows for {len(variables)} variables")
        if len(set(rows)) != len(rows) or any(not 0 <= i < m for i in rows):
            raise CertificateError("start lists a row twice or one the program does not have")
        if any(not 0 <= j < len(self.col_of_var) for j, _ in variables):
            raise CertificateError("start lists a variable the program does not have")
        listed = set(rows)
        for i, aux in enumerate(self.aux_of_row):
            if i not in listed and aux is not None and aux != self.id_col[i]:
                self._pivot(i, self.slot_col.index(aux))
        free = list(rows)
        for j, half in variables:
            pos, neg = self.col_of_var[j]
            col = pos if half > 0 else neg
            if col is None:
                raise CertificateError(f"start enters nonnegative variable {j} negated")
            if col not in self.slot_col:
                raise CertificateError(f"start enters basic variable {j}")
            s = self.slot_col.index(col)
            i = next((i for i in free if self.rows[i][s]), None)
            if i is None:
                raise CertificateError(f"start basis is singular at variable {j}")
            free.remove(i)
            self._pivot(i, s)
        for row, b in zip(self.rows, self.basis):
            if row[-1] < 0 or row[-1] > 0 and b in self.artificial_cols:
                raise CertificateError("start basis is infeasible")
        self._purge_artificials()

    def _purge_artificials(self) -> None:
        """Drive zero-level artificials out of the basis; drop redundant rows."""
        r = 0
        while r < len(self.rows):
            if self.basis[r] in self.artificial_cols:
                row = self.rows[r]
                pivot_slot, lowest = -1, self.ncols
                for s, c in enumerate(self.slot_col):
                    if row[s] != 0 and c < lowest and c not in self.artificial_cols:
                        pivot_slot, lowest = s, c
                if pivot_slot < 0:
                    del self.rows[r]
                    del self.dens[r]
                    del self.basis[r]
                    del self.row_of_orig[r]
                    continue
                self._pivot(r, pivot_slot)
            r += 1

    def _read_primal(self) -> ScaledVector:
        """The basic point over the least common denominator of its coordinates."""
        vals: dict[int, tuple[int, int]] = {}  # structural column -> value in lowest terms
        for r, b in enumerate(self.basis):
            v = self.rows[r][-1]
            if v and b < self.n_struct:
                d = self.dens[r]
                g = math.gcd(v, d)
                vals[b] = (v // g, d // g)
        den = math.lcm(*[d for _, d in vals.values()])
        x = []
        for pos, neg in self.col_of_var:
            v, d = vals.get(pos, (0, 1))
            xj = v * (den // d)
            if neg is not None:
                v, d = vals.get(neg, (0, 1))
                xj -= v * (den // d)
            x.append(xj)
        return ScaledVector(tuple(x), den)

    def _read_duals(self, phase1: bool) -> ScaledVector:
        """Read y = (basis cost) . B^-1 off the identity columns, over ``objden``.

        The identity column of row i satisfies reduced_cost = cost_col - y_i;
        its reduced cost is in its slot, or zero while it is basic.  Slacks
        cost zero in both phases; artificials cost one in phase 1.
        Multipliers for rows deleted as redundant stay zero.
        """
        objrow, objden = self.objrow, self.objden
        slot_of = {c: s for s, c in enumerate(self.slot_col)}
        flip = -1 if not phase1 and self.lp.sense == "max" else 1
        y = [0] * len(self.lp.int_rows)
        for orig in self.row_of_orig:
            col = self.id_col[orig]
            cost = objden if phase1 and col in self.artificial_cols else 0
            s = slot_of.get(col)
            y[orig] = flip * self.row_scale[orig] * (cost - (0 if s is None else objrow[s]))
        return ScaledVector(tuple(y), objden)


def _final_basis(
    basis: list[int],
    row_of_orig: list[int],
    id_col: list[int],
    aux_of_row: list[int | None],
    col_of_var: list[tuple[int, int | None]],
) -> Basis:
    """The ``Basis`` of a final tableau: its basic structural columns as
    variables on their halves, and the kept rows none of whose own columns
    is basic."""
    basic = set(basis)
    variables = []
    for j, (pos, neg) in enumerate(col_of_var):
        if pos in basic:
            variables.append((j, 1))
        elif neg in basic:
            variables.append((j, -1))
    rows = [i for i in row_of_orig if id_col[i] not in basic and aux_of_row[i] not in basic]
    return Basis(tuple(variables), tuple(rows))


def solve(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve exactly; the returned certificates verify under rational arithmetic.

    ``start`` is a feasible ``Basis`` to begin from, typically another
    program's ``LpSolution.basis`` mapped onto this one.  With one, phase 1
    is skipped: the variables are paired with the listed rows by elimination
    and pivoted in, and the basis is refused with ``CertificateError`` if the
    counts differ, if it is singular, or if a basic value comes out negative
    or an artificial positive.  A start only saves pivots, since every
    answer passes the same exact checks.  Without one, phase 1 finds a
    feasible basis or a Farkas certificate.
    """
    return _Tableau(lp, start).run()
