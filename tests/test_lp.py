import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import medburn.lp as lp_module
from medburn.cli import load_game_file
from medburn.geometry import compile_pieces
from medburn.lp import (
    EQ,
    Basis,
    FREE,
    GE,
    INFEASIBLE,
    LE,
    NONNEG,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MalformedProgram,
    dual_feasible,
    dual_objective,
    farkas_valid,
    integer_rows,
    primal_feasible,
    solve,
)
from medburn.rational import ONE, ZERO, Rational, ScaledVector, format_fraction, rat
from medburn.solvers import protocol_report_structure
from random_games import random_game_of_shape

GAMES = Path(__file__).resolve().parent.parent / "games"
FIXTURES = ("salesman", "three_actions", "influencer", "abstract_pieces")

PINNED_VERTEX_DIGEST = "387f665eec5e11fc15b6f5c722bfa21b37d587e63a173bbcecc51ff64ccc6cdd"
PINNED_PIVOT_DIGEST = "d62968757b615fd8f4bb4f29f1d4fe76123b7efaf66b96e304dcacd12271a852"


def program(sense, signs, objective, rows) -> LinearProgram:
    """A program from sparse rational rows ``({j: coeff}, relation, rhs)``."""
    return LinearProgram(sense, signs, objective, integer_rows(rows))


def objective_of(lp: LinearProgram) -> dict[int, Rational]:
    """``lp``'s objective as the sparse rational row it was built from, zeros left out."""
    pairs, den = lp.objective
    return {j: rat(v, den) for j, v in pairs}


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The symmetric dual; solving it reproduces the optimal value exactly.

    Nonnegative dual variables stand for the natural-sign multiplier of each
    inequality (y >= 0 on <= rows of a max program, on >= rows of a min
    program); rows of the opposite orientation enter negated.
    """
    is_max = lp.sense == "max"

    def mult(i: int) -> Rational:
        relation = lp.constraints[i][1]
        if relation == EQ:
            return ONE
        natural = LE if is_max else GE
        return ONE if relation == natural else -ONE

    dual_signs = tuple(FREE if relation == EQ else NONNEG for _, relation, _ in lp.constraints)
    objective = {i: mult(i) * lp.constraints[i][2] for i in range(len(lp.constraints))}
    cols: dict[int, dict[int, Rational]] = {j: {} for j in range(lp.n_vars)}
    for i, (row, _, _) in enumerate(lp.constraints):
        for j, c in row:
            cols[j][i] = mult(i) * c
    cost = {j: ZERO for j in range(lp.n_vars)}
    cost.update(objective_of(lp))
    constraints = []
    for j, sign in enumerate(lp.signs):
        relation = EQ if sign == FREE else (GE if is_max else LE)
        constraints.append((cols[j], relation, cost[j]))
    return program("min" if is_max else "max", dual_signs, objective, constraints)


def test_simple_bounded_max():
    lp = program("max", [NONNEG], {0: 1}, [({0: 1}, "<=", 3)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 3
    assert sol.primal == (rat(3),)
    assert sol.dual == (rat(1),)


def test_unbounded():
    lp = program("max", [NONNEG], {0: 1}, [])
    assert solve(lp).status == UNBOUNDED


def test_infeasible_with_certificate():
    lp = program("max", [NONNEG], {}, [({0: 1}, "<=", -1)])
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    assert sol.farkas is not None
    assert farkas_valid(lp, sol.farkas)


def test_bad_variable_index():
    with pytest.raises(MalformedProgram):
        program("max", [NONNEG], {1: 1}, [])


def test_equality_and_free_variables():
    lp = program(
        "min",
        [NONNEG, FREE],
        {0: 3, 1: 2},
        [({0: 1, 1: 1}, ">=", 4), ({0: 1, 1: -1}, "=", 1)],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == rat(21, 2)
    assert primal_feasible(lp, sol.primal)
    assert dual_feasible(lp, sol.dual)
    assert dual_objective(lp, sol.dual) == sol.value


def test_degenerate_equalities():
    # redundant rows force artificial purging
    lp = program(
        "max",
        [NONNEG, NONNEG],
        {0: 1, 1: 2},
        [({0: 1, 1: 1}, "=", 1), ({0: 2, 1: 2}, "=", 2), ({0: 1}, "<=", rat(1, 2))],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 2


def test_dual_round_trip():
    lp = program(
        "max",
        [NONNEG, NONNEG, NONNEG],
        {0: 1, 1: 1, 2: 2},
        [
            ({0: 1, 1: 1, 2: 1}, "=", 1),
            ({0: 1}, "<=", rat(1, 2)),
            ({1: 1, 2: 1}, ">=", rat(1, 4)),
        ],
    )
    sol = solve(lp)
    dual_sol = solve(dual_program(lp))
    assert sol.status == dual_sol.status == OPTIMAL
    assert sol.value == dual_sol.value


def _random_lp(rng):
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    sense = rng.choice(["max", "min"])
    signs = [rng.choice([NONNEG, NONNEG, FREE]) for _ in range(n)]
    objective = {j: rng.randint(-5, 5) for j in range(n)}
    constraints = [
        ({j: rng.randint(-4, 4) for j in range(n)}, rng.choice(["<=", "=", ">="]), rng.randint(-6, 6))
        for _ in range(m)
    ]
    for j in range(n):  # box keeps things bounded
        constraints.append(({j: 1}, "<=", 10))
        constraints.append(({j: 1}, ">=", -10))
    return program(sense, signs, objective, constraints)


def _scipy_solve(lp):
    n = lp.n_vars
    cost = [0.0] * n
    for j, c in objective_of(lp).items():
        cost[j] = float(Fraction(int(c.numerator), int(c.denominator)))
    c = np.array(cost)
    if lp.sense == "max":
        c = -c
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, rhs in lp.constraints:
        arow = [0.0] * n
        for j, coeff in row:
            arow[j] = float(Fraction(int(coeff.numerator), int(coeff.denominator)))
        rhs_f = float(Fraction(int(rhs.numerator), int(rhs.denominator)))
        if rel == "<=":
            A_ub.append(arow)
            b_ub.append(rhs_f)
        elif rel == ">=":
            A_ub.append([-v for v in arow])
            b_ub.append(-rhs_f)
        else:
            A_eq.append(arow)
            b_eq.append(rhs_f)
    bounds = [(0, None) if sign == NONNEG else (None, None) for sign in lp.signs]
    return linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def test_agrees_with_float_solver_on_random_lps():
    rng = random.Random(987123)
    optimal_seen = 0
    trials = 0
    while optimal_seen < 100:
        trials += 1
        assert trials < 400, "random generator starved of feasible programs"
        lp = _random_lp(rng)
        sol = solve(lp)
        ref = _scipy_solve(lp)
        if sol.status == OPTIMAL:
            optimal_seen += 1
            assert ref.status == 0
            ours = float(Fraction(int(sol.value.numerator), int(sol.value.denominator)))
            target = -ref.fun if lp.sense == "max" else ref.fun
            assert abs(ours - target) < 1e-9
            assert primal_feasible(lp, sol.primal)
            assert dual_feasible(lp, sol.dual)
            assert dual_objective(lp, sol.dual) == sol.value
        elif sol.status == INFEASIBLE:
            assert ref.status == 2
            assert farkas_valid(lp, sol.farkas)
        else:
            assert ref.status == 3


def test_dual_round_trip_on_random_lps():
    rng = random.Random(55221)
    checked = 0
    while checked < 25:
        lp = _random_lp(rng)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        dual_sol = solve(dual_program(lp))
        assert dual_sol.status == OPTIMAL
        assert dual_sol.value == sol.value
        checked += 1


def _random_rational_lp(rng, box, frac=None):
    if frac is None:
        def frac(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    sense = rng.choice(["max", "min"])
    signs = [rng.choice([NONNEG, NONNEG, FREE]) for _ in range(n)]
    objective = {j: frac(-5, 5) for j in range(n)}
    constraints = [
        ({j: frac(-4, 4) for j in range(n)}, rng.choice(["<=", "=", ">="]), frac(-6, 6))
        for _ in range(m)
    ]
    if box:
        for j in range(n):
            constraints.append(({j: 1}, "<=", frac(1, 10)))
            constraints.append(({j: 1}, ">=", -frac(1, 10)))
    return program(sense, signs, objective, constraints)


def _certify_unbounded(lp):
    """Unbounded exactly when the program is feasible and its dual is not."""
    feasibility = LinearProgram(lp.sense, lp.signs, {}, lp.int_rows)
    assert solve(feasibility).status == OPTIMAL
    dual = dual_program(lp)
    dual_sol = solve(dual)
    assert dual_sol.status == INFEASIBLE
    assert farkas_valid(dual, dual_sol.farkas)


def test_rational_coefficients_with_and_without_box():
    rng = random.Random(20240611)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(240):
        lp = _random_rational_lp(rng, box=trial % 2 == 0)
        sol = solve(lp)
        ref = _scipy_solve(lp)
        seen[sol.status] += 1
        if sol.status == OPTIMAL:
            assert ref.status == 0
            ours = float(sol.value)
            target = -ref.fun if lp.sense == "max" else ref.fun
            assert abs(ours - target) < 1e-9 * max(1.0, abs(ours))
            assert primal_feasible(lp, sol.primal)
            assert dual_feasible(lp, sol.dual)
            assert dual_objective(lp, sol.dual) == sol.value
        elif sol.status == INFEASIBLE:
            assert ref.status == 2
            assert farkas_valid(lp, sol.farkas)
        else:
            assert ref.status == 3
            _certify_unbounded(lp)
    assert min(seen.values()) >= 1, seen


def _vertex_text(sol):
    def vec(values):
        return "-" if values is None else ",".join(format_fraction(v) for v in values)

    value = "-" if sol.value is None else format_fraction(sol.value)
    return "|".join((sol.status, value, vec(sol.primal), vec(sol.dual), vec(sol.farkas)))


def _pinned_programs():
    """Two hand-written degenerate programs and 340 seeded random ones."""
    programs = [
        program(
            "max",
            [NONNEG, NONNEG],
            {0: 1, 1: 2},
            [({0: 1, 1: 1}, "=", 1), ({0: 2, 1: 2}, "=", 2), ({0: 1}, "<=", rat(1, 2))],
        ),
        program(
            "max",
            [NONNEG, NONNEG, NONNEG],
            {0: 1, 1: 1, 2: 2},
            [
                ({0: 1, 1: 1, 2: 1}, "=", 1),
                ({0: 1}, "<=", rat(1, 2)),
                ({1: 1, 2: 1}, ">=", rat(1, 4)),
            ],
        ),
    ]
    rng = random.Random(31337)
    programs += [_random_lp(rng) for _ in range(150)]
    programs += [_random_rational_lp(rng, box=k % 2 == 0) for k in range(150)]
    programs += [dual_program(lp) for lp in programs[:40]]
    return programs


def test_returned_vertices_are_pinned():
    # The digest pins the exact answer Bland's rule returns on every program
    # below: which optimal vertex, which dual, which Farkas combination.  A
    # change of pricing may legitimately move it; such a change must update
    # the digest knowingly, after checking that the new answers still verify.
    text = "\n".join(_vertex_text(solve(lp)) for lp in _pinned_programs())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_VERTEX_DIGEST


def test_pivot_path_is_pinned(monkeypatch):
    # The digest pins the basis after every pivot Bland's rule makes, on the
    # programs of ``test_returned_vertices_are_pinned`` and on every envelope
    # program of a protocol report with budgets 1 and 2 for the fixtures and
    # four seeded 4x6 games.  It reads only ``basis``, so it holds for any
    # tableau layout that keeps the pivot sequence.  The envelope programs'
    # start pivots are on the path too: a change of start moves the digest.
    rng = random.Random(1201)
    structures = [load_game_file(GAMES / f"{name}.json").any_structure() for name in FIXTURES]
    structures += [compile_pieces(random_game_of_shape(rng, 4, 6)) for _ in range(4)]

    path = []
    pivot, run = lp_module._Tableau._pivot, lp_module._Tableau.run

    def recording_pivot(self, r, c):
        pivot(self, r, c)
        path.append(",".join(map(str, self.basis)))

    def recording_run(self):
        path.append("|")
        return run(self)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recording_pivot)
    monkeypatch.setattr(lp_module._Tableau, "run", recording_run)
    for lp in _pinned_programs():
        solve(lp)
    for structure in structures:
        protocol_report_structure(structure, [1, 2])
    assert len(path) > 2000
    digest = hashlib.sha256("\n".join(path).encode()).hexdigest()
    assert digest == PINNED_PIVOT_DIGEST


def test_start_basis_replaces_phase_1_and_is_checked():
    # max e over x + y = 1, e + 2x - y = 0, x <= cap: e = y - 2x peaks at 1.
    def capped(cap):
        return program(
            "max",
            [NONNEG, NONNEG, FREE],
            {2: 1},
            [({0: 1, 1: 1}, EQ, 1), ({0: 2, 1: -1, 2: 1}, EQ, 0), ({0: 1}, LE, cap)],
        )

    plain = solve(capped(1))
    assert plain.status == OPTIMAL and plain.value == 1
    assert plain.basis == Basis(((1, 1), (2, 1)), (0, 1))
    # y = 1 and e = 1, or x = 1 and e = -2 on the free variable's negative half
    for start in (plain.basis, Basis(((0, 1), (2, -1)), (0, 1))):
        assert solve(capped(1), start) == plain
    # x = 1 breaks x <= 1/2: its slack would be negative
    with pytest.raises(lp_module.CertificateError, match="start basis is infeasible"):
        solve(capped(rat(1, 2)), Basis(((0, 1), (2, -1)), (0, 1)))
    # e = -2 on its nonnegative half
    with pytest.raises(lp_module.CertificateError, match="start basis is infeasible"):
        solve(capped(1), Basis(((0, 1), (2, 1)), (0, 1)))
    # e alone leaves the first row's artificial at 1
    with pytest.raises(lp_module.CertificateError, match="start basis is infeasible"):
        solve(capped(1), Basis(((2, 1),), (1,)))
    # a variable the start already made basic cannot enter again
    with pytest.raises(lp_module.CertificateError, match="basic variable"):
        solve(capped(1), Basis(((1, 1), (1, 1)), (0, 1)))
    # y has no entry in the row x <= cap
    with pytest.raises(lp_module.CertificateError, match="singular"):
        solve(capped(1), Basis(((1, 1),), (2,)))
    # a row listed beyond the variables is refused, not paired or dropped
    with pytest.raises(lp_module.CertificateError, match="3 rows for 2 variables"):
        solve(capped(1), Basis(plain.basis.variables, (0, 1, 2)))
    with pytest.raises(lp_module.CertificateError, match="does not have"):
        solve(capped(1), Basis(((1, 1), (3, 1)), (0, 1)))
    with pytest.raises(lp_module.CertificateError, match="negated"):
        solve(capped(1), Basis(((0, -1), (2, -1)), (0, 1)))
    with pytest.raises(lp_module.CertificateError, match="row twice"):
        solve(capped(1), Basis(plain.basis.variables, (0, 0)))


def test_optimal_basis_restarts_its_program(monkeypatch):
    # Started from its own final basis, a program is optimal at once: phase 2
    # makes no pivot, and the answer and its basis come back the same.  Rows
    # that phase 1 deleted as redundant are not in the basis, so its row and
    # variable counts match.
    phase_2_pivots = []
    pivot, iterate = lp_module._Tableau._pivot, lp_module._Tableau._iterate

    def counting(self, r, s):
        if phase_2_pivots:
            phase_2_pivots[-1] += 1
        pivot(self, r, s)

    def phase(self, banned):
        phase_2_pivots.append(0)
        return iterate(self, banned)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", counting)
    monkeypatch.setattr(lp_module._Tableau, "_iterate", phase)
    restarted = 0
    for lp, sol in _checked_corpus():
        if sol.status != OPTIMAL:
            assert sol.basis is None
            continue
        basis = sol.basis
        assert sol.basis is basis  # built once, when first read
        assert len(basis.rows) == len(basis.variables)
        assert list(basis.rows) == sorted(set(basis.rows))
        phase_2_pivots.clear()
        again = solve(lp, basis)
        assert phase_2_pivots == [0]
        assert again == sol and again.basis == basis
        restarted += 1
    assert restarted >= 20


def test_a_purged_row_stays_out_of_the_basis():
    # x + y = 1 twice: phase 1 deletes the copy as redundant, so the basis
    # lists one row for its one variable.  Listing the copy as well is
    # refused, not paired with nothing or dropped.
    lp = program(
        "max", [NONNEG, NONNEG], {0: 1, 1: 2},
        [({0: 1, 1: 1}, EQ, 1), ({0: 1, 1: 1}, EQ, 1)],
    )
    sol = solve(lp)
    assert sol.value == 2 and sol.basis == Basis(((1, 1),), (0,))
    assert solve(lp, sol.basis) == sol
    with pytest.raises(lp_module.CertificateError, match="2 rows for 1 variables"):
        solve(lp, Basis(sol.basis.variables, (0, 1)))


def _coprime_denominators(rng, count, bits=60):
    """``count`` pairwise co-prime integers of ``bits`` bits."""
    out = []
    while len(out) < count:
        d = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if all(math.gcd(d, e) == 1 for e in out):
            out.append(d)
    return out


def test_wide_denominators_reduce_lazily(monkeypatch):
    # Every coefficient and right-hand side carries one of twelve co-prime
    # 60-bit denominators, so row denominators pass ``REDUCE_BITS`` within a
    # pivot or two and reach the deferred gcd branch of ``_eliminate``.  The
    # boxed programs are never unbounded.  The answers still verify exactly,
    # agree with HiGHS, and equal, byte for byte, the answers of a tableau
    # that reduces every row at every pivot.
    rng = random.Random(604931)
    dens = _coprime_denominators(rng, 12)

    def wide(lo, hi):
        den = rng.choice(dens)
        return Fraction(rng.randint(lo * den, hi * den), den)

    programs = [_random_rational_lp(rng, box=True, frac=wide) for _ in range(40)]

    widest = []
    eliminate = lp_module._eliminate

    def recording(other, den, row, support, p, f):
        widest.append((den * (p // math.gcd(f, p))).bit_length())
        return eliminate(other, den, row, support, p, f)

    monkeypatch.setattr(lp_module, "_eliminate", recording)
    lazy = [solve(lp) for lp in programs]
    assert sum(bits > lp_module.REDUCE_BITS for bits in widest) >= 100

    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for lp, sol in zip(programs, lazy):
        ref = _scipy_solve(lp)
        seen[sol.status] += 1
        if sol.status == OPTIMAL:
            assert ref.status == 0
            ours = float(sol.value)
            target = -ref.fun if lp.sense == "max" else ref.fun
            assert abs(ours - target) < 1e-9 * max(1.0, abs(ours))
            assert primal_feasible(lp, sol.primal)
            assert dual_feasible(lp, sol.dual)
            assert dual_objective(lp, sol.dual) == sol.value
        else:
            assert sol.status == INFEASIBLE
            assert ref.status == 2
            assert farkas_valid(lp, sol.farkas)
    assert min(seen.values()) >= 1, seen

    monkeypatch.setattr(lp_module, "REDUCE_BITS", 0)
    assert [solve(lp) for lp in programs] == lazy


def _checked_corpus():
    """Boxed rational programs, half of them over wide co-prime denominators,
    with their solutions."""
    rng = random.Random(77031)
    dens = _coprime_denominators(rng, 8)

    def wide(lo, hi):
        den = rng.choice(dens)
        return Fraction(rng.randint(lo * den, hi * den), den)

    programs = [_random_rational_lp(rng, True, wide if k % 2 else None) for k in range(60)]
    return [(lp, solve(lp)) for lp in programs]


def _primal_reference(lp, x):
    """Primal feasibility by ``Fraction`` row sums, the exact reference."""
    if any(v < 0 for sign, v in zip(lp.signs, x) if sign == NONNEG):
        return False
    for row, relation, rhs in lp.constraints:
        lhs = sum((c * x[j] for j, c in row), ZERO)
        if (relation == LE and lhs > rhs) or (relation == GE and lhs < rhs):
            return False
        if relation == EQ and lhs != rhs:
            return False
    return True


def test_int_rows_round_trip_to_constraints():
    for lp, _ in _checked_corpus():
        assert len(lp.int_rows) == len(lp.constraints)
        for (row, relation, rhs), (nums, irelation, inum, den) in zip(lp.constraints, lp.int_rows):
            assert irelation == relation
            assert [j for j, _ in nums] == [j for j, _ in row]
            assert [rat(v, den) for _, v in nums] == [c for _, c in row]
            assert rat(inum, den) == rhs
            assert den == math.lcm(rhs.denominator, *[c.denominator for _, c in row])
        back = [(dict(row), relation, rhs) for row, relation, rhs in lp.constraints]
        assert integer_rows(back) == lp.int_rows


def test_doctored_answers_are_rejected():
    # One exact change to an answer the solver returns must fail its check,
    # however wide the denominators.
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for lp, sol in _checked_corpus():
        if sol.status == UNBOUNDED:
            continue
        seen[sol.status] += 1
        if sol.status == OPTIMAL:
            x, y = list(sol.primal), list(sol.dual)
            assert primal_feasible(lp, x) and dual_feasible(lp, y)
            assert dual_objective(lp, y) == sol.value
            # A nudged coordinate in an '=' row breaks it; any other nudge is
            # judged as the rational row sums judge it.
            den = math.lcm(*[v.denominator for v in x]) * 1009
            in_eq = {j for row, relation, _ in lp.constraints if relation == EQ for j, _ in row}
            for j in range(lp.n_vars):
                nudged = x[:j] + [x[j] + Fraction(1, den)] + x[j + 1 :]
                assert primal_feasible(lp, nudged) == _primal_reference(lp, nudged)
                assert not (j in in_eq and primal_feasible(lp, nudged))
            for i, (_, relation, rhs) in enumerate(lp.constraints):
                if y[i] and relation != EQ:
                    assert not dual_feasible(lp, y[:i] + [-y[i]] + y[i + 1 :])
                if rhs:
                    moved = y[:i] + [y[i] + Fraction(1, den)] + y[i + 1 :]
                    assert dual_objective(lp, moved) == sol.value + rhs / den
                    assert dual_objective(lp, moved) != sol.value
        else:
            u = list(sol.farkas)
            assert farkas_valid(lp, u)
            for i, (_, relation, _) in enumerate(lp.constraints):
                if relation == EQ:
                    continue
                wrong = -u[i] if u[i] else Fraction(1 if relation == LE else -1, 1009)
                assert not farkas_valid(lp, u[:i] + [wrong] + u[i + 1 :])
    assert min(seen.values()) >= 1, seen


def test_sign_rules_alone_reject_multipliers():
    # Multipliers whose combined row meets the costs, so that only the sign
    # rules can reject them.
    rows = [({0: 1}, LE, 1), ({0: -1}, LE, 1), ({0: 1}, GE, -1), ({0: -1}, GE, -1)]
    for sense in ("max", "min"):
        lp = program(sense, [FREE], {}, rows)
        le = [ONE, ONE, ZERO, ZERO] if sense == "max" else [-ONE, -ONE, ZERO, ZERO]
        ge = [ZERO, ZERO] + [-v for v in le[:2]]
        for y in (le, ge):
            assert dual_feasible(lp, y)
            assert not dual_feasible(lp, [-v for v in y])
    # x <= -1 and x >= 1 contradict; adding x <= 5 with a positive multiplier
    # keeps the combined row zero and its rhs positive, but has the wrong sign.
    rows = [({0: 1}, LE, -1), ({0: -1}, LE, -1), ({0: 1}, LE, 5)]
    lp = program("max", [FREE], {}, rows)
    assert farkas_valid(lp, [-ONE, -ONE, ZERO])
    assert not farkas_valid(lp, [-ONE, ZERO, ONE])


def test_integer_read_back_matches_its_rationals():
    # A program rebuilt from its own integer rows and objective is the same
    # program; the answer is checked on integers, and each check gives the
    # rational vectors' verdict.
    for lp, sol in _checked_corpus():
        again = LinearProgram(lp.sense, lp.signs, objective_of(lp), lp.int_rows)
        assert again == lp and again.constraints == lp.constraints
        assert solve(again) == sol
        if sol.status != OPTIMAL:
            assert sol.primal_scaled is None and sol.primal is None and sol.dual is None
            continue
        x, y = sol.primal_scaled, sol.dual_scaled
        assert x.den > 0 and y.den > 0
        assert sol.primal == x.rationals() and sol.dual == y.rationals()
        assert lp.objective_value(x) == lp.objective_value(sol.primal) == sol.value
        assert dual_objective(lp, y) == dual_objective(lp, sol.dual) == sol.value
        # the primal point is over the least common denominator of its coordinates
        assert x.den == math.lcm(*[v.denominator for v in sol.primal])
        for i in range(len(y.nums)):
            moved = ScaledVector(y.nums[:i] + (y.nums[i] + 1,) + y.nums[i + 1 :], y.den)
            assert dual_feasible(lp, moved) == dual_feasible(lp, moved.rationals())
        for j in range(len(x.nums)):
            moved = ScaledVector(x.nums[:j] + (x.nums[j] - 1,) + x.nums[j + 1 :], x.den)
            assert primal_feasible(lp, moved) == _primal_reference(lp, moved.rationals())


def test_integer_rows_are_validated():
    signs = [NONNEG, NONNEG]
    good = (((0, 1), (1, 2)), LE, 3, 1)
    assert integer_rows([({1: 2, 0: 1, 2: 0}, LE, 3)]) == (good,)
    assert LinearProgram("max", signs, {0: 1}, [good]).constraints == (
        (((0, ONE), (1, rat(2))), LE, rat(3)),
    )
    for bad in (
        (((0, 1), (2, 1)), LE, 3, 1),  # undeclared variable
        (((-1, 1),), LE, 3, 1),
        (((0, 1),), "<", 3, 1),  # unknown relation
        (((0, 1),), LE, 3, 0),  # no denominator
    ):
        with pytest.raises(MalformedProgram):
            LinearProgram("max", signs, {0: 1}, [good, bad])
    with pytest.raises(MalformedProgram):
        LinearProgram("max", [NONNEG, "positive"], {0: 1}, [good])
