import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medburn.envelopes as envelopes
from medburn import Belief, SubjectivePrior, rat, validate_game
from medburn.envelopes import (
    concavify_weighted,
    evaluate_subjective,
    quasiconcavify,
    subjective_weight,
    worst_prior_envelope,
)
from medburn.geometry import (
    Polytope, PiecewiseValueStructure, ValuePiece, compile_pieces, tie_region
)
from medburn.lp import (
    FREE, OPTIMAL, Basis, CertificateError, dual_feasible, dual_objective, primal_feasible, solve
)
from medburn.oracle import GridSpec, grid_concavify, lipschitz_slack
from medburn.solvers import (
    protocol_report_structure, value_mdmb_budget_structure, verify_saddle_structure
)
from envelope_pivots import envelope_pivots
from random_games import game_corpus, random_game_of_shape


def cav(structure, lam, budget=None):
    return concavify_weighted(structure, lam, budget)


def test_salesman_low_type_share(salesman):
    s = compile_pieces(salesman)
    result = cav(s, SubjectivePrior([0, 1]))
    assert result.value == rat(1, 3)  # prior/(1-prior) at prior 1/4
    split = {a.belief.weights: a.weight for a in result.atoms}
    assert split == {
        (rat(1, 2), rat(1, 2)): rat(1, 2),
        (rat(0), rat(1)): rat(1, 2),
    }


def test_influencer_vertex_reweightings(influencer):
    s = compile_pieces(influencer)
    assert cav(s, SubjectivePrior([1, 0, 0])).value == 3
    assert cav(s, SubjectivePrior([0, 1, 0])).value == 3
    assert cav(s, SubjectivePrior([0, 0, 1])).value == rat(8, 3)


def test_influencer_worst_reweighting(influencer):
    s = compile_pieces(influencer)
    result = cav(s, SubjectivePrior([0, "1/2", "1/2"]))
    assert result.value == rat(5, 2)


def test_reweighting_at_prior_is_plain_concavification(salesman, three_actions):
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        lam = SubjectivePrior.from_belief(s.prior)
        result = cav(s, lam)
        for atom in result.atoms:
            assert subjective_weight(lam, s.prior, atom.belief) == 1


def test_quasiconcavify(salesman, three_actions, single_action):
    assert quasiconcavify(compile_pieces(salesman)) == 0
    assert quasiconcavify(compile_pieces(three_actions)) == rat(1, 4)
    assert quasiconcavify(compile_pieces(single_action)) == 7


def test_evaluate_subjective_budget_table(salesman):
    # the two-branch pointwise value at the tie belief
    s = compile_pieces(salesman)
    lam = SubjectivePrior([-1, 2])
    mu = Belief(["1/2", "1/2"])
    w = subjective_weight(lam, s.prior, mu)
    assert w == rat(-2, 3)
    assert evaluate_subjective(s, lam, rat(2), mu) == max(w * 1, w * (0 - 2))
    assert evaluate_subjective(s, lam, rat(2), mu) == rat(4, 3)


def test_evaluate_subjective_max_only(three_actions):
    s = compile_pieces(three_actions)
    assert evaluate_subjective(
        s, SubjectivePrior([1, 0]), None, Belief(["2/3", "1/3"])
    ) == rat(10, 3)
    lam = SubjectivePrior.from_belief(s.prior)
    assert evaluate_subjective(s, lam, None, s.prior) == rat(1, 4)


def test_result_invariants_and_caratheodory(influencer):
    s = compile_pieces(influencer)
    lam = SubjectivePrior(["1/3", "1/3", "1/3"])
    result = cav(s, lam)
    assert len(result.atoms) <= 3  # |types|
    total = sum((a.weight for a in result.atoms), rat(0))
    assert total == 1
    recombined = sum(
        (a.weight * subjective_weight(lam, s.prior, a.belief) * a.value for a in result.atoms),
        rat(0),
    )
    assert recombined == result.value
    for atom in result.atoms:
        piece = s.pieces[atom.piece]
        assert piece.region.contains(atom.belief)
        assert atom.value == piece.vmax  # max-only branch


def test_cav_dominates_pointwise(salesman, three_actions):
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        for lam in (SubjectivePrior([1, 0]), SubjectivePrior(["1/2", "1/2"])):
            assert cav(s, lam).value >= evaluate_subjective(s, lam, None, s.prior)
        lam = SubjectivePrior(["-1/2", "3/2"])
        assert (
            cav(s, lam, rat(1)).value
            >= evaluate_subjective(s, lam, rat(1), s.prior)
        )


def test_worst_prior_requires_full_support(salesman):
    s = compile_pieces(salesman).with_prior(Belief([1, 0]))
    with pytest.raises(ValueError):
        worst_prior_envelope(s, None)


def test_query_validation(salesman):
    s = compile_pieces(salesman)
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([-1, 2]))
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([1, 0]), rat(-1))
    with pytest.raises(ValueError):
        cav(s, SubjectivePrior([1, 0, 0]))


def test_binary_grid_oracle_agreement(salesman, three_actions):
    grid = GridSpec(4096)
    for game in (salesman, three_actions):
        s = compile_pieces(game)
        for lam in (
            SubjectivePrior([1, 0]),
            SubjectivePrior([0, 1]),
            SubjectivePrior(["1/2", "1/2"]),
            SubjectivePrior.from_belief(s.prior),
        ):
            exact = cav(s, lam).value
            bound = grid_concavify(s, lam, None, grid)
            slack = max(rat(1, 1024), lipschitz_slack(s, lam, None, grid))
            assert bound <= exact <= bound + slack


def tie_pieces(game):
    """Every nonempty region of a tie set of two or more actions, as a piece."""
    out = []
    for size in range(2, game.n_actions + 1):
        for tie in combinations(range(game.n_actions), size):
            region = tie_region(game, tie)
            if not region.is_empty():
                values = [game.v[a] for a in tie]
                out.append(ValuePiece(region, min(values), max(values), tie))
    return out


def test_full_and_reduced_piece_sets_agree():
    rng = random.Random(424242)
    corpus = [g for g in game_corpus(40, seed=8112)[:40]]
    checked = 0
    for game in corpus:
        if checked >= 12:
            break
        s = compile_pieces(game)
        ties = tie_pieces(game)
        if not ties:
            continue  # no tie pieces to add; nothing to compare
        full = PiecewiseValueStructure(s.pieces + tuple(ties), s.prior)
        lam = SubjectivePrior.from_belief(s.prior)
        assert cav(s, lam).value == cav(full, lam).value
        assert quasiconcavify(s) == quasiconcavify(full)
        for budget in (None, rat(0), rat(1)):
            assert (
                worst_prior_envelope(s, budget).envelope.value
                == worst_prior_envelope(full, budget).envelope.value
            )
        checked += 1
    assert checked >= 8


def test_basic_splits_are_read_off_as_is():
    # A basic optimum needs no reduction: a concavification's atoms number at
    # most |types| and sit at distinct beliefs, and no split, worst prior
    # included, has two atoms at one belief with one value.  Tie pieces
    # overlap the compiled ones, so several blocks can reach one belief.
    at_bound = 0
    for game in game_corpus(60, seed=4242):
        compiled = compile_pieces(game)
        n = compiled.dim
        tied = PiecewiseValueStructure(compiled.pieces + tuple(tie_pieces(game)), compiled.prior)
        lams = [SubjectivePrior.from_belief(compiled.prior)]
        lams += [SubjectivePrior.degenerate(n, t) for t in range(n)]
        for structure in (compiled, tied):
            for budget in (None, rat(0), rat(1), rat(3)):
                for lam in lams:
                    atoms = cav(structure, lam, budget).atoms
                    assert len(atoms) <= n
                    assert len({a.belief.weights for a in atoms}) == len(atoms)
                    at_bound += len(atoms) == n
                atoms = worst_prior_envelope(structure, budget).envelope.atoms
                assert len({(a.belief.weights, a.value) for a in atoms}) == len(atoms)
    assert at_bound >= 20


def halve_a_part(parts_of, n):
    """``_parts`` that splits one part of an n-part split into two halves.

    The halves sum to the part, so the split stays Bayes-plausible and still
    re-evaluates to the value; only its atom count gives it away.
    """
    def halved(*args):
        got = parts_of(*args)
        if len(got) == n:
            i = next(i for i, part in enumerate(got) if max(part.z) >= 2)
            half = tuple([v // 2 for v in got[i].z])
            rest = tuple([v - h for v, h in zip(got[i].z, half)])
            got[i : i + 1] = [got[i]._replace(z=half), got[i]._replace(z=rest)]
        return got
    return halved


def test_split_with_too_many_atoms_is_refused(salesman, monkeypatch):
    # Negative control: the salesman's two-atom split at lam = (0, 1), with
    # one atom halved, passes every other check but is not basic.
    s = compile_pieces(salesman)
    lam = SubjectivePrior([0, 1])
    assert len(cav(s, lam).atoms) == 2
    monkeypatch.setattr(envelopes, "_parts", halve_a_part(envelopes._parts, 2))
    for budget in (None, rat(1)):
        with pytest.raises(CertificateError, match="not basic"):
            cav(s, lam, budget)


def test_split_with_too_many_atoms_is_refused_under_optimize(tmp_path):
    # The same refusal with assert statements stripped: the salesman's BP
    # split, one atom halved, makes ``medburn values`` exit 6.
    script = tmp_path / "halved.py"
    salesman = str(Path(__file__).resolve().parent.parent / "games" / "salesman.json")
    script.write_text(
        "import sys\n"
        "import medburn.envelopes as envelopes\n"
        "from medburn.cli import EXIT_CERTIFICATE, main\n"
        "assert False, 'assert statements are live: this run does not test -O'\n"
        "parts = envelopes._parts\n"
        "def halved(*args):\n"
        "    got = parts(*args)\n"
        "    if len(got) == 2:\n"
        "        i = next(i for i, part in enumerate(got) if max(part.z) >= 2)\n"
        "        half = tuple([v // 2 for v in got[i].z])\n"
        "        rest = tuple([v - h for v, h in zip(got[i].z, half)])\n"
        "        got[i : i + 1] = [got[i]._replace(z=half), got[i]._replace(z=rest)]\n"
        "    return got\n"
        "envelopes._parts = halved\n"
        f"code = main(['values', {salesman!r}])\n"
        "print('exit', code)\n"
        "sys.exit(0 if code == EXIT_CERTIFICATE else 1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == "certificate error: decomposition has more atoms than types: not basic\n"


BUDGETS = (None, rat(0), rat(1), rat(2))
CHAINED = (rat(1), rat(2), None)


def started_programs(structure):
    """Every worst-prior program (budgets None, 0, 1, 2) and concavify-at-prior
    program of ``structure``, each with the start its envelope passes."""
    lam = SubjectivePrior.from_belief(structure.prior)
    with envelope_pivots() as programs:
        for budget in BUDGETS:
            worst_prior_envelope(structure, budget)
            cav(structure, lam, budget)
    assert len(programs) == 2 * len(BUDGETS)
    return [(lp, start) for lp, start, _ in programs]


def chained_programs(structure):
    """The worst-prior programs of budgets 1, 2 and None handed MD's basis,
    as ``protocol_report`` hands it, each with the start it gets."""
    with envelope_pivots() as programs:
        md = worst_prior_envelope(structure, rat(0))
        for budget in CHAINED:
            worst_prior_envelope(structure, budget, md.basis)
    return [(lp, start) for lp, start, _ in programs[1:]]


def assert_start_changes_no_value(structure):
    for lp, start in started_programs(structure) + chained_programs(structure):
        started, plain = solve(lp, start), solve(lp)
        assert started.status == plain.status == OPTIMAL
        assert started.value == plain.value
        for sol in (started, plain):
            assert primal_feasible(lp, sol.primal_scaled)
            assert dual_feasible(lp, sol.dual_scaled)
            assert dual_objective(lp, sol.dual_scaled) == sol.value
            assert lp.objective_value(sol.primal_scaled) == sol.value


def test_started_programs_match_two_phase_on_the_corpus():
    # A start only replaces phase 1: each envelope program solved from its
    # prior-piece start, or from MD's basis, and by plain two-phase simplex
    # has one value, and every answer certifies.
    for game in game_corpus(30, seed=1303):
        assert_start_changes_no_value(compile_pieces(game))


@st.composite
def games_up_to_six_types(draw):
    n_types = draw(st.integers(2, 6))
    n_actions = draw(st.integers(2, 5))
    entry = st.integers(-5, 5)
    u = draw(st.lists(st.lists(entry, min_size=n_types, max_size=n_types),
                      min_size=n_actions, max_size=n_actions))
    v = draw(st.lists(entry, min_size=n_actions, max_size=n_actions))
    parts = draw(st.lists(st.integers(1, 6), min_size=n_types, max_size=n_types))
    prior = [rat(p, sum(parts)) for p in parts]
    return validate_game([f"t{i}" for i in range(n_types)], [f"a{i}" for i in range(n_actions)],
                         u, v, prior)


@settings(max_examples=25, deadline=None)
@given(games_up_to_six_types())
def test_started_programs_match_two_phase_up_to_six_types(game):
    assert_start_changes_no_value(compile_pieces(game))


def test_chained_capped_programs_take_fewer_pivots():
    # MD's basis is feasible for the capped programs of compiled pieces, so
    # each starts there instead of at the prior's piece.  Over seeded 4x6
    # and 4x8 games (626 against 1171 pivots when this test was written) the
    # chained programs must take fewer pivots: a silent fallback to the
    # prior-piece start would take as many.
    chained = alone = 0
    for shape, seed in (((4, 6), 1501), ((4, 8), 1502)):
        rng = random.Random(seed)
        for _ in range(6):
            structure = compile_pieces(random_game_of_shape(rng, *shape))
            with envelope_pivots() as programs:
                protocol_report_structure(structure, [1, 2])
            _, cap_1, cap_2, _ = [p for lp, _, p in programs if lp.signs[-1] == FREE]
            chained += cap_1 + cap_2
            with envelope_pivots() as programs:
                for budget in (rat(1), rat(2)):
                    worst_prior_envelope(structure, budget)
            alone += sum(p for _, _, p in programs)
    assert chained < alone


def burning_mediation():
    """Direct pieces where MD burns: H's payoff from the atom at 1/2 is too
    high, so MD sends some of H's mass to the min branch at H, worth 0."""
    high = ValuePiece(Polytope.on_simplex(2, [((1, 0), ">=", "1/2")]), rat(0), rat(2))
    low = ValuePiece(Polytope.on_simplex(2, [((1, 0), "<=", "1/2")]), rat(0), rat(1))
    return PiecewiseValueStructure((high, low), Belief(["1/4", "3/4"]))


def test_mediation_that_burns_keeps_the_prior_piece_start():
    # Negative control: a min-branch variable is basic in MD's basis, and
    # that branch pays vmin - C, so the basis need not suit another budget.
    # Every chained program starts at the prior's piece instead, and still
    # matches two-phase simplex.
    structure = burning_mediation()
    md = worst_prior_envelope(structure, rat(0))
    assert md.envelope.value == rat(6, 5)
    assert any(a.branch == envelopes.MIN_BRANCH and a.weight > 0 for a in md.envelope.atoms)
    assert any(key[1] == envelopes.MIN_BRANCH for key, _ in md.basis.variables if key != "eta")
    alone = {}
    for budget in CHAINED:
        with envelope_pivots() as programs:
            worst_prior_envelope(structure, budget)
        alone[budget] = programs[0][1]
    for budget, (lp, start) in zip(CHAINED, chained_programs(structure)):
        assert start == alone[budget]
    assert_start_changes_no_value(structure)


def blocks_with_every_min_branch(structure, budget):
    """The block list from before duplicates were dropped: every piece gets a
    min block whenever there is a budget, even one paying what its max
    block pays."""
    out = []
    for k, piece in enumerate(structure.pieces):
        out.append((k, envelopes.MAX_BRANCH, piece.vmax))
        if budget is not None:
            out.append((k, envelopes.MIN_BRANCH, piece.vmin - budget))
    return out


def test_mediation_without_duplicate_min_blocks_is_unchanged():
    # A compiled piece pays one value (vmin == vmax), so at budget 0 its min
    # block repeats its max block.  MD without those blocks has the same
    # value, and both certificates pass the saddle audit.
    for game in game_corpus(30, seed=1305):
        structure = compile_pieces(game)
        assert len(envelopes._blocks(structure, rat(0))) == len(structure.pieces)
        value, cert = value_mdmb_budget_structure(structure, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envelopes, "_blocks", blocks_with_every_min_branch)
            old_value, old_cert = value_mdmb_budget_structure(structure, 0)
        assert value == old_value
        for c in (cert, old_cert):
            assert verify_saddle_structure(structure, c, 0).ok


def test_start_off_the_prior_is_refused(influencer, three_actions):
    # Negative control: all the prior's mass on a block whose piece does not
    # hold the prior breaks a cone row, and the solver refuses that start.
    refused = 0
    for game in (influencer, three_actions) + tuple(game_corpus(12, seed=1304)):
        structure = compile_pieces(game)
        held = structure.pieces_at(structure.prior)
        worst_prior_programs = started_programs(structure)[::2]
        for budget, (lp, start) in zip(BUDGETS, worst_prior_programs):
            blocks = envelopes._blocks(structure, budget)
            eta = start.variables[structure.dim:]
            for b, (k, branch, _) in enumerate(blocks):
                if branch != envelopes.MAX_BRANCH or k in held:
                    continue
                block = [(b * structure.dim + t, 1) for t in range(structure.dim)]
                wrong = Basis(tuple(block) + eta, start.rows)
                with pytest.raises(CertificateError, match="start basis is infeasible"):
                    solve(lp, wrong)
                refused += 1
    assert refused >= 20


def test_start_off_the_prior_is_refused_under_optimize(tmp_path):
    # The same refusal with assert statements stripped.
    script = tmp_path / "off_prior.py"
    script.write_text(
        "import sys\n"
        "import medburn.envelopes as envelopes\n"
        "import medburn.lp as lp\n"
        "from medburn import validate_game\n"
        "from medburn.geometry import compile_pieces\n"
        "assert False, 'assert statements are live: this run does not test -O'\n"
        "game = validate_game(['H', 'L'], ['buy', 'pass'], [[5, -5], [0, 0]], [1, 0],\n"
        "                     ['1/4', '3/4'])\n"
        "structure = compile_pieces(game)\n"
        "captured = []\n"
        "def capture(program, start=None):\n"
        "    captured.append((program, start))\n"
        "    return lp.solve(program, start)\n"
        "envelopes.solve = capture\n"
        "envelopes.worst_prior_envelope(structure, 1)\n"
        "program, start = captured[0]\n"
        "# 'buy' (block 0) needs H at least 1/2; only 'pass' (block 2) holds the prior\n"
        "assert start == lp.Basis(((4, 1), (5, 1), (8, 1)), (0, 1, 2))\n"
        "try:\n"
        "    lp.solve(program, lp.Basis(((0, 1), (1, 1), (8, 1)), (0, 1, 2)))\n"
        "except lp.CertificateError as exc:\n"
        "    print('refused:', exc)\n"
        "else:\n"
        "    sys.exit('a start off the prior was accepted')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "refused: start basis is infeasible\n"


def test_basis_from_another_prior_is_refused(salesman):
    # Negative control: MD's basis at the salesman's prior 1/4 splits onto
    # H = 1/2 and H = 0, which cannot average to a prior of 3/4.  Handed to
    # the programs at that prior, it is refused, not repaired.
    structure = compile_pieces(salesman)
    md = worst_prior_envelope(structure, rat(0))
    moved = structure.with_prior(Belief(["3/4", "1/4"]))
    for budget in BUDGETS:
        with pytest.raises(CertificateError, match="start basis is infeasible"):
            worst_prior_envelope(moved, budget, md.basis)


def test_basis_from_another_prior_is_refused_under_optimize(tmp_path):
    # The same refusal with assert statements stripped.
    script = tmp_path / "moved_prior.py"
    script.write_text(
        "import sys\n"
        "from medburn import Belief, validate_game\n"
        "from medburn.envelopes import worst_prior_envelope\n"
        "from medburn.geometry import compile_pieces\n"
        "from medburn.lp import CertificateError\n"
        "assert False, 'assert statements are live: this run does not test -O'\n"
        "game = validate_game(['H', 'L'], ['buy', 'pass'], [[5, -5], [0, 0]], [1, 0],\n"
        "                     ['1/4', '3/4'])\n"
        "structure = compile_pieces(game)\n"
        "md = worst_prior_envelope(structure, 0)\n"
        "moved = structure.with_prior(Belief(['3/4', '1/4']))\n"
        "for budget in (0, 1, None):\n"
        "    try:\n"
        "        worst_prior_envelope(moved, budget, md.basis)\n"
        "    except CertificateError as exc:\n"
        "        print('refused:', exc)\n"
        "    else:\n"
        "        sys.exit('a basis from another prior was accepted')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "refused: start basis is infeasible\n" * 3


def test_structure_without_a_piece_at_the_prior_is_refused():
    # Hand-built pieces that leave a gap at the prior: no start exists, so
    # both envelope programs refuse the structure before solving.
    high = ValuePiece(Polytope.on_simplex(2, [((1, 0), ">=", "1/2")]), rat(1), rat(1))
    low = ValuePiece(Polytope.on_simplex(2, [((1, 0), "<=", "1/4")]), rat(0), rat(0))
    structure = PiecewiseValueStructure((high, low), Belief(["1/3", "2/3"]))
    lam = SubjectivePrior.from_belief(structure.prior)
    for budget in BUDGETS:
        with pytest.raises(ValueError, match="no piece covers the prior"):
            worst_prior_envelope(structure, budget)
        with pytest.raises(ValueError, match="no piece covers the prior"):
            cav(structure, lam, budget)
