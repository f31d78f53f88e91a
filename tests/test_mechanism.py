import pytest

from medburn import Belief, PosteriorDistribution, rat, validate_game
from medburn.geometry import value_interval
from medburn.mechanism import (
    CanonicalMDMB,
    InvalidDelta,
    NotIncentiveCompatible,
    check_ic,
    construct_optimal_mdmb,
    net_payoffs,
    sender_payoff,
    validate_mechanism,
)
from medburn.solvers import value_mdmb
from raw_mechanism import (
    Assessment,
    NotAnEquilibrium,
    RawMDMB,
    canonicalize,
    check_pbe,
    raw_sender_payoff,
)


@pytest.fixture(scope="module")
def salesman_scheme(salesman):
    return value_mdmb(salesman)[1].p_star


def test_construction_matches_closed_forms(salesman, salesman_scheme):
    mu0 = rat(1, 4)
    for d in (rat(1, 10), rat(1, 2), rat(1, 256)):
        mech = construct_optimal_mdmb(salesman, salesman_scheme, d)
        assert sender_payoff(salesman, mech) == (1 - d) * mu0 / (1 - mu0)
        revealing_high = mech.atoms.index(Belief([1, 0]))
        assert mech.x[revealing_high] == (1 - (2 - d) * mu0) / (d * (1 - mu0))
        assert all(b >= 0 for b in mech.x)
        nets = net_payoffs(salesman, mech)
        assert len(set(nets)) == 1


def test_construction_rejects_bad_delta(salesman, salesman_scheme):
    for bad in (0, 1, rat(3, 2), rat(-1, 10)):
        with pytest.raises(InvalidDelta):
            construct_optimal_mdmb(salesman, salesman_scheme, bad)


def test_construction_influencer_payoff(influencer):
    value, cert = value_mdmb(influencer)
    mech = construct_optimal_mdmb(influencer, cert.p_star, rat(1, 100))
    payoff = sender_payoff(influencer, mech)
    assert value - rat(1, 50) <= payoff <= value
    assert all(r >= 0 for row in check_ic(influencer, mech) for r in row)


def test_construction_trivial_when_revelation_changes_nothing(single_action):
    p = PosteriorDistribution([(single_action.prior, 1)])
    mech = construct_optimal_mdmb(single_action, p, rat(1, 7))
    assert all(b == 0 for b in mech.x)
    assert sender_payoff(single_action, mech) == 7


def test_check_ic_zero_burn_breaks_incentives(salesman, salesman_scheme):
    mech = construct_optimal_mdmb(salesman, salesman_scheme, rat(1, 10))
    stripped = CanonicalMDMB(mech.atoms, mech.pi, tuple(rat(0) for _ in mech.x), mech.values)
    residuals = check_ic(salesman, stripped)
    low, high = 1, 0
    assert residuals[low][high] < 0  # the low type gains by imitating high
    with pytest.raises(NotIncentiveCompatible):
        sender_payoff(salesman, stripped)
    profitable = [(t, s) for t, row in enumerate(residuals) for s, r in enumerate(row) if r < 0]
    assert profitable == [(low, high)]


def test_full_revelation_without_burning_when_values_equal():
    game = validate_game(
        ["H", "L"], ["x", "y"], [[1, -1], [-1, 1]], [3, 3], ["1/2", "1/2"]
    )
    p = PosteriorDistribution([(Belief([1, 0]), rat(1, 2)), (Belief([0, 1]), rat(1, 2))])
    mech = CanonicalMDMB(
        tuple(b for b, _ in p.atoms),
        ((rat(1), rat(0)), (rat(0), rat(1))),
        (rat(0), rat(0)),
    )
    validate_mechanism(game, mech)
    assert all(r == 0 for row in check_ic(game, mech) for r in row)
    assert sender_payoff(game, mech) == 3


def test_mechanism_payoff_bound_and_monotonicity(salesman, influencer):
    for game in (salesman, influencer):
        value, cert = value_mdmb(game)
        revealed = [value_interval(game, Belief.degenerate(game.n_types, t))[1]
                    for t in range(game.n_types)]
        previous = None
        for k in range(1, 9):
            d = rat(1, 2**k)
            mech = construct_optimal_mdmb(game, cert.p_star, d)
            payoff = sender_payoff(game, mech)
            assert payoff <= value
            assert payoff >= (1 - d) * value + d * min(revealed)
            assert abs(payoff - value) <= d * (max(revealed) + abs(value))
            if previous is not None:
                assert payoff >= previous  # shrinking delta only helps
            previous = payoff
            assert all(r >= 0 for row in check_ic(game, mech) for r in row)
            validate_mechanism(game, mech)


def raw_salesman(delta=rat(1, 10)):
    pi_half_low = (1 - delta) * rat(1, 3)
    burn = (1 - (2 - delta) * rat(1, 4)) / (delta * rat(3, 4))
    raw = RawMDMB(
        inputs=["hi", "lo"],
        outputs=["A", "B", "C"],
        phi={
            "hi": [(("A", 0), 1 - delta), (("C", burn), delta)],
            "lo": [(("A", 0), pi_half_low), (("B", 0), 1 - pi_half_low)],
        },
    )
    assess = Assessment(
        sigma={"H": {"hi": 1}, "L": {"lo": 1}},
        alpha={("A", 0): {"buy": 1}, ("B", 0): {"pass": 1}, ("C", burn): {"buy": 1}},
        beliefs={
            ("A", 0): Belief(["1/2", "1/2"]),
            ("B", 0): Belief([0, 1]),
            ("C", burn): Belief([1, 0]),
        },
    )
    return raw, assess


def test_check_pbe_accepts_construction(salesman):
    raw, assess = raw_salesman()
    assert check_pbe(salesman, raw, assess).ok


def test_check_pbe_rejects_bad_receiver_play(salesman):
    raw, assess = raw_salesman()
    burn = raw.phi_of("hi")[1][0][1]
    bad = Assessment(
        sigma={"H": {"hi": 1}, "L": {"lo": 1}},
        alpha={("A", 0): {"buy": 1}, ("B", 0): {"pass": 1}, ("C", burn): {"pass": 1}},
        beliefs={
            ("A", 0): Belief(["1/2", "1/2"]),
            ("B", 0): Belief([0, 1]),
            ("C", burn): Belief([1, 0]),
        },
    )
    verdict = check_pbe(salesman, raw, bad)
    assert not verdict.ok
    assert "not optimal" in verdict.first_violation


def test_check_pbe_babbling(salesman):
    raw = RawMDMB(["m"], ["s"], {"m": [(("s", 0), 1)]})
    assess = Assessment(
        sigma={"H": {"m": 1}, "L": {"m": 1}},
        alpha={("s", 0): {"pass": 1}},
        beliefs={("s", 0): salesman.prior},
    )
    assert check_pbe(salesman, raw, assess).ok


@pytest.mark.parametrize(
    "sigma, action, gap",
    [
        ({"H": {"m": 1}}, "pass", "no strategy for type 'L'"),
        ({"H": {"m": 1}, "L": {"x": 1}}, "pass", "reports 'x', not a mechanism input"),
        ({"H": {"m": 1}, "L": {"m": 1}}, "fly", "action 'fly' at"),
    ],
    ids=["missing-type", "unknown-message", "unknown-action"],
)
def test_malformed_assessment_is_not_an_equilibrium(salesman, sigma, action, gap):
    # A babbling mechanism with an assessment that leaves out a type, reports
    # a message the mechanism lacks, or plays an action the game lacks.
    raw = RawMDMB(["m"], ["s"], {"m": [(("s", 0), 1)]})
    assess = Assessment(
        sigma=sigma, alpha={("s", 0): {action: 1}}, beliefs={("s", 0): salesman.prior}
    )
    verdict = check_pbe(salesman, raw, assess)
    assert not verdict.ok
    assert gap in verdict.first_violation
    with pytest.raises(NotAnEquilibrium) as refused:
        canonicalize(salesman, raw, assess)
    assert str(refused.value) == verdict.first_violation


def test_canonicalize_relabeled_messages(salesman):
    raw, assess = raw_salesman()
    mech = canonicalize(salesman, raw, assess)
    # relabeled messages collapse onto the three posterior atoms
    assert set(mech.atoms) == {Belief(["1/2", "1/2"]), Belief([0, 1]), Belief([1, 0])}
    assert sender_payoff(salesman, mech) == raw_sender_payoff(salesman, raw, assess)
    assert sender_payoff(salesman, mech) == rat(9, 30)


def test_canonicalize_identity_on_canonical_input(salesman, salesman_scheme):
    original = construct_optimal_mdmb(salesman, salesman_scheme, rat(1, 10))
    raw = RawMDMB(
        inputs=list(salesman.types),
        outputs=[str(b) for b in original.atoms],
        phi={
            t: [
                ((str(original.atoms[j]), original.x[j]), original.pi[i][j])
                for j in range(original.n_atoms())
                if original.pi[i][j] > 0
            ]
            for i, t in enumerate(salesman.types)
        },
    )
    keys = {j: (str(original.atoms[j]), original.x[j]) for j in range(original.n_atoms())}
    assess = Assessment(
        sigma={t: {t: 1} for t in salesman.types},
        alpha={keys[j]: {"buy" if original.values[j] == 1 else "pass": 1} for j in keys},
        beliefs={keys[j]: original.atoms[j] for j in keys},
    )
    mech = canonicalize(salesman, raw, assess)
    assert set(mech.atoms) == set(original.atoms)
    order = [mech.atoms.index(b) for b in original.atoms]
    assert tuple(mech.x[j] for j in order) == original.x
    for i in range(len(salesman.types)):
        assert tuple(mech.pi[i][j] for j in order) == original.pi[i]
    assert sender_payoff(salesman, mech) == sender_payoff(salesman, original)


def test_canonicalize_merges_same_posterior_burns(salesman):
    raw = RawMDMB(
        ["m"],
        ["s1", "s2"],
        {"m": [(("s1", 0), rat(1, 2)), (("s2", 2), rat(1, 2))]},
    )
    assess = Assessment(
        sigma={"H": {"m": 1}, "L": {"m": 1}},
        alpha={("s1", 0): {"pass": 1}, ("s2", 2): {"pass": 1}},
        beliefs={("s1", 0): salesman.prior, ("s2", 2): salesman.prior},
    )
    mech = canonicalize(salesman, raw, assess)
    assert mech.atoms == (salesman.prior,)
    assert mech.x == (rat(1),)
    assert raw_sender_payoff(salesman, raw, assess) == -1


def test_canonicalize_rejects_non_equilibrium(salesman):
    raw = RawMDMB(["m"], ["s"], {"m": [(("s", 0), 1)]})
    assess = Assessment(
        sigma={"H": {"m": 1}, "L": {"m": 1}},
        alpha={("s", 0): {"buy": 1}},  # buy is not optimal at the prior 1/4
        beliefs={("s", 0): salesman.prior},
    )
    with pytest.raises(NotAnEquilibrium):
        canonicalize(salesman, raw, assess)


def test_bayes_consistency_validation(salesman):
    mech = CanonicalMDMB(
        (Belief(["1/2", "1/2"]),),
        ((rat(1),), (rat(1),)),
        (rat(0),),
    )
    with pytest.raises(ValueError):
        validate_mechanism(salesman, mech)  # posterior must equal the prior here
