import pytest

from medburn import (
    AllTypesNull,
    Belief,
    DimensionMismatch,
    EmptyTypeOrActionSet,
    PosteriorDistribution,
    PriorNotOnSimplex,
    SubjectivePrior,
    rat,
    restrict_to_support,
    validate_game,
)


def test_valid_salesman_game(salesman):
    assert salesman.types == ("H", "L")
    assert salesman.u[0][1] == -5
    assert sum(salesman.prior.weights) == 1


def test_prior_off_simplex_rejected():
    with pytest.raises(PriorNotOnSimplex):
        validate_game(["H", "L"], ["a"], [[1, 1]], [0], ["1/2", "1/3"])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        validate_game(["H", "L"], ["a", "b"], [[1, 1], [0, 0]], [1, 0, 2], ["1/2", "1/2"])
    with pytest.raises(DimensionMismatch):
        validate_game(["H", "L"], ["a", "b"], [[1, 1]], [1, 0], ["1/2", "1/2"])


def test_empty_sets_rejected():
    with pytest.raises(EmptyTypeOrActionSet):
        validate_game([], ["a"], [[]], [1], [])
    with pytest.raises(EmptyTypeOrActionSet):
        validate_game(["H"], [], [], [], [1])


def test_negative_prior_rejected():
    with pytest.raises(PriorNotOnSimplex):
        validate_game(["H", "L"], ["a"], [[1, 1]], [0], ["3/2", "-1/2"])


def test_restrict_drops_null_types():
    g = validate_game(
        ["a", "b", "c"], ["x"], [[1, 2, 3]], [0], ["1/2", "1/2", 0]
    )
    r = restrict_to_support(g)
    assert r.types == ("a", "b")
    assert r.prior.weights == (rat(1, 2), rat(1, 2))
    assert r.u == ((rat(1), rat(2)),)


def test_restrict_identity_on_full_support(salesman):
    assert restrict_to_support(salesman) is salesman


def test_restrict_to_single_type():
    g = validate_game(["H", "L"], ["x"], [[1, 2]], [0], [1, 0])
    r = restrict_to_support(g)
    assert r.types == ("H",)
    assert r.prior.weights == (rat(1),)


def test_restrict_idempotent():
    g = validate_game(["a", "b", "c"], ["x"], [[1, 2, 3]], [0], ["1/3", "2/3", 0])
    once = restrict_to_support(g)
    assert restrict_to_support(once) is once


def test_all_types_null_unreachable_via_validation():
    g = validate_game(["H"], ["x"], [[1]], [0], [1])
    object.__setattr__(g.prior, "weights", (rat(0),))
    with pytest.raises(AllTypesNull):
        restrict_to_support(g)


def test_belief_helpers():
    b = Belief.degenerate(3, 1)
    assert b.support() == (1,)


def test_subjective_prior_domains():
    assert not SubjectivePrior(["-1", "2"]).in_simplex()  # affine, off the simplex
    assert SubjectivePrior(["0", "1"]).in_simplex()
    assert SubjectivePrior(["1/3", "1/3", "1/3"]).in_simplex()
    with pytest.raises(ValueError):
        SubjectivePrior(["1/2", "1/3"])  # must sum to one


def test_posterior_distribution_bayes_plausibility():
    p = PosteriorDistribution(
        [(Belief(["1/2", "1/2"]), rat(1, 2)), (Belief([0, 1]), rat(1, 2))]
    )
    assert p.mean() == Belief(["1/4", "3/4"])
    assert p.is_bayes_plausible(Belief(["1/4", "3/4"]))
    assert not p.is_bayes_plausible(Belief(["1/2", "1/2"]))
    with pytest.raises(ValueError):
        PosteriorDistribution([(Belief([1, 0]), rat(1, 2))])


def test_posterior_merging():
    p = PosteriorDistribution(
        [
            (Belief(["1/2", "1/2"]), rat(1, 4)),
            (Belief(["1/2", "1/2"]), rat(1, 4)),
            (Belief([0, 1]), rat(1, 2)),
        ]
    )
    merged = p.merged()
    assert len(merged.atoms) == 2
    assert merged.atoms[0][1] == rat(1, 2)
