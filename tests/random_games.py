"""Seeded random game corpus shared by the property and acceptance suites."""

from random import Random

from medburn import Belief, rat, validate_game

CORPUS_SEED = 20250810


def random_game(rng: Random):
    n_types = rng.choice([2, 2, 3])
    n_actions = rng.choice([2, 3, 4])
    return random_game_of_shape(rng, n_types, n_actions)


def random_game_of_shape(rng: Random, n_types: int, n_actions: int, u_bound: int = 5):
    """Receiver payoffs from [-u_bound, u_bound], sender values from [-5, 5]."""
    types = [f"t{i}" for i in range(n_types)]
    actions = [f"a{i}" for i in range(n_actions)]
    u = [[rng.randint(-u_bound, u_bound) for _ in range(n_types)] for _ in range(n_actions)]
    v = [rng.randint(-5, 5) for _ in range(n_actions)]
    parts = [rng.randint(1, 6) for _ in range(n_types)]
    total = sum(parts)
    prior = [rat(p, total) for p in parts]
    return validate_game(types, actions, u, v, prior)


def game_corpus(count: int, seed: int = CORPUS_SEED):
    rng = Random(seed)
    return [random_game(rng) for _ in range(count)]


def random_interior_prior(rng: Random, n_types: int) -> Belief:
    parts = [rng.randint(1, 9) for _ in range(n_types)]
    total = sum(parts)
    return Belief([rat(p, total) for p in parts])
