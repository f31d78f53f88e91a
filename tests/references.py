"""Reference computations that only the tests use.

``value_mdmb_binary`` is a second algorithm for the unlimited-burning value of
a two-type game, and ``max_selection`` picks the sender-best value at each
atom of a scheme, the selection ``interim_payoffs`` is usually called with.
"""

from medburn.core import PersuasionGame, PosteriorDistribution, SubjectivePrior, restrict_to_support
from medburn.envelopes import concavify_weighted
from medburn.geometry import compile_pieces, value_interval
from medburn.rational import Rational


class NotBinary(ValueError):
    pass


def max_selection(game: PersuasionGame, p: PosteriorDistribution) -> tuple[Rational, ...]:
    """The best achievable sender value at each atom."""
    game = restrict_to_support(game)
    return tuple([value_interval(game, belief)[1] for belief, _ in p.atoms])


def value_mdmb_binary(game: PersuasionGame) -> Rational:
    """Two-type shortcut: the worst reweighting sits at a vertex."""
    structure = compile_pieces(restrict_to_support(game))
    if structure.dim != 2:
        raise NotBinary(f"{structure.dim} supported types; shortcut needs exactly 2")
    return min(
        concavify_weighted(structure, SubjectivePrior.degenerate(2, t)).value for t in range(2)
    )
