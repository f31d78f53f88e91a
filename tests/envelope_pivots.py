"""A pivot counter for the envelope programs, for tests that compare starts."""

from contextlib import contextmanager

import pytest

import medburn.envelopes as envelopes
import medburn.lp as lp_module


@contextmanager
def envelope_pivots():
    """Count ``_Tableau._pivot`` calls per envelope program.

    Yields a list that gets one ``(program, start, pivots)`` entry for every
    program an envelope function hands ``lp.solve`` inside the block, in
    solve order; ``pivots`` includes the start's own pivots.
    """
    programs = []
    pivots = [0]
    pivot, solve = lp_module._Tableau._pivot, envelopes.solve

    def counting_pivot(self, r, s):
        pivots[0] += 1
        pivot(self, r, s)

    def counting_solve(program, start=None):
        before = pivots[0]
        sol = solve(program, start)
        programs.append((program, start, pivots[0] - before))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module._Tableau, "_pivot", counting_pivot)
        mp.setattr(envelopes, "solve", counting_solve)
        yield programs
