"""The names the benchmark's tracer hooks into must exist in medburn.

``perfbench/tracing.py`` wraps functions, reads oracle caches by name and
sizes each solved program from its attributes, so renaming or deleting one
breaks the benchmark without breaking any solver test.  The tracer module is
loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import medburn.geometry as geometry
from envelope_pivots import envelope_pivots
from medburn.envelopes import worst_prior_envelope
from medburn.geometry import Polytope, compile_pieces
from medburn.lp import GE, INFEASIBLE, OPTIMAL, solve

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_names_resolve():
    tracing = _load_tracing()
    for modname, names in tracing.TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    oracle = importlib.import_module("medburn.oracle")
    for name in tracing.ORACLE_CACHES:
        cache = getattr(oracle, name, None)
        assert hasattr(cache, "cache_clear") and hasattr(cache, "cache_info"), name


def test_benchmark_clears_every_oracle_cache():
    # A verify op starts from empty oracle caches only if the benchmark clears
    # them all; a cache it does not name would carry work from op to op.
    tracing = _load_tracing()
    oracle = importlib.import_module("medburn.oracle")
    caches = {
        name for name, obj in vars(oracle).items()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    }
    assert caches == set(tracing.ORACLE_CACHES)


def test_benchmark_reads_what_a_program_keeps(salesman, monkeypatch):
    # The tracer sizes every solved program from its ``constraints`` and
    # ``n_vars``; a program that stops keeping either would crash traced
    # runs without failing any solver test.
    with envelope_pivots() as programs:
        worst_prior_envelope(compile_pieces(salesman), 0)  # mediation's program
    (md, _, _), = programs
    solved = []

    def recording_solve(lp):
        solved.append(lp)
        return solve(lp)

    monkeypatch.setattr(geometry, "solve", recording_solve)
    assert Polytope.on_simplex(2, [((1, 0), GE, 2)]).is_empty()
    (empty,) = solved

    tracer = _load_tracing().Tracer()
    for lp, status in ((md, OPTIMAL), (empty, INFEASIBLE)):
        before = dict(tracer.counts)
        sol = solve(lp)
        assert sol.status == status
        tracer._count_lp((lp,), sol)
        cells = tracer.counts["lp.cells"] - before["lp.cells"]
        nonzeros = tracer.counts["lp.nonzeros"] - before["lp.nonzeros"]
        assert cells == len(lp.int_rows) * lp.n_vars > 0
        assert nonzeros == sum(len(pairs) for pairs, _, _, _ in lp.int_rows) > 0
    assert tracer.counts["lp.infeasible"] == 1
    assert tracer.counts["lp.max_entry_bits"] > 0
