"""Span tracing of medburn's layers, from outside the program.

The tracer wraps the public functions of each medburn module and records one
span per call: name, start, end, parent span and op id.  Spans stay in memory
and are reduced to per-layer metrics when the run ends.  A layer's self time
is its spans' time minus the time of their child spans.

Several modules bind functions at import (``from .lp import solve`` in
``geometry``, ``envelopes`` and ``solvers``; ``compile_pieces`` in ``solvers``
and ``oracle``), so ``install`` replaces every binding of a wrapped function
in every loaded medburn module, not just the defining one.  Names imported
inside functions are read from the defining module at call time and so see
the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

TRACED = {
    "medburn.lp": ("solve",),
    "medburn.geometry": ("compile_pieces", "is_generic"),
    "medburn.envelopes": ("concavify_weighted", "worst_prior_envelope", "quasiconcavify"),
    "medburn.solvers": (
        "protocol_report",
        "protocol_report_structure",
        "value_bp_structure",
        "value_ct_structure",
        "value_mdmb_structure",
        "value_mdmb_budget_structure",
        "verify_saddle",
        "verify_saddle_structure",
    ),
    "medburn.mechanism": ("construct_optimal_mdmb", "check_ic"),
    "medburn.oracle": ("audit_structure", "grid_concavify", "grid_min_lambda", "grid_qcav_binary"),
    "medburn.cli": ("main", "load_game_file"),
    "medburn.core": ("validate_game",),
}
ORACLE_CACHES = ("grid_beliefs", "_grid_table", "_candidates")

# name -> unit, in the order they are printed
PER_LAYER = {
    "lp.solves": "count",
    "lp.solve_s": "s",
    "lp.self_s": "s",
    "lp.solve_p50_us": "us",
    "lp.cells": "count",
    "lp.nonzeros": "count",
    "lp.infeasible_share": "ratio",
    "lp.max_entry_bits": "bits",
    "geometry.compile_calls": "count",
    "geometry.compile_s": "s",
    "geometry.compile_self_s": "s",
    "geometry.tie_sets_tried": "count",
    "geometry.pieces_kept": "count",
    "geometry.piece_yield": "ratio",
    "geometry.generic_s": "s",
    "envelopes.concavify_calls": "count",
    "envelopes.worst_prior_calls": "count",
    "envelopes.qcav_calls": "count",
    "envelopes.qcav_lps": "lp/call",
    "envelopes.self_s": "s",
    "solvers.report_calls": "count",
    "solvers.report_s": "s",
    "solvers.self_s": "s",
    "solvers.verify_saddle_s": "s",
    "mechanism.construct_s": "s",
    "mechanism.check_ic_s": "s",
    "oracle.audit_calls": "count",
    "oracle.audit_s": "s",
    "oracle.self_s": "s",
    "oracle.grid_concavify_calls": "count",
    "oracle.grid_concavify_s": "s",
    "oracle.grid_min_lambda_s": "s",
    "oracle.cache_hits": "count",
    "oracle.cache_misses": "count",
    "cli.load_s": "s",
    "cli.main_s": "s",
    "core.validate_s": "s",
    "trace.ops": "count",
    "trace.overhead_share": "ratio",
}

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = (
    "lp.solves",
    "lp.cells",
    "lp.nonzeros",
    "lp.infeasible_share",
    "lp.max_entry_bits",
    "geometry.tie_sets_tried",
    "geometry.pieces_kept",
    "envelopes.qcav_lps",
    "oracle.grid_concavify_calls",
)


def _bits(values) -> int:
    if not values:
        return 0
    return max(max(int(v.numerator).bit_length(), int(v.denominator).bit_length())
               for v in values)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_base: list[tuple[int, int]] = []
        self.op = None
        self.ops = 0
        self.counts = dict.fromkeys(
            ("lp.cells", "lp.nonzeros", "lp.infeasible", "lp.max_entry_bits",
             "geometry.tie_sets_tried", "geometry.pieces_kept",
             "oracle.cache_hits", "oracle.cache_misses"), 0)
        self._hooks = {"lp.solve": self._count_lp, "geometry.compile_pieces": self._count_pieces}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding in the medburn modules.

        Every traced module is imported first, so that no op can import one
        later and reach an unwrapped function.
        """
        for modname in TRACED:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "medburn" or n.startswith("medburn.")]
        wrappers = {}
        for modname, names in TRACED.items():
            layer = modname.rsplit(".", 1)[1]
            for fname in names:
                fn = getattr(sys.modules[modname], fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _count_lp(self, args, solution) -> None:
        lp = args[0]
        c = self.counts
        c["lp.cells"] += len(lp.constraints) * lp.n_vars
        c["lp.nonzeros"] += sum(len(row) for row, _, _ in lp.constraints)
        if solution.status == "infeasible":
            c["lp.infeasible"] += 1
        bits = max(_bits(solution.primal), _bits(solution.dual), _bits(solution.farkas))
        c["lp.max_entry_bits"] = max(c["lp.max_entry_bits"], bits)

    def _count_pieces(self, args, structure) -> None:
        self.counts["geometry.tie_sets_tried"] += 2 ** args[0].n_actions - 1
        self.counts["geometry.pieces_kept"] += len(structure.pieces)

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.ops += 1
        oracle = sys.modules.get("medburn.oracle")
        self._cache_base = [] if oracle is None else [
            (i.hits, i.misses) for i in (getattr(oracle, n).cache_info() for n in ORACLE_CACHES)
        ]

    def end_op(self) -> None:
        oracle = sys.modules.get("medburn.oracle")
        if oracle is not None and self._cache_base:
            for name, (hits, misses) in zip(ORACLE_CACHES, self._cache_base):
                info = getattr(oracle, name).cache_info()
                self.counts["oracle.cache_hits"] += info.hits - hits
                self.counts["oracle.cache_misses"] += info.misses - misses
        self.op = None

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (``trace.overhead_share`` excepted)."""
        spans = self.spans
        names = [s[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        self_t = list(dur)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self_t[s[3]] -= dur[i]

        def total(name):
            return sum(d for n, d in zip(names, dur) if n == name)

        def count(name):
            return names.count(name)

        def layer_self(layer):
            return sum(t for n, t in zip(names, self_t) if n.startswith(layer + "."))

        def outer(group):
            """Time of spans in ``group`` that no other ``group`` span encloses."""
            inside = [False] * len(spans)
            out = 0.0
            for i, s in enumerate(spans):
                p = s[3]
                inside[i] = p >= 0 and (names[p] in group or inside[p])
                if names[i] in group and not inside[i]:
                    out += dur[i]
            return out

        lp_durs = [d for n, d in zip(names, dur) if n == "lp.solve"]
        solves = len(lp_durs)
        qcav_calls = count("envelopes.quasiconcavify")
        qcav_lps = sum(1 for s in spans if s[0] == "lp.solve" and s[3] >= 0
                       and names[s[3]] == "envelopes.quasiconcavify")
        c = self.counts
        compiles = count("geometry.compile_pieces")
        return {
            "lp.solves": solves,
            "lp.solve_s": sum(lp_durs),
            "lp.self_s": layer_self("lp"),
            "lp.solve_p50_us": statistics.median(lp_durs) * 1e6 if lp_durs else 0.0,
            "lp.cells": c["lp.cells"],
            "lp.nonzeros": c["lp.nonzeros"],
            "lp.infeasible_share": c["lp.infeasible"] / solves if solves else 0.0,
            "lp.max_entry_bits": c["lp.max_entry_bits"],
            "geometry.compile_calls": compiles,
            "geometry.compile_s": total("geometry.compile_pieces"),
            "geometry.compile_self_s": sum(
                t for n, t in zip(names, self_t) if n == "geometry.compile_pieces"),
            "geometry.tie_sets_tried": c["geometry.tie_sets_tried"],
            "geometry.pieces_kept": c["geometry.pieces_kept"],
            "geometry.piece_yield": (c["geometry.pieces_kept"] / c["geometry.tie_sets_tried"]
                                     if c["geometry.tie_sets_tried"] else 0.0),
            "geometry.generic_s": total("geometry.is_generic"),
            "envelopes.concavify_calls": count("envelopes.concavify_weighted"),
            "envelopes.worst_prior_calls": count("envelopes.worst_prior_envelope"),
            "envelopes.qcav_calls": qcav_calls,
            "envelopes.qcav_lps": qcav_lps / qcav_calls if qcav_calls else 0.0,
            "envelopes.self_s": layer_self("envelopes"),
            "solvers.report_calls": count("solvers.protocol_report_structure"),
            "solvers.report_s": outer({"solvers.protocol_report",
                                       "solvers.protocol_report_structure"}),
            "solvers.self_s": layer_self("solvers"),
            "solvers.verify_saddle_s": outer({"solvers.verify_saddle",
                                              "solvers.verify_saddle_structure"}),
            "mechanism.construct_s": total("mechanism.construct_optimal_mdmb"),
            "mechanism.check_ic_s": total("mechanism.check_ic"),
            "oracle.audit_calls": count("oracle.audit_structure"),
            "oracle.audit_s": total("oracle.audit_structure"),
            "oracle.self_s": layer_self("oracle"),
            "oracle.grid_concavify_calls": count("oracle.grid_concavify"),
            "oracle.grid_concavify_s": total("oracle.grid_concavify"),
            "oracle.grid_min_lambda_s": total("oracle.grid_min_lambda"),
            "oracle.cache_hits": c["oracle.cache_hits"],
            "oracle.cache_misses": c["oracle.cache_misses"],
            "cli.load_s": total("cli.load_game_file"),
            "cli.main_s": total("cli.main"),
            "core.validate_s": total("core.validate_game"),
            "trace.ops": self.ops,
        }
