"""Spans and counts recorded around the package's public functions.

The tracer wraps functions from outside the program: it replaces each
listed function, in its own module and in every ``threebody1d`` module
that imported it by name, with a wrapper that records a span (name,
start, end, parent span, operation id).  Counters run at the same
boundaries.  Spans stay in memory until the run writes them out.

A layer's self time is its span minus the child spans it covers, so the
self times of one operation add up to that operation's traced time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

OP_SPAN = "bench.op"  # root span of one operation; its self time is harness glue


def _multisets(t, parent, args, result):
    t.add("composition.multisets", sum(len(lv.multisets) for lv in result))


def _closed_form_levels(t, parent, args, result):
    t.add("solvable.closed_form_levels", len(result))


def _orbit_rep_dim(t, parent, args, result):
    t.add("symmetry.orbit_rep_dim_sum", result[0].shape[1])


def _decompose(t, parent, args, result):
    dim = args[1].shape[1]
    t.add("symmetry.decompose_calls", 1)
    t.add("symmetry.decompose_dim3_sum", dim ** 3)
    t.peak("symmetry.decompose_dim_max", dim)


_SOLVERS = {"oracle.relative_spectrum_2d_s": "oracle.relative_spectrum_2d_unknowns",
            "oracle.full_spectrum_3d_s": "oracle.full_spectrum_3d_unknowns"}


def _eigsh(t, parent, args, result):
    t.add("oracle.eigsh_calls", 1)
    solver = t.enclosing(parent, _SOLVERS)
    if solver is not None:
        t.add(_SOLVERS[solver], args[0].shape[0])


def _grid_points(t, parent, args, result):
    t.add("onebody.grid_points", args[0].shape[1])  # banded form: (bands, n)


# (module, function, span name = the self-time metric it feeds, counter)
LAYERS = (
    ("threebody1d.cli", "main", "cli.self_s", None),
    ("threebody1d.composition", "levels_to_csv", "cli.writers_s", None),
    ("threebody1d.solvable", "silver_levels_to_csv", "cli.writers_s", None),
    ("threebody1d.solvable", "contact_levels_to_csv", "cli.writers_s", None),
    ("threebody1d.symmetry", "decompositions_to_json", "cli.writers_s", None),
    ("threebody1d.models", "load_config", "models.load_config_s", None),
    ("threebody1d.models", "classify_separability", "models.classify_s", None),
    ("threebody1d.models", "classify_symmetry_group", "models.classify_s", None),
    ("threebody1d.dynamics", "ladder_check", "dynamics.checks_s", None),
    ("threebody1d.dynamics", "superintegrability_check", "dynamics.checks_s", None),
    ("threebody1d.dynamics", "schmidt_invariance_check", "dynamics.checks_s", None),
    ("threebody1d.dynamics", "gold_locality_check", "dynamics.checks_s", None),
    ("threebody1d.composition", "compose_spectrum",
     "composition.compose_spectrum_s", _multisets),
    ("threebody1d.solvable", "harm_harm_spectrum", "solvable.closed_form_s",
     _closed_form_levels),
    ("threebody1d.solvable", "calogero_moser_spectrum", "solvable.closed_form_s",
     _closed_form_levels),
    ("threebody1d.solvable", "unitary_contact_spectrum",
     "solvable.unitary_contact_spectrum_s", None),
    ("threebody1d.symmetry", "orbit_rep_for_multisets", "symmetry.orbit_rep_s",
     _orbit_rep_dim),
    ("threebody1d.symmetry", "decompose_eigenspace", "symmetry.decompose_s",
     _decompose),
    ("threebody1d.symmetry", "irrep_towers", "symmetry.irrep_towers_s", None),
    ("threebody1d.solvable", "fit_harm_harm_frequency", "solvable.fit_self_s", None),
    ("threebody1d.solvable", "fit_cm_exponent", "solvable.fit_self_s", None),
    ("threebody1d.oracle", "relative_spectrum_2d",
     "oracle.relative_spectrum_2d_s", None),
    ("threebody1d.oracle", "full_spectrum_3d", "oracle.full_spectrum_3d_s", None),
    ("scipy.sparse.linalg", "eigsh", "oracle.eigsh_s", _eigsh),
    ("threebody1d.onebody", "grid_spectrum_1d", "onebody.grid_spectrum_1d_s", None),
    ("threebody1d.onebody", "eig_banded", "onebody.eig_banded_s", _grid_points),
)

# Per-layer metrics that are counts (the rest are self times in seconds).
COUNTS = ("composition.multisets", "solvable.closed_form_levels",
          "symmetry.orbit_rep_dim_sum", "symmetry.decompose_calls",
          "symmetry.decompose_dim_max", "symmetry.decompose_dim3_sum",
          "oracle.relative_spectrum_2d_unknowns",
          "oracle.full_spectrum_3d_unknowns", "oracle.eigsh_calls",
          "onebody.grid_points")
PEAKS = ("symmetry.decompose_dim_max",)
SELF_TIMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original)
        self.op_id = -1

    # -- recording --------------------------------------------------------

    def add(self, name: str, value: float):
        self.counts[name] += value

    def peak(self, name: str, value: float):
        self.counts[name] = max(self.counts[name], value)

    def enclosing(self, index, names):
        """Name of the nearest span at or above ``index`` that is in ``names``."""
        while index is not None:
            name = self.spans[index][0]
            if name in names:
                return name
            index = self.spans[index][3]
        return None

    def span(self, name: str, fn, args=(), kwargs=None, count=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(self, parent, args, result)
        return result

    def run_op(self, op_id: int, fn):
        self.op_id = op_id
        return self.span(OP_SPAN, fn)

    # -- installing -------------------------------------------------------

    def _wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, count)
        return traced

    def install(self):
        package = [m for key, m in list(sys.modules.items())
                   if key == "threebody1d" or key.startswith("threebody1d.")]
        for module_name, attr, name, count in LAYERS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            traced = self._wrapper(name, original, count)
            for module in dict.fromkeys([home, *package]):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return totals

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }), encoding="utf-8")
