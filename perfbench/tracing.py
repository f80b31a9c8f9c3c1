"""In-memory span recorder for the traced run.

The recorder wraps the public functions of each levylab layer where their
callers look them up (a module attribute), so the program itself is not
edited.  Each wrapped call records a span: its name, start, end, the index
of the span that was open when it began, and the id of the CLI call it
belongs to.  Spans stay in memory and are summarised when a job ends.

The parent of a span is the innermost open span, kept on one stack for the
process.  That is right only while one thread runs levylab code at a time,
so the traced run uses ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  The module is where the caller looks the
# function up: the CLI calls the schemes through its own imports, the
# potential solver calls its primitives through module globals, and every
# quadrature goes through ``scipy.integrate.quad`` at call time.
WRAPPED = [
    ("levylab.cli", "paths_to_csv", "cli.paths_to_csv"),
    ("levylab.cli", "read_paths_csv", "cli.read_paths_csv"),
    ("levylab.cli", "atomic_write_text", "cli.atomic_write_text"),
    ("levylab.cli", "stable_chain_simulate", "stable.stable_chain_simulate"),
    ("levylab.cli", "euler_chain_simulate", "euler.euler_chain_simulate"),
    ("levylab.cli", "potential_chain_simulate", "potential.potential_chain_simulate"),
    ("levylab.cli", "rwre_simulate", "environment.rwre_simulate"),
    ("levylab.cli", "convergence_gaps", "operators.convergence_gaps"),
    ("levylab.cli", "explosion_stats", "diagnostics.explosion_stats"),
    ("levylab.cli", "ks_distance", "diagnostics.ks_distance"),
    ("levylab.cli", "wasserstein1", "diagnostics.wasserstein1"),
    ("levylab.potential", "psi_solve_many", "potential.psi_solve_many"),
    ("levylab.potential", "phi_eval", "potential.phi_eval"),
    ("levylab.potential", "p_eval_many", "potential.p_eval_many"),
    ("levylab.potential", "exp_integral", "potential.exp_integral"),
    ("levylab.operators", "measure_integral", "operators.measure_integral"),
    ("levylab.operators", "chi_quadratic_matrix", "operators.chi_quadratic_matrix"),
    ("scipy.integrate", "quad", "quad"),
]

# The span the benchmark opens around each ``levylab.cli.run`` call.
CALL_SPAN = "cli.run"
LAYERS = ("cli", "stable", "euler", "potential", "environment", "operators",
          "diagnostics", "quad")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a call span
    call_id: int


class Tracer:
    """Records spans and output sizes; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rows: Counter = Counter()
        self.megabytes: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.rows.clear()
        self.megabytes.clear()
        self._stack.clear()
        self.call_id = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.call_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, call_id: int, fn, *args):
        """Run ``fn(*args)`` as CLI call ``call_id`` inside a ``cli.run`` span."""
        self.call_id = call_id
        index = self._open(CALL_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._count_output(name, result)
            return result
        return traced

    def _count_output(self, name: str, result) -> None:
        if name == "cli.paths_to_csv":
            self.rows[name] += result.count("\n") - 1
            self.megabytes[name] += len(result) / 1e6
        elif name == "cli.read_paths_csv":
            self.rows[name] += result.states.shape[0] * result.states.shape[1]

    def summary(self) -> "TraceSummary":
        """Per-name call counts, inclusive and self seconds of the recorded spans."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            calls[span.name] += 1
            self_s[span.name] += duration - child_time[i]
            if not self._nested_in_same_name(i):
                inclusive[span.name] += duration
        return TraceSummary(dict(calls), dict(inclusive), dict(self_s),
                            dict(self.rows), dict(self.megabytes))

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


@dataclass
class TraceSummary:
    calls: dict
    # Seconds per span name, counting a span nested in one of the same name once.
    inclusive_s: dict
    self_s: dict
    rows: dict
    megabytes: dict

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def counts(self) -> dict:
        """Every count the run records; these repeat exactly for one seed."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.rows": v for k, v in self.rows.items()})
        out.update({f"{k}.mb": round(v, 9) for k, v in self.megabytes.items()})
        return out
