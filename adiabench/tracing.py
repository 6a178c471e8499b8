"""Spans around the calls between adiawell modules, recorded from outside.

Each traced name is a module attribute that another module (or the command
line front end) looks up at call time: a function one module imported from
another, or a public entry point.  Replacing that attribute with a timing
wrapper records a span for every call without touching the package.  Spans
(name, start, end, parent, request, note) are kept in memory and written out
when the run ends; a span's self time is its duration minus its children's.
Span clocks read wall time: the process CPU clock advances in 4 ms ticks
on the machine the benchmark was built on, which would read most spans as 0.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The span name's first part is the layer
# the callee belongs to.
TRACED = [
    ("wavefield", "mode_solution", "wavefield.solution"),
    ("wavefield", "mode_inside", "wavefield.inside"),
    ("wavefield", "mode_outside", "wavefield.outside"),
    ("wavefield", "_outside_single", "wavefield.outside_point"),
    ("wavefield", "trace_steepest", "wavefield.trace"),
    ("wavefield", "amplitude_along", "symbolfield.amplitude"),
    ("wavefield", "upper_edge_amplitude", "symbolfield.edge_table"),
    ("wavefield", "path_cumulative", "symbolfield.edge_table"),
    ("wavefield", "_lnA_at_one", "symbolfield.edge_table"),
    ("wavefield", "_g_values", "symbolfield.shift"),
    ("symbolfield", "_l0_raw", "branches.l0"),
    ("wavefield", "p_n", "spectrum.p_n"),
    ("wavefield", "p_n_tilde", "spectrum.continuation"),
    ("asymptotics", "p_n_tilde", "spectrum.continuation"),
    ("asymptotics", "int_e_n", "spectrum.int_e_n"),
    ("asymptotics", "dlnpn_dtau", "spectrum.dlnpn_dtau"),
    ("asymptotics", "psi_n", "spectrum.psi_n"),
    ("asymptotics", "best_leading", "asymptotics.best_leading"),
    ("asymptotics", "adiabatic_leading", "asymptotics.adiabatic_leading"),
    ("asymptotics", "outside_leading", "asymptotics.outside_leading"),
    ("asymptotics", "transition_leading", "asymptotics.transition_leading"),
    ("asymptotics", "aftermath_terms", "asymptotics.aftermath_terms"),
    ("asymptotics", "aftermath_sum", "asymptotics.aftermath_sum"),
    ("asymptotics", "f_transition", "special.f_transition"),
    ("asymptotics", "a_fn", "special.a_fn"),
    ("asymptotics", "zeta_fn", "special.zeta_fn"),
]

# the note a span keeps, by traced attribute: the L0 ladder points a call
# evaluates, or the eps whose hook-edge table a call builds
_NOTES = {
    "_l0_raw": lambda args: int(np.size(args[0])),
    "upper_edge_amplitude": lambda args: float(args[0]),
}

PER_LAYER = [
    "cli.self_ms",
    "wavefield.inside_calls",
    "wavefield.inside_self_ms",
    "wavefield.trace_calls",
    "wavefield.trace_ms",
    "wavefield.outside_points",
    "wavefield.outside_ms_per_point",
    "symbolfield.amplitude_calls",
    "symbolfield.amplitude_ms",
    "symbolfield.edge_table_builds",
    "symbolfield.edge_table_ms",
    "symbolfield.shift_ms",
    "branches.l0_points",
    "branches.l0_ms",
    "branches.l0_ns_per_point",
    "spectrum.continuation_calls",
    "spectrum.ms",
    "asymptotics.ms",
    "special.ms",
]


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        # [name, start, end, parent index, request index, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    def _open(self, name: str, note) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, note])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, note=None):
        idx = self._open(name, note)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, note_of=None):
        def traced(*args, **kwargs):
            idx = self._open(name, note_of(args) if note_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every TRACED attribute of the given modules; restore on exit."""
        saved = []
        try:
            for mod_name, attr, span_name in TRACED:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, span_name, _NOTES.get(attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "note"],
                       "spans": self.spans}, fh)

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics: counts and milliseconds per round.

        Hook-edge table figures are per run, since a process builds them
        once per eps.  Times of a layer count its outermost spans only, so
        a layer calling itself is not counted twice.
        """
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]

        def layer(name: str) -> str:
            return name.split(".")[0]

        def outermost(i: int) -> bool:
            want, p = layer(spans[i][0]), spans[i][3]
            while p >= 0:
                if layer(spans[p][0]) == want:
                    return False
                p = spans[p][3]
            return True

        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        layer_ms: dict[str, float] = defaultdict(float)
        l0_points = 0
        edge_eps = set()
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            total[name] += dur[i]
            self_ms[name] += dur[i] - child_time[i]
            if outermost(i):
                layer_ms[layer(name)] += dur[i]
            if name == "branches.l0":
                l0_points += s[5]
            elif name == "symbolfield.edge_table" and s[5] is not None:
                edge_eps.add(s[5])
        edge_builds = len(edge_eps)
        asym_self = sum(v for k, v in self_ms.items() if layer(k) == "asymptotics")
        r = float(rounds)
        out_points = calls["wavefield.outside_point"]
        out_ms = 1e3 * total["wavefield.outside_point"]
        return {
            "cli.self_ms": 1e3 * self_ms["cli.request"] / r,
            "wavefield.inside_calls": calls["wavefield.inside"] / r,
            "wavefield.inside_self_ms": 1e3 * self_ms["wavefield.inside"] / r,
            "wavefield.trace_calls": calls["wavefield.trace"] / r,
            "wavefield.trace_ms": 1e3 * total["wavefield.trace"] / r,
            "wavefield.outside_points": out_points / r,
            "wavefield.outside_ms_per_point": out_ms / out_points if out_points else 0.0,
            "symbolfield.amplitude_calls": calls["symbolfield.amplitude"] / r,
            "symbolfield.amplitude_ms": 1e3 * total["symbolfield.amplitude"] / r,
            "symbolfield.edge_table_builds": float(edge_builds),
            "symbolfield.edge_table_ms": 1e3 * total["symbolfield.edge_table"],
            "symbolfield.shift_ms": 1e3 * total["symbolfield.shift"] / r,
            "branches.l0_points": l0_points / r,
            "branches.l0_ms": 1e3 * total["branches.l0"] / r,
            "branches.l0_ns_per_point": 1e9 * total["branches.l0"] / l0_points
            if l0_points else 0.0,
            "spectrum.continuation_calls": calls["spectrum.continuation"] / r,
            "spectrum.ms": 1e3 * layer_ms["spectrum"] / r,
            "asymptotics.ms": 1e3 * asym_self / r,
            "special.ms": 1e3 * layer_ms["special"] / r,
        }
