"""Per-layer spans recorded from outside the program.

``Tracer.patched()`` replaces module attributes of the ``lotdp`` package with
timing wrappers and puts every original back on exit.  A function is patched
under every name any ``lotdp`` module binds it to, so ``from .dp import solve``
style imports are caught too.  Spans nest: each wrapper adds its duration to
the enclosing span's child time, which gives self time.

A target whose attribute no longer exists is skipped, and the metrics that
need it are reported as absent rather than as zero.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute names); a span is present if any name exists
TARGETS = {
    "cli.main": ("lotdp.cli", ("main",)),
    "dp.solve": ("lotdp.dp", ("solve", "solve_multi")),
    "dp.price": ("lotdp.dp", ("_single_candidate_costs", "_aggregated_candidate_costs")),
    "dp.fill": ("lotdp.dp", ("_fill",)),
    "dp.backtrack": ("lotdp.dp", ("backtrack",)),
    "closed_form.multi_delivery_cost": ("lotdp.closed_form", ("multi_delivery_cost",)),
    "model.validate": ("lotdp.model", ("validate_instance",)),
    "model.make_solution": ("lotdp.model", ("make_solution",)),
    "model.solution_cost": ("lotdp.model", ("solution_cost",)),
    "model.instance_from_json": ("lotdp.model", ("instance_from_json",)),
    "model.solution_to_json": ("lotdp.model", ("solution_to_json",)),
}


def fill_transitions(inst, H: int) -> int:
    """Candidate volumes the reference recursion examines for one table,
    computed from the grid definition (step 1/(H*c_hold*den(lam))), not
    counted: for every supplier k and residual p, the window volumes
    m_k..min(M_k, p) on the grid, plus one over-delivery lookup wherever a
    window volume exceeds p."""
    den = H * inst.c_hold * inst.lam.denominator
    last = inst.P * den  # residual indices run 0..last
    total = 0
    for s in inst.suppliers:
        lo, hi = s.m * den, s.M * den
        if last >= lo:
            t = min(hi, last) - lo + 1
            total += t * (t + 1) // 2
            if last > hi:
                total += (last - hi) * (hi - lo + 1)
        total += min(hi, last + 1)
    return total


def _lotdp_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "lotdp" or name.startswith("lotdp.")
    ]


class Tracer:
    """Accumulates inclusive time, self time and call counts per span, plus
    the counts gathered at the fill and pricing boundaries."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.present: set[str] = set()
        self.fill_H: list[int] = []  # H of every table filled, in order
        self.transitions = 0
        self.candidates = 0
        self._stack: list[float] = []

    def _wrap(self, name, fn):
        on_result = {"dp.fill": self._on_fill, "dp.price": self._on_price}.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.ms[name] += dt * 1e3
                self.self_ms[name] += (dt - child) * 1e3
                self.calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_fill(self, args, table):
        inst, grid = args[0], args[1]
        self.fill_H.append(grid.H)
        self.transitions += fill_transitions(inst, grid.H)

    def _on_price(self, args, costs):
        self.candidates += sum(len(row) for row in costs)

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        modules = _lotdp_modules()
        saved = []  # (module, attribute, original)
        try:
            for name, (module_name, attrs) in TARGETS.items():
                home = sys.modules.get(module_name)
                for attr in attrs:
                    original = getattr(home, attr, None)
                    if original is None:
                        continue
                    self.present.add(name)
                    wrapper = self._wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                saved.append((module, key, original))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)
