"""Span tracing of the program's layers, installed from outside the program.

The program calls each layer through a module global (``cli`` imports
``frame_at``, ``integrate``, ``rhs_*``, ``rates`` and the gauge functions by
name; ``sample_history`` calls ``control.frame_at``; ``berry_phase`` calls
``gauge.optimal_schedule``) or through a class attribute (spectrum samples,
schedule lookups, trajectory CSV writes). Replacing those attributes with
timing wrappers records one span per call without touching the program.

Spans are kept in flat arrays (name id, start, end, parent index) and reduced
with numpy; a span's self time is its duration minus that of its direct
children. A target that no longer exists is reported as absent, and the
metrics that depend only on it read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array

import numpy as np

# (span name, module, class or None, attribute)
TARGETS = (
    ("cli.load_scenario", "qsteer.cli", None, "load_scenario"),
    ("cli.run", "qsteer.cli", None, "run"),
    ("cli.write_csv", "qsteer.dynamics", "Trajectory", "write_csv"),
    ("control.frame_at", "qsteer.cli", None, "frame_at"),
    ("control.frame_at", "qsteer.control", None, "frame_at"),
    ("control.sample_history", "qsteer.cli", None, "sample_history"),
    ("bath.spectrum", "qsteer.bath", "SpectralDensity", "__call__"),
    ("bath.rates", "qsteer.cli", None, "rates"),
    ("dynamics.integrate", "qsteer.cli", None, "integrate"),
    ("dynamics.rhs_full", "qsteer.cli", None, "rhs_full"),
    ("dynamics.rhs_secular", "qsteer.cli", None, "rhs_secular"),
    ("dynamics.rhs_nonsteered", "qsteer.cli", None, "rhs_nonsteered"),
    ("gauge.optimal_schedule", "qsteer.cli", None, "optimal_schedule"),
    ("gauge.optimal_schedule", "qsteer.gauge", None, "optimal_schedule"),
    ("gauge.berry_phase", "qsteer.cli", None, "berry_phase"),
    ("gauge.schedule_lookup", "qsteer.gauge", "PhaseSchedule", "lambda_g"),
    ("gauge.schedule_lookup", "qsteer.gauge", "PhaseSchedule", "lambda_e"),
    ("gauge.phase_shifted_frame", "qsteer.cli", None, "phase_shifted_frame"),
)
NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))
RHS = ("dynamics.rhs_full", "dynamics.rhs_secular", "dynamics.rhs_nonsteered")


class Tracer:
    """Span recorder; ``install``/``uninstall`` swap the wrappers in around one pass."""

    def __init__(self):
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._stack = []
        self.absent = []
        self._patches = []
        for name, module, cls, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            # a class's own __dict__: getattr would find type.__call__ on any class
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            self._patches.append((owner, attr, original, self._wrap(original, NAMES.index(name))))
        self.cost_in, self.cost_out = self._calibrate()

    def _wrap(self, fn, nid):
        start, end, names, parent, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _calibrate(self, calls=20000, repeats=5):
        """Wrapper cost per span in ns: inside the span's own duration, and charged to its parent.

        A traced loop of traced no-op calls against the same loop untraced:
        the children's summed durations exceed the plain loop by the inside
        cost, and the parent's raw self time is the cost charged to it.
        """
        def noop():
            pass

        def loop(fn):
            for _ in range(calls):
                fn()

        inner, outer = self._wrap(noop, 0), self._wrap(loop, 0)
        cost_in, cost_out = [], []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            loop(noop)
            plain = time.perf_counter_ns() - t0
            self.clear()
            outer(inner)
            a = self.arrays()
            dur = a["end"] - a["start"]
            children = float(dur[1:].sum())
            cost_in.append((children - plain) / calls)
            cost_out.append((float(dur[0]) - children) / calls)
        self.clear()
        return statistics.median(cost_in), statistics.median(cost_out)

    def clear(self):
        for buf in (self.start, self.end, self.name, self.parent):
            del buf[:]

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def summary(self) -> dict:
        """Per-layer metrics of the recorded spans (one pass), wrapper cost removed."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end"] - a["start"]).astype(float)
        n, k = dur.size, len(NAMES)
        has_parent = parent >= 0
        up = parent[has_parent]
        child = np.bincount(up, weights=dur[has_parent], minlength=n)
        n_child = np.bincount(up, minlength=n)
        self_ns = dur - child - n_child * self.cost_out - self.cost_in
        # inclusive time = own self time plus the children's, summed from the deepest level up
        depth = np.zeros(n, dtype=np.int64)
        while True:
            deeper = np.where(has_parent, depth[np.maximum(parent, 0)] + 1, 0)
            if np.array_equal(deeper, depth):
                break
            depth = deeper
        incl_ns = self_ns.copy()
        for d in range(int(depth.max(initial=0)), 0, -1):
            level = depth == d
            incl_ns += np.bincount(parent[level], weights=incl_ns[level], minlength=n)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=incl_ns, minlength=k)
        excl = np.bincount(name, weights=self_ns, minlength=k)
        c = {nm: int(calls[i]) for i, nm in enumerate(NAMES)}

        def ms(nm, total=incl):
            return float(total[NAMES.index(nm)]) / 1e6

        def us(nm):
            return float(excl[NAMES.index(nm)]) / 1e3 / c[nm] if c[nm] else 0.0

        # frames per RHS call, over the integrations that evaluate frames at all
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        under = has_parent & (parent_name == NAMES.index("dynamics.integrate"))
        frames = np.bincount(parent[under & (name == NAMES.index("control.frame_at"))],
                             minlength=n)
        is_rhs = np.isin(name, [NAMES.index(r) for r in RHS])
        rhs = np.bincount(parent[under & is_rhs], minlength=n)
        framed = frames > 0
        rhs_framed = int(rhs[framed].sum())

        return {
            "control.frame_at.calls": c["control.frame_at"],
            "control.frame_at.us": us("control.frame_at"),
            "control.frames_per_rhs": int(frames.sum()) / rhs_framed if rhs_framed else 0.0,
            "control.sample_history.ms": ms("control.sample_history"),
            "bath.spectrum.calls": c["bath.spectrum"],
            "bath.spectrum.us": us("bath.spectrum"),
            "bath.rates.calls": c["bath.rates"],
            "bath.rates.us": us("bath.rates"),
            "dynamics.integrate.calls": c["dynamics.integrate"],
            "dynamics.integrate.self_ms": ms("dynamics.integrate", excl),
            **{f"{r}.calls": c[r] for r in RHS},
            **{f"{r}.us": us(r) for r in RHS},
            "gauge.schedule_lookup.calls": c["gauge.schedule_lookup"],
            "gauge.schedule_lookup.us": us("gauge.schedule_lookup"),
            "gauge.phase_shifted_frame.calls": c["gauge.phase_shifted_frame"],
            "gauge.phase_shifted_frame.us": us("gauge.phase_shifted_frame"),
            "gauge.optimal_schedule.ms": ms("gauge.optimal_schedule"),
            "gauge.berry_phase.ms": ms("gauge.berry_phase"),
            "cli.load_scenario.ms": ms("cli.load_scenario"),
            "cli.write_csv.ms": ms("cli.write_csv"),
            "cli.run.self_ms": ms("cli.run", excl),
            "trace.spans": n,
            "trace.span_cost_us": (self.cost_in + self.cost_out) / 1e3,
        }
