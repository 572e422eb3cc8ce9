"""Spans around the public functions of each ``dampedwave`` module.

The tracer wraps functions from outside the program: it looks each
target up by module and qualified name and replaces it, in its module
and in every ``dampedwave`` module that imported it by name, with a
wrapper that records a span (name, start, end, parent span, and the
input size for FFTs).  A target that no longer exists is reported as
absent instead of failing, so the tracer survives renames and removals
in the program.  ``uninstall`` puts every original back.

Spans are kept in memory.  Pool workers forked while the tracer is
installed start with an empty span list and append each finished root
span tree, as one JSON line, to a file in ``child_dir``; the parent
collects those files after the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# layer -> (module, qualified name) of every wrapped function.  The
# numpy FFT entry points are attributed to the spectral layer, whose
# work they are; the r-variants are wrapped too so the counts stay
# valid when the program moves to real FFTs.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "config": (
        ("dampedwave.config", "load_setup"),
        ("dampedwave.config", "load_setup_text"),
    ),
    "initial_data": (
        ("dampedwave.initial_data", "gaussian_field"),
        ("dampedwave.initial_data", "modulated_gaussian_field"),
        ("dampedwave.initial_data", "zero_field"),
    ),
    "spectral": (
        ("numpy.fft", "fftn"),
        ("numpy.fft", "ifftn"),
        ("numpy.fft", "rfftn"),
        ("numpy.fft", "irfftn"),
        ("dampedwave.spectral", "greens_multiplier"),
        ("dampedwave.spectral", "greens_multiplier_dt"),
        ("dampedwave.spectral", "Grid.freq_sq"),
        ("dampedwave.spectral", "Grid.radius_sq"),
        ("dampedwave.spectral", "Grid.boundary_mask"),
        ("dampedwave.spectral", "Grid.coords"),
        ("dampedwave.spectral", "boundary_contaminated"),
    ),
    "propagator": (
        ("dampedwave.propagator", "evolve_coeffs"),
        ("dampedwave.propagator", "linear_evolve"),
        ("dampedwave.propagator", "decay_profile"),
    ),
    "solver": (
        ("dampedwave.solver", "run"),
        ("dampedwave.solver", "step"),
        ("dampedwave.solver", "Stepper.advance"),
        ("dampedwave.solver", "Stepper.source_coeffs"),
    ),
    "diagnostics": (("dampedwave.diagnostics", "measure"),),
    "weights": (
        ("dampedwave.weights", "residual_audit"),
        ("dampedwave.weights", "energy_audit"),
        ("dampedwave.weights", "source_bound_audit"),
        ("dampedwave.weights", "weighted_energy"),
    ),
    "snapshots": (
        ("dampedwave.snapshots", "write_snapshot"),
        ("dampedwave.snapshots", "read_snapshot"),
    ),
    "timeseries": (
        ("dampedwave.timeseries", "TimeSeries.to_csv"),
        ("dampedwave.timeseries", "decay_fit"),
    ),
    "experiments": (
        ("dampedwave.experiments", "build_data"),
        ("dampedwave.experiments", "simulate"),
        ("dampedwave.experiments", "linear_decay"),
        ("dampedwave.experiments", "energy_audit_experiment"),
        ("dampedwave.experiments", "sweep"),
    ),
}

SIZED_MODULES = {"numpy.fft"}


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('dampedwave.')}.{qualname}"


LAYER_OF = {
    span_name(module, qualname): layer
    for layer, targets in TARGETS.items()
    for module, qualname in targets
}


class Tracer:
    """Installs span-recording wrappers; spans are tuples
    (name, start, end, parent index or -1, input size)."""

    def __init__(self, child_dir: Path):
        self.child_dir = Path(child_dir)
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._fork_hook = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for targets in TARGETS.values():
            for module_name, qualname in targets:
                self._patch(module_name, qualname)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module_name: str, qualname: str) -> None:
        name = span_name(module_name, qualname)
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(original, name, module_name in SIZED_MODULES)
        self._set(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        # rebind names imported with ``from module import name``
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not (mod_name == "dampedwave" or mod_name.startswith("dampedwave.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._set(module, alias, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, sized: bool):
        spans = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = getattr(args[0], "size", 0) if sized and args else 0
            stack = spans._stack
            index = len(spans.spans)
            spans.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.spans[index] = (name, start, end, parent, int(size))
                if not stack and os.getpid() != spans._pid:
                    spans._flush_child()

        return traced

    # -- spans -------------------------------------------------------------

    def take(self) -> list[list]:
        """Span trees recorded since the last call: this process's spans
        first, then every tree flushed by forked workers."""
        if self._stack:
            raise RuntimeError("spans are still open")
        chunks = [self.spans]
        self.spans = []
        if self.child_dir.is_dir():
            for path in sorted(self.child_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    chunks.extend(json.loads(line) for line in fh if line.strip())
                path.unlink()
        return chunks

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []

    def _flush_child(self) -> None:
        self.child_dir.mkdir(parents=True, exist_ok=True)
        with open(self.child_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanIndex:
    """Durations, nesting and self times of the span trees of one call.

    The first chunk holds the calling process's spans.  The root spans of
    later chunks (pool workers) become children of the innermost span of
    the first chunk whose interval holds them, so a sweep's self time is
    what its workers do not cover: pool start-up and idle time.
    """

    def __init__(self, chunks: list[list]):
        flat: list[tuple] = []
        main = chunks[0] if chunks else []
        for c, chunk in enumerate(chunks):
            base = len(flat)
            for name, start, end, parent, size in chunk:
                if parent >= 0:
                    parent += base
                elif c > 0:
                    parent = _enclosing(main, start, end)
                flat.append((name, start, end, parent, size))
        children: list[list[tuple[float, float]]] = [[] for _ in flat]
        for name, start, end, parent, _ in flat:
            if parent >= 0:
                children[parent].append((start, end))
        self.spans = []  # (name, duration, size, ancestor names, self time)
        self._by_name: dict[str, list[tuple]] = {}
        self._self_time: dict[str, float] = {}
        for i, (name, start, end, parent, size) in enumerate(flat):
            ancestors = []
            while parent >= 0:
                ancestors.append(flat[parent][0])
                parent = flat[parent][3]
            duration = end - start
            span = (name, duration, size, ancestors, duration - _covered(children[i]))
            self.spans.append(span)
            self._by_name.setdefault(name, []).append(span)
            layer = LAYER_OF.get(name)
            self._self_time[layer] = self._self_time.get(layer, 0.0) + span[4]

    def outermost(self, names) -> list[tuple]:
        """Spans named in ``names`` that are not nested in another of them."""
        names = set(names)
        return [
            s for name in names for s in self._by_name.get(name, ())
            if not names.intersection(s[3])
        ]

    def count(self, *names: str) -> int:
        return len(self.outermost(names))

    def total(self, *names: str) -> float:
        return sum(s[1] for s in self.outermost(names))

    def points(self, *names: str) -> int:
        return sum(s[2] for s in self.outermost(names))

    def inner_total(self, outer: tuple[str, ...], inner: tuple[str, ...]) -> float:
        """Time of ``outer`` spans minus the ``inner`` spans nested in them."""
        outer_set = set(outer)
        nested = sum(
            s[1]
            for s in self.outermost(inner)
            if outer_set.intersection(s[3])
        )
        return self.total(*outer) - nested

    def self_time(self, layer: str) -> float:
        return self._self_time.get(layer, 0.0)


def _enclosing(spans: list, start: float, end: float) -> int:
    """Index of the latest-starting span holding [start, end], or -1."""
    best = -1
    for i, span in enumerate(spans):
        if span[1] <= start and end <= span[2] and (best < 0 or span[1] >= spans[best][1]):
            best = i
    return best
