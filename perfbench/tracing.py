"""Spans around the public functions of each sumfree module.

The tracer wraps, from outside the package, every function named in a
layer module's ``__all__``, plus ``cli.build_parser`` and the two render
methods, and swaps the wrapper into every ``sumfree`` module namespace
that imported the same function object, so ``cli`` calling
``interval_ap_family.size_ladder`` calling ``zn_core.classify`` nests as
three spans.  Private helpers (``_sumset_bits``, ``_run_trial_block``) and
code running in worker processes get no spans: the public caller's span
covers them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "zn_core",
    "st_family",
    "special_sets",
    "interval_ap_family",
    "search_oracle",
    "applications",
    "cli",
)
EXTRA_FUNCTIONS = {"cli": ("build_parser",)}
METHODS = (
    ("cli", "CommandEnvelope", "rendered"),
    ("applications", "CayleyGraph", "to_edge_list"),
)

# span name -> (counter name, value from (args, result)); counted per call
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "zn_core.classify": ("zn_core.classify.bits", lambda args, result: args[0].modulus),
    "st_family.verify_st_equivalence": (
        "st_family.verify_st_equivalence.candidates",
        lambda args, result: result.candidates,
    ),
    "special_sets.enumerate_special": (
        "special_sets.enumerate_special.found",
        lambda args, result: result.g,
    ),
    "search_oracle.exhaustive_scsf": (
        "search_oracle.exhaustive_scsf.found",
        lambda args, result: len(result.members),
    ),
    "search_oracle.exhaustive_max_sum_free": (
        "search_oracle.exhaustive_max_sum_free.found",
        lambda args, result: len(result.members),
    ),
    "applications.simulate_random_sumfree": (
        "applications.simulate_random_sumfree.trials",
        lambda args, result: args[0].trials,
    ),
    # rendered output is ASCII (json.dumps escapes), so characters are bytes
    "cli.CommandEnvelope.rendered": ("cli.render_bytes", lambda args, result: len(result)),
}

# (name, start, end, parent index or -1, request id)
Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records spans in memory while installed; ``request`` tags new spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self._stack.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap wrappers into the package; ``uninstall`` restores it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = [mod for key, mod in sys.modules.items()
                   if key == "sumfree" or key.startswith("sumfree.")]
        for layer in LAYERS:
            module = importlib.import_module(f"sumfree.{layer}")
            for attr in tuple(module.__all__) + EXTRA_FUNCTIONS.get(layer, ()):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"sumfree.{layer}"), cls_name)
            fn = cls.__dict__[method]
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str, origin: float) -> None:
        """One JSON array per span: name, start and end in seconds from
        ``origin``, parent span index (-1 for a root), request id."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 9), round(end - origin, 9), parent, request]
                ) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations simply add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time and call count."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["self_s"] += own
        row["calls"] += 1
    return dict(table)


def root_time(spans: List[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
