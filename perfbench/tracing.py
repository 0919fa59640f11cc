"""Spans and work counters recorded around calls into the ghzmetro layers.

The layers are the package modules: ``states``, ``qfi``, ``ptranspose``,
``bell`` (with its ``_bell_kernel*`` backends) and ``estimation``; ``cli``
is whatever a request spends outside them.  ``Tracer.wrap`` puts a span
around one public function, and ``Tracer.patch`` swaps the wrapped
functions into every loaded ghzmetro module, so calls the CLI or another
layer makes go through them.  ``Tracer.time_imports`` adds one span per
layer module import.  Spans stay in memory until the run ends.

Sizes (``sectors``, ``candidate_subsets``, ``sector_pairs``, ``masks``,
``support``) are computed from each call's arguments, not measured inside
the program. ``estimation.prob_evals`` is measured: ``run_monte_carlo``
gets a model whose ``probabilities`` calls are counted.
"""
from __future__ import annotations

import importlib.abc
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from typing import Callable, Dict, List, Optional

LAYERS = ("states", "qfi", "ptranspose", "bell", "estimation")

# Public entry points per layer that the workloads reach.  Hot inner helpers
# (pt_spectrum per subset, weight per sector) are left unwrapped: their spans
# would cost more than the work they bracket.
ENTRY_POINTS = {
    "states": ("build_rho_nk", "build_rho_nkm"),
    "qfi": ("family_report", "qfi_closed_nk", "qfi_ghz_diagonal"),
    "ptranspose": ("ppt_single_qubit_certificate", "cut_classification"),
    "bell": ("detection_comparison", "hs_norm_sq"),
    "estimation": ("run_monte_carlo", "classical_fisher"),
}

COUNTERS = {
    "states": ("sectors",),
    "qfi": ("sectors",),
    "ptranspose": ("candidate_subsets", "sector_pairs"),
    "bell": ("masks", "support"),
    "estimation": ("reps", "prob_evals"),
}


def layer_of_module(name: str) -> Optional[str]:
    """Layer a ``ghzmetro.*`` module belongs to, or None (package, errors, cli)."""
    parts = name.split(".")
    if len(parts) != 2 or parts[0] != "ghzmetro":
        return None
    if parts[1].startswith("_bell_kernel"):
        return "bell"
    return parts[1] if parts[1] in LAYERS else None


class Tracer:
    """In-memory span recorder with per-layer work counters."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.request: Optional[int] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, layer: str, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "name": name,
            "request": self.request,
            "start": self.clock(),
            "end": None,
            "failed": False,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = self.clock()
            self._stack.pop()

    # -- function spans ----------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` inside a span, with its work sizes added to the counters."""
        signature = inspect.signature(fn)
        count = _COUNT_RULES.get(fn.__name__)

        def traced(*args, **kwargs):
            with self.span(layer, fn.__name__):
                if count is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                    except TypeError:
                        return fn(*args, **kwargs)  # fn reports the bad call
                    bound.apply_defaults()
                    try:
                        count(self, bound.arguments)
                    except (KeyError, AttributeError, TypeError):
                        self.counts["trace.count_errors"] += 1
                    args, kwargs = bound.args, bound.kwargs
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def patch(self) -> None:
        """Route every loaded ghzmetro module's references through spans."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ghzmetro" or name.startswith("ghzmetro.")]
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"ghzmetro.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    continue  # renamed or removed entry point: nothing to time
                traced = self.wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    def time_imports(self) -> None:
        """Give each layer module's import its own span (call before importing)."""
        sys.meta_path.insert(0, _ImportSpans(self))

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per-layer time spent in that layer's spans but not in their children."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        busy: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            busy[s["layer"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(busy)

    def calls(self) -> Dict[str, int]:
        """Calls entering each layer from outside it (imports not counted)."""
        by_id = {s["id"]: s for s in self.spans}
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s["name"].startswith("import "):
                continue
            parent = by_id.get(s["parent"])
            if parent is None or parent["layer"] != s["layer"]:
                out[s["layer"]] += 1
        return dict(out)

    def failures(self) -> Dict[str, int]:
        """Spans per layer that ended by raising, innermost only."""
        failed_children = {s["parent"] for s in self.spans if s["failed"]}
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s["failed"] and s["id"] not in failed_children:
                out[s["layer"]] += 1
        return dict(out)

    def summary(self) -> dict:
        return {
            "busy_s": self.self_times(),
            "calls": self.calls(),
            "failed": self.failures(),
            "counts": dict(self.counts),
            "spans": list(self.spans),
            "span_s": sum(s["end"] - s["start"] for s in self.spans
                          if s["parent"] is None),
        }


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Meta-path hook that times the execution of each layer module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        layer = layer_of_module(fullname)
        if layer is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader_exec = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            with tracer.span(layer, f"import {fullname}"):
                loader_exec(module)

        spec.loader.exec_module = exec_module
        return spec


# -- computed work sizes ------------------------------------------------------------


def _sectors(state) -> int:
    return 1 << (state.n - 1)


def _coherence_support(state) -> int:
    plus, minus = state.lambda_plus, state.lambda_minus
    return sum(1 for i in set(plus) | set(minus) if plus.get(i, 0) != minus.get(i, 0))


def _count_build(t: Tracer, a: dict) -> None:
    t.counts["states.sectors"] += 1 << (a["n"] - 1)


def _count_qfi_scan(t: Tracer, a: dict) -> None:
    t.counts["qfi.sectors"] += _sectors(a["state"])


def _count_cuts(t: Tracer, a: dict) -> None:
    state = a["state"]
    n = state.n
    sizes = a["cut_sizes"]
    if sizes is None:
        sizes = range(1, n // 2 + 1)
    else:
        sizes = a["cut_sizes"] = list(sizes)  # an iterator must survive counting
    cap = None if n <= a["exhaustive_limit"] else a["sample_size"]
    subsets = sum(comb(n, m) if cap is None else min(comb(n, m), cap) for m in sizes)
    t.counts["ptranspose.candidate_subsets"] += subsets
    t.counts["ptranspose.sector_pairs"] += subsets * _sectors(state)


def _count_certificate(t: Tracer, a: dict) -> None:
    state = a["state"]
    t.counts["ptranspose.candidate_subsets"] += state.n
    t.counts["ptranspose.sector_pairs"] += state.n * _sectors(state)


def _count_bell_scan(t: Tracer, a: dict) -> None:
    state = a["state"]
    t.counts["bell.masks"] += _sectors(state)  # even-weight masks of n bits
    t.counts["bell.support"] += _coherence_support(state)


def _count_monte_carlo(t: Tracer, a: dict) -> None:
    t.counts["estimation.reps"] += a["repetitions"]
    model = a["model"]
    if isinstance(model, str):
        model = sys.modules["ghzmetro.estimation"].get_model(model)
    a["model"] = CountingModel(model, t)


_COUNT_RULES = {
    "build_rho_nk": _count_build,
    "build_rho_nkm": _count_build,
    "qfi_ghz_diagonal": _count_qfi_scan,
    "cut_classification": _count_cuts,
    "ppt_single_qubit_certificate": _count_certificate,
    "hs_norm_sq": _count_bell_scan,
    "run_monte_carlo": _count_monte_carlo,
}


class CountingModel:
    """Measurement model proxy that counts ``probabilities`` evaluations."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def probabilities(self, state, theta):
        self._tracer.counts["estimation.prob_evals"] += 1
        return self._inner.probabilities(state, theta)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)
