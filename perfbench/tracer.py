"""Span tracer that wraps harqlink's public functions from outside the package.

Every wrapped call is a span with a name, a start, an end and the span
that was open when it began.  Spans are kept in memory in flat arrays and
written out once, when the traced round ends.  A call that makes no
wrapped call of its own (a leaf, such as a scalar ``per``) is folded into
one record per (parent span, function) holding the call count and the
summed duration; without that fold the simulator and optimizer rounds
would keep several million span records.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One wrapped public name of a harqlink module and the metrics it yields.

    ``attr`` is a function name, a class name (its constructor is wrapped)
    or ``Class.method``.  ``key_drop`` names the arguments left out of the
    call key that ``distinct_ratio`` compares; ``None`` records no keys.
    """

    module: str
    attr: str
    suffixes: tuple[str, ...]
    key_drop: tuple[str, ...] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("coding", "per", ("calls", "self_s")),
    Layer("coding", "mutual_information", ("calls", "self_s")),
    Layer("coding", "mutual_information_inv", ("calls",)),
    Layer("channel", "draw_exponential", ("calls", "self_s")),
    Layer("channel", "make_stream", ("calls",)),
    Layer("amc", "amc_throughput", ("calls", "self_s")),
    Layer("amc", "amc_thresholds_exact", ("calls", "self_s")),
    Layer("harq_analysis", "FastFadingTables", ("calls", "self_s", "distinct_ratio"),
          key_drop=("self", "n_grid", "span")),
    Layer("harq_analysis", "FastFadingTables.cum_mass", ("calls", "self_s")),
    Layer("harq_analysis", "fast_throughput", ("calls", "self_s")),
    Layer("harq_analysis", "slow_throughput", ("calls", "self_s")),
    Layer("harq_analysis", "slow_throughput_at", ("calls",)),
    Layer("harq_analysis", "two_round_bound", ("calls", "self_s")),
    Layer("optimizer", "fast_optimize_regions", ("calls", "self_s", "distinct_ratio"),
          key_drop=("tables",)),
    Layer("optimizer", "DinkelbachState", ("calls",)),
    Layer("optimizer", "slow_optimal_regions", ("calls", "self_s")),
    Layer("simulator", "simulate_plain", ("calls", "self_s", "blocks_per_s")),
    Layer("simulator", "simulate_packet_drop", ("calls", "self_s", "blocks_per_s")),
    Layer("simulator", "simulate_vl", ("calls", "self_s", "blocks_per_s")),
    Layer("simulator", "vl_schedule", ("calls", "self_s")),
    Layer("simulator", "vl_update", ("calls", "self_s")),
    Layer("cli", "run_sweep", ("calls", "self_s")),
)

UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio", "blocks_per_s": "1/s"}


def _call_key(fn, drop):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple((k, v) for k, v in bound.arguments.items() if k not in drop)

    return key


class Tracer:
    """Collects spans of the wrapped calls made between begin() and end()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.leaf_name = array("i")
        self.leaf_parent = array("i")
        self.leaf_count = array("q")
        self.leaf_time = array("d")
        self.keys: dict[str, list] = {}
        self.blocks: dict[str, int] = {}
        self.installed: list[Layer] = []
        # frame: [name id, start, span index or -1 while a leaf, leaf folds]
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _materialize(self, frame: list, parent: int):
        frame[2] = len(self.span_name)
        self.span_name.append(frame[0])
        self.span_parent.append(parent)
        self.span_start.append(frame[1])
        self.span_end.append(frame[1])

    def _enter(self, nid: int) -> list:
        stack = self._stack
        top = stack[-1]
        if top[2] < 0:  # the caller has a wrapped child, so it is a span
            self._materialize(top, stack[-2][2])
        frame = [nid, 0.0, -1, None]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, t1: float):
        stack = self._stack
        stack.pop()
        if frame[2] < 0:
            parent = stack[-1]
            if parent[3] is None:
                parent[3] = {}
            fold = parent[3].get(frame[0])
            if fold is None:
                parent[3][frame[0]] = [1, t1 - frame[1]]
            else:
                fold[0] += 1
                fold[1] += t1 - frame[1]
            return
        self.span_end[frame[2]] = t1
        if frame[3]:
            for nid, (count, total) in frame[3].items():
                self.leaf_name.append(nid)
                self.leaf_parent.append(frame[2])
                self.leaf_count.append(count)
                self.leaf_time.append(total)

    def begin(self, name: str):
        """Open the root span that every traced call nests under."""
        frame = [self._id(name), perf_counter(), -1, None]
        self._stack.append(frame)
        self._materialize(frame, -1)

    def end(self):
        frame = self._stack[-1]
        self._exit(frame, perf_counter())

    def wrap(self, name: str, fn, key=None, count_blocks: bool = False):
        nid = self._id(name)
        stack, enter, leave = self._stack, self._enter, self._exit
        keys = self.keys.setdefault(name, []) if key is not None else None
        if count_blocks:
            self.blocks[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside begin()/end(): not part of the traced round
                return fn(*args, **kwargs)
            frame = enter(nid)
            if keys is not None:
                keys.append(key(args, kwargs))
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, perf_counter())
            if count_blocks:
                self.blocks[name] += result.blocks
            return result

        return traced

    def install(self, layers=LAYERS):
        """Wrap each layer's function and rebind it in every harqlink module.

        A name the package no longer defines is skipped, so its metrics are
        absent rather than zero.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "harqlink" or n.startswith("harqlink.")]
        for layer in layers:
            module = sys.modules.get(f"harqlink.{layer.module}")
            owner, _, method = layer.attr.partition(".")
            obj = getattr(module, owner, None)
            if obj is None:
                continue
            count_blocks = "blocks_per_s" in layer.suffixes
            if inspect.isclass(obj):
                attr = method or "__init__"
                fn = obj.__dict__.get(attr)
                if fn is None:
                    continue
                key = _call_key(fn, layer.key_drop) if layer.key_drop is not None else None
                setattr(obj, attr, self.wrap(layer.name, fn, key, count_blocks))
            else:
                key = _call_key(obj, layer.key_drop) if layer.key_drop is not None else None
                wrapped = self.wrap(layer.name, obj, key, count_blocks)
                for m in modules:
                    for n, v in list(vars(m).items()):
                        if v is obj:
                            setattr(m, n, wrapped)
            self.installed.append(layer)

    def _arrays(self):
        return {
            "span_name": np.frombuffer(self.span_name, dtype=np.int32),
            "span_parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "span_start": np.frombuffer(self.span_start, dtype=np.float64),
            "span_end": np.frombuffer(self.span_end, dtype=np.float64),
            "leaf_name": np.frombuffer(self.leaf_name, dtype=np.int32),
            "leaf_parent": np.frombuffer(self.leaf_parent, dtype=np.int32),
            "leaf_count": np.frombuffer(self.leaf_count, dtype=np.int64),
            "leaf_time": np.frombuffer(self.leaf_time, dtype=np.float64),
        }

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self._arrays())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans.

        self_s is a span's duration minus the part covered by its wrapped
        children; a folded leaf's self time is its whole duration.
        """
        a = self._arrays()
        n_names = len(self.names)
        n_spans = a["span_name"].size
        dur = a["span_end"] - a["span_start"]
        child = (np.bincount(a["span_parent"][1:], weights=dur[1:], minlength=n_spans)
                 + np.bincount(a["leaf_parent"], weights=a["leaf_time"], minlength=n_spans))
        own = dur - child
        calls = (np.bincount(a["span_name"], minlength=n_names)
                 + np.bincount(a["leaf_name"], weights=a["leaf_count"], minlength=n_names))
        self_s = (np.bincount(a["span_name"], weights=own, minlength=n_names)
                  + np.bincount(a["leaf_name"], weights=a["leaf_time"], minlength=n_names))
        total_s = (np.bincount(a["span_name"], weights=dur, minlength=n_names)
                   + np.bincount(a["leaf_name"], weights=a["leaf_time"], minlength=n_names))
        out = {}
        for layer in self.installed:
            i = self._ids[layer.name]
            for suffix in layer.suffixes:
                if suffix == "calls":
                    value = int(round(calls[i]))
                elif suffix == "self_s":
                    value = float(self_s[i])
                elif suffix == "distinct_ratio":
                    keys = self.keys[layer.name]
                    value = len(set(keys)) / len(keys) if keys else 0.0
                else:  # blocks_per_s, over the engine's whole span time
                    value = self.blocks[layer.name] / total_s[i] if total_s[i] > 0 else 0.0
                out[f"{layer.name}.{suffix}"] = (value, UNITS[suffix])
        return out
