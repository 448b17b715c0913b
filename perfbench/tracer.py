"""Outside-in spans around wcalc's public functions and methods.

install() wraps every public function of every wcalc module, and every
public method (plus __init__) of its classes, then rebinds each wrapper in
every wcalc module namespace and module-level dict that binds the original.
Spans are kept in memory as parallel lists (label, start, end, parent) and
written out by the caller. Work counts are taken from the arguments, at the
same call boundaries. Nothing inside wcalc is edited.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# In the cli module only load_config is a layer; main and the cmd_* functions
# are the entry point that the benchmark times as a whole.
_CLI_LAYERS = {"load_config"}


def _rows(a) -> int:
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim else 1


def _digest(a) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a, dtype=float).tobytes(),
                           digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.labels: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.keys: Dict[str, str] = {}     # span label -> metric key
        self.counts: Counter = Counter()   # work counts by metric name
        self.distinct: Dict[str, set] = {}
        self._stack: List[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def note(self, key: str, item) -> None:
        """One call whose inputs are `item`; unique_ratio = distinct / noted."""
        self.counts[key + ".noted"] += 1
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, label: str, key: str, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        self.keys[label] = key
        sig = inspect.signature(fn) if counter is not None else None
        labels, start, end, parent, stack = (self.labels, self.start, self.end,
                                             self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
            i = len(labels)
            labels.append(label)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def dump(self) -> dict:
        return {"labels": self.labels, "start": self.start, "end": self.end,
                "parent": self.parent, "keys": self.keys,
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}


# --- work counts, computed from each call's arguments -------------------------

def _final_errors_at(tr: Tracer, a: dict) -> None:
    tr.note("approx_pipeline.final_errors_at",
            (id(a["curve"]), id(a["pool"]), float(a["lam"]), a["config"]))


def _mollified(method: str) -> Callable:
    def count(tr: Tracer, a: dict) -> None:
        moll, coords = a["self"], a["coords"]
        tr.add("approx_pipeline.MollifiedDensity.points", _rows(coords))
        tr.note("approx_pipeline.MollifiedDensity",
                (method, moll.eps, moll.trunc.level, moll.trunc.cond.level,
                 moll.n_coords, float(a["lam"]), _digest(coords)))
    return count


def _truncated_parts(tr: Tracer, a: dict) -> None:
    tr.add("approx_pipeline.TruncatedDensity.points", _rows(a["coords"]))


def _gaussian_smooth(tr: Tracer, a: dict) -> None:
    pre = np.asarray(a["prefix"])
    if pre.ndim == 1:
        pre = pre[None, :]
    m, rem = pre.shape[0], a["grid"].n_steps - pre.shape[1]
    if rem == 0:
        per_row = 1
    elif a["component"] is None and a["F"].scalar_fn is not None:
        per_row = a["quad_order"]
    elif a["mc_fallback"] is not None and rem > 4:
        per_row = a["mc_fallback"][0]
    else:
        per_row = a["quad_order"] ** rem
    tr.add("clark_ocone.gaussian_smooth.nodes", m * per_row)


def _antiderivative_at(tr: Tracer, a: dict) -> None:
    tr.add("numerics.antiderivative_at.points", int(np.size(a["xs"])))


def _write_text(tr: Tracer, a: dict) -> None:
    tr.add("artifacts.write.bytes", len(a["text"].encode()))


COUNTERS: Dict[str, Callable] = {
    "approx_pipeline.final_errors_at": _final_errors_at,
    "approx_pipeline.TruncatedDensity.parts": _truncated_parts,
    "clark_ocone.gaussian_smooth": _gaussian_smooth,
    "numerics.antiderivative_at": _antiderivative_at,
    "artifacts.atomic_write_text": _write_text,
}
for _m in ("value", "dlam", "du", "pair", "triple"):
    COUNTERS[f"approx_pipeline.MollifiedDensity.{_m}"] = _mollified(_m)


def _key(label: str, is_method: bool) -> str:
    """Metric key of a span: methods roll up to their class, the atomic
    writers to one artifacts.write layer."""
    if label.startswith("artifacts.atomic_write_"):
        return "artifacts.write"
    return label.rsplit(".", 1)[0] if is_method else label


def install(tracer: Tracer) -> None:
    """Wrap wcalc's public callables and rebind every reference to them."""
    import wcalc.checks
    check_ids = {id(fn): cid for cid, fn in wcalc.checks.CHECKS.items()}
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("wcalc.") and m is not None]
    wrapped: Dict[int, Tuple[Callable, Callable]] = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if short == "cli" and attr not in _CLI_LAYERS:
                continue
            if inspect.isfunction(obj):
                label = (f"checks.{check_ids[id(obj)]}" if id(obj) in check_ids
                         else f"{short}.{attr}")
                wrapped[id(obj)] = (obj, tracer.wrap(label, _key(label, False),
                                                     obj, COUNTERS.get(label)))
            elif inspect.isclass(obj):
                for name, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and (name == "__init__"
                                                     or not name.startswith("_")):
                        label = f"{short}.{attr}.{name}"
                        setattr(obj, name, tracer.wrap(label, _key(label, True),
                                                       meth, COUNTERS.get(label)))
    for mod in [sys.modules["wcalc"]] + modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    hit = wrapped.get(id(v))
                    if hit is not None and hit[0] is v:
                        obj[k] = hit[1]


# --- aggregation, in the benchmark process ------------------------------------

def aggregate(spans: dict) -> Tuple[Dict[str, List[float]], float]:
    """Per metric key: [inclusive s, self s, calls]; plus top-level time.

    Spans arrive in entry order, so every parent precedes its children.
    Inclusive time and calls count only the outermost span of a key on each
    stack, so recursion and method-to-method calls within one class are not
    counted twice; self time is each span's duration minus the durations of
    its direct children.
    """
    labels, start, end, parent = (spans["labels"], spans["start"],
                                  spans["end"], spans["parent"])
    keys = spans["keys"]
    n = len(labels)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out: Dict[str, List[float]] = {}
    path: List[Tuple[int, str]] = []
    depth: Counter = Counter()
    top = 0.0
    for i in range(n):
        p = parent[i]
        while path and path[-1][0] != p:
            depth[path.pop()[1]] -= 1
        key = keys[labels[i]]
        st = out.setdefault(key, [0.0, 0.0, 0])
        st[1] += dur[i] - child[i]
        if depth[key] == 0:
            st[0] += dur[i]
            st[2] += 1
        if p < 0:
            top += dur[i]
        path.append((i, key))
        depth[key] += 1
    return out, top
