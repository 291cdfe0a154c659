"""Outside-in tracer: spans around calls into adoptindex's public functions.

The program carries no instrumentation of its own, so the tracer replaces
each target function with a timing wrapper wherever a module of the
package binds it. Modules import these names with ``from .x import f``,
so one function usually has several bindings (``estimate_moments`` lives
in ``estimation`` and is bound again in ``cli``, ``inference``,
``simulation`` and the package itself); every binding is patched, and
``uninstall`` puts every original back.

Spans stay in memory as ``(name, start_ns, end_ns, parent, op, rows)``;
``parent`` is the index of the enclosing span (-1 for a root) and ``op``
numbers the top-level operation the span belongs to. ``summarize`` turns
a saved span table into per-layer totals, self times and counts.

A target that no longer exists is skipped, so a function removed by a
later change reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "adoptindex"

# (span name, module, attribute or Class.method, rows counted per call)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.load_spec", "cli", "load_spec", None),
    ("cli.load_dataset", "cli", "load_dataset", None),
    ("cli.emit", "cli", "emit", None),
    ("domain.validate_dataset", "domain", "validate_dataset", None),
    ("domain.shift_stages", "domain", "shift_stages", None),
    ("domain.without_row", "domain", "AdoptionDataset.without_row", lambda a, kw: a[0].n),
    ("domain.AdoptionDataset.__post_init__", "domain", "AdoptionDataset.__post_init__", None),
    ("estimation.estimate_moments", "estimation", "estimate_moments", None),
    ("estimation.MomentEstimate.__post_init__", "estimation", "MomentEstimate.__post_init__", None),
    ("index.global_index", "index", "global_index", None),
    ("index.delta_gradient", "index", "delta_gradient", None),
    ("inference.index_variance", "inference", "index_variance", None),
    ("inference.VarianceEstimate.__post_init__", "inference", "VarianceEstimate.__post_init__", None),
    ("inference.confidence_interval", "inference", "confidence_interval", None),
    ("inference.one_sample_test", "inference", "one_sample_test", None),
    ("inference.two_sample_test", "inference", "two_sample_test", None),
    ("tdist.student_t_pvalue", "tdist", "student_t_pvalue", None),
    ("tdist.student_t_quantile", "tdist", "student_t_quantile", None),
    ("simulation.run_study", "simulation", "run_study", None),
    (
        "simulation.sample_dataset", "simulation", "sample_dataset",
        lambda a, kw: a[2] if len(a) > 2 else kw.get("n", 0),
    ),
    ("simulation.population_asymptotic_variance", "simulation",
     "population_asymptotic_variance", None),
)

LAYERS = ("cli", "domain", "estimation", "index", "inference", "tdist", "simulation")


def package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bindings_snapshot() -> dict:
    """Identity of every module attribute and class attribute in the package."""
    snap = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = id(cvalue)
    return snap


class Tracer:
    def __init__(self) -> None:
        self.names = ["bench"] + [t[0] for t in TARGETS]
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, rows_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows = rows_of(args, kwargs) if rows_of is not None else 0
                spans[idx] = (name_id, start, end, parent, self._op, rows)

        functools.update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for name_id, (_, module, attr, rows_of) in enumerate(TARGETS, start=1):
            home = sys.modules.get(f"{PACKAGE}.{module}")
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue
                self._patch(cls, method, self._wrap(name_id, vars(cls)[method], rows_of))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name_id, original, rows_of)
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound_name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Root span for one top-level operation; child spans share its op id."""
        self._op += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, self._op, 0)

    def save(self, path: str) -> None:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez(path, table=table, names=np.array(self.names))


def summarize(path: str) -> dict[str, float]:
    """Per-span totals from a saved trace, plus per-module self times.

    Keys: ``<span>.s`` (wall time, recursive calls counted once),
    ``<span>.self_s`` (minus direct children), ``<span>.calls``,
    ``<span>.rows``, ``<layer>.self_s`` for each layer, and ``bench.self_s``
    for time inside root spans that no traced layer covers. Times are in
    seconds, summed over the whole trace.
    """
    with np.load(path) as data:
        table, names = data["table"], [str(n) for n in data["names"]]
    name_id, start, end, parent, rows = (table[:, i] for i in (0, 1, 2, 3, 5))
    dur = (end - start).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    outermost = parent_name != name_id
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        mine = name_id == i
        out[f"{name}.s"] = float(dur[mine & outermost].sum())
        out[f"{name}.self_s"] = float(self_time[mine].sum())
        out[f"{name}.calls"] = float(mine.sum())
        out[f"{name}.rows"] = float(rows[mine].sum())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            out[f"{n}.self_s"] for n in names[1:] if n.split(".")[0] == layer
        )
    return out
