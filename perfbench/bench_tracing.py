"""Outside-in tracing of ssbmf.

The tracer replaces public functions of ssbmf at the names their callers look
up (``ssbmf.jennrich.union_block`` is the name ``extend_from_anchors`` calls,
``ssbmf.tensor_recover`` the one the benchmark calls) with wrappers that
record a span per call: name, start, end and parent span.  Spans stay in
memory and are written out when the run ends.  The program itself is not
changed; ``installed()`` restores every attribute it replaced.

A name that no longer exists (after a later refactor) is skipped, and every
metric fed by it is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _gram_counts(bound, M):
    # Sized for both the tuple of big-ints and a packed array of words.
    bits = M.bits
    nbytes = bits.nbytes if hasattr(bits, "nbytes") else sum(sys.getsizeof(b) for b in bits)
    return {"mb": nbytes / 2 ** 20}


def _union_counts(bound, out):
    return {"pairs": out.size, "bits": out.size * bound.arguments["M"].m}


def _build_counts(bound, T):
    n0 = T.block.shape[0] if T.block is not None else 0
    return {"slices": n0, "flops": 2 * n0 ** 3 * T.m}


def _recover_counts(bound, res):
    return {"retries": res.diagnostics.get("retries", 0)}


def _extend_counts(bound, W):
    return {"rows": W.m - len(bound.arguments["anchor_indices"])}


def _solve_counts(bound, assignment):
    return {"value": assignment.value, "edges": bound.arguments["inst"].n_edges}


_ABSENT = object()  # marks an attribute inherited rather than set on its owner


@dataclass(frozen=True)
class Target:
    """A name to wrap: attribute ``attr`` of the module or class ``owner``."""

    owner: str
    attr: str
    span: str
    count: Callable = None  # (bound arguments, result) -> {count name: number}


TARGETS = (
    Target("ssbmf", "gen_selection_matrix", "instance.gen"),
    Target("ssbmf.recover", "gen_selection_matrix", "instance.gen"),
    Target("ssbmf", "gram", "instance.gram", _gram_counts),
    Target("ssbmf.recover", "gram", "instance.gram", _gram_counts),
    Target("ssbmf.jennrich", "factorization_error", "instance.verify"),
    Target("ssbmf.jennrich", "union_block", "mu.union_block", _union_counts),
    Target("ssbmf", "build_tensor", "tensor.build", _build_counts),
    Target("ssbmf.jennrich", "build_tensor", "tensor.build", _build_counts),
    Target("ssbmf.tensor.IntersectionTensor", "entry", "tensor.entry"),
    Target("ssbmf", "tensor_recover", "jennrich.recover", _recover_counts),
    Target("ssbmf.recover", "tensor_recover", "jennrich.recover", _recover_counts),
    Target("ssbmf.jennrich", "jennrich_decompose", "jennrich.decompose"),
    Target("ssbmf.jennrich", "round_boolean", "jennrich.round"),
    Target("ssbmf.jennrich", "extend_from_anchors", "jennrich.extend", _extend_counts),
    Target("ssbmf", "gen_instahide", "recover.gen_instahide"),
    Target("ssbmf", "recover_dataset", "recover.dataset"),
    Target("ssbmf.recover", "get_heavy_coordinates", "recover.heavy"),
    Target("ssbmf.csp", "reduce_symmetric", "csp.reduce"),
    Target("ssbmf.csp", "solve_local", "csp.solve_local", _solve_counts),
    Target("ssbmf.probes", "singularity_experiment", "probes.singularity"),
    Target("ssbmf.probes", "rank_report", "probes.rank_report"),
)


def _resolve(dotted: str):
    """Module or class named by a dotted path, or None if it does not exist."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; wraps the target names while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._stack = []
        self.missing = sorted({f"{t.owner}.{t.attr}" for t in targets
                               if not callable(getattr(_resolve(t.owner), t.attr, None))})

    @property
    def missing_spans(self) -> set:
        return {t.span for t in self.targets if f"{t.owner}.{t.attr}" in self.missing}

    @contextmanager
    def span(self, name):
        sp = Span(len(self.spans), self._stack[-1].id if self._stack else -1,
                  name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def _wrap(self, target, fn):
        sig = inspect.signature(fn) if target.count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(target.span) as sp:
                result = fn(*args, **kwargs)
            if sig is not None:
                sp.counts = target.count(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore all of them on exit."""
        saved = []
        try:
            for t in self.targets:
                owner = _resolve(t.owner)
                fn = getattr(owner, t.attr, None)
                if not callable(fn):
                    continue
                saved.append((owner, t.attr, owner.__dict__.get(t.attr, _ABSENT)))
                setattr(owner, t.attr, self._wrap(t, fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Span id -> duration minus the time covered by its direct children."""
        out = {sp.id: sp.end - sp.start for sp in self.spans}
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.end - sp.start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": s.id, "parent": s.parent, "name": s.name,
                        "start": s.start, "end": s.end, "counts": s.counts}
                       for s in self.spans], fh)
            fh.write("\n")


# (metric, unit, span, what): ``what`` is "self_s" (self time), "calls", a
# count name, or a (numerator, denominator) pair of count names.  Values are
# per job, except ratios, which are taken over the whole run.
LAYER_METRICS = (
    ("instance.gen_s", "s", "instance.gen", "self_s"),
    ("instance.gram_s", "s", "instance.gram", "self_s"),
    ("instance.gram_mb", "MB", "instance.gram", "mb"),
    ("instance.verify_s", "s", "instance.verify", "self_s"),
    ("mu.union_block_s", "s", "mu.union_block", "self_s"),
    ("mu.union_block_pairs", "count", "mu.union_block", "pairs"),
    ("mu.union_block_bits", "count", "mu.union_block", "bits"),
    ("tensor.build_s", "s", "tensor.build", "self_s"),
    ("tensor.build_slices", "count", "tensor.build", "slices"),
    ("tensor.build_flops", "count", "tensor.build", "flops"),
    ("tensor.entry_s", "s", "tensor.entry", "self_s"),
    ("tensor.entry_calls", "count", "tensor.entry", "calls"),
    ("jennrich.recover_s", "s", "jennrich.recover", "self_s"),
    ("jennrich.decompose_s", "s", "jennrich.decompose", "self_s"),
    ("jennrich.decompose_retries", "count", "jennrich.recover", "retries"),
    ("jennrich.round_s", "s", "jennrich.round", "self_s"),
    ("jennrich.extend_self_s", "s", "jennrich.extend", "self_s"),
    ("jennrich.extend_rows", "count", "jennrich.extend", "rows"),
    ("recover.gen_instahide_s", "s", "recover.gen_instahide", "self_s"),
    ("recover.dataset_self_s", "s", "recover.dataset", "self_s"),
    ("recover.heavy_s", "s", "recover.heavy", "self_s"),
    ("recover.heavy_columns", "count", "recover.heavy", "calls"),
    ("csp.reduce_s", "s", "csp.reduce", "self_s"),
    ("csp.solve_local_s", "s", "csp.solve_local", "self_s"),
    ("csp.value_frac", "ratio", "csp.solve_local", ("value", "edges")),
    ("probes.singularity_s", "s", "probes.singularity", "self_s"),
    ("probes.rank_report_s", "s", "probes.rank_report", "self_s"),
    ("probes.rank_report_calls", "count", "probes.rank_report", "calls"),
)


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics over the tracer's spans; absent when a name was missing."""
    selfs = tracer.self_times()
    totals = {}
    for sp in tracer.spans:
        acc = totals.setdefault(sp.name, {"self_s": 0.0, "calls": 0})
        acc["self_s"] += selfs[sp.id]
        acc["calls"] += 1
        for key, value in sp.counts.items():
            acc[key] = acc.get(key, 0) + value
    out = {}
    for name, unit, span, what in LAYER_METRICS:
        if span in tracer.missing_spans:
            continue
        acc = totals.get(span, {})
        if isinstance(what, tuple):
            num, den = acc.get(what[0], 0), acc.get(what[1], 0)
            value = num / den if den else 0.0
        else:
            value = acc.get(what, 0) / jobs
        out[name] = {"value": value, "unit": unit}
    return out
