"""Spans, counters and memory peaks recorded from outside pslab.

Wrappers are installed on the name each importing module actually binds
(``experiments.floor_pow_bulk``, ``psprimes.is_ps_value``, the methods of
``VaalerKernel`` ...), so a call made inside pslab is seen exactly where it
happens.  ``installed`` restores every original on exit.

Spans live in memory as four parallel arrays (name, parent, start, end) and
are written out once, at the end of the pass.  Self time is a span's
duration minus the durations of its direct children; spans on one thread
nest, so the children never overlap.
"""
from __future__ import annotations

import contextlib
import json
import threading
import time
import tracemalloc
from array import array
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


class SpanRecorder:
    """Spans and counters of one pass; every span carries the pass id."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap_span(self, fn: Callable, name: str | Callable, after: Callable | None = None):
        """fn, recorded as a span; ``name`` may derive the span name from the
        arguments, ``after(recorder, args, result)`` adds counters."""
        rec = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != rec._thread:
                rec.count("trace.offthread_calls")
                return fn(*args, **kwargs)
            idx = rec._open(name if isinstance(name, str) else name(args, kwargs))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec.start[idx] = t0
                rec._stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def wrap_count(self, fn: Callable, name: str):
        rec = self

        def wrapper(*args, **kwargs):
            rec.counters[name] = rec.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived numbers ---------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        selft = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"s": float(dur[sel].sum()), "self_s": float(selft[sel].sum()),
                         "calls": int(sel.sum())}
        return out

    def with_descendant(self, outer: str, inner: str) -> int:
        """How many ``outer`` spans contain an ``inner`` span."""
        if outer not in self._name_ids or inner not in self._name_ids:
            return 0
        a = self.arrays()
        oid, iid = self._name_ids[outer], self._name_ids[inner]
        hit = set()
        for i in np.flatnonzero(a["name"] == iid):
            p = int(a["parent"][i])
            while p >= 0:
                if a["name"][p] == oid:
                    hit.add(p)
                p = int(a["parent"][p])
        return len(hit)

    def top_level_s(self) -> float:
        a = self.arrays()
        top = a["parent"] < 0
        return float((a["end"][top] - a["start"][top]).sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 pass_id=np.array(self.pass_id), **self.arrays())


class PeakRecorder:
    """tracemalloc peak of each wrapped call, in bytes, max over calls.

    Tracing starts at call entry and stops at exit, so the rest of the pass
    runs untraced; a wrapped call nested in another is not measured.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}

    def wrap_peak(self, fn: Callable, name: str):
        peaks = self.peaks

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return wrapper


# ---------------------------------------------------------------------------
# where the wrappers go
# ---------------------------------------------------------------------------

def _after_bulk(rec: SpanRecorder, args, result) -> None:
    rec.count("pscore.floor_pow_bulk.elems", int(np.asarray(args[0]).size))


def _after_sieve(rec: SpanRecorder, args, result) -> None:
    if result.spf is not None:
        rec.count("arith.primes_up_to.spf_bytes", int(result.spf.nbytes))


def _eval_sum_name(args, kwargs) -> str:
    return f"expsum.eval_sum.t{kwargs.get('threads', args[1] if len(args) > 1 else 1)}"


def span_targets():
    """(owner, attribute, span name, after-hook) for every span wrapper."""
    from pslab import arith, carmichael, experiments, expsum, pscore, psprimes, sawtooth

    t = []
    for h in ("squarefree_density", "chebyshev_sum", "large_pf_exceed", "residue_equidistribution"):
        t.append((experiments, h, f"experiments.{h}", None))
    for mod in (experiments, pscore):
        t.append((mod, "floor_pow_bulk", "pscore.floor_pow_bulk", _after_bulk))
    t.append((experiments, "is_squarefree_bulk", "arith.is_squarefree_bulk", None))
    for mod in (arith, experiments, psprimes, carmichael):
        t.append((mod, "primes_up_to", "arith.primes_up_to", _after_sieve))
    for mod in (arith, experiments, carmichael):
        t.append((mod, "factorize", "arith.factorize", None))
    for mod in (psprimes, carmichael):
        t.append((mod, "is_ps_value", "pscore.is_ps_value", None))
    t.append((pscore, "count_decomposition", "pscore.count_decomposition", None))
    for h in ("ps_primes_up_to", "ap_main_term", "brun_titchmarsh_report"):
        t.append((psprimes, h, f"psprimes.{h}", None))
    for h in ("carmichael_numbers_up_to", "search_ps_carmichael"):
        t.append((carmichael, h, f"carmichael.{h}", None))
    for m in ("approx", "majorant"):
        t.append((sawtooth.VaalerKernel, m, f"sawtooth.VaalerKernel.{m}", None))
    t.append((sawtooth, "erdos_turan_rhs", "sawtooth.erdos_turan_rhs", None))
    t.append((expsum, "eval_sum", _eval_sum_name, None))
    return t


def count_targets():
    """(owner, attribute, counter name): exact big-int fallbacks of
    floor_pow_bulk and the large-cofactor primality tests of factorize."""
    from pslab import arith, pscore

    return [(pscore, "floor_pow", "pscore.floor_pow.calls"),
            (arith, "is_prime", "arith.is_prime.calls")]


def peak_targets():
    """(owner, attribute, layer) for the array-building calls."""
    from pslab import arith, carmichael, experiments, pscore, psprimes, sawtooth

    t = [(sawtooth.VaalerKernel, "approx", "sawtooth.VaalerKernel.approx"),
         (sawtooth.VaalerKernel, "majorant", "sawtooth.VaalerKernel.majorant"),
         (sawtooth, "erdos_turan_rhs", "sawtooth.erdos_turan_rhs"),
         (experiments, "is_squarefree_bulk", "arith.is_squarefree_bulk")]
    for mod in (arith, experiments, psprimes, carmichael):
        t.append((mod, "primes_up_to", "arith.primes_up_to"))
    for mod in (experiments, pscore):
        t.append((mod, "floor_pow_bulk", "pscore.floor_pow_bulk"))
    return t


@contextlib.contextmanager
def installed(patches: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each owner.attribute to its wrapper; put the originals back."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def span_patches(rec: SpanRecorder) -> list:
    patches = [(o, a, rec.wrap_span(getattr(o, a), n, after)) for o, a, n, after in span_targets()]
    patches += [(o, a, rec.wrap_count(getattr(o, a), n)) for o, a, n in count_targets()]
    return patches


def peak_patches(rec: PeakRecorder) -> list:
    return [(o, a, rec.wrap_peak(getattr(o, a), n)) for o, a, n in peak_targets()]
