"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces chosen functions and methods with wrappers that time
each call on a stack of open spans. A layer's self time is its spans'
duration minus the part their child spans cover; the time the tracer
spends on its own bookkeeping is charged to no layer. Names are patched
where callers look them up: ``cobar`` imports ``cohomology_dim`` and
``element_label`` by name, so those are patched on ``cobar``.
"""

from __future__ import annotations

import functools
import time

from cobarext import cli, cobar, hopf, xadic
from cobarext.f2linalg import F2Matrix


def _nnz(m: F2Matrix) -> int:
    return sum(r.bit_count() for r in m.row_bits)


def _fresh(cache_attr: str):
    """Pre-hook for a memoized SliceComplex method: True when slice s is not
    in the complex's memo yet, so this call does the work its count measures.
    It reads the memo dict from outside; a missing dict counts every call."""
    return lambda args: args[1] not in getattr(args[0], cache_attr, {})


# (owner, attribute, layer, pre-hook, count); count(args, result, pre)
# returns the work the call did in the layer's own unit
TARGETS = [
    (F2Matrix, "kernel_basis", "f2linalg.kernel", None,
     lambda args, res, pre: args[0].rows * args[0].cols),
    (F2Matrix, "rank", "f2linalg.rank", None, None),
    (F2Matrix, "mul", "f2linalg.mul", None, None),
    (cobar, "cohomology_dim", "f2linalg.cohomology", None, None),
    (cobar.SliceComplex, "words", "cobar.words", _fresh("_words"),
     lambda args, res, pre: len(res) if pre else 0),
    (cobar.SliceComplex, "matrix", "cobar.assemble", _fresh("_matrices"),
     lambda args, res, pre: _nnz(res) if pre else 0),
    (cobar, "ext_dim", "cobar.ext_dim", None, None),
    (cobar, "_truncation_map", "cobar.tower_map", None, None),
    (cobar, "_image_in_lower", "cobar.tower_map", None, lambda args, res, pre: 1),
    (xadic, "einfty_basis", "xadic.closed_form", None,
     lambda args, res, pre: len(res)),
    (xadic, "completed_basis", "xadic.closed_form", None,
     lambda args, res, pre: len(res)),
    (hopf, "check_axioms", "hopf.axioms", None, None),
    (cobar, "element_label", "grading.label", None, None),
    (cli, "main", "cli.main", None, None),
]


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, layer, pre, count in TARGETS:
            self.self_s.setdefault(layer, 0.0)
            self.calls.setdefault(layer, 0)
            self.counts.setdefault(layer, 0)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, pre, count))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, layer, pre, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            fresh = pre(args) if pre is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[0]
                self.calls[layer] += 1
            if count is not None:
                self.counts[layer] += count(args, result, fresh)
            if stack:
                stack[-1][0] += clock() - entered
            return result

        return wrapper
