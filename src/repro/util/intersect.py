"""Sorted-list intersection kernels with operation accounting.

Triangulation cost in the paper is measured in adjacency-list intersection
operations: intersecting ``n_succ(u)`` with ``n_succ(v)`` using an O(1) hash
costs ``min(|n_succ(u)|, |n_succ(v)|)`` probes (Eq. 3 of the paper).  The
fast path used by the OPT plugins and the other numpy engines is
:func:`intersect_sorted`, which delegates to ``numpy.intersect1d`` and
*charges* the analytic probe count via :func:`intersect_count_ops` — this
keeps the Python implementation fast while the cost model matches the
paper exactly.

Three reference kernels (merge, hash, gallop) are provided as executable
specifications; they return their own measured operation counts.  The
engines' kernel catalogue lives in :mod:`repro.exec.kernels`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "gallop_intersect",
    "hash_intersect",
    "intersect_count_ops",
    "intersect_sorted",
    "merge_intersect",
]


#: Relative cost of one random hash membership probe versus one step of a
#: cache-friendly sorted intersection.  The vertex-iterator's edge checks
#: are random probes; charging them double reproduces the paper's
#: observation that VertexIterator≻ runs ~20% slower than EdgeIterator≻
#: despite equal asymptotic complexity (Section 5.3).
HASH_PROBE_COST = 2


def intersect_count_ops(len_a: int, len_b: int) -> int:
    """Analytic probe count for intersecting two sorted lists via hashing.

    This is the paper's cost measure ``min(|a|, |b|)`` (Eq. 3); both the
    cost analysis (Section 3.3) and the simulated engines charge this.
    """
    return min(len_a, len_b)


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted, duplicate-free integer arrays.

    Returns a sorted array of the common elements.  This is the hot path;
    it assumes (and does not validate) sortedness.
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, dtype=a.dtype if len(a) else b.dtype)
    return np.intersect1d(a, b, assume_unique=True)


def merge_intersect(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Textbook two-pointer merge intersection.

    Returns ``(result, ops)`` where ``ops`` counts element comparisons.
    """
    result: list[int] = []
    i = j = ops = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        ops += 1
        if a[i] == b[j]:
            result.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return result, ops


def hash_intersect(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Hash-probe intersection: probe the shorter list into the longer set.

    Returns ``(result, ops)`` where ``ops`` counts hash probes — this is
    exactly ``min(|a|, |b|)``, the paper's cost measure.  The result is
    sorted (inputs are sorted, and we scan the shorter input in order).
    """
    if len(a) > len(b):
        a, b = b, a
    lookup = set(b)
    result = [x for x in a if x in lookup]
    return result, len(a)


def gallop_intersect(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Galloping (exponential search) intersection.

    Efficient when ``len(a) << len(b)``; backs the ``gallop`` exec kernel.
    Returns ``(result, ops)`` where ``ops`` counts comparisons.
    """
    if len(a) > len(b):
        a, b = b, a
    result: list[int] = []
    ops = 0
    lo = 0
    len_b = len(b)
    for x in a:
        # Gallop forward to bracket x, then binary search the bracket.
        step = 1
        hi = lo
        while hi < len_b and b[hi] < x:
            ops += 1
            lo = hi
            hi += step
            step *= 2
        hi = min(hi, len_b)
        while lo < hi:
            ops += 1
            mid = (lo + hi) // 2
            if b[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        if lo < len_b and b[lo] == x:
            result.append(x)
            lo += 1
        ops += 1
    return result, ops
