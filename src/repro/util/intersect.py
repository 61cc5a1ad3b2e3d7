"""Reference intersection kernels with measured operation counts.

Triangulation cost in the paper is measured in adjacency-list intersection
operations: intersecting ``n_succ(u)`` with ``n_succ(v)`` using an O(1) hash
costs ``min(|n_succ(u)|, |n_succ(v)|)`` probes (Eq. 3 of the paper).  The
one data path that charges it is the ``hash`` kernel binding in
:mod:`repro.exec.kernels`, which every engine, the OPT plugins, the
baselines and the clique counters run.

The three kernels here (merge, hash, gallop) are executable
specifications over plain sequences; each returns its own measured
operation count.  ``merge`` and ``gallop`` back the exec kernels of the
same names, and the tests check the ``hash`` binding against
:func:`hash_intersect`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "gallop_intersect",
    "hash_intersect",
    "merge_intersect",
]


#: Relative cost of one random hash membership probe versus one step of a
#: cache-friendly sorted intersection.  The vertex-iterator's edge checks
#: are random probes; charging them double reproduces the paper's
#: observation that VertexIterator≻ runs ~20% slower than EdgeIterator≻
#: despite equal asymptotic complexity (Section 5.3).
HASH_PROBE_COST = 2


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
