"""Correctness gate: an independent reference and the per-output checks.

The reference is computed once per seed, outside any timed region, from
the edge-list file alone (numpy parsing, scipy sparse algebra), so it
shares no code with the program's readers, orderings or engines.  With
``L`` the strictly upper-triangular adjacency matrix, the masked product
``(L @ L) .* L`` holds at ``(a, c)`` the number of triangles
``a < b < c`` closing the edge ``(a, c)``; its sum is the triangle count.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

SHM_DIR = "/dev/shm"
#: Name prefix of ``multiprocessing.shared_memory`` segments.
SHM_PREFIX = "psm_"


def reference(path: str) -> dict[str, np.ndarray]:
    """Triangle count and per-edge completion counts of the file's graph."""
    from scipy import sparse

    edges = np.loadtxt(path, dtype=np.int64, comments=("#", "%"), ndmin=2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    n = int(hi.max()) + 1 if len(hi) else 1
    edge_keys = np.unique(lo * n + hi)
    lo, hi = np.divmod(edge_keys, n)
    upper = sparse.csr_matrix(
        (np.ones(len(edge_keys), dtype=np.int64), (lo, hi)), shape=(n, n))
    closing = (upper @ upper).multiply(upper).tocoo()
    keys = closing.row.astype(np.int64) * n + closing.col
    counts = np.asarray(closing.data, dtype=np.int64)
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    nonzero = counts > 0
    return {
        "n": np.int64(n),
        "edge_keys": edge_keys,
        "keys": keys[nonzero],
        "counts": counts[nonzero],
        "triangles": np.int64(counts.sum()),
    }


def check_count(ref: dict[str, np.ndarray], triangles: int) -> str | None:
    """``None`` if *triangles* matches the reference, else the reason."""
    expected = int(ref["triangles"])
    if triangles != expected:
        return f"triangle count {triangles} != reference {expected}"
    return None


def check_listing(ref: dict[str, np.ndarray],
                  listing: Sequence[tuple[int, int, int]],
                  mapping: np.ndarray) -> str | None:
    """Check a listing in relabeled ids against the reference.

    Every listed triangle must be distinct and made of input edges, and
    the per-edge completion counts must equal the masked product.
    """
    reason = check_count(ref, len(listing))
    if reason is not None:
        return reason
    n = int(ref["n"])
    inverse = np.empty(len(mapping), dtype=np.int64)
    inverse[mapping] = np.arange(len(mapping), dtype=np.int64)
    tri = np.sort(inverse[np.asarray(listing, dtype=np.int64).reshape(-1, 3)],
                  axis=1)
    if len(np.unique((tri[:, 0] * n + tri[:, 1]) * n + tri[:, 2])) != len(tri):
        return "a triangle is listed more than once"
    edge_keys = ref["edge_keys"]
    for i, j in ((0, 1), (1, 2), (0, 2)):
        keys = tri[:, i] * n + tri[:, j]
        at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        if len(keys) and not np.array_equal(edge_keys[at], keys):
            return "a listed triangle uses a pair that is not an input edge"
    keys, counts = np.unique(tri[:, 0] * n + tri[:, 2], return_counts=True)
    if not (np.array_equal(keys, ref["keys"])
            and np.array_equal(counts, ref["counts"])):
        return "per-edge completion counts differ from the reference"
    return None


def shm_segments() -> set[str]:
    """Shared-memory segment names currently present."""
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()
