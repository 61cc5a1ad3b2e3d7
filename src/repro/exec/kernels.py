"""Intersection kernels: the Kernel axis of the composition layer.

Three strategies, all operating on sorted duplicate-free id arrays and
all returning ``(common, ops)``:

* ``hash`` — the paper's Eq. 3 kernel, charged the analytic hash-probe
  count ``min(|a|, |b|)``.  Its binding owns a dense boolean mask over
  the vertex space: each pair marks the longer list, probes the shorter
  against the mask, and unmarks — one O(1) membership test per
  shorter-side member, exactly the probes Eq. 3 charges.
* ``merge`` — two-pointer merge; charges measured element comparisons.
* ``gallop`` — exponential search; efficient under degree skew.
  Charges measured comparisons.

``merge`` and ``gallop`` are the reference kernels of the op-count
ablation.  ``hash`` is the one Eq. 3 intersection path: the exec
engines, the OPT EdgeIterator≻ plugins, the CC / GraphChi baselines and
the clique counters all bind it once per run.  ``bitmap`` is the
dense-mask path's former name, still registered as an alias of ``hash``
(:class:`BitmapAlias`): same binding, charge and listing.

Kernels are stateless and picklable by *name* (the process executor
re-resolves them in workers via :mod:`repro.exec.registry`); per-graph
scratch state lives in the binding returned by ``bind()``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.intersect import gallop_intersect, merge_intersect

__all__ = ["BitmapAlias", "GallopKernel", "HashKernel", "Kernel", "MergeKernel"]


class Kernel:
    """Base: a named intersection strategy.

    Subclasses override :meth:`bind` (stateful kernels) or
    :meth:`_intersect` (stateless ones).
    """

    name = "abstract"

    def bind(self, num_vertices: int) -> "KernelBinding":
        return KernelBinding(self)

    def _intersect(self, a, b: np.ndarray) -> tuple[Sequence[int], int]:
        raise NotImplementedError

    def _prep(self, row: np.ndarray):
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}>"


class KernelBinding:
    """Default binding: delegate straight to the kernel's methods.

    Bindings carry their kernel's ``name`` so attribution scopes can be
    labelled from whichever object a caller holds.
    """

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self.name = kernel.name

    def prep(self, row: np.ndarray):
        return self._kernel._prep(row)

    def intersect(self, prepped, row: np.ndarray) -> tuple[Sequence[int], int]:
        return self._kernel._intersect(prepped, row)


class HashKernel(Kernel):
    """Dense-mask membership probes with the analytic Eq. 3 charge."""

    name = "hash"

    def bind(self, num_vertices: int) -> "KernelBinding":
        return _HashBinding(self, num_vertices)


class BitmapAlias(HashKernel):
    """``bitmap``: the hash kernel under the name its data path had
    before the two kernels were folded into one."""

    name = "bitmap"


class _HashBinding:
    """A dense membership mask over the vertex space.

    The mask is single-thread scratch: two threads sharing it would see
    each other's marks as phantom members, so every thread that
    intersects owns its own binding.  It is clean between calls.
    """

    def __init__(self, kernel: HashKernel, num_vertices: int):
        self.name = kernel.name
        self._mask = np.zeros(num_vertices, dtype=bool)

    def prep(self, row: np.ndarray) -> np.ndarray:
        return row

    def intersect(self, a: np.ndarray, b: np.ndarray) -> tuple[Sequence[int], int]:
        if len(a) == 0 or len(b) == 0:
            return (), 0
        shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
        mask = self._mask
        mask[longer] = True
        common = shorter[mask[shorter]]
        mask[longer] = False
        return common, len(shorter)


class MergeKernel(Kernel):
    """Two-pointer merge over python lists; measured comparison count."""

    name = "merge"

    def _prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def _intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return merge_intersect(a, b.tolist())


class GallopKernel(Kernel):
    """Galloping/exponential search; measured comparison count."""

    name = "gallop"

    def _prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def _intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return gallop_intersect(a, b.tolist())
