"""The three protocols composed by :func:`repro.exec.compose`.

Each protocol is deliberately tiny — the composition layer only needs
the operations the edge-iterator loop actually performs — so existing
subsystems (:class:`repro.graph.graph.Graph`,
:class:`repro.parallel.shm.SharedCSR`,
:class:`repro.storage.layout.GraphStore`) adapt to them with a few
lines rather than a rewrite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.shm import CSRHandle

__all__ = ["Executor", "IntersectFn", "Kernel", "Source", "SourceHandle"]


#: A bound intersection function: ``(prepped_a, b) -> (common, ops)``.
#: ``common`` is a sequence of vertex ids in ascending order; ``ops`` is
#: the operation count the kernel charges for this pair (Eq. 3 for the
#: analytic kernels, measured comparisons for the reference kernels).
IntersectFn = Callable[[object, np.ndarray], tuple[Sequence[int], int]]


@runtime_checkable
class SourceHandle(Protocol):
    """An open source: successor-list reads plus worker/process hooks."""

    @property
    def num_vertices(self) -> int: ...

    def succ(self, u: int) -> np.ndarray:
        """Sorted successor ids of *u* (``id(w) > id(u)``)."""
        ...

    def fork_local(self) -> "SourceHandle":
        """A handle safe for an additional worker thread.

        Sources whose read path is thread-safe (immutable numpy views)
        return ``self``; the paged-disk source returns a fresh reader
        with its own buffer over the same immutable page sequence.
        """
        ...

    def csr_handle(self) -> "CSRHandle | None":
        """Picklable cross-process descriptor, or ``None``.

        Only shareable sources (the shared-memory CSR) return one; the
        process executor refuses sources that return ``None``.
        """
        ...

    def io_stats(self) -> dict[str, int]:
        """Page-level I/O counters accumulated by this handle."""
        ...


@runtime_checkable
class Source(Protocol):
    """A graph residence: opens into a :class:`SourceHandle`."""

    name: str
    #: Whether a forked worker process can attach the data zero-copy.
    shareable: bool

    def open(self) -> "SourceContext": ...


class SourceContext(Protocol):
    """Context manager yielded by :meth:`Source.open`."""

    def __enter__(self) -> SourceHandle: ...

    def __exit__(self, *exc_info: object) -> object: ...


@runtime_checkable
class Kernel(Protocol):
    """A per-pair intersection strategy with op accounting."""

    name: str

    def bind(self, num_vertices: int) -> "KernelBinding":
        """Scratch state (e.g. the hash kernel's mask) sized for one graph."""
        ...


class KernelBinding(Protocol):
    """Kernel state bound to one graph; drives the inner loop."""

    name: str

    def prep(self, row: np.ndarray) -> object:
        """Per-``u`` preparation of the outer successor list."""
        ...

    def intersect(self, prepped: object, row: np.ndarray) -> tuple[Sequence[int], int]:
        """``(common, ops)`` for one ``n_succ(u) ∩ n_succ(v)`` pair."""
        ...


@runtime_checkable
class Executor(Protocol):
    """An execution strategy over vertex ranges of a source."""

    name: str
    #: ``True`` when the executor forks and therefore needs a source
    #: whose handle exposes a picklable :meth:`SourceHandle.csr_handle`.
    requires_shareable: bool

    def execute(self, source: Source, kernel: Kernel, *, collect: bool,
                attribution: object | None = None) -> "EngineOutcome":  # noqa: F821
        ...
