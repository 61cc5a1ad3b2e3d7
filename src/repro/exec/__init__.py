"""The Executor × Kernel × Source composition layer.

Every triangulation path in this repository is, structurally, the same
computation: enumerate edges ``(u, v)`` with ``u`` preceding ``v``,
intersect the successor lists, emit the completions.  What actually
varies is three independent axes (the factorization the paper itself
uses — iterator model × internal/external split × buffer policy, plus
the intersection kernel):

* **Source** — where successor lists come from: an in-memory CSR, a
  shared-memory CSR attachable across processes, or a paged disk store
  read through a buffer manager (:mod:`repro.exec.sources`);
* **Kernel** — how two sorted lists are intersected and how the
  operation count is charged: the paper's Eq. 3 hash probes (over a
  dense membership mask), or the two-pointer merge and galloping
  reference kernels with their measured comparison counts
  (:mod:`repro.exec.kernels`);
* **Executor** — who drives the vertex ranges: a serial loop, a thread
  pool, or a forked process pool over shared memory
  (:mod:`repro.exec.executors`).

:func:`compose` assembles one cell of that cube into an
:class:`Engine`; :mod:`repro.exec.registry` names every axis member,
declares which cells are valid (and why the rest are not), and feeds
both the generated scenario-matrix test grid
(``tests/test_scenario_matrix.py``) and ``repro verify``.  The
``engine-composition`` lint rule closes the loop: a triangulation entry
point that is not registered here fails static analysis, so no engine
can silently escape the differential harness.
"""

from repro.exec.engine import Engine, EngineOutcome, compose, run_range, split_ranges
from repro.exec.executors import ProcessExecutor, SerialExecutor, ThreadedExecutor
from repro.exec.kernels import GallopKernel, HashKernel, Kernel, MergeKernel
from repro.exec.protocols import Executor, Source, SourceHandle
from repro.exec.registry import (
    EXECUTORS,
    KERNELS,
    REGISTERED_ENTRY_POINTS,
    SOURCES,
    CellSpec,
    cell_validity,
    iter_cells,
    make_executor,
    make_kernel,
    make_source,
    valid_cells,
)
from repro.exec.sources import DiskSource, MemorySource, SharedMemorySource

__all__ = [
    "CellSpec",
    "DiskSource",
    "EXECUTORS",
    "Engine",
    "EngineOutcome",
    "Executor",
    "GallopKernel",
    "HashKernel",
    "KERNELS",
    "Kernel",
    "MemorySource",
    "MergeKernel",
    "ProcessExecutor",
    "REGISTERED_ENTRY_POINTS",
    "SOURCES",
    "SerialExecutor",
    "SharedMemorySource",
    "Source",
    "SourceHandle",
    "ThreadedExecutor",
    "cell_validity",
    "compose",
    "iter_cells",
    "make_executor",
    "make_kernel",
    "make_source",
    "run_range",
    "split_ranges",
    "valid_cells",
]
