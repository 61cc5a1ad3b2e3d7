"""The generated Source × Kernel × Executor differential grid.

Every cell of the composition cube runs against every zoo member (plus
extra seeds of the random families) and must reproduce the brute-force
oracle's triangle listing *exactly* — not just the count — while
charging exactly the op total of the serial in-memory reference for the
same kernel (the conservation property: per-pair charges are
partition-independent, so executors and sources cannot change the
bill).  Invalid cells appear as explicit skips carrying the registry's
reason string, and :func:`repro.exec.compose` must refuse them with the
same reason.

The grid is *generated*: nothing here names an individual engine, so a
new axis member added to :mod:`repro.exec.registry` is swept on its
first test run with zero edits to this file.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.exec import compose, iter_cells, registry, valid_cells
from repro.memory import CollectSink, canonical_triangles
from repro.verify import oracle_triangles

from tests import zoo

#: Small pages + tiny buffer so the disk source actually exercises
#: eviction on zoo-sized graphs.
PAGE_SIZE = 256
BUFFER_PAGES = 4
WORKERS = 2

#: Every cell of the cube, valid and invalid alike.
CELLS = list(iter_cells())

#: (member, seed) pairs: each zoo member once, plus two extra seeds of
#: every random family.
MEMBERS = [(name, 0) for name in zoo.zoo_names()] + [
    (name, seed) for name in zoo.SEEDED for seed in (1, 2)
]


@lru_cache(maxsize=None)
def _graph(member: str, seed: int):
    return zoo.build(member, seed)


@lru_cache(maxsize=None)
def _oracle(member: str, seed: int):
    return tuple(oracle_triangles(_graph(member, seed)))


@lru_cache(maxsize=None)
def _reference_ops(kernel: str, member: str, seed: int) -> int:
    """The serial in-memory op bill for *kernel* — what every cell owes."""
    engine = compose("memory", kernel, "serial", graph=_graph(member, seed))
    return engine.run().cpu_ops


@pytest.mark.matrix
@pytest.mark.parametrize("member,seed", MEMBERS,
                         ids=[f"{m}-s{s}" for m, s in MEMBERS])
@pytest.mark.parametrize("cell", CELLS, ids=[cell.id for cell in CELLS])
def test_cell_matches_oracle_and_conserves_ops(cell, member, seed):
    if not cell.valid:
        pytest.skip(f"invalid cell {cell.id}: {cell.reason}")
    graph = _graph(member, seed)
    engine = compose(cell.source, cell.kernel, cell.executor, graph=graph,
                     workers=WORKERS, page_size=PAGE_SIZE,
                     buffer_pages=BUFFER_PAGES)
    sink = CollectSink()
    result = engine.run(sink)
    listing = tuple(canonical_triangles(sink))
    assert listing == _oracle(member, seed), (
        f"{cell.id} on {member}/s{seed}: listing disagrees with the "
        "brute-force oracle")
    assert result.triangles == len(listing)
    assert result.cpu_ops == _reference_ops(cell.kernel, member, seed), (
        f"{cell.id} on {member}/s{seed}: op charge not conserved across "
        "the executor/source axes")
    assert result.extra["cell"] == cell.id


def test_grid_covers_the_full_cube():
    """Shape invariants: the grid is the whole cube, reasons are total."""
    expected = (len(registry.SOURCES) * len(registry.KERNELS)
                * len(registry.EXECUTORS))
    assert len(CELLS) == expected
    assert len({cell.id for cell in CELLS}) == expected
    for cell in CELLS:
        if cell.valid:
            assert cell.reason is None
        else:
            assert cell.reason, f"invalid cell {cell.id} has no reason"
    # The executable surface is comfortably past the floor the harness
    # promises (>= 30 executed cells).
    assert len(valid_cells()) * len(MEMBERS) >= 30


def test_compose_refuses_invalid_cells(figure1):
    """compose() fails loudly with the registry's own reason string."""
    invalid = [cell for cell in CELLS if not cell.valid]
    assert invalid, "the cube currently has invalid cells by design"
    for cell in invalid:
        with pytest.raises(ConfigurationError) as excinfo:
            compose(cell.source, cell.kernel, cell.executor, graph=figure1,
                    page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES)
        assert cell.reason in str(excinfo.value)


def test_unknown_axis_names_are_invalid_with_reasons():
    valid, reason = registry.cell_validity("memory", "no-such-kernel",
                                           "serial")
    assert not valid and "no-such-kernel" in reason
    valid, reason = registry.cell_validity("tape", "hash", "serial")
    assert not valid and "tape" in reason
    valid, reason = registry.cell_validity("memory", "hash", "quantum")
    assert not valid and "quantum" in reason


@pytest.mark.parametrize("command", ["triangulate", "profile"])
def test_cli_axis_choices_match_registry(command):
    """The --source/--kernel/--executor choices of every subcommand that
    composes an engine mirror the registry tables (the parser hardcodes
    them to stay import-light)."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    sub = subparsers.choices[command]

    def choices(flag: str) -> set[str]:
        option = f"--{flag}"
        for action in sub._actions:
            if option in action.option_strings:
                return set(action.choices)
        raise AssertionError(f"{command} has no {option} flag")

    assert choices("source") == set(registry.SOURCES)
    assert choices("kernel") == set(registry.KERNELS)
    assert choices("executor") == set(registry.EXECUTORS)
    assert "compose" in choices("method")


def test_registered_entry_points_resolve():
    """Every registry key names a real public function on disk, so the
    engine-composition lint rule's allowlist cannot rot."""
    package_root = Path(repro.__file__).parent
    for key in sorted(registry.REGISTERED_ENTRY_POINTS):
        package_path, _, func_name = key.partition("::")
        assert func_name and not func_name.startswith("_"), key
        source_file = package_root / package_path
        assert source_file.is_file(), f"{key}: no such module"
        tree = ast.parse(source_file.read_text(encoding="utf-8"))
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert func_name in names, f"{key}: function not found"


def test_zoo_known_counts_match_oracle(graph_zoo):
    """The oracle reproduces every count known by construction."""
    for name, expected in zoo.KNOWN_COUNTS.items():
        assert len(oracle_triangles(graph_zoo(name))) == expected, name


def test_verification_witnesses_cover_every_axis_member():
    """repro verify carries at least one composed witness per source,
    kernel, and executor, so no axis member escapes the sweep."""
    witnesses = [name.removeprefix("exec:").split("+")
                 for name, _runner in registry.verification_methods()
                 if name.startswith("exec:")]
    for axis, table in enumerate((registry.SOURCES, registry.KERNELS,
                                  registry.EXECUTORS)):
        assert {cell[axis] for cell in witnesses} == set(table)
