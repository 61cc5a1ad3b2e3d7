"""Hypothesis properties of the vertex-ordering catalogue.

Orderings silently corrupt results when a mapping is not a permutation
or when a relabeled run lists different triangles; they silently corrupt
*costs* when the measured-op heuristic disagrees with what the engine
actually charges.  These properties pin all of it, over arbitrary simple
graphs:

* every ordering mapping is a valid permutation of the vertex ids;
* triangle listings are isomorphic under relabeling — same count, and
  the oracle's triangles map exactly onto the relabeled oracle's;
* the degeneracy order respects core numbers (non-decreasing along the
  peel sequence);
* :func:`~repro.graph.ordering.ordering_op_cost` equals the relabeled
  engine's measured Eq. 3 bill exactly;
* :func:`~repro.graph.ordering.choose_ordering` is deterministic per
  graph seed and actually picks the measured minimum;
* the closed-form per-edge charge (:func:`~repro.graph.ordering.edge_charges`)
  gives the same per-partition and per-interval op totals as the
  per-edge ``min(len, len)`` loop it replaced.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.common import partition_ranges
from repro.baselines.graphchi import _op_split
from repro.distributed.partitioning import hash_partition, per_partition_ops
from repro.graph.builder import from_edges
from repro.graph.cores import core_numbers, peeling_order
from repro.graph.generators import rmat
from repro.graph.ordering import (
    AUTO_CANDIDATES,
    Ordering,
    apply_ordering,
    choose_ordering,
    ordering_costs,
    ordering_op_cost,
)
from repro.memory import edge_iterator
from repro.verify import oracle_triangles

#: An arbitrary simple graph as (num_vertices, edge list) — same shape
#: as the chunk-planning property suite.
graphs = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(0, n - 1)),
                      st.integers(0, max(0, n - 1))),
            max_size=120,
        ) if n > 0 else st.just([]),
    )
)

#: Every ordering with a direct mapping (AUTO resolves to one of these).
DIRECT_ORDERINGS = [ordering for ordering in Ordering
                    if ordering is not Ordering.AUTO]


def _build(spec):
    num_vertices, edges = spec
    return from_edges([(u, v) for u, v in edges if u != v],
                      num_vertices=num_vertices)


@settings(max_examples=60, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_every_mapping_is_a_permutation(spec, ordering):
    graph = _build(spec)
    _, mapping = apply_ordering(graph, ordering, seed=7)
    n = graph.num_vertices
    assert len(mapping) == n
    assert sorted(mapping.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_listings_are_isomorphic_under_relabeling(spec, ordering):
    graph = _build(spec)
    relabeled, mapping = apply_ordering(graph, ordering, seed=7)
    original = oracle_triangles(graph)
    remapped = sorted(
        tuple(sorted((int(mapping[u]), int(mapping[v]), int(mapping[w]))))
        for u, v, w in original
    )
    assert remapped == [tuple(t) for t in oracle_triangles(relabeled)]


@settings(max_examples=60, deadline=None)
@given(spec=graphs)
def test_degeneracy_order_respects_core_numbers(spec):
    graph = _build(spec)
    core = core_numbers(graph)
    order = peeling_order(graph)
    assert sorted(order.tolist()) == list(range(graph.num_vertices))
    along_peel = core[order]
    assert (np.diff(along_peel) >= 0).all(), (
        "core numbers must be non-decreasing along the peel sequence")


@settings(max_examples=40, deadline=None)
@given(spec=graphs, ordering=st.sampled_from(DIRECT_ORDERINGS))
def test_op_cost_formula_matches_measured_engine_bill(spec, ordering):
    graph = _build(spec)
    relabeled, mapping = apply_ordering(graph, ordering, seed=7)
    assert ordering_op_cost(graph, mapping) == edge_iterator(relabeled).cpu_ops


@settings(max_examples=30, deadline=None)
@given(spec=graphs)
def test_choose_ordering_picks_the_measured_minimum(spec):
    graph = _build(spec)
    chosen = choose_ordering(graph)
    costs = ordering_costs(graph)
    assert chosen in AUTO_CANDIDATES
    assert costs[chosen] == min(costs.values())
    # Deterministic tie-break: the earliest candidate at the minimum.
    assert chosen == next(ordering for ordering in AUTO_CANDIDATES
                          if costs[ordering] == costs[chosen])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_choose_ordering_is_deterministic_per_graph_seed(seed):
    first = choose_ordering(rmat(64, 300, seed=seed))
    second = choose_ordering(rmat(64, 300, seed=seed))
    assert first == second
    # AUTO resolves to the same relabeled graph both times.
    graph_a, map_a = apply_ordering(rmat(64, 300, seed=seed), Ordering.AUTO)
    graph_b, map_b = apply_ordering(rmat(64, 300, seed=seed), Ordering.AUTO)
    assert (map_a == map_b).all()
    assert (graph_a.indptr == graph_b.indptr).all()
    assert (graph_a.indices == graph_b.indices).all()


def _loop_partition_ops(graph, placement, parts):
    """Reference: the per-edge loop ``per_partition_ops`` replaced."""
    ops = np.zeros(parts, dtype=np.int64)
    for u in range(graph.num_vertices):
        succ_u = graph.n_succ(u)
        for v in succ_u:
            ops[placement[u]] += min(len(succ_u), len(graph.n_succ(int(v))))
    return ops


def _loop_op_split(graph, ranges):
    """Reference: GraphChi-Tri's per-edge parallel/sequential loop."""
    bounds = np.array([hi for _, hi in ranges], dtype=np.int64)
    parallel = sequential = 0
    for index, (lo, hi) in enumerate(ranges):
        for u in range(lo, hi + 1):
            succ_u = graph.n_succ(u)
            for v in succ_u:
                probe = min(len(succ_u), len(graph.n_succ(int(v))))
                if int(np.searchsorted(bounds, int(v), side="right")) == index:
                    sequential += probe
                else:
                    parallel += probe
    return parallel, sequential


@settings(max_examples=60, deadline=None)
@given(spec=graphs, parts=st.integers(1, 6), budget=st.integers(1, 4))
def test_closed_form_charges_match_the_per_edge_loop(spec, parts, budget):
    graph = _build(spec)
    placement = hash_partition(graph.num_vertices, parts, seed=3)
    ops = per_partition_ops(graph, placement, parts)
    reference = _loop_partition_ops(graph, placement, parts)
    assert ops.dtype == np.int64
    assert ops.tolist() == reference.tolist()
    ranges = partition_ranges(graph, budget, 64)
    assert _op_split(graph, ranges) == _loop_op_split(graph, ranges)
