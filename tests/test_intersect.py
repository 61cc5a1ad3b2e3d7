"""Tests for the intersection kernels and their op accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intersect import (
    gallop_intersect,
    hash_intersect,
    intersect_count_ops,
    intersect_sorted,
    merge_intersect,
)

sorted_unique = st.lists(st.integers(0, 500), max_size=60).map(
    lambda xs: sorted(set(xs))
)


class TestIntersectSorted:
    def test_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 9])
        assert intersect_sorted(a, b).tolist() == [3, 5]

    def test_empty_left(self):
        assert len(intersect_sorted(np.array([], dtype=np.int64), np.array([1]))) == 0

    def test_empty_right(self):
        assert len(intersect_sorted(np.array([1, 2]), np.array([], dtype=np.int64))) == 0

    def test_disjoint(self):
        assert len(intersect_sorted(np.array([1, 2]), np.array([3, 4]))) == 0

    def test_identical(self):
        a = np.array([2, 4, 6])
        assert intersect_sorted(a, a).tolist() == [2, 4, 6]


class TestOpsAccounting:
    def test_count_is_min(self):
        assert intersect_count_ops(3, 10) == 3
        assert intersect_count_ops(10, 3) == 3
        assert intersect_count_ops(0, 5) == 0

    def test_hash_ops_match_paper_measure(self):
        result, ops = hash_intersect([1, 2, 3], list(range(100)))
        assert result == [1, 2, 3]
        assert ops == 3  # min(|a|, |b|)


class TestReferenceKernels:
    @pytest.mark.parametrize("kernel", [merge_intersect, hash_intersect, gallop_intersect])
    def test_known_case(self, kernel):
        result, ops = kernel([1, 4, 6, 9], [2, 4, 9, 12])
        assert result == [4, 9]
        assert ops > 0

    @pytest.mark.parametrize("kernel", [merge_intersect, hash_intersect, gallop_intersect])
    def test_empty(self, kernel):
        result, _ = kernel([], [1, 2])
        assert result == []

    @given(sorted_unique, sorted_unique)
    def test_kernels_agree(self, a, b):
        expected = sorted(set(a) & set(b))
        for kernel in (merge_intersect, hash_intersect, gallop_intersect):
            result, _ = kernel(a, b)
            assert result == expected

    @given(sorted_unique, sorted_unique)
    def test_intersect_sorted_with_analytic_charge(self, a, b):
        """The OPT plugins' fast path: ``intersect_sorted`` lists the
        common members in order and ``intersect_count_ops`` charges the
        Eq. 3 probe count, the hash reference kernel's measured one."""
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        assert intersect_sorted(a_arr, b_arr).tolist() == sorted(set(a) & set(b))
        ops = intersect_count_ops(len(a_arr), len(b_arr))
        assert ops == min(len(a), len(b)) == hash_intersect(a, b)[1]


class TestHashBindingMask:
    """The ``hash`` binding's dense scratch mask survives reuse."""

    def _binding(self, num_vertices=200):
        from repro.exec import HashKernel

        return HashKernel().bind(num_vertices)

    def test_mask_reuse_across_calls(self):
        binding = self._binding()
        a = np.array([10, 20, 30, 40], dtype=np.int64)
        b = np.arange(0, 40 + 1, dtype=np.int64)
        first = binding.intersect(binding.prep(a), b)
        second = binding.intersect(binding.prep(a), b)
        assert first[0].tolist() == second[0].tolist() == a.tolist()
        assert first[1] == second[1] == len(a)
        # The mask is unmarked after every call; stale marks would leak
        # phantom members into later pairs.
        assert not binding._mask.any()
        other = np.array([15, 25], dtype=np.int64)
        common, _ops = binding.intersect(binding.prep(other),
                                         np.arange(0, 41, dtype=np.int64))
        assert common.tolist() == [15, 25]
        assert not binding._mask.any()

    @given(sorted_unique, sorted_unique)
    def test_agrees_with_hash_reference(self, a, b):
        binding = self._binding(501)
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        common, ops = binding.intersect(binding.prep(a_arr), b_arr)
        assert [int(w) for w in common] == hash_intersect(a, b)[0]
        assert ops == intersect_count_ops(len(a), len(b))
        assert not binding._mask.any()
