"""Tests for the intersection kernels and their op accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exec import HashKernel
from repro.util.intersect import (
    gallop_intersect,
    hash_intersect,
    merge_intersect,
)

sorted_unique = st.lists(st.integers(0, 500), max_size=60).map(
    lambda xs: sorted(set(xs))
)


def _bind(num_vertices=501):
    return HashKernel().bind(num_vertices)


def _ids(values):
    return np.asarray(values, dtype=np.int64)


class TestOpsAccounting:
    def test_count_is_min(self):
        """The ``hash`` binding charges Eq. 3: ``min(|a|, |b|)``."""
        binding = _bind()
        assert binding.intersect(_ids(range(3)), _ids(range(10)))[1] == 3
        assert binding.intersect(_ids(range(10)), _ids(range(3)))[1] == 3
        assert binding.intersect(_ids([]), _ids(range(5)))[1] == 0

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
        """Sorted inputs through the ``hash`` binding: the common members
        come back in order, charged the Eq. 3 probe count — the hash
        reference kernel's measured one."""
        common, ops = _bind().intersect(_ids(a), _ids(b))
        assert [int(w) for w in common] == sorted(set(a) & set(b))
        assert ops == min(len(a), len(b)) == hash_intersect(a, b)[1]


class TestHashBindingMask:
    """The ``hash`` binding's dense scratch mask survives reuse."""

    @pytest.mark.parametrize("a, b, expected", [
        pytest.param([1, 3, 5, 7], [3, 4, 5, 9], [3, 5], id="basic"),
        pytest.param([], [1], [], id="empty-left"),
        pytest.param([1, 2], [], [], id="empty-right"),
        pytest.param([1, 2], [3, 4], [], id="disjoint"),
        pytest.param([2, 4, 6], [2, 4, 6], [2, 4, 6], id="identical"),
    ])
    def test_known_cases(self, a, b, expected):
        binding = _bind(16)
        common, ops = binding.intersect(_ids(a), _ids(b))
        assert [int(w) for w in common] == expected
        assert ops == min(len(a), len(b))
        assert not binding._mask.any()

    def test_mask_reuse_across_calls(self):
        binding = _bind(200)
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
        binding = _bind()
        common, ops = binding.intersect(binding.prep(_ids(a)), _ids(b))
        assert [int(w) for w in common] == hash_intersect(a, b)[0]
        assert ops == min(len(a), len(b))
        assert not binding._mask.any()
