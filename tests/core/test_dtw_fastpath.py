"""Exactness and tier-identity tests for the DTW kernels.

The contract is *bit identity*: the batched numpy kernel and the C kernel
reproduce the scalar reference kernel exactly, and the pairwise matrix
equals per-pair :func:`dtw_distance` calls bit for bit on every kernel
tier, for equal and ragged lengths alike.  Most cases are
hypothesis-generated.
"""

from __future__ import annotations

import dataclasses
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dtw as dtw_module
import repro.core.dtw_backends as backends
from repro.core.dtw import (
    KERNEL_ENV,
    DtwStats,
    _dtw_band_batch,
    _dtw_band_scalar,
    _effective_band,
    dtw_distance,
    dtw_path,
    kernel_name,
    pairwise_dtw,
)
from repro.dataflow import RunConfig
from repro.errors import AnalysisError, ConfigError

pytestmark = pytest.mark.fastpath

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
series_strategy = st.lists(finite, min_size=1, max_size=32).map(np.asarray)
window_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=40))

# A stack of queries plus a stack of targets; the two lengths may differ.
pair_stacks = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16),
).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(finite, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]),
        st.lists(st.lists(finite, min_size=shape[2], max_size=shape[2]), min_size=shape[0], max_size=shape[0]),
    ).map(lambda stacks: (np.asarray(stacks[0], dtype=float), np.asarray(stacks[1], dtype=float)))
)

#: Every key the run telemetry reads from a recorded ``DtwStats``.
TELEMETRY_KEYS = {"pairs_total", "pruned_lb_kim", "pruned_lb_keogh", "pruned_lb_improved", "full_dp"}


def _reference_matrix(series, window):
    count = len(series)
    matrix = np.zeros((count, count))
    for i in range(count):
        for j in range(i + 1, count):
            matrix[i, j] = matrix[j, i] = dtw_distance(series[i], series[j], window=window)
    return matrix


def _require_tier(tier):
    if tier not in backends.available_kernel_tiers():
        pytest.skip(f"kernel tier {tier!r} is not available on this machine")


class TestBatchKernel:
    @settings(max_examples=100, deadline=None)
    @given(pair_stacks, window_strategy)
    def test_batch_bit_identical_to_scalar(self, stacks, window):
        stack_a, stack_b = stacks
        band = _effective_band(stack_a.shape[1], stack_b.shape[1], window)
        got = _dtw_band_batch(stack_a, stack_b, band)
        want = np.array(
            [_dtw_band_scalar(a.tolist(), b.tolist(), band) for a, b in zip(stack_a, stack_b)]
        )
        assert np.array_equal(got, want)  # exact float equality, not approx


class TestPairwiseExactness:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(series_strategy, min_size=2, max_size=6),
        window_strategy,
    )
    def test_matrix_matches_per_pair_calls_exactly(self, series, window):
        got = pairwise_dtw(series, window=window)
        assert np.array_equal(got, _reference_matrix(series, window))

    def test_duplicate_and_sparse_series_exact_zeros(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 30)) * (rng.random((8, 30)) < 0.3)
        zeros = np.zeros(30)
        spike, late_spike = np.zeros(30), np.zeros(30)
        spike[10] = late_spike[12] = 4.0  # the same spike two steps later: a free warp
        series = [*base, base[0].copy(), base[3].copy(), zeros, zeros.copy(), spike, late_spike]
        want = _reference_matrix(series, 6)
        for tier in backends.available_kernel_tiers():
            matrix = pairwise_dtw(series, window=6, kernel=tier)
            assert np.array_equal(matrix, want), tier
            for i, j in ((0, 8), (3, 9), (10, 11), (12, 13)):
                assert matrix[i, j] == 0.0 and matrix[j, i] == 0.0, (tier, i, j)
            assert np.all(np.diag(matrix) == 0.0)

    def test_multi_chunk_matches_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(13)
        series = [rng.normal(size=20) for _ in range(10)]
        single = pairwise_dtw(series, window=4)
        # Shrink the chunk size so a small matrix spans several kernel calls.
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        for tier in backends.available_kernel_tiers():
            assert np.array_equal(single, pairwise_dtw(series, window=4, kernel=tier)), tier

    def test_multi_chunk_ragged_matches_reference(self, monkeypatch):
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        rng = np.random.default_rng(17)
        series = [rng.normal(size=int(length)) for length in rng.integers(3, 25, size=9)]
        for window in (5, 0, None):
            want = _reference_matrix(series, window)
            for tier in backends.available_kernel_tiers():
                assert np.array_equal(pairwise_dtw(series, window=window, kernel=tier), want), tier

    def test_single_series_matrix(self):
        matrix, stats = pairwise_dtw([np.ones(4)], return_stats=True)
        assert np.array_equal(matrix, np.zeros((1, 1)))
        assert stats.pairs_total == 0


class TestNonFiniteInput:
    """NaN/inf input is rejected up front, naming the offending series."""

    @pytest.mark.parametrize("tier", ["c", "numpy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dtw_distance_rejects_non_finite(self, monkeypatch, tier, bad):
        _require_tier(tier)
        monkeypatch.setenv(KERNEL_ENV, tier)
        with pytest.raises(AnalysisError, match="series 0 contains non-finite"):
            dtw_distance([bad, 1.0, 2.0], [1.0, 1.0, 2.0])
        with pytest.raises(AnalysisError, match="series 1 contains non-finite"):
            dtw_distance([1.0, 1.0, 2.0], [1.0, bad, 2.0], window=1)

    @pytest.mark.parametrize("tier", ["c", "numpy"])
    def test_pairwise_rejects_non_finite(self, tier):
        _require_tier(tier)
        series = [np.ones(5), np.arange(5.0), np.array([0.0, 1.0, np.nan, 1.0, 0.0])]
        with pytest.raises(AnalysisError, match="series 2 contains non-finite"):
            pairwise_dtw(series, window=2, kernel=tier)

    def test_dtw_path_rejects_non_finite(self):
        with pytest.raises(AnalysisError, match="series 1 contains non-finite"):
            dtw_path([1.0, 2.0], [np.inf, 2.0])


class TestDtwStats:
    @pytest.mark.parametrize("tier", ["c", "numpy"])
    def test_matrix_stats_count_every_pair(self, tier):
        _require_tier(tier)
        rng = np.random.default_rng(19)
        series = [rng.normal(size=12) for _ in range(7)]
        _, stats = pairwise_dtw(series, window=3, kernel=tier, return_stats=True)
        assert stats.pairs_total == stats.full_dp == 21
        assert stats.abandoned == 0
        assert stats.pruned_lb_kim == stats.pruned_lb_keogh == stats.pruned_lb_improved == 0
        assert stats.kernel == tier
        assert stats.wall_seconds > 0.0
        assert "pairs=21" in str(stats) and f"kernel={tier}" in str(stats)

    def test_as_dict_carries_every_telemetry_key(self):
        stats = DtwStats(pairs_total=3, full_dp=3)
        assert TELEMETRY_KEYS <= set(dataclasses.asdict(stats))
        assert stats.as_dict() == dataclasses.asdict(stats)


class TestKernelTiers:
    """The C tier is bit-identical to the numpy/scalar reference."""

    def test_forced_numpy_disables_compiled_tier(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert backends.resolve_kernel() is None
        assert kernel_name() == "numpy"

    def test_every_available_tier_matches_numpy_exactly(self, monkeypatch):
        rng = np.random.default_rng(31)
        equal = [rng.normal(size=20) for _ in range(8)]
        ragged = [rng.normal(size=int(n)) for n in rng.integers(3, 25, size=8)]
        for series, window in ((equal, 4), (equal, None), (ragged, 5)):
            monkeypatch.setenv(KERNEL_ENV, "numpy")
            want = pairwise_dtw(series, window=window)
            assert np.array_equal(want, _reference_matrix(series, window))
            for tier in backends.available_kernel_tiers():
                monkeypatch.setenv(KERNEL_ENV, tier)
                got, stats = pairwise_dtw(series, window=window, return_stats=True)
                assert np.array_equal(got, want)  # bit-identical, not approx
                assert stats.kernel == tier

    def test_explicit_kernel_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, backends.available_kernel_tiers()[0])
        rng = np.random.default_rng(37)
        series = [rng.normal(size=16) for _ in range(6)]
        matrix, stats = pairwise_dtw(series, window=3, kernel="numpy", return_stats=True)
        assert stats.kernel == "numpy"
        assert np.array_equal(matrix, _reference_matrix(series, 3))

    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, window_strategy)
    def test_scalar_kernel_tiers_bit_identical(self, a, b, window):
        values = {}
        for tier in backends.available_kernel_tiers():
            with mock.patch.dict(os.environ, {KERNEL_ENV: tier}):
                values[tier] = dtw_distance(a, b, window=window)
        want = values.pop("numpy")
        for tier, got in values.items():
            assert got == want, tier

    def test_invalid_choice_rejected(self, monkeypatch):
        for choice in ("fortran", "numba"):
            monkeypatch.setenv(KERNEL_ENV, choice)
            with pytest.raises(ConfigError):
                backends.resolve_kernel()
            with pytest.raises(ConfigError):
                pairwise_dtw([np.ones(3), np.zeros(3)], kernel=choice)
            with pytest.raises(ConfigError):
                RunConfig(dtw_kernel=choice)

    def test_forcing_unavailable_tier_fails_loudly(self, monkeypatch, tmp_path):
        # Simulate a machine without a compiler: an empty build cache and
        # no compiler on PATH.  auto degrades to numpy; a forced c raises.
        monkeypatch.setenv(backends.BUILD_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(backends, "_find_compiler", lambda: None)
        monkeypatch.setattr(backends, "_build_c_kernel", backends._build_c_kernel.__wrapped__)
        assert backends._resolve.__wrapped__("auto") is None
        with pytest.raises(ConfigError, match="no C compiler"):
            backends._resolve.__wrapped__("c")
