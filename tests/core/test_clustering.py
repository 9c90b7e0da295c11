"""Tests for popularity-trend classification and DTW clustering."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.clustering import _resample, classify_trend, cluster_popularity_trends
from repro.core.dtw import pairwise_dtw
from repro.core.dtw_backends import available_kernel_tiers
from repro.errors import EmptyDatasetError
from repro.stats.sampling import make_rng
from repro.types import ContentCategory, TrendClass
from repro.workload.temporal import trend_envelope


def sampled_series(trend: TrendClass, seed: int, requests: int = 120, birth_hour: float = 0.0) -> np.ndarray:
    """Hourly request counts drawn from a trend envelope (realistic noise)."""
    rng = make_rng(seed)
    envelope = trend_envelope(trend, birth_hour, 168, make_rng(seed + 1000), peak_hour=2)
    if envelope.sum() == 0:
        return np.zeros(168)
    probabilities = envelope / envelope.sum()
    hours = rng.choice(168, size=requests, p=probabilities)
    return np.bincount(hours, minlength=168).astype(float)


class TestClassifyTrend:
    @pytest.mark.parametrize("trend", [TrendClass.DIURNAL, TrendClass.SHORT_LIVED, TrendClass.LONG_LIVED])
    def test_generated_envelopes_mostly_recovered(self, trend):
        hits = 0
        total = 20
        for seed in range(total):
            series = sampled_series(trend, seed)
            if classify_trend(series) is trend:
                hits += 1
        assert hits / total >= 0.6, f"{trend}: only {hits}/{total} recovered"

    def test_empty_series_is_outlier(self):
        assert classify_trend(np.zeros(168)) is TrendClass.OUTLIER

    def test_flash_crowd_spike_detected(self):
        series = np.full(168, 0.2)
        series[0] = 1.0  # some early activity so birth is hour 0
        series[100:104] = 60.0
        assert classify_trend(series) is TrendClass.FLASH_CROWD

    def test_single_burst_is_short_lived(self):
        series = np.zeros(168)
        series[10:20] = 5.0
        assert classify_trend(series) is TrendClass.SHORT_LIVED

    def test_steady_daily_pattern_is_diurnal(self):
        hours = np.arange(168)
        series = np.clip(np.cos(2 * np.pi * hours / 24), 0, None) * 10
        assert classify_trend(series) is TrendClass.DIURNAL

    def test_late_born_object_judged_on_own_lifetime(self):
        # Born on day 5, active on both remaining days with daily cycle.
        hours = np.arange(168)
        series = np.where(hours >= 120, np.clip(np.cos(2 * np.pi * hours / 24), 0, None) * 10, 0.0)
        label = classify_trend(series)
        assert label in (TrendClass.DIURNAL, TrendClass.LONG_LIVED)


class TestClusterPipeline:
    def test_end_to_end_on_shared_trace(self, dataset):
        result = cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=40, n_clusters=5)
        assert sum(c.size for c in result.clusters) == len(result.objects)
        assert result.dendrogram.n_leaves == len(result.objects)
        fractions = result.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_medoid_is_cluster_member(self, dataset):
        result = cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=30, n_clusters=4)
        for cluster in result.clusters:
            assert cluster.medoid_index in cluster.member_indices

    def test_band_contains_medoid_mean(self, dataset):
        result = cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=30, n_clusters=4)
        for cluster in result.clusters:
            assert np.all(cluster.band_lower <= cluster.band_upper + 1e-12)

    def test_cluster_of_returns_largest(self, dataset):
        result = cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=30, n_clusters=4)
        label = result.clusters[0].label
        found = result.cluster_of(label)
        assert found is not None
        assert found.size == max(c.size for c in result.clusters if c.label is label)

    def test_cluster_of_missing_label(self, dataset):
        result = cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=20, n_clusters=3)
        present = {c.label for c in result.clusters}
        for label in TrendClass:
            if label not in present:
                assert result.cluster_of(label) is None

    def test_too_few_objects_rejected(self, dataset):
        with pytest.raises(EmptyDatasetError):
            cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, max_objects=40, min_requests=10**9)

    def test_unknown_selection_rejected(self, dataset):
        with pytest.raises(EmptyDatasetError):
            cluster_popularity_trends(dataset, "V-1", ContentCategory.VIDEO, selection="bogus")

    def test_top_selection_mode(self, dataset):
        result = cluster_popularity_trends(
            dataset, "V-1", ContentCategory.VIDEO, max_objects=20, n_clusters=3, selection="top"
        )
        requests = [stats.requests for stats in result.objects]
        assert requests == sorted(requests, reverse=True)

    def test_deterministic(self, dataset):
        a = cluster_popularity_trends(dataset, "V-2", ContentCategory.IMAGE, max_objects=25, n_clusters=4)
        b = cluster_popularity_trends(dataset, "V-2", ContentCategory.IMAGE, max_objects=25, n_clusters=4)
        assert [c.member_indices for c in a.clusters] == [c.member_indices for c in b.clusters]


class TestStudyMatrixDigest:
    """Freeze the Fig. 8-10 DTW matrices bit for bit on every kernel tier.

    The inputs are built exactly as :func:`cluster_popularity_trends` builds
    them with the study's settings (60 sampled objects, 2-hour bins, a
    one-day band), and the SHA-256 of the raw float64 matrix is compared to
    a digest recorded from the original UCR-cascade implementation.  Any
    change to the DTW kernels or to the matrix assembly that moves a
    single bit fails here.
    """

    @pytest.mark.parametrize(
        ("site", "category", "count", "digest"),
        [
            ("V-2", ContentCategory.VIDEO, 51, "640ba7ce23ae9ba7851661d62c98fc9e3a581be0aa11a29d0dcbdc40c96d9681"),
            ("P-2", ContentCategory.IMAGE, 60, "15397747d7950850b4ce0f9b9ffb1279aaec99b160e5ee468983daca27ab790b"),
        ],
    )
    def test_matrix_digest_on_every_tier(self, dataset, site, category, count, digest):
        objects = dataset.sample_objects(site, category, limit=60, min_requests=3, seed=0)
        hours = dataset.duration_hours
        series = [_resample(stats.hourly_series(hours).normalized().values, 2) for stats in objects]
        assert len(series) == count
        for tier in available_kernel_tiers():
            matrix = pairwise_dtw(series, window=12, kernel=tier)
            assert matrix.shape == (count, count) and matrix.dtype == np.float64
            assert hashlib.sha256(matrix.tobytes()).hexdigest() == digest, tier
