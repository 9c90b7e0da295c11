"""Tests for RNG helpers, weighted choice and reservoir sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.sampling import ReservoirSampler, make_rng, spawn_rng


class TestMakeRng:
    def test_seed_reproducibility(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_fresh_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestSpawnRng:
    def test_deterministic_given_parent_state(self):
        a = spawn_rng(make_rng(1), "catalog").random()
        b = spawn_rng(make_rng(1), "catalog").random()
        assert a == b

    def test_different_labels_diverge(self):
        parent = make_rng(1)
        child_a = spawn_rng(parent, "a")
        parent2 = make_rng(1)
        child_b = spawn_rng(parent2, "b")
        assert child_a.random() != child_b.random()


class TestReservoirSampler:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_keeps_everything_under_capacity(self):
        sampler = ReservoirSampler(10, rng=0)
        sampler.extend(range(5))
        assert sorted(sampler.items) == [0, 1, 2, 3, 4]
        assert sampler.seen == 5

    def test_never_exceeds_capacity(self):
        sampler = ReservoirSampler(8, rng=0)
        sampler.extend(range(1000))
        assert len(sampler) == 8
        assert sampler.seen == 1000

    def test_sample_is_subset_of_stream(self):
        sampler = ReservoirSampler(16, rng=1)
        sampler.extend(range(500))
        assert all(0 <= item < 500 for item in sampler.items)

    def test_uniformity(self):
        # Each of 100 stream elements should appear with probability k/n.
        hits = np.zeros(100)
        for seed in range(300):
            sampler = ReservoirSampler(10, rng=seed)
            sampler.extend(range(100))
            for item in sampler.items:
                hits[item] += 1
        expected = 300 * 10 / 100
        # Allow generous tolerance: binomial std is ~5.2.
        assert np.all(np.abs(hits - expected) < 6 * np.sqrt(expected))
