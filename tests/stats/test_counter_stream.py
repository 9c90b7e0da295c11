"""CounterStream: one reused generator, bit-identical to fresh counter_rng streams."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.stats.sampling import CounterStream, counter_rng


def _draws(rng: np.random.Generator) -> list:
    """A mixed draw sequence touching every buffer path of Philox."""
    return [
        # A raw 32-bit draw first: it returns a cached half word if one
        # leaked in from an earlier stream.
        rng.random(dtype=np.float32),
        rng.random(),
        int(rng.integers(0, 1_000)),
        # 32-bit draws leave half a word cached (``has_uint32``).
        int(rng.integers(0, 7, dtype=np.uint32)),
        rng.exponential(3.5),
        int(rng.integers(0, 2**40)),
        int(rng.choice(5, p=[0.1, 0.2, 0.3, 0.25, 0.15])),
        rng.uniform(0.05, 0.6),
        int(rng.integers(0, 3, dtype=np.uint32)),
    ]


@pytest.mark.parametrize("seed,domain", [(7, "request"), (2016, "warm"), (0, "")])
def test_at_matches_fresh_streams(seed, domain):
    stream = CounterStream(seed, domain)
    for index in range(300):
        assert _draws(stream.at(index)) == _draws(counter_rng(seed, domain, index))


def test_partly_used_buffer_does_not_leak_into_next_index():
    stream = CounterStream(11, "request")
    for index in range(50):
        rng = stream.at(index)
        # Leave a part-used 4-word buffer and a cached 32-bit half behind.
        rng.random()
        rng.integers(0, 9, dtype=np.uint32)
        assert stream.at(index + 1).random(dtype=np.float32) == counter_rng(
            11, "request", index + 1
        ).random(dtype=np.float32)
        assert _draws(stream.at(index)) == _draws(counter_rng(11, "request", index))


def test_same_index_restarts_the_stream():
    rng = CounterStream(3, "request").at(42)
    first = _draws(rng)
    assert _draws(rng) != first  # continuing the same stream
    assert _draws(CounterStream(3, "request").at(42)) == first


@pytest.mark.parametrize("index", [-1, -(2**63), 2**64, 2**64 + 5, 3 * 2**64 - 1, 2**70])
def test_out_of_range_indices_masked_like_counter_rng(index):
    stream = CounterStream(5, "request")
    assert _draws(stream.at(index)) == _draws(counter_rng(5, "request", index))
    masked = index & 0xFFFFFFFFFFFFFFFF
    assert _draws(stream.at(index)) == _draws(stream.at(masked))


def test_domains_and_seeds_are_independent():
    a = CounterStream(1, "request").at(0).random()
    assert a != CounterStream(1, "warm").at(0).random()
    assert a != CounterStream(2, "request").at(0).random()


def test_pickle_round_trip_draws_identically():
    stream = CounterStream(9, "warm")
    stream.at(17).random()  # mid-stream state is not what gets shipped
    copy = pickle.loads(pickle.dumps(stream))
    assert (copy.seed, copy.domain) == (9, "warm")
    for index in (0, 17, 2**63 + 1):
        assert _draws(copy.at(index)) == _draws(stream.at(index))
