"""Chunked latency percentiles of a service round."""

import numpy as np

import svcbench
from metrics import percentile


def test_chunk_percentiles_are_nearest_rank_within_each_full_chunk():
    # Two full chunks and a remainder that belongs to neither.
    values = np.arange(2 * svcbench.CHUNK + 500, dtype=float)[::-1]
    p50s, p99s = svcbench._chunk_percentiles(values)
    first, second = values[:svcbench.CHUNK], values[svcbench.CHUNK:2 * svcbench.CHUNK]
    assert p50s == [percentile(first, 50), percentile(second, 50)]
    assert p99s == [percentile(first, 99), percentile(second, 99)]
    # Ten responses lie beyond a chunk's p99.
    assert sum(first > p99s[0]) == svcbench.CHUNK // 100


def test_a_round_shorter_than_a_chunk_is_one_chunk():
    values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert svcbench._chunk_percentiles(values) == ([3.0], [5.0])
