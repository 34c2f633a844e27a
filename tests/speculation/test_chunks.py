"""Input-partitioning tests."""

import numpy as np
import pytest

from repro.speculation.chunks import partition_input
from repro.errors import SchemeError


def test_even_split():
    p = partition_input(np.arange(100, dtype=np.uint8), 4)
    assert p.n_chunks == 4
    assert p.chunk_len == 25
    assert p.lengths.tolist() == [25, 25, 25, 25]
    assert p.symbols.size == 100


def test_ragged_tail():
    p = partition_input(np.arange(10, dtype=np.uint8), 3)
    assert p.lengths.sum() == 10
    assert p.lengths[-1] <= p.chunk_len


def test_chunks_reassemble_stream():
    data = np.arange(97, dtype=np.uint8)
    p = partition_input(data, 7)
    rebuilt = np.concatenate([p.chunk(i) for i in range(7)])
    assert np.array_equal(rebuilt, data)


def test_offsets_consistent():
    data = np.arange(50, dtype=np.uint8)
    p = partition_input(data, 4)
    for i in range(4):
        off = int(p.offsets[i])
        assert np.array_equal(p.chunk(i), data[off : off + int(p.lengths[i])])


def test_single_chunk():
    p = partition_input(b"abcdef", 1)
    assert p.n_chunks == 1
    assert bytes(p.chunk(0)) == b"abcdef"


def test_n_equals_len():
    p = partition_input(np.arange(5, dtype=np.uint8), 5)
    assert (p.lengths >= 1).all()
    assert p.lengths.sum() == 5


def test_just_above_n_chunks_balanced():
    # 7 symbols / 5 chunks: equal split would starve trailing chunks.
    p = partition_input(np.arange(7, dtype=np.uint8), 5)
    assert (p.lengths >= 1).all()
    assert p.lengths.sum() == 7
    rebuilt = np.concatenate([p.chunk(i) for i in range(5)])
    assert np.array_equal(rebuilt, np.arange(7, dtype=np.uint8))


def test_last_symbols_of():
    data = np.arange(40, dtype=np.uint8)
    p = partition_input(data, 4)
    assert p.last_symbols_of(0, 2).tolist() == [8, 9]
    assert p.last_symbols_of(3, 2).tolist() == [38, 39]


def test_last_symbols_capped_by_chunk_length():
    p = partition_input(np.arange(4, dtype=np.uint8), 4)
    assert p.last_symbols_of(0, 2).tolist() == [0]


def test_too_many_chunks_rejected():
    with pytest.raises(SchemeError):
        partition_input(b"ab", 3)


def test_zero_chunks_rejected():
    with pytest.raises(SchemeError):
        partition_input(b"ab", 0)


def test_bytes_input():
    p = partition_input(b"hello world!", 3)
    assert p.symbols.size == 12
    assert bytes(p.symbols) == b"hello world!"
