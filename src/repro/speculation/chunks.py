"""Input-stream partitioning (``Π = partition(in, N)`` in Algorithm 2).

The stream is split into ``N`` equal chunks (the last one may be shorter).
For the lockstep executor the chunks are materialized as a dense
``(N, chunk_len)`` matrix with a per-chunk length vector, so a scheme can run
any thread→chunk assignment with one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.automata.dfa import _as_symbol_array
from repro.errors import SchemeError


@dataclass(frozen=True)
class Partition:
    """An input stream split into ``n_chunks`` contiguous chunks.

    Attributes
    ----------
    chunks:
        ``(n_chunks, chunk_len)`` symbol matrix, zero-padded on the ragged
        tail chunk.
    lengths:
        ``(n_chunks,)`` effective chunk lengths.
    offsets:
        ``(n_chunks,)`` start offset of each chunk in the original stream.
    symbols:
        The full original stream (1-D).
    """

    chunks: np.ndarray
    lengths: np.ndarray
    offsets: np.ndarray
    symbols: np.ndarray

    @property
    def n_chunks(self) -> int:
        return int(self.chunks.shape[0])

    @property
    def chunk_len(self) -> int:
        return int(self.chunks.shape[1])

    def chunk(self, i: int) -> np.ndarray:
        """The ``i``-th chunk trimmed to its effective length."""
        return self.chunks[i, : self.lengths[i]]

    def last_symbols_of(self, i: int, k: int) -> np.ndarray:
        """The final ``k`` symbols of chunk ``i`` (fewer if the chunk is
        shorter) — the lookback window the predictor of chunk ``i+1`` uses."""
        length = int(self.lengths[i])
        k = min(k, length)
        return self.chunks[i, length - k : length]


def partition_input(data, n_chunks: int) -> Partition:
    """Split ``data`` into ``n_chunks`` equal contiguous chunks.

    Raises
    ------
    SchemeError
        If the stream is shorter than the number of chunks (every thread
        needs at least one symbol for chunk-level parallelism to make sense).
    """
    symbols = _as_symbol_array(data)
    n = int(symbols.size)
    if n_chunks <= 0:
        raise SchemeError(f"n_chunks must be positive, got {n_chunks}")
    if n < n_chunks:
        raise SchemeError(
            f"input of {n} symbols cannot be split into {n_chunks} chunks"
        )
    chunk_len = -(-n // n_chunks)
    padded = np.zeros(n_chunks * chunk_len, dtype=symbols.dtype)
    padded[:n] = symbols
    chunks = padded.reshape(n_chunks, chunk_len)
    offsets = np.arange(n_chunks, dtype=np.int64) * chunk_len
    lengths = np.clip(n - offsets, 0, chunk_len)
    if (lengths <= 0).any():
        # Equal split can starve trailing chunks when n is just above
        # n_chunks; fall back to a balanced split with sizes n//N or n//N+1.
        base = n // n_chunks
        extra = n % n_chunks
        sizes = np.full(n_chunks, base, dtype=np.int64)
        sizes[:extra] += 1
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        chunk_len = int(sizes.max())
        chunks = np.zeros((n_chunks, chunk_len), dtype=symbols.dtype)
        for i in range(n_chunks):
            chunks[i, : sizes[i]] = symbols[offsets[i] : offsets[i] + sizes[i]]
        lengths = sizes
    return Partition(chunks=chunks, lengths=lengths, offsets=offsets, symbols=symbols)
