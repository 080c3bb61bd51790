"""The 2-bit-packed XOR+popcount backend (``bitpacked``).

ASMCap matches over a 4-letter alphabet, so a base is 2 bits and a row
of ``N`` bases is two uint64 bitplanes of ``ceil(N / 64)`` words.  Two
codes differ exactly when either bitplane differs:

    miss = (s0 ^ q0) | (s1 ^ q1)         # one bit per cell

and a mismatch count is ``popcount(miss & valid)``.  ED* ANDs in the
two neighbour comparisons before the popcount: a cell is an ED*
mismatch only when the stored base differs from the read base *and*
both of its neighbours.  The neighbour query planes come from shifting
the packed centre planes by one bit (with word-boundary carry), and
the edge cells — which have no neighbour — are forced to mismatch by
the ``valid_no_first`` / ``valid_no_last`` masks, bit-exact with
:func:`repro.distance.ed_star.match_planes`.

Versus the float GEMM this touches 1/16th the memory per comparison
and does no float math at all, which is why it wins on paper-sized
blocks (``benchmarks/bench_kernels.py`` measures the gap).  Counts are
pure-integer, so cross-backend bit-identity is structural.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    PACKED_CHUNK_WORDS,
    EncodedReference,
    KernelBackend,
    pack_bitplanes,
    valid_masks,
)
from repro.kernels.registry import register_backend

if hasattr(np, "bitwise_count"):
    def popcount_sum(words: np.ndarray) -> np.ndarray:
        """Sum of per-word popcounts along the last axis.

        The word axis is short (one word per 64 cells), so folding it
        with explicit adds beats ``.sum(axis=-1)``'s short-axis
        reduction by a wide margin on these buffers.  The per-word
        counts come back as ``uint8``; the total is widened before the
        first add, since a row of 256+ cells would wrap mod 256.
        """
        counts = np.bitwise_count(words)
        total = counts[..., 0].astype(np.intp)
        for word in range(1, counts.shape[-1]):
            total += counts[..., word]
        return total
else:  # numpy < 2.0: byte-LUT fallback, same exact integers.
    _POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)],
                          dtype=np.uint8)

    def popcount_sum(words: np.ndarray) -> np.ndarray:
        """Sum of per-word popcounts along the last axis."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        as_bytes = as_bytes.reshape(words.shape[:-1] + (-1,))
        return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.intp)


_ONE = np.uint64(1)
_CARRY = np.uint64(63)


def _packed_chunks(n_queries: int, n_rows: int,
                   words_per_pair: int) -> "list[tuple[int, int]]":
    """Query chunks bounding each ``(B, M, words_per_pair)`` buffer."""
    per_query = max(1, n_rows * words_per_pair)
    chunk = max(1, PACKED_CHUNK_WORDS // per_query)
    return [(start, min(start + chunk, n_queries))
            for start in range(0, n_queries, chunk)]


def _shifted_neighbours(centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ED* neighbour query planes, derived by word shifts.

    ``prev`` holds ``R[j-1]`` at bit ``j`` (so XOR against a stored row
    evaluates ``S[j] == R[j-1]``), ``next`` holds ``R[j+1]``.  The edge
    cells and the packing tail carry garbage bits; the
    ``valid_no_first`` / ``valid_no_last`` masks neutralise both.
    """
    prev = centre << _ONE
    prev[..., 1:] |= centre[..., :-1] >> _CARRY
    following = centre >> _ONE
    following[..., :-1] |= centre[..., 1:] << _CARRY
    return prev, following


class BitpackedBackend(KernelBackend):
    """XOR+popcount mismatch counts over 2-bit-packed bitplanes.

    The hot loop is arranged to minimise numpy dispatches on these
    small word buffers: both bitplanes of all query variants (centre
    and, for ED*, the two shift-derived neighbours) are laid side by
    side along the word axis so one broadcast XOR against the (tiled)
    stored planes compares everything, and mismatch bits are counted
    directly — no equality inversion, no ``n_cells - count`` pass.
    """

    name = "bitpacked"

    # Overridable so the optional numba lane can swap the reduction.
    @staticmethod
    def _popcount_sum(words: np.ndarray) -> np.ndarray:
        return popcount_sum(words)

    def _counts(self, encoded: EncodedReference, queries: np.ndarray,
                *, ed_star: bool) -> np.ndarray:
        if ed_star:
            return self._ed_star_counts(encoded, queries, with_hd=False)[0]
        return self._hamming_counts(encoded, queries)

    def _counts_dual(self, encoded: EncodedReference,
                     queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The centre difference IS the HD plane and ED*'s first factor:
        # one shared pass serves both counts.
        return self._ed_star_counts(encoded, queries, with_hd=True)

    def _hamming_counts(self, encoded: EncodedReference,
                        queries: np.ndarray) -> np.ndarray:
        n_queries = queries.shape[0]
        counts = np.empty((n_queries, encoded.n_rows), dtype=np.intp)
        stored = np.ascontiguousarray(encoded.planes.transpose(1, 0, 2))
        packed = pack_bitplanes(queries).transpose(1, 0, 2)  # (2, B, W)
        for start, stop in _packed_chunks(n_queries, encoded.n_rows,
                                          2 * encoded.n_words):
            diff = (stored[:, None, :, :]
                    ^ packed[:, start:stop, None, :])     # (2, b, M, W)
            mismatch = diff[0] | diff[1]
            mismatch &= encoded.valid
            counts[start:stop] = self._popcount_sum(mismatch)
        return counts

    def _ed_star_counts(
            self, encoded: EncodedReference, queries: np.ndarray,
            *, with_hd: bool) -> "tuple[np.ndarray, np.ndarray | None]":
        n_queries = queries.shape[0]
        ed = np.empty((n_queries, encoded.n_rows), dtype=np.intp)
        hd = np.empty_like(ed) if with_hd else None
        centre = pack_bitplanes(queries)
        prev, following = _shifted_neighbours(centre)
        # Plane-major (plane, variant, query, word) layout: one XOR and
        # one OR compare both planes of all three query variants
        # against the stored rows, and every downstream mask works on a
        # contiguous (variant, query, row, word) view.
        variants = np.stack([centre, prev, following], axis=2)
        variants = np.ascontiguousarray(variants.transpose(1, 2, 0, 3))
        stored = np.ascontiguousarray(encoded.planes.transpose(1, 0, 2))
        # A cell with no left (right) neighbour gets its prev (next)
        # comparison forced to mismatch; the final ``& valid`` clears
        # whatever these force in the packing tail.
        force_edges = np.stack([~encoded.valid_no_first,
                                ~encoded.valid_no_last])[:, None, None, :]
        for start, stop in _packed_chunks(n_queries, encoded.n_rows,
                                          6 * encoded.n_words):
            diff = (stored[:, None, None, :, :]
                    ^ variants[:, :, start:stop, None, :])
            miss = diff[0] | diff[1]                  # (3, b, M, W)
            miss_centre, miss_prev, miss_next = miss
            if hd is not None:
                hd[start:stop] = self._popcount_sum(
                    miss_centre & encoded.valid)
            miss[1:] |= force_edges
            miss_prev &= miss_next
            miss_prev &= miss_centre
            miss_prev &= encoded.valid
            ed[start:stop] = self._popcount_sum(miss_prev)
        return ed, hd

    def composition_profiles(self, rows: np.ndarray,
                             n_codes: int) -> np.ndarray:
        """Per-base histograms via bitplane popcounts.

        ``code = b0 + 2*b1``, so each base's occurrence count is one
        popcount of an AND over the two planes — no per-row Python
        loop.  Codes outside the 2-bit alphabet fall back to the
        shared bincount path.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if (rows.shape[0] == 0 or rows.size == 0
                or int(rows.max()) >= 4):
            return super().composition_profiles(rows, n_codes)
        planes = pack_bitplanes(rows)
        valid, _, _ = valid_masks(rows.shape[1], planes.shape[2])
        b0 = planes[:, 0, :]
        b1 = planes[:, 1, :]
        # n_codes may exceed 4 when the *other* operand of a pairwise
        # bound carries ambiguity codes; the extra bins are zero here.
        profiles = np.zeros((rows.shape[0], max(4, int(n_codes))),
                            dtype=np.int32)
        profiles[:, 3] = self._popcount_sum(b0 & b1 & valid)       # T
        profiles[:, 1] = self._popcount_sum(b0 & ~b1 & valid)      # C
        profiles[:, 2] = self._popcount_sum(~b0 & b1 & valid)      # G
        profiles[:, 0] = (rows.shape[1] - profiles[:, 1]
                          - profiles[:, 2] - profiles[:, 3])       # A
        return profiles[:, :n_codes]


register_backend(BitpackedBackend())
