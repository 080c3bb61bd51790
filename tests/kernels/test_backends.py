"""Kernel-backend registry, resolution order and exact-count contracts.

The binding contract of :mod:`repro.kernels`: every registered backend
returns **exactly equal integer counts** — the boolean comparison sweep
is the reference semantics, the GEMM and bitpacked lanes are
implementations of it.  These tests pin the registry/resolution API and
the bit-identity at the primitive level; the execution-path identity
(scalar/batched/sweep/sharded) lives in ``test_cross_backend.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import CamArray, StoredReference
from repro.cam.cell import MatchMode
from repro.distance.ed_star import mismatch_counts_all_reads
from repro.distance.edit_distance import composition_lower_bound
from repro.errors import CamConfigError
from repro.kernels import (
    DEFAULT_BACKEND,
    KERNEL_BACKEND_ENV,
    BitpackedBackend,
    GemmBackend,
    as_backend,
    available_backends,
    encode_reference,
    encoded_reference_arrays,
    encoded_reference_from_arrays,
    get_backend,
    resolve_backend,
    slice_encoded_reference,
)
from repro.knobs import validate_service_knobs


def _reference_counts(segments: np.ndarray, queries: np.ndarray,
                      ed_star: bool) -> np.ndarray:
    """The boolean-sweep reference semantics, computed directly."""
    if ed_star:
        return mismatch_counts_all_reads(segments, queries)
    return np.count_nonzero(
        segments[None, :, :] != queries[:, None, :], axis=2
    ).astype(np.intp)


class TestRegistry:
    def test_both_builtin_backends_registered(self):
        names = available_backends()
        assert "numpy-gemm" in names
        assert "bitpacked" in names
        assert names == tuple(sorted(names))

    def test_get_backend_unknown_name(self):
        with pytest.raises(CamConfigError) as excinfo:
            get_backend("warp-drive")
        # The error lists what IS registered.
        assert "numpy-gemm" in str(excinfo.value)

    def test_as_backend_defaults_to_gemm(self):
        assert as_backend(None).name == DEFAULT_BACKEND == "numpy-gemm"

    def test_as_backend_passthrough(self):
        backend = BitpackedBackend()
        assert as_backend(backend) is backend
        assert as_backend("bitpacked").name == "bitpacked"

    def test_validate_service_knobs_backend(self):
        validate_service_knobs(backend="bitpacked")
        validate_service_knobs(backend=GemmBackend())
        with pytest.raises(CamConfigError):
            validate_service_knobs(backend="no-such-backend")


class TestEncodedReferenceErrors:
    """Error-contract regressions (contractlint CL401): encoding
    helpers raise typed config errors, not bare ``ValueError``."""

    def test_slice_out_of_range_raises_typed_error(self):
        encoded = encode_reference(np.zeros((4, 8), dtype=np.uint8))
        with pytest.raises(CamConfigError, match="outside the encoding"):
            slice_encoded_reference(encoded, 2, 9)

    def test_from_arrays_missing_field_raises_typed_error(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        arrays = dict(encoded_reference_arrays(encoded))
        del arrays["segments"]
        with pytest.raises(CamConfigError, match="missing arrays"):
            encoded_reference_from_arrays(arrays)


class TestResolutionOrder:
    """Explicit knob > ``REPRO_KERNEL_BACKEND`` env var > autotune."""

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "bitpacked")
        assert resolve_backend("numpy-gemm").name == "numpy-gemm"

    def test_env_beats_autotune(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "bitpacked")
        assert resolve_backend(None).name == "bitpacked"

    def test_invalid_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "warp-drive")
        with pytest.raises(CamConfigError) as excinfo:
            resolve_backend(None)
        assert KERNEL_BACKEND_ENV in str(excinfo.value)

    def test_autotune_tail_returns_registered_backend(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolve_backend(None).name in available_backends()

    def test_instance_passthrough(self):
        backend = BitpackedBackend()
        assert resolve_backend(backend) is backend

    def test_array_resolves_explicit_knob(self):
        array = CamArray(rows=4, cols=16, noisy=False,
                         backend="bitpacked")
        assert array.backend == "bitpacked"

    def test_array_rejects_unknown_backend(self):
        with pytest.raises(CamConfigError):
            CamArray(rows=4, cols=16, backend="warp-drive")

    def test_array_env_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "bitpacked")
        assert CamArray(rows=4, cols=16, noisy=False).backend == "bitpacked"


class TestEncodeOnce:
    def test_one_pass_serves_every_backend(self):
        rng = np.random.default_rng(7)
        segments = rng.integers(0, 4, (8, 32)).astype(np.uint8)
        queries = rng.integers(0, 4, (5, 32)).astype(np.uint8)
        ref = StoredReference.encode(segments)
        assert ref.n_encodes == 1
        for name in available_backends():
            ref.counts_batch(queries, MatchMode.ED_STAR, backend=name)
            ref.counts_batch(queries, MatchMode.HAMMING, backend=name)
            ref.counts_batch_dual(queries, backend=name)
        assert ref.n_encodes == 1

    def test_encoded_reference_arrays_are_read_only(self):
        encoded = encode_reference(np.zeros((2, 8), dtype=np.uint8))
        for arr in (encoded.segments, encoded.onehot, encoded.planes,
                    encoded.valid):
            assert not arr.flags.writeable


# -- randomized exact-equality properties (satellite: fallback lanes) --

# Codes 0..3 are ACGT; 4..6 stand for N/ambiguity codes that force the
# boolean fallback lane.
_acgt_rows = st.integers(min_value=1, max_value=7)
# Past the paper's 256-cell rows: per-word popcounts are uint8, so any
# narrow accumulator would wrap at 256.
_cols = st.integers(min_value=1, max_value=512)


@st.composite
def _workload(draw, max_code: int):
    """(segments, queries) with shared width; queries may be empty."""
    n_rows = draw(_acgt_rows)
    n_cols = draw(_cols)
    n_queries = draw(st.integers(min_value=0, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = rng.integers(0, 4, (n_rows, n_cols)).astype(np.uint8)
    queries = rng.integers(0, max_code + 1,
                           (n_queries, n_cols)).astype(np.uint8)
    return segments, queries


class TestExactEqualityProperties:
    @settings(max_examples=60, deadline=None)
    @given(_workload(max_code=3))
    def test_acgt_counts_match_reference(self, workload):
        segments, queries = workload
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, queries, ed_star)
            for name in available_backends():
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected), name

    @settings(max_examples=60, deadline=None)
    @given(_workload(max_code=6))
    def test_ambiguity_codes_fall_back_exactly(self, workload):
        """Reads with N/ambiguity codes agree with the boolean
        reference on every backend (the packed/GEMM lanes route them
        to the shared fallback)."""
        segments, queries = workload
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, queries, ed_star)
            for name in available_backends():
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert np.array_equal(got, expected), name

    @settings(max_examples=40, deadline=None)
    @given(_workload(max_code=6))
    def test_dual_equals_two_single_passes(self, workload):
        segments, queries = workload
        encoded = encode_reference(segments)
        for name in available_backends():
            backend = get_backend(name)
            ed, hd = backend.counts_batch_dual(encoded, queries)
            assert np.array_equal(
                ed, backend.counts_batch(encoded, queries, ed_star=True))
            assert np.array_equal(
                hd, backend.counts_batch(encoded, queries, ed_star=False))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(0, 2**32 - 1))
    def test_single_row_reference(self, n_cols, seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, (1, n_cols)).astype(np.uint8)
        queries = rng.integers(0, 5, (3, n_cols)).astype(np.uint8)
        encoded = encode_reference(segments)
        expected = _reference_counts(segments, queries, True)
        for name in available_backends():
            got = get_backend(name).counts_batch(encoded, queries,
                                                 ed_star=True)
            assert np.array_equal(got, expected), name

    def test_empty_batch_every_backend(self):
        segments = np.zeros((3, 16), dtype=np.uint8)
        queries = np.zeros((0, 16), dtype=np.uint8)
        encoded = encode_reference(segments)
        for name in available_backends():
            for ed_star in (True, False):
                got = get_backend(name).counts_batch(encoded, queries,
                                                     ed_star=ed_star)
                assert got.shape == (0, 3)


def _all_mismatch(n_rows: int, n_cols: int,
                  seed: int = 0) -> "tuple[np.ndarray, np.ndarray]":
    """Random rows whose row 0 is all A, and a query of all C: every
    cell of row 0 (neighbours included) mismatches, so its ED* and HD
    counts are both ``n_cols``."""
    rng = np.random.default_rng(seed)
    segments = rng.integers(0, 4, (n_rows, n_cols)).astype(np.uint8)
    segments[0] = 0
    return segments, np.ones((1, n_cols), dtype=np.uint8)


class TestCountBoundaries:
    """Integer-dtype boundaries at and around the paper's geometry."""

    @pytest.mark.parametrize("n_cols", [255, 256, 257])
    def test_all_mismatch_row_counts_every_cell(self, n_cols):
        segments, query = _all_mismatch(4, n_cols)
        encoded = encode_reference(segments)
        for ed_star in (True, False):
            expected = _reference_counts(segments, query, ed_star)
            assert expected[0, 0] == n_cols
            for name in available_backends():
                got = get_backend(name).counts_batch(encoded, query,
                                                     ed_star=ed_star)
                assert np.array_equal(got, expected), (name, ed_star)

    @pytest.mark.parametrize("mode", [MatchMode.ED_STAR, MatchMode.HAMMING])
    def test_all_mismatch_row_never_matches(self, mode):
        """Regression: the bitpacked lane summed popcounts in uint8,
        so a 256-cell row mismatching everywhere counted 0 and matched
        at any threshold."""
        segments, query = _all_mismatch(4, 256)
        results = {}
        for name in available_backends():
            array = CamArray(rows=4, cols=256, noisy=False, backend=name)
            array.store(segments)
            results[name] = array.search_batch(query, 8, mode=mode)
            assert results[name].mismatch_counts[0, 0] == 256, name
            assert not results[name].matches[0, 0], name
        gemm = results["numpy-gemm"]
        for name, result in results.items():
            assert np.array_equal(result.mismatch_counts,
                                  gemm.mismatch_counts), name
            assert np.array_equal(result.matches, gemm.matches), name

    def test_backends_agree_at_paper_geometry(self):
        """A 256 x 256 reference and 256-base reads: every backend's
        ED*, HD and dual counts are ``==`` the boolean reference."""
        rng = np.random.default_rng(7)
        segments = rng.integers(0, 4, (256, 256)).astype(np.uint8)
        queries = np.concatenate([
            rng.integers(0, 4, (6, 256)).astype(np.uint8),
            segments[:1],                               # exact hit
            (segments[1:2] + 1) % 4,                    # every cell off
        ])
        encoded = encode_reference(segments)
        expected_ed = _reference_counts(segments, queries, True)
        expected_hd = _reference_counts(segments, queries, False)
        assert expected_hd[7, 1] == 256
        for name in available_backends():
            backend = get_backend(name)
            ed, hd = backend.counts_batch_dual(encoded, queries)
            assert np.array_equal(ed, expected_ed), name
            assert np.array_equal(hd, expected_hd), name


class TestCompositionProfiles:
    def test_long_rows_count_past_255(self):
        """A 300-base row of one letter profiles as 300, not 44."""
        rows = np.full((2, 300), 2, dtype=np.uint8)
        rows[1, :257] = 0
        expected = np.stack([np.bincount(row, minlength=4)
                             for row in rows]).astype(np.int32)
        for name in available_backends():
            got = get_backend(name).composition_profiles(rows, 4)
            assert np.array_equal(got, expected), name

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=512),
           st.integers(0, 2**32 - 1))
    def test_backends_agree_with_bincount(self, max_code, n_cols, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, max_code + 1, (4, n_cols)).astype(np.uint8)
        n_codes = int(rows.max()) + 1
        expected = np.stack(
            [np.bincount(row, minlength=n_codes) for row in rows]
        ).astype(np.int32)
        for name in available_backends():
            got = get_backend(name).composition_profiles(rows, n_codes)
            assert np.array_equal(got, expected), name

    def test_mixed_alphabet_pair_bound(self):
        """ACGT segments vs ambiguity-code reads: the profile widths
        must agree (regression for the bitplane path returning 4 bins
        when the other operand needs more)."""
        segments = np.array([[0, 1, 2, 3]], dtype=np.uint8)
        reads = np.array([[0, 1, 2, 7]], dtype=np.uint8)
        bound = composition_lower_bound(segments, reads)
        assert bound.shape == (1, 1)
        assert bound[0, 0] == 1  # one base differs -> L1=2 -> bound 1
