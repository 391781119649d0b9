"""Tests for repro.kernels.traceback and fullmatrix."""

import numpy as np
import pytest

from repro.align.path import Layer
from repro.align.validate import score_gapped
from repro.errors import PathError
from repro.kernels import (
    affine_boundaries,
    boundary_vectors,
    compute_full,
    registry,
    trace_from,
    traceback_affine,
    traceback_linear,
)
from repro.scoring import ScoringScheme, affine_gap, dna_simple, linear_gap
from repro.scoring.matrices import match_mismatch_matrix
from tests.conftest import random_dna

needs_compiled = pytest.mark.skipif(
    not registry.compiled_available(), reason="compiled kernel extension not built"
)


def path_to_strings(points_fwd, a, b):
    """Reconstruct gapped strings from forward path points."""
    ga, gb = [], []
    for (i0, j0), (i1, j1) in zip(points_fwd, points_fwd[1:]):
        if (i1 - i0, j1 - j0) == (1, 1):
            ga.append(a[i0]); gb.append(b[j0])
        elif (i1 - i0, j1 - j0) == (1, 0):
            ga.append(a[i0]); gb.append("-")
        else:
            ga.append("-"); gb.append(b[j0])
    return "".join(ga), "".join(gb)


class TestTracebackLinear:
    def test_path_scores_optimally(self, rng, dna_scheme):
        for _ in range(25):
            M, N = rng.integers(1, 15, 2)
            a = random_dna(rng, M)
            b = random_dna(rng, N)
            ac, bc = dna_scheme.encode(a), dna_scheme.encode(b)
            fr, fc = boundary_vectors(M, N, -6)
            mats = compute_full(ac, bc, dna_scheme, fr, fc)
            pts, layer = trace_from(mats, ac, bc, dna_scheme, M, N)
            assert layer is Layer.H
            fwd = list(reversed([(M, N)] + [tuple(p) for p in pts.tolist()]))
            # complete to origin along the boundary
            i, j = fwd[0]
            prefix = []
            while i > 0 or j > 0:
                if i > 0:
                    i -= 1
                else:
                    j -= 1
                prefix.append((i, j))
            fwd = list(reversed(prefix)) + fwd
            ga, gb = path_to_strings(fwd, a, b)
            assert score_gapped(ga, gb, dna_scheme) == mats.score

    def test_stops_at_boundary(self, dna_scheme):
        ac = dna_scheme.encode("AAAA")
        bc = dna_scheme.encode("AAAA")
        fr, fc = boundary_vectors(4, 4, -6)
        mats = compute_full(ac, bc, dna_scheme, fr, fc)
        pts = traceback_linear(mats.H, ac, bc, dna_scheme.matrix.table, -6, 4, 4)
        assert pts[-1][0] == 0 or pts[-1][1] == 0

    def test_start_on_boundary_returns_empty(self, dna_scheme):
        ac = dna_scheme.encode("AA")
        bc = dna_scheme.encode("AA")
        fr, fc = boundary_vectors(2, 2, -6)
        mats = compute_full(ac, bc, dna_scheme, fr, fc)
        assert traceback_linear(mats.H, ac, bc, dna_scheme.matrix.table, -6, 0, 2) == []

    def test_inconsistent_matrix_detected(self, dna_scheme):
        ac = dna_scheme.encode("AA")
        bc = dna_scheme.encode("AA")
        H = np.zeros((3, 3), dtype=np.int64)
        H[2, 2] = 999  # unreachable value
        with pytest.raises(PathError):
            traceback_linear(H, ac, bc, dna_scheme.matrix.table, -6, 2, 2)

    def test_out_of_bounds_start(self, dna_scheme):
        H = np.zeros((3, 3), dtype=np.int64)
        ac = dna_scheme.encode("AA")
        with pytest.raises(PathError):
            traceback_linear(H, ac, ac, dna_scheme.matrix.table, -6, 5, 5)


class TestTracebackAffine:
    def test_path_scores_optimally(self, rng):
        scheme = ScoringScheme(dna_simple(), affine_gap(-9, -1))
        for _ in range(25):
            M, N = rng.integers(1, 15, 2)
            a = random_dna(rng, M)
            b = random_dna(rng, N)
            ac, bc = scheme.encode(a), scheme.encode(b)
            rh, rf, ch, ce = affine_boundaries(M, N, -9, -1)
            mats = compute_full(ac, bc, scheme, rh, ch, first_row_f=rf, first_col_e=ce)
            pts, _layer = trace_from(mats, ac, bc, scheme, M, N)
            fwd = list(reversed([(M, N)] + [tuple(p) for p in pts.tolist()]))
            i, j = fwd[0]
            prefix = []
            while i > 0 or j > 0:
                if i > 0:
                    i -= 1
                else:
                    j -= 1
                prefix.append((i, j))
            fwd = list(reversed(prefix)) + fwd
            ga, gb = path_to_strings(fwd, a, b)
            assert score_gapped(ga, gb, scheme) == mats.score

    def test_gap_run_stays_in_layer(self):
        # Force a long vertical gap: align AAAA vs A; optimal has one run.
        scheme = ScoringScheme(dna_simple(), affine_gap(-10, -1))
        ac, bc = scheme.encode("AAAA"), scheme.encode("A")
        rh, rf, ch, ce = affine_boundaries(4, 1, -10, -1)
        mats = compute_full(ac, bc, scheme, rh, ch, first_row_f=rf, first_col_e=ce)
        assert mats.score == 5 - 10 - 1 - 1


class TestComputeFull:
    def test_affine_requires_gap_caches(self, affine_scheme):
        ac = affine_scheme.encode("AR")
        with pytest.raises(ValueError):
            compute_full(ac, ac, affine_scheme,
                         np.zeros(3, np.int64), np.zeros(3, np.int64))

    def test_cells_property(self, dna_scheme, affine_dna_scheme):
        ac = dna_scheme.encode("ACG")
        fr, fc = boundary_vectors(3, 3, -6)
        lin = compute_full(ac, ac, dna_scheme, fr, fc)
        assert lin.cells == 16
        rh, rf, ch, ce = affine_boundaries(3, 3, -8, -1)
        aff = compute_full(ac, ac, affine_dna_scheme, rh, ch, first_row_f=rf, first_col_e=ce)
        assert aff.cells == 48  # three layers


def _on_tier(tier, fn, *args):
    with registry.use(tier):
        return fn(*args)


def _traces(mats, ac, bc, scheme, si, sj, layer=Layer.H):
    """``trace_from`` on every available tier, keyed by tier."""
    return {
        tier: _on_tier(tier, trace_from, mats, ac, bc, scheme, si, sj, layer)
        for tier in registry.available_tiers()
    }


def _full(ac, bc, scheme):
    M, N = len(ac), len(bc)
    if scheme.is_linear:
        fr, fc = boundary_vectors(M, N, scheme.gap_open)
        return compute_full(ac, bc, scheme, fr, fc)
    rh, rf, ch, ce = affine_boundaries(M, N, scheme.gap_open, scheme.gap_extend)
    return compute_full(ac, bc, scheme, rh, ch, first_row_f=rf, first_col_e=ce)


#: A mismatch costs exactly two gaps, so DIAG, DOWN and LEFT tie often.
TIE_MATRIX = match_mismatch_matrix(2, -2)
SCHEMES = {
    "linear": ScoringScheme(dna_simple(), linear_gap(-6)),
    "linear-ties": ScoringScheme(TIE_MATRIX, linear_gap(-1)),
    "affine": ScoringScheme(dna_simple(), affine_gap(-8, -1)),
    "affine-ties": ScoringScheme(TIE_MATRIX, affine_gap(-2, -1)),
}


class TestTraceFromArray:
    """``trace_from`` returns one ``(L, 2)`` int64 array on every tier,
    holding exactly the reference walk's points."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_array_matches_reference_walk(self, rng, name):
        scheme = SCHEMES[name]
        table = scheme.matrix.table
        for _ in range(10):
            M, N = (int(x) for x in rng.integers(1, 20, 2))
            ac, bc = scheme.encode(random_dna(rng, M)), scheme.encode(random_dna(rng, N))
            mats = _full(ac, bc, scheme)
            for layer in (Layer.H,) if scheme.is_linear else tuple(Layer):
                if scheme.is_linear:
                    ref = traceback_linear(mats.H, ac, bc, table, scheme.gap_open, M, N)
                    ref_layer = Layer.H
                else:
                    ref, ref_layer = traceback_affine(
                        mats.H, mats.E, mats.F, ac, bc, table,
                        scheme.gap_open, scheme.gap_extend, M, N, layer,
                    )
                for tier, (pts, end) in _traces(mats, ac, bc, scheme, M, N, layer).items():
                    assert pts.dtype == np.int64 and pts.shape == (len(ref), 2), tier
                    assert [tuple(p) for p in pts.tolist()] == ref, tier
                    assert end is ref_layer, tier

    def test_boundary_start_gives_empty_array(self, dna_scheme):
        ac = dna_scheme.encode("ACG")
        mats = _full(ac, ac, dna_scheme)
        for pts, layer in _traces(mats, ac, ac, dna_scheme, 0, 3).values():
            assert pts.shape == (0, 2) and layer is Layer.H


@needs_compiled
class TestCompiledTraceback:
    """The C FindPath walks reproduce the numpy tier bit for bit."""

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_random_and_tie_heavy_matrices(self, rng, name):
        scheme = SCHEMES[name]
        for _ in range(20):
            M, N = (int(x) for x in rng.integers(1, 40, 2))
            a = random_dna(rng, M) if rng.random() < 0.5 else "A" * M
            ac, bc = scheme.encode(a), scheme.encode(random_dna(rng, N))
            mats = _full(ac, bc, scheme)
            starts = [(M, N), (int(rng.integers(0, M + 1)), int(rng.integers(0, N + 1)))]
            for si, sj in starts:
                for layer in (Layer.H,) if scheme.is_linear else tuple(Layer):
                    got = _traces(mats, ac, bc, scheme, si, sj, layer)
                    (np_pts, np_layer), (c_pts, c_layer) = got["numpy"], got["compiled"]
                    np.testing.assert_array_equal(np_pts, c_pts)
                    assert np_pts.shape == c_pts.shape
                    assert np_layer is c_layer

    def test_open_equal_to_extend_on_affine_provider(self, rng):
        # open == extend makes every H/E/F switch a tie; only the affine
        # providers can be driven this way (the scheme would be linear).
        table = TIE_MATRIX.table
        for _ in range(10):
            M, N = (int(x) for x in rng.integers(1, 30, 2))
            ac = TIE_MATRIX.encode(random_dna(rng, M))
            bc = TIE_MATRIX.encode(random_dna(rng, N))
            bounds = affine_boundaries(M, N, -2, -2)
            prov = {t: registry.get_kernel("affine", t) for t in ("numpy", "compiled")}
            H, E, F = prov["numpy"].sweep_matrix(ac, bc, table, -2, -2, *bounds)
            for layer in Layer:
                args = (H, E, F, ac, bc, table, -2, -2, M, N, layer)
                ref, got = prov["numpy"].traceback(*args), prov["compiled"].traceback(*args)
                np.testing.assert_array_equal(ref[0], got[0])
                assert ref[1] is got[1]

    @pytest.mark.parametrize("name,layer,corrupt", [
        ("linear", Layer.H, "H"),
        ("affine", Layer.H, "H"),
        ("affine", Layer.E, "E"),
        ("affine", Layer.F, "F"),
    ])
    def test_corrupted_matrix_same_error_on_both_tiers(self, name, layer, corrupt):
        scheme = SCHEMES[name]
        ac, bc = scheme.encode("ACGTAC"), scheme.encode("AGTTC")
        mats = _full(ac, bc, scheme)
        getattr(mats, corrupt)[6, 5] += 1000  # no predecessor reproduces it
        messages = {}
        for tier in ("numpy", "compiled"):
            with pytest.raises(PathError) as exc:
                _on_tier(tier, trace_from, mats, ac, bc, scheme, 6, 5, layer)
            messages[tier] = str(exc.value)
        assert messages["numpy"] == messages["compiled"]
        assert messages["numpy"].startswith(f"no predecessor reproduces {corrupt}[6,5]=")

    def test_out_of_range_start_same_error_on_both_tiers(self, dna_scheme):
        ac = dna_scheme.encode("AC")
        mats = _full(ac, ac, dna_scheme)
        messages = set()
        for tier in ("numpy", "compiled"):
            with pytest.raises(PathError) as exc:
                _on_tier(tier, trace_from, mats, ac, ac, dna_scheme, 3, 1)
            messages.add(str(exc.value))
        assert messages == {"traceback start (3, 1) outside matrix (3, 3)"}

    def test_short_codes_rejected_before_the_walk(self, dna_scheme):
        ac = dna_scheme.encode("ACGT")
        mats = _full(ac, ac, dna_scheme)
        with pytest.raises(ValueError, match="cannot reach"):
            _on_tier("compiled", trace_from, mats, ac[:2], ac, dna_scheme, 4, 4)
