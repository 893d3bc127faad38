import math
import warnings

import numpy as np
import pytest

from strip_solver.profiles import make_profile
from strip_solver.spectrum import (
    SineSpectrum,
    analyze,
    constant_coefficients,
    dst,
    synthesize,
)

L = math.pi


class TestAnalyze:
    def test_pure_mode_orthogonality(self):
        s = analyze(lambda x: np.sin(math.pi * x / L), 8, l=L)
        assert s.coeffs[0] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(s.coeffs[1:])) < 1e-13

    def test_zero_function(self):
        s = analyze(lambda x: np.zeros_like(x), 6, l=L)
        assert np.all(s.coeffs == 0.0)

    def test_parabola_first_coefficient(self):
        s = analyze(lambda x: x * (L - x), 8, l=L)
        assert s.coeffs[0] == pytest.approx(8.0 / math.pi, rel=1e-10)

    def test_uniform_samples_use_exact_transform(self):
        # the DST-I of uniform samples resolves a band-limited callable, a
        # non-vectorised one included, to machine precision
        exact = np.array([0.0, 1.0, 0.0, 0.0, -0.3, 0.0, 0.05, 0.0])
        g = lambda x: np.sin(2 * x) - 0.3 * np.sin(5 * x) + 0.05 * np.sin(7 * x)
        for f in (g, lambda x: float(g(float(x)))):
            s = analyze(f, 8, l=L)
            assert np.max(np.abs(s.coeffs - exact)) < 1e-14
        xs = np.linspace(0.0, L, 37)
        assert np.max(np.abs(synthesize(s, xs) - g(xs))) < 1e-14

    def test_linearity(self):
        g = make_profile("bump", L)
        h = make_profile("sin_2", L)
        a, b = 0.7, -1.3
        combo = analyze(lambda x: a * g(x) + b * h(x), 16, l=L)
        parts = a * analyze(g, 16, l=L).coeffs + b * analyze(h, 16, l=L).coeffs
        assert np.max(np.abs(combo.coeffs - parts)) < 1e-13

    def test_roundtrip_converges_for_compatible_corpus(self):
        corpus = [
            make_profile("bump", L),
            make_profile("sin_3", L),
            lambda x: 0.75 * np.sin(x) - 0.25 * np.sin(3 * x),
        ]
        xs = np.linspace(0.0, L, 301)
        for g in corpus:
            errs = []
            for n_modes in (16, 64):
                s = analyze(g, n_modes, l=L)
                errs.append(np.max(np.abs(synthesize(s, xs) - g(xs))))
            assert errs[1] <= errs[0] + 1e-15
            assert errs[1] < 1e-8

    def test_warns_on_incompatible_boundary(self):
        with pytest.warns(UserWarning):
            analyze(lambda x: np.cos(x), 8, l=L)

    def test_errors(self):
        with pytest.raises(TypeError):
            analyze(lambda x: np.sin(x), 8)  # missing length
        with pytest.raises(TypeError, match="callable"):
            analyze(np.sin(np.linspace(0.0, L, 9)), 4, l=L)
        with pytest.raises(ValueError):
            analyze(lambda x: np.sin(x), 0, l=L)
        with pytest.raises(ValueError):
            analyze(lambda x: np.full_like(x, math.nan), 4, l=L)

    @pytest.mark.parametrize("n_modes, l, match", [
        (8, -1.0, "length"), (8, 0.0, "length"), (8, math.nan, "length"),
        (8, math.inf, "length"), (2.5, L, "integer"), (0, L, ">= 1"),
    ])
    def test_bad_arguments_raise_before_sampling(self, n_modes, l, match):
        calls = []

        def spy(x):
            calls.append(x)
            return np.cos(x)  # would warn at the strip ends if sampled

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                analyze(spy, n_modes, l=l)
        assert calls == []


class TestSynthesize:
    def test_boundary_is_exact_zero(self):
        s = SineSpectrum(l=L, coeffs=np.array([0.3, -0.2, 0.9]))
        assert synthesize(s, 0.0) == 0.0
        assert synthesize(s, L) == 0.0

    def test_midpoint_of_first_mode(self):
        s = SineSpectrum(l=L, coeffs=np.array([1.0]))
        assert synthesize(s, L / 2) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_outside_domain(self):
        s = SineSpectrum(l=L, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            synthesize(s, -0.1)
        with pytest.raises(ValueError):
            synthesize(s, L + 0.1)

    def test_rejects_nan_points(self):
        s = SineSpectrum(l=L, coeffs=np.array([1.0]))
        for x in (math.nan, [0.5, math.nan], np.array([math.nan, 0.0])):
            with pytest.raises(ValueError):
                synthesize(s, x)


class TestDst:
    # numpy >= 2 evaluates the DST-I with the same pocketfft real FFT as scipy,
    # which serves only as the reference here
    @pytest.mark.parametrize("n", (1, 2, 127, 2047))
    def test_bitwise_equal_to_scipy(self, n):
        from scipy.fft import dst as scipy_dst

        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        for axis in (0, -1):
            assert np.array_equal(dst(x, axis=axis), scipy_dst(x, type=1, axis=axis))
        cols = rng.standard_normal((n, 33))
        assert np.array_equal(dst(cols, axis=0), scipy_dst(cols, type=1, axis=0))
        rows = rng.standard_normal((5, n))
        assert np.array_equal(dst(rows), scipy_dst(rows, type=1))
        assert np.array_equal(dst(rows, axis=-1), scipy_dst(rows, type=1, axis=-1))

    def test_bitwise_equal_to_scipy_across_column_blocks(self):
        # 1001 columns: full DST_BLOCK-wide blocks and a narrower last one
        from scipy.fft import dst as scipy_dst

        rng = np.random.default_rng(1001)
        wide = rng.standard_normal((127, 1001))
        assert np.array_equal(dst(wide, axis=0), scipy_dst(wide, type=1, axis=0))
        cube = rng.standard_normal((9, 31, 7))
        for axis in (0, 1, -1):
            assert np.array_equal(dst(cube, axis=axis), scipy_dst(cube, type=1, axis=axis))

    def test_pure_mode(self):
        # y_k = 2 sum_j sin(pi (j+1)/(N+1)) sin(pi (j+1)(k+1)/(N+1)) = (N+1) delta_k0
        n = 15
        x = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
        y = dst(x)
        assert y[0] == pytest.approx(n + 1, rel=1e-14)
        assert np.max(np.abs(y[1:])) < 1e-13


class TestTypes:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SineSpectrum(l=-1.0, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            SineSpectrum(l=L, coeffs=np.array([math.inf]))

    def test_spectrum_rejects_complex_coefficients(self):
        for coeffs in (np.array([1.0 + 2.0j]), np.array([1.0 + 0.0j, 2.0]), [0.5, 1j]):
            with pytest.raises(ValueError, match="real"):
                SineSpectrum(l=L, coeffs=coeffs)

    def test_constant_coefficients_match_quadrature(self):
        exact = constant_coefficients(1.0, L, 8)
        with pytest.warns(UserWarning):
            via_dst = analyze(lambda x: np.ones_like(x), 8, l=L)
        assert np.max(np.abs(exact - via_dst.coeffs)) < 1e-5
        assert exact[1] == 0.0 and exact[0] == pytest.approx(4 / math.pi)


class TestSpectrumContract:
    """What the fast finiteness check in ``SineSpectrum`` must keep."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_non_finite_anywhere(self, bad, where):
        coeffs = np.arange(1.0, 6.0)
        coeffs[where] = bad
        with pytest.raises(ValueError, match="finite"):
            SineSpectrum(l=L, coeffs=coeffs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_single_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SineSpectrum(l=L, coeffs=np.array([bad]))

    def test_rejects_infinities_whose_sum_is_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SineSpectrum(l=L, coeffs=np.array([math.inf, -math.inf]))

    def test_accepts_finite_coefficients_whose_sum_overflows(self):
        s = SineSpectrum(l=L, coeffs=np.array([1e308, 1e308]))
        assert np.all(s.coeffs == 1e308)
        assert SineSpectrum(l=L, coeffs=np.array([-1e200, 1e200])).coeffs[1] == 1e200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coeffs", [[1e200], [1e308, 1e308], [-1e308, -1e308],
                                        [1e200, -1e200, 3.0]])
    def test_large_finite_coefficients_construct_without_warning(self, coeffs):
        # a sum of squares overflowed for these and warned "overflow encountered in dot"
        assert SineSpectrum(l=L, coeffs=coeffs).coeffs.tolist() == coeffs

    def test_copies_its_input(self):
        data = np.array([1.0, 2.0, 3.0])
        s = SineSpectrum(l=L, coeffs=data)
        data[1] = -7.0
        assert list(s.coeffs) == [1.0, 2.0, 3.0]

    def test_coefficients_are_read_only(self):
        s = SineSpectrum(l=L, coeffs=np.array([1.0, 2.0]))
        assert not s.coeffs.flags.writeable
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    @pytest.mark.parametrize("coeffs", [[1, 2, 3], np.array([1, 2, 3]), (1.0, 2.0, 3.0)])
    def test_accepts_lists_and_integer_arrays(self, coeffs):
        s = SineSpectrum(l=L, coeffs=coeffs)
        assert s.coeffs.dtype == np.float64
        assert list(s.coeffs) == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("coeffs", [np.array(1.0), np.ones((2, 2)), np.array([]), []])
    def test_rejects_wrong_shape(self, coeffs):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            SineSpectrum(l=L, coeffs=coeffs)
