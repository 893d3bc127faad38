import math

import numpy as np
import pytest

from strip_solver.profiles import make_profile
from strip_solver.spectrum import (
    SampledFunction,
    SineSpectrum,
    analyze,
    constant_coefficients,
    dst,
    second_derivative,
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
        nodes = np.linspace(0.0, L, 51)
        sf = SampledFunction(l=L, nodes=nodes, values=np.sin(2 * nodes))
        s = analyze(sf, 8)
        xs = np.linspace(0.0, L, 37)
        assert np.max(np.abs(synthesize(s, xs) - np.sin(2 * xs))) < 1e-10

    def test_nonuniform_samples_fall_back_to_simpson(self):
        # cosine-clustered nodes exercise the quadrature path
        s_par = np.linspace(0.0, math.pi, 201)
        nodes = L * (1 - np.cos(s_par / 2) ** 2)
        nodes[0], nodes[-1] = 0.0, L
        sf = SampledFunction(l=L, nodes=nodes, values=np.sin(nodes))
        s = analyze(sf, 4)
        assert s.coeffs[0] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(s.coeffs[1:])) < 1e-6

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
        with pytest.raises(ValueError):
            analyze(lambda x: np.sin(x), 8)  # missing length
        with pytest.raises(ValueError):
            analyze(lambda x: np.sin(x), 0, l=L)
        with pytest.raises(ValueError):
            analyze(lambda x: np.full_like(x, math.nan), 4, l=L)
        nodes = np.linspace(0.0, L, 9)
        sf = SampledFunction(l=L, nodes=nodes, values=np.sin(nodes))
        with pytest.raises(ValueError):
            analyze(sf, 8)  # more modes than the samples resolve


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


class TestSecondDerivative:
    def test_first_mode(self):
        s = SineSpectrum(l=L, coeffs=np.array([1.0]))
        assert second_derivative(s).coeffs[0] == pytest.approx(-1.0, rel=1e-15)

    def test_zero_spectrum(self):
        s = SineSpectrum(l=L, coeffs=np.zeros(3))
        assert np.all(second_derivative(s).coeffs == 0.0)

    def test_double_application(self):
        s = SineSpectrum(l=L, coeffs=np.array([0.0, 1.0]))
        twice = second_derivative(second_derivative(s))
        assert twice.coeffs[1] == pytest.approx(16.0, rel=1e-14)


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
    def test_sampled_function_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(l=L, nodes=np.array([0.0, 2.0, 1.0, L]),
                            values=np.zeros(4))
        with pytest.raises(ValueError):
            SampledFunction(l=L, nodes=np.array([0.1, 1.0, L]), values=np.zeros(3))

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SineSpectrum(l=-1.0, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            SineSpectrum(l=L, coeffs=np.array([math.inf]))

    def test_constant_coefficients_match_quadrature(self):
        exact = constant_coefficients(1.0, L, 8)
        with pytest.warns(UserWarning):
            via_dst = analyze(lambda x: np.ones_like(x), 8, l=L, num_points=16385)
        assert np.max(np.abs(exact - via_dst.coeffs)) < 1e-3
        assert exact[1] == 0.0 and exact[0] == pytest.approx(4 / math.pi)
