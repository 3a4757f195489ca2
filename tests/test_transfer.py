"""Tests for spectrum regularization, Freiman maps and the transfer pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from solfree.cyclic import CyclicFunction, CyclicSet, solution_measure_convolution
from solfree.errors import SolfreeError
from solfree.forms import LinearForm
from solfree.groups import TORUS
from solfree.torus import GridFunction, GridSet, solution_measure_grid
from solfree.transfer import (
    FreimanMap,
    SpectralFunction,
    build_product_set,
    centered_lift,
    find_iso_int_to_modn,
    find_iso_modp_to_int,
    finite_spectral_measure,
    quantize_values,
    range_correct,
    regularize,
    synthesize_grid,
    transfer_pipeline,
    transfer_spectrum,
    verify_freiman_isomorphism,
)

SUMFREE = LinearForm((1, 1, -1))


class TestRegularize:
    def test_constant(self):
        f = CyclicFunction.constant(11, Fraction(2, 7))
        spec, report = regularize(f, 0.05, 11)
        assert spec.support == (0,)
        assert spec.mean == Fraction(2, 7)
        assert report.l2_residual < 1e-9

    def test_interval_support(self):
        p = 31
        half = CyclicSet.from_members(p, range((p + 1) // 2))
        f = CyclicFunction.from_set(half)
        spec, _ = regularize(f, 0.05, p)
        # an interval's largest coefficients sit at frequencies 0 and +-1
        assert 0 in spec.coefficients
        assert 1 in spec.coefficients and p - 1 in spec.coefficients

    def test_zero_threshold_identity(self):
        p = 13
        f = CyclicFunction(
            p, tuple(Fraction(i % 4, 4) for i in range(p))
        )
        spec, report = regularize(f, 0.0, p)
        assert spec.support_size == sum(
            1 for c in np.fft.fft(f.float_values()) / p if abs(c) > 1e-15
        ) or spec.support_size == p
        assert report.l2_residual < 1e-9

    def test_mean_exact(self):
        f = CyclicFunction(7, tuple(Fraction(i, 7) for i in range(7)))
        spec, _ = regularize(f, 0.2, 3)
        assert spec.mean == f.mean

    def test_support_cap(self):
        f = CyclicFunction(7, tuple(Fraction(i, 7) for i in range(7)))
        spec, _ = regularize(f, 0.0, 3)
        assert spec.support_size <= 3
        with pytest.raises(SolfreeError):
            regularize(f, 0.1, 0)

    def test_grid_function(self):
        A = GridSet.from_interval(6, Fraction(1, 3), Fraction(2, 3))
        spec, _ = regularize(A, 0.05, 21)
        assert spec.carrier is TORUS
        assert spec.mean == Fraction(1, 3)
        assert 0 in spec.coefficients and 1 in spec.coefficients
        assert spec.conjugate_symmetric()


class TestFreimanMaps:
    def test_modp_small_already(self):
        phi = find_iso_modp_to_int(101, {0, 1, 2}, 2)
        assert phi.pairs == {0: 0, 1: 1, 2: 2}

    def test_modp_dilation_needed(self):
        phi = find_iso_modp_to_int(101, {0, 1, 50}, 2)
        assert phi.pairs[1] == 2 and phi.pairs[50] == -1
        assert sorted(phi.image) == [-1, 0, 2]

    def test_modp_verified(self):
        phi = find_iso_modp_to_int(97, {0, 1, 2, 4, 5, 92, 93, 95, 96}, 2)
        assert verify_freiman_isomorphism(phi, 2)

    def test_non_isomorphism_rejected(self):
        # x -> x mod 3 on {0,1,2} in Z collapses 2+2 = 4 with 1+0 = 1
        phi = FreimanMap({0: 0, 1: 1, 2: 2}, source_modulus=None, target_modulus=3, k=2)
        assert not verify_freiman_isomorphism(phi, 2)

    def test_modp_error_when_too_small(self):
        match = r"\|R\| = 7, p = 7, k = 3; .*height or max_support.*larger prime"
        with pytest.raises(SolfreeError, match=match):
            find_iso_modp_to_int(7, {0, 1, 2, 3, 4, 5, 6}, 3)

    def test_int_to_modn(self):
        phi = find_iso_int_to_modn({0, 1, 2}, 2, 101)
        assert phi.pairs == {0: 0, 1: 1, 2: 2}
        phi = find_iso_int_to_modn({0, 3, 10}, 3, 61)
        assert verify_freiman_isomorphism(phi)

    def test_int_to_modn_window_error(self):
        with pytest.raises(SolfreeError):
            find_iso_int_to_modn({0, 30}, 2, 100)

    def test_must_contain_zero(self):
        with pytest.raises(SolfreeError):
            find_iso_modp_to_int(101, {1, 2}, 2)


class TestProductSet:
    def test_h1(self):
        assert build_product_set([-1, 0, 1], 1) == [-1, 0, 1]

    def test_h2(self):
        assert build_product_set([-1, 0, 1], 2) == [-2, -1, 0, 1, 2]

    def test_growth_bound(self):
        R = [-3, -1, 0, 1, 3]
        for h in (1, 2, 3):
            assert len(build_product_set(R, h)) <= len(R) ** h

    def test_modular(self):
        assert build_product_set([0, 1, 6], 2, modulus=7) == [0, 1, 2, 5, 6]


class TestTransferSpectrum:
    def test_constant(self):
        spec = SpectralFunction(101, {0: 0.25 + 0j}, Fraction(1, 4))
        phi = find_iso_modp_to_int(101, {0}, 2)
        out = transfer_spectrum(spec, phi)
        assert out.carrier is TORUS
        assert out.coefficients == {0: 0.25 + 0j}
        assert out.mean == Fraction(1, 4)

    def test_support_escape(self):
        spec = SpectralFunction(101, {0: 0.5, 1: 0.1, 100: 0.1}, Fraction(1, 2))
        phi = find_iso_modp_to_int(101, {0}, 2)
        with pytest.raises(SolfreeError):
            transfer_spectrum(spec, phi)

    def test_measure_preserved_under_iso(self):
        # support {0, +-1} mod p lifted to the circle: the finite spectral
        # sums for x1+x2-x3 match term for term
        p = 31
        coeffs = {0: 0.4 + 0j, 1: 0.1 + 0.05j, 30: 0.1 - 0.05j}
        spec = SpectralFunction(p, coeffs, Fraction(2, 5))
        q = build_product_set(spec.support, 1, modulus=p)
        phi = find_iso_modp_to_int(p, q, 2)
        out = transfer_spectrum(spec, phi)
        src = finite_spectral_measure(spec, SUMFREE)
        dst = finite_spectral_measure(out, SUMFREE)
        assert abs(src - dst) < 1e-12

    def test_bad_map_changes_measure(self):
        # a bijection that preserves no additive relations beyond length 1
        # breaks T_L for L = (2,-1,-1): 2*1 = 2 maps to 3 != 1+1
        form = LinearForm((2, -1, -1))
        coeffs = {
            0: 0.5 + 0j,
            1: 0.2 + 0j,
            -1: 0.2 + 0j,
            2: 0.1 + 0j,
            -2: 0.1 + 0j,
        }
        spec = SpectralFunction(TORUS, coeffs, Fraction(1, 2))
        bad = FreimanMap(
            {0: 0, 1: 1, -1: -1, 2: 3, -2: -3},
            source_modulus=None,
            target_modulus=None,
            k=1,
        )
        assert not verify_freiman_isomorphism(bad, 2)
        out = transfer_spectrum(spec, bad)
        src = finite_spectral_measure(spec, form)
        dst = finite_spectral_measure(out, form)
        assert abs(src - dst) > 1e-3


class TestRangeCorrect:
    def test_identity(self):
        f = CyclicFunction(5, tuple(Fraction(i, 5) for i in range(5)))
        out, report = range_correct(f)
        assert out.values == f.values
        assert report.l2_distance == 0

    def test_mean_error(self):
        spec = SpectralFunction(TORUS, {0: 1.2 + 0j}, Fraction(6, 5))
        with pytest.raises(SolfreeError):
            range_correct(spec, sample_resolution=16)

    def test_cosine(self):
        # 0.5 + 0.6 cos(2 pi x) sampled at N=64: clipped, mean exactly 1/2
        spec = SpectralFunction(
            TORUS, {0: 0.5 + 0j, 1: 0.3 + 0j, -1: 0.3 + 0j}, Fraction(1, 2)
        )
        out, report = range_correct(spec, sample_resolution=64)
        assert isinstance(out, GridFunction)
        assert out.mean == Fraction(1, 2)
        assert all(0 <= v <= 1 for v in out.values)
        assert report.clipped_mass > 0

    def test_exact_mean_restoration_cyclic(self):
        spec = SpectralFunction(
            11, {0: 0.4 + 0j, 1: 0.35 + 0j, 10: 0.35 + 0j}, Fraction(2, 5)
        )
        out, _ = range_correct(spec)
        assert isinstance(out, CyclicFunction)
        assert out.mean == Fraction(2, 5)
        assert all(0 <= v <= 1 for v in out.values)


class TestSynthesize:
    def test_grid_midpoints_and_bound(self):
        spec = SpectralFunction(
            TORUS, {0: 0.5 + 0j, 2: 0.25 + 0j, -2: 0.25 + 0j}, Fraction(1, 2)
        )
        values, bound = synthesize_grid(spec, 8)
        xs = (np.arange(8) + 0.5) / 8
        expected = 0.5 + 0.5 * np.cos(4 * np.pi * xs)
        assert np.allclose(values, expected)
        assert bound >= 2 * np.pi * 2 * 0.5 / 16 - 1e-12

    def test_quantize(self):
        vals = quantize_values([0.12345, -0.001, 1.0004], 2**10)
        assert all(v.denominator <= 2**10 for v in vals)
        assert abs(float(vals[0]) - 0.12345) <= 2**-10


class TestPipeline:
    def test_constant_roundtrip(self):
        f = CyclicFunction.constant(97, Fraction(1, 3))
        g, report = transfer_pipeline(
            f, TORUS, eps=0.05, height=1, forms=SUMFREE, sample_resolution=96
        )
        assert isinstance(g, GridFunction)
        assert g.mean == Fraction(1, 3)
        assert all(v == Fraction(1, 3) for v in g.values)
        for row in report.per_form:
            assert row["delta"] < 1e-12
        assert report.bounds_flag

    def test_interval_to_torus(self):
        p = 97
        members = range(33, 65)  # sum-free middle interval, density 32/97
        A = CyclicSet.from_members(p, members)
        f = CyclicFunction.from_set(A)
        assert solution_measure_convolution(SUMFREE, [A] * 3) == 0
        g, report = transfer_pipeline(
            f,
            TORUS,
            eps=0.02,
            height=1,
            forms=SUMFREE,
            sample_resolution=2 * 97,
        )
        assert g.mean == Fraction(32, 97)
        assert report.per_form[0]["T_target"] < 0.05
        assert report.support_size >= 3

    def test_torus_to_zp(self):
        A = GridSet.from_interval(6, Fraction(1, 3), Fraction(2, 3))
        g, report = transfer_pipeline(
            A, 1009, eps=0.02, height=1, forms=SUMFREE
        )
        assert isinstance(g, CyclicFunction)
        assert g.modulus == 1009
        assert g.mean == Fraction(1, 3)
        assert report.per_form[0]["T_target"] < 0.05
        assert report.lam is None

    def test_rejects_two_variable_forms(self):
        f = CyclicFunction.constant(31, Fraction(1, 2))
        with pytest.raises(SolfreeError):
            transfer_pipeline(f, TORUS, eps=0.1, height=1, forms=LinearForm((1, -2)))

    def test_rejects_composite(self):
        f = CyclicFunction.constant(30, Fraction(1, 2))
        with pytest.raises(SolfreeError):
            transfer_pipeline(f, TORUS, eps=0.1, height=1, forms=SUMFREE)


def test_centered_lift():
    assert centered_lift(50, 101) == 50
    assert centered_lift(51, 101) == -50
    assert centered_lift(100, 101) == -1
    assert centered_lift(0, 101) == 0
