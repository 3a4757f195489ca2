"""Tests for spectrum regularization, Freiman maps and the transfer pipeline."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solfree.cyclic import CyclicFunction, CyclicSet, solution_measure_convolution
from solfree.errors import SolfreeError
from solfree.forms import LinearForm
from solfree.groups import TORUS
from solfree.torus import GridFunction, GridSet, solution_measure_grid
from solfree.transfer import (
    FreimanMap,
    SpectralFunction,
    _water_fill,
    build_product_set,
    centered_lift,
    find_iso_int_to_modn,
    find_iso_modp_to_int,
    finite_spectral_measure,
    quantize_values,
    range_correct,
    regularize,
    synthesize_cyclic,
    synthesize_grid,
    transfer_pipeline,
    transfer_spectrum,
    verify_freiman_isomorphism,
)

from oracles import verify_freiman_isomorphism as oracle_verify
from oracles import water_fill_loop

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

    def test_injectivity_broken_in_each_direction(self):
        # 1 + 1 = 2 + 0 in the source, but 1 + 1 != 3 + 0 in the image
        source_sums_collide = {0: 0, 1: 1, 2: 3}
        # 1 + 1 = 2 + 0 in the image, but 1 + 1 != 3 + 0 in the source
        image_sums_collide = {0: 0, 1: 1, 3: 2}
        for pairs in (source_sums_collide, image_sums_collide):
            phi = FreimanMap(pairs, source_modulus=None, target_modulus=None, k=2)
            assert verify_freiman_isomorphism(phi, 1)
            assert not verify_freiman_isomorphism(phi, 2)
            assert not oracle_verify(phi, 2)
        # distinct residues whose sources agree mod 7 already at level 1
        phi = FreimanMap({0: 0, 1: 1, 8: 2}, source_modulus=7, target_modulus=None, k=1)
        assert not verify_freiman_isomorphism(phi, 1) and not oracle_verify(phi, 1)

    def test_matches_multiset_enumeration(self):
        rng = random.Random(1109)
        verdicts = []
        for trial in range(400):
            src_mod = rng.choice([None, 31, 101])
            dst_mod = rng.choice([None, 29, 103])
            k = rng.randint(1, 4)
            size = rng.randint(1, 7)
            domain = [0] + rng.sample(range(1, 30), size)
            if trial % 2:
                # a dilation, which is often an isomorphism on small domains
                lam = rng.randint(1, 5)
                images = [lam * a for a in domain]
            else:
                images = [0] + rng.sample(range(-40, 40), size)
                if 0 in images[1:]:
                    continue
            phi = FreimanMap(
                dict(zip(domain, images)), source_modulus=src_mod, target_modulus=dst_mod, k=k
            )
            expected = oracle_verify(phi, k)
            assert verify_freiman_isomorphism(phi, k) == expected, phi
            verdicts.append(expected)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_values_beyond_int64(self):
        big = 2**70
        scaled = FreimanMap({0: 0, big: 1, 10 * big: 10}, None, None, k=3)
        skewed = FreimanMap({0: 0, 1: big, 2: 2 * big + 1}, None, None, k=3)
        for phi, expected in ((scaled, True), (skewed, False)):
            assert verify_freiman_isomorphism(phi) is expected
            assert oracle_verify(phi) is expected

    def test_cap_bounds_the_sums_formed(self):
        # integers on both sides: not a unit multiple, so enumerated
        phi = FreimanMap({a: a for a in (0, 1, 3, 7, 12)}, None, None, k=3)
        # 5 sums at level 1, 5 * 5 at level 2, 15 distinct * 5 at level 3
        assert verify_freiman_isomorphism(phi, 3, cap=5 + 25 + 75)
        with pytest.raises(SolfreeError, match="more than 104 candidate sums"):
            verify_freiman_isomorphism(phi, 3, cap=104)

    def test_pipeline_maps_need_no_enumeration(self):
        # the search windows keep k * span below the modulus, so the
        # criterion accepts these maps without forming a sum: cap 1 suffices
        maps = [
            find_iso_int_to_modn({-3, 0, 1, 5}, 3, 61),
            find_iso_modp_to_int(101, {0, 1, 50, 100}, 2),
            find_iso_modp_to_int(2003, [0, 7, 11, 1990, 1996], 3),
        ]
        for phi in maps:
            assert verify_freiman_isomorphism(phi, cap=1)
            assert oracle_verify(phi)

    @pytest.mark.parametrize("direction", ["int_to_mod", "mod_to_int"])
    def test_unit_multiple_criterion_matches_enumeration(self, direction):
        rng = random.Random(17 if direction == "int_to_mod" else 18)
        verdicts, wide = [], 0
        for _ in range(300):
            modulus = rng.choice([2, 5, 12, 31, 64, 97])
            mu = rng.choice([u for u in range(1, modulus + 1) if math.gcd(u, modulus) == 1])
            ints = [0] + rng.sample(range(-30, 31), rng.randint(1, 6))
            if 0 in ints[1:]:
                continue
            # images or keys need not be reduced mod the modulus
            residues = [0] + [mu * a % modulus + modulus * rng.randint(-1, 1) for a in ints[1:]]
            if len(set(residues)) < len(residues):
                continue
            if direction == "int_to_mod":
                pairs, src, dst = dict(zip(ints, residues)), None, modulus
            else:
                pairs, src, dst = dict(zip(residues, ints)), modulus, None
            k = rng.randint(1, 4)
            phi = FreimanMap(pairs, source_modulus=src, target_modulus=dst, k=k)
            expected = oracle_verify(phi, k)
            assert verify_freiman_isomorphism(phi, k) is expected, phi
            verdicts.append(expected)
            wide += k * (max(ints) - min(ints)) >= modulus
        assert 30 < sum(verdicts) < len(verdicts) - 30, (sum(verdicts), len(verdicts))
        assert wide > 100, wide

    def test_other_maps_are_enumerated(self):
        # a cap too small for enumeration shows which maps take that path
        others = [
            FreimanMap({0: 0, 1: 3, 5: 1}, None, 7, k=3),  # unit multiple, 3 * 5 >= 7
            FreimanMap({0: 0, 1: 3, 5: 1}, None, None, k=3),  # integers both sides
            FreimanMap({0: 0, 1: 3, 5: 1}, 11, 7, k=3),  # residues both sides
            FreimanMap({0: 0, 1: 2, 3: 6}, None, 12, k=3),  # multiplier 2 is no unit
            FreimanMap({0: 0, 2: 2, 4: 6}, None, 8, k=3),  # no element prime to 8
            FreimanMap({0: 0, 1: 3, 5: 2}, None, 7, k=3),  # no common multiplier
        ]
        for phi in others:
            with pytest.raises(SolfreeError, match="candidate sums"):
                verify_freiman_isomorphism(phi, cap=2)
            assert verify_freiman_isomorphism(phi) is oracle_verify(phi)

    def test_unit_multiples_beyond_int64(self):
        big = 2**70
        spread = FreimanMap({0: 0, big: big, 2 * big + 1: 2 * big + 1}, None, 2**80, k=3)
        assert verify_freiman_isomorphism(spread) is oracle_verify(spread) is True
        lifted = FreimanMap({0: 0, 3: big, 6: 2 * big}, 2**72 + 1, None, k=2)
        assert verify_freiman_isomorphism(lifted) is oracle_verify(lifted) is True
        # k * span = 3 * 2^71 passes the modulus 2^72 + 1: enumerated
        with pytest.raises(SolfreeError, match="candidate sums"):
            verify_freiman_isomorphism(lifted, k=3, cap=2)
        assert verify_freiman_isomorphism(lifted, k=3) is oracle_verify(lifted, 3)

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


def _replay(nums, den, target_total, wide=False):
    """_water_fill on plain ints, or on the same values as Python ints
    beyond int64 (object arrays) when `wide`."""
    scale = 3**41 if wide else 1
    dtype = object if wide else np.int64
    array = np.array([a * scale for a in nums], dtype=dtype)
    out, out_den, iterations, diffs, clipped = _water_fill(array, den * scale, target_total)
    if wide:
        assert out.dtype == object
    return [Fraction(int(x), out_den) for x in out], iterations, clipped, diffs.tolist()


def _loop(nums, den, target_total):
    vals, iterations, clipped, diffs = water_fill_loop(
        [Fraction(a, den) for a in nums], target_total
    )
    return vals, iterations, float(clipped), diffs


@st.composite
def _fill_cases(draw):
    den = draw(st.one_of(st.sampled_from([1, 2, 3, 2**20]), st.integers(1, 2**20)))
    n = draw(st.integers(1, 20))
    nums = draw(st.lists(st.integers(-den, 2 * den), min_size=n, max_size=n))
    own = Fraction(sum(min(max(a, 0), den) for a in nums), den)
    kind = draw(st.sampled_from(["own", "edge", "near", "any"]))
    if kind == "own":  # nothing to restore after clipping
        total = own
    elif kind == "edge":  # every cell must reach one bound: the fallback group
        total = Fraction(draw(st.sampled_from([0, n])))
    elif kind == "near":
        total = min(max(own + draw(st.fractions(-1, 1, max_denominator=den)), 0), n)
    else:
        total = draw(st.fractions(0, 1, max_denominator=97)) * n
    return nums, den, total, draw(st.booleans())


class TestWaterFill:
    """The replay in range_correct against the cell-by-cell loop."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_fill_cases())
    def test_property_matches_loop(self, case):
        nums, den, total, wide = case
        assert _replay(nums, den, total, wide) == _loop(nums, den, total)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize(
        "nums, den, total, iterations",
        [
            ([1, 2, 3], 4, Fraction(3, 2), 0),  # mean already right
            ([-3, 1, 2, 7], 4, Fraction(2), 1),  # clipped, then spread upward
            ([-3, 1, 2, 7], 4, Fraction(1), 2),  # clipped, then spread downward
            ([0, 2, 0], 4, Fraction(3), 2),  # slack saturates; zeros form the group
            ([4, 2, 4], 4, Fraction(0), 2),  # the mirror image
            ([0, 0, 5], 5, Fraction(2), 1),  # no slack at all: group at once
            ([1, 2, 4, 8, 12, 14, 15], 16, Fraction(27, 4), 4),  # saturation round by round
            ([1, 2, 4, 8, 12, 14, 15], 16, Fraction(1, 4), 4),
        ],
    )
    def test_regimes(self, nums, den, total, iterations, wide):
        expected = _loop(nums, den, total)
        assert expected[1] == iterations
        assert _replay(nums, den, total, wide) == expected

    @pytest.mark.parametrize("total", [Fraction(-1, 3), Fraction(7, 2)])
    def test_no_room(self, total):
        nums, den = [0, 1, 2], 2
        with pytest.raises(ValueError, match="no room"):
            water_fill_loop([Fraction(a, den) for a in nums], total)
        with pytest.raises(SolfreeError, match="no room"):
            _replay(nums, den, total)


def _check_against_loop(out, report, values, target_total):
    vals, iterations, clipped, diffs = water_fill_loop(values, target_total)
    assert out.values == tuple(vals)
    assert report.iterations == iterations
    assert report.clipped_mass == float(clipped)
    assert report.l2_distance == float(np.sqrt(np.mean(np.array(diffs) ** 2)))
    assert report.linf_distance == max(abs(d) for d in diffs)
    assert out.numerators() == type(out)(len(vals), tuple(vals)).numerators()
    assert out.mean * len(vals) == target_total


@st.composite
def _spectra(draw):
    carrier = draw(st.sampled_from([5, 7, 11, 31, TORUS]))
    mean = draw(st.fractions(0, 1, max_denominator=60))
    coeffs = {0: complex(float(mean))}
    for g in draw(st.lists(st.integers(1, 6), max_size=3, unique=True)):
        c = complex(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)))
        if carrier is TORUS:
            coeffs[g], coeffs[-g] = c, c.conjugate()
        elif 2 * g < carrier:
            coeffs[g], coeffs[carrier - g] = c, c.conjugate()
    den = draw(st.sampled_from([1, 7, 2**10, 2**20]))
    return SpectralFunction(carrier, coeffs, mean), den


class TestRangeCorrectMatchesLoop:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_spectra())
    def test_property_spectra_match_loop(self, case):
        spec, den = case
        if spec.carrier is TORUS:
            out, report = range_correct(spec, sample_resolution=24, denominator=den)
            raw, _ = synthesize_grid(spec, 24)
        else:
            out, report = range_correct(spec, denominator=den)
            raw = synthesize_cyclic(spec)
        values = quantize_values(raw, den)
        _check_against_loop(out, report, values, spec.mean * len(values))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(st.fractions(0, 1, max_denominator=50), min_size=1, max_size=12),
        st.fractions(0, 1, max_denominator=50),
        st.sampled_from([1, 2**64 + 13]),
        st.sampled_from([CyclicFunction, GridFunction]),
    )
    def test_property_functions_match_loop(self, values, mean, scale, cls):
        # scale > 1 puts numerators beyond int64 in: object arrays
        values = [v * Fraction(scale - 1, scale) for v in values]
        f = cls(len(values), tuple(values))
        nums, den = f.numerators()
        assert (f.numerator_array()[0].dtype == object) == (max(nums) >= 2**63)
        out, report = range_correct(f, mean)
        _check_against_loop(out, report, values, mean * len(values))

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
