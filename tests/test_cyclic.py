"""Tests for exact solution measures, DFT and U^2 norms on Z/m."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solfree.cyclic import (
    CyclicFunction,
    CyclicSet,
    bits_mask,
    dft,
    dilate_set,
    is_free,
    l2_norm,
    solution_measure_convolution,
    solution_measure_spectral,
    u2_norm,
)
from solfree.errors import SolfreeError
from solfree.forms import LinearForm
from solfree.torus import GridFunction, GridSet, refine

import oracles
from oracles import solution_count_bruteforce, solution_measure, u2_norm_bruteforce


def full_enumeration_count(form, sets):
    """Independent oracle: enumerate all of A1 x ... x At."""
    m = sets[0].modulus
    count = 0
    for tup in product(*[s.members() for s in sets]):
        if sum(c * x for c, x in zip(form.coeffs, tup)) % m == 0:
            count += 1
    return Fraction(count, m ** (form.t - 1))


SUMFREE = LinearForm((1, 1, -1))


class TestBruteForce:
    def test_full_group(self):
        A = CyclicSet.full(5)
        assert solution_count_bruteforce(SUMFREE, [A, A, A]) == 1

    def test_single_point(self):
        A = CyclicSet.from_members(5, [0])
        assert solution_count_bruteforce(SUMFREE, [A] * 3) == Fraction(1, 25)

    def test_two_points(self):
        A = CyclicSet.from_members(5, [1, 2])
        # enumeration finds only (1,1,2)
        assert full_enumeration_count(SUMFREE, [A] * 3) == Fraction(1, 25)
        assert solution_count_bruteforce(SUMFREE, [A] * 3) == Fraction(1, 25)

    def test_rejects_mismatched_moduli(self):
        with pytest.raises(SolfreeError):
            solution_count_bruteforce(
                SUMFREE, [CyclicSet.full(5), CyclicSet.full(5), CyclicSet.full(7)]
            )

    def test_rejects_noninvertible_last_coefficient(self):
        with pytest.raises(SolfreeError):
            solution_count_bruteforce(LinearForm((1, 1, -2)), [CyclicSet.full(4)] * 3)


class TestConvolutionMeasure:
    def test_matches_brute_force_examples(self):
        A = CyclicSet.from_members(5, [1, 2])
        assert solution_measure_convolution(SUMFREE, [A] * 3) == Fraction(1, 25)
        B = CyclicSet.from_members(7, [3, 4])
        assert solution_measure_convolution(SUMFREE, [B] * 3) == 0
        C = CyclicSet.full(5)
        assert solution_measure_convolution(LinearForm((2, 3, -2)), [C] * 3) == 1

    def test_oracle_equivalence_random(self):
        rng = random.Random(20240)
        for _ in range(200):
            t = rng.choice([2, 3, 4])
            m = rng.randrange(2, 32)
            coeffs = []
            while len(coeffs) < t:
                c = rng.randrange(-4, 5)
                if c == 0:
                    continue
                if len(coeffs) == t - 1 and math.gcd(abs(c), m) != 1:
                    continue
                coeffs.append(c)
            form = LinearForm(tuple(coeffs))
            sets = [
                CyclicSet.from_members(
                    m, [x for x in range(m) if rng.random() < 0.4]
                )
                for _ in range(t)
            ]
            assert solution_measure_convolution(form, sets) == solution_count_bruteforce(
                form, sets
            )

    def test_functions(self):
        f = CyclicFunction.constant(7, Fraction(1, 2))
        # constant alpha gives alpha^t exactly
        assert solution_measure_convolution(SUMFREE, [f] * 3) == Fraction(1, 8)
        g = CyclicFunction(5, (Fraction(1, 3), 0, 1, 0, Fraction(2, 3)))
        sets_value = solution_measure_convolution(SUMFREE, [g] * 3)
        # cross-check against direct triple sum
        m = 5
        total = Fraction(0)
        for x, y in product(range(m), repeat=2):
            total += g.values[x] * g.values[y] * g.values[(x + y) % m]
        assert sets_value == total / m**2


@pytest.mark.parametrize(
    "coeffs, m",
    [((1, 1, -1), 11), ((2, 3, -2, -3), 11), ((1, 2, 1, -3, -1), 7), ((3, 1, -4), 9)],
)
def test_measure_of_wide_functions(coeffs, m):
    """Values over 40-bit denominators: u_1 * u_2 already passes 2^63."""
    rng = random.Random(len(coeffs) * m)
    functions = []
    for _ in coeffs:
        den = rng.randrange(2**39, 2**40)
        functions.append(
            CyclicFunction(m, tuple(Fraction(rng.randrange(den + 1), den) for _ in range(m)))
        )
    nums, den = functions[0].numerators()
    assert m * max(nums) ** 2 >= 2**63
    form = LinearForm(coeffs)
    expected = solution_measure(coeffs, [f.values for f in functions], m)
    assert solution_measure_convolution(form, functions) == expected


_COEFFS = st.integers(-6, 6).filter(bool)


@st.composite
def _zm_cases(draw, functions=True):
    """A form with t = 2..4 and sets, or with `functions` also k/4
    functions, on Z/m, m = 1..10."""
    m = draw(st.integers(1, 10))
    coeffs = tuple(draw(st.lists(_COEFFS, min_size=2, max_size=4)))
    items = []
    for _ in coeffs:
        bits = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        if not functions or draw(st.booleans()):
            items.append(CyclicSet.from_members(m, [x for x in range(m) if bits[x]]))
        else:
            nums = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
            items.append(CyclicFunction.from_numerators(m, nums, 4))
    return LinearForm(coeffs), items


def _values(item):
    return CyclicFunction.from_set(item).values if isinstance(item, CyclicSet) else item.values


class TestOneConvolutionCount:
    """The Z/m measure and freeness against enumeration."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_zm_cases())
    def test_measure_matches_brute_force(self, case):
        form, items = case
        m = items[0].modulus
        expected = solution_measure(form.coeffs, [_values(it) for it in items], m)
        if math.gcd(*form.coeffs, m) == 1:
            assert solution_measure_convolution(form, items) == expected
        else:
            # the kernel is gcd(c, m) times too large: the refusal is right
            full = solution_measure(form.coeffs, [[1] * m] * form.t, m)
            assert full == math.gcd(*form.coeffs, m)
            with pytest.raises(SolfreeError, match="share a factor"):
                solution_measure_convolution(form, items)

    @pytest.mark.parametrize(
        "coeffs, m",
        [((1, 1, -2), 4), ((3, 1, 6), 9), ((2, 2, 3, 6), 12), ((1, 4), 8), ((5, 5, 10, 1), 10)],
    )
    def test_noninvertible_last_coefficient(self, coeffs, m):
        # gcd(c_t, m) > 1 but the content is prime to m
        rng = random.Random(f"{coeffs}-{m}")
        for _ in range(6):
            sets = [
                CyclicSet.from_members(m, [x for x in range(m) if rng.random() < 0.5])
                for _ in coeffs
            ]
            assert solution_measure_convolution(LinearForm(coeffs), sets) == solution_measure(
                coeffs, [_values(s) for s in sets], m
            )

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_zm_cases(functions=False), st.booleans())
    def test_is_free_matches_enumeration(self, case, exclude_constant):
        form, sets = case
        m = sets[0].modulus
        want = oracles.first_solution_enumerated(form, sets, m, exclude_constant)
        ok, witness = is_free(form, sets, exclude_constant=exclude_constant)
        assert ok == (want is None)
        if want is not None:
            got_form, tup = witness
            assert got_form == form and tup == want
            assert all(x in s for x, s in zip(tup, sets))
            assert sum(c * x for c, x in zip(form.coeffs, tup)) % m == 0
            assert not (exclude_constant and len(set(tup)) == 1)

    def test_content_is_kept_for_freeness(self):
        # {3, 4} is sum-free mod 9, but 3x + 3y = 3z has the solution (3, 3, 3)
        A = CyclicSet.from_members(9, [3, 4])
        ok, (form, tup) = is_free([SUMFREE, LinearForm((3, 3, -3))], A)
        assert not ok and form == LinearForm((3, 3, -3)) and tup == (3, 3, 3)
        assert is_free(SUMFREE, A) == (True, None)


class TestFromNumerators:
    @pytest.mark.parametrize("cls", [CyclicFunction, GridFunction])
    def test_same_function_as_from_values(self, cls):
        rng = random.Random(5)
        for den in (1, 6, 2**20, 2**70 + 1):
            nums = [rng.randrange(den + 1) for _ in range(9)] + [0, den]
            f = cls.from_numerators(len(nums), nums, den)
            g = cls(len(nums), tuple(Fraction(a, den) for a in nums))
            assert f == g
            assert f.numerators() == g.numerators()
            assert f.mean == g.mean
            assert f.float_values().tolist() == [float(v) for v in g.values]
            assert np.array_equal(f.float_values(), g.float_values())

    def test_shares_zero_and_one(self):
        f = CyclicFunction.from_numerators(4, [0, 3, 3, 0], 3)
        assert f.values[0] is f.values[3] and f.values[1] is f.values[2]
        assert f.numerators() == ([0, 1, 1, 0], 1)

    def test_checks_in_numpy(self):
        with pytest.raises(SolfreeError, match=r"\[0,1\]"):
            CyclicFunction.from_numerators(2, [1, 4], 3)
        with pytest.raises(SolfreeError, match=r"\[0,1\]"):
            CyclicFunction.from_numerators(2, [-1, 0], 3)
        with pytest.raises(SolfreeError, match="length"):
            CyclicFunction.from_numerators(3, [1, 2], 3)
        with pytest.raises(SolfreeError, match="denominator"):
            CyclicFunction.from_numerators(1, [0], 0)

    def test_float_values_past_2_53(self):
        # numerators past 2^53 divide as Python ints, still correctly rounded
        den = 2**60 + 1
        nums = [den // 3, den - 1, 1]
        f = CyclicFunction.from_numerators(3, nums, den)
        assert f.float_values().tolist() == [a / den for a in nums]


class TestDft:
    def test_constant(self):
        f = CyclicFunction.constant(9, Fraction(1, 3))
        spec = dft(f)
        assert abs(spec.coefficients[0] - 1 / 3) < 1e-12
        assert np.all(np.abs(spec.coefficients[1:]) < 1e-12)

    def test_point_mass(self):
        A = CyclicSet.from_members(8, [0])
        spec = dft(A)
        assert np.allclose(spec.coefficients, 1 / 8)

    def test_mean_coefficient(self):
        A = CyclicSet.from_members(5, [1, 4])
        assert abs(dft(A).coefficients[0] - 2 / 5) < 1e-12

    def test_plancherel(self):
        rng = random.Random(5)
        for m in (6, 17, 30):
            vals = [Fraction(rng.randrange(0, 11), 10) for _ in range(m)]
            f = CyclicFunction(m, tuple(vals))
            spec = dft(f)
            lhs = float(np.sum(np.abs(spec.coefficients) ** 2))
            rhs = sum(float(v) ** 2 for v in vals) / m
            assert abs(lhs - rhs) < 1e-10


class TestSpectralMeasure:
    def test_constant(self):
        f = CyclicFunction.constant(11, Fraction(2, 5))
        val = solution_measure_spectral(SUMFREE, [dft(f)] * 3)
        assert abs(val - (2 / 5) ** 3) < 1e-12

    def test_examples(self):
        A = CyclicSet.from_members(5, [1, 4])
        val = solution_measure_spectral(SUMFREE, [dft(A)] * 3)
        assert abs(val) < 1e-12
        B = CyclicSet.from_members(5, [1, 2])
        val = solution_measure_spectral(SUMFREE, [dft(B)] * 3)
        assert abs(val - 1 / 25) < 1e-12

    def test_rejects_inadmissible(self):
        with pytest.raises(SolfreeError):
            solution_measure_spectral(
                LinearForm((2, 3, -2)), [dft(CyclicSet.full(4))] * 3
            )

    def test_against_brute_force_random(self):
        rng = random.Random(99)
        primes = [5, 7, 11, 13, 17, 101]
        for _ in range(60):
            m = rng.choice(primes)
            t = rng.choice([3, 4])
            coeffs = [rng.choice([c for c in range(-4, 5) if c and c % m]) for _ in range(t)]
            form = LinearForm(tuple(coeffs))
            sets = [
                CyclicSet.from_members(m, [x for x in range(m) if rng.random() < 0.3])
                for _ in range(t)
            ]
            spectral = solution_measure_spectral(form, [dft(s) for s in sets])
            exact = solution_measure_convolution(form, sets)
            assert abs(spectral.imag) <= 1e-9
            assert abs(spectral.real - float(exact)) <= 1e-9


class TestU2:
    def test_constant(self):
        f = CyclicFunction.constant(10, Fraction(3, 7))
        assert abs(u2_norm(f) - 3 / 7) < 1e-12

    def test_point_mass(self):
        for m in (4, 9, 16):
            A = CyclicSet.from_members(m, [0])
            assert abs(u2_norm(A) - m ** (-0.75)) < 1e-12

    def test_quadruple_sum_cross_check(self):
        rng = random.Random(31)
        for m in (5, 12, 23, 30):
            vals = [rng.random() for _ in range(m)]
            f = CyclicFunction(m, tuple(Fraction(v).limit_denominator(1000) for v in vals))
            direct = u2_norm_bruteforce([float(v) for v in f.values])
            assert abs(u2_norm(f) - direct) < 1e-9

    def test_dominated_by_l2(self):
        rng = random.Random(77)
        for _ in range(50):
            m = rng.randrange(3, 40)
            f = CyclicFunction(
                m, tuple(Fraction(rng.randrange(0, 101), 100) for _ in range(m))
            )
            assert u2_norm(f) <= l2_norm(f) + 1e-12


def test_generalized_von_neumann_sample():
    rng = np.random.default_rng(123)
    form = LinearForm((2, 3, -2))
    m = 17
    for _ in range(100):
        funcs = [
            CyclicFunction(m, tuple(Fraction(x).limit_denominator(512) for x in rng.random(m)))
            for _ in range(3)
        ]
        t_val = abs(solution_measure_spectral(form, [dft(f) for f in funcs]))
        u2s = [u2_norm(f) for f in funcs]
        l2s = [l2_norm(f) for f in funcs]
        bound = min(
            u2s[i] * math.prod(l2s[j] for j in range(3) if j != i) for i in range(3)
        )
        assert t_val <= bound + 1e-9
        assert t_val <= math.prod(l2s) + 1e-9


class TestIsFree:
    def test_sum_free(self):
        A = CyclicSet.from_members(7, [3, 4])
        ok, witness = is_free(SUMFREE, A)
        assert ok and witness is None

    def test_witness(self):
        A = CyclicSet.from_members(7, [1, 2])
        ok, witness = is_free(SUMFREE, A)
        assert not ok
        form, tup = witness
        assert form == SUMFREE
        assert sum(c * x for c, x in zip(form.coeffs, tup)) % 7 == 0
        assert tup == (1, 1, 2)

    def test_whole_group_never_free(self):
        for m in (3, 8):
            ok, witness = is_free(SUMFREE, CyclicSet.full(m))
            assert not ok

    def test_exclude_constant(self):
        roth = LinearForm((1, -2, 1))
        A = CyclicSet.from_members(7, [1])
        assert not is_free(roth, A)[0]
        assert is_free(roth, A, exclude_constant=True)[0]


class TestDilate:
    def test_identity(self):
        A = CyclicSet.from_members(9, [2, 5])
        assert dilate_set(A, 1) == A

    def test_example(self):
        A = CyclicSet.from_members(5, [1, 2])
        assert dilate_set(A, 2) == CyclicSet.from_members(5, [2, 4])

    def test_collapse(self):
        A = CyclicSet.full(5)
        assert dilate_set(A, 5) == CyclicSet.from_members(5, [0])

    def test_freeness_invariant_under_unit_dilation(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.choice([7, 11, 13])
            A = CyclicSet.from_members(m, [x for x in range(m) if rng.random() < 0.3])
            lam = rng.randrange(1, m)
            assert is_free(SUMFREE, A)[0] == is_free(SUMFREE, dilate_set(A, lam))[0]


@pytest.mark.parametrize("m", [1, 2, 13, 64, 100])
def test_shift_and_dilate_match_the_or_loop(m):
    rng = random.Random(f"shift-{m}")
    for members in ([], [0], list(range(m)), [x for x in range(m) if rng.random() < 0.4]):
        A = CyclicSet.from_members(m, members)
        for r in (0, 1, -1, 5, -7, m, -m, 3 * m + 2, -(10**20) - 3):
            assert A.shift(r) == oracles.shift_set(A, r)
        for n in (0, 1, -1, 2, 3, -5, m, -m, 2 * m + 1, 10**20):
            assert dilate_set(A, n) == oracles.dilate_set(A, n)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 64, 65, 1000])
def test_set_bits_match_the_mask(size):
    rng = random.Random(f"bits-{size}")
    for mask in (0, (1 << size) - 1, rng.getrandbits(size), 1 << (size - 1)):
        bits = [mask >> x & 1 for x in range(size)]
        members = tuple(x for x in range(size) if bits[x])
        A = CyclicSet(size, mask)
        assert A.indicator() == bits and A.members() == members
        G = GridSet(size, mask)
        assert G.indicator() == bits and G.cells() == members


def test_bits_mask_inverts_mask_bits():
    rng = random.Random("bits-inverse")
    for size in range(1, 1001):
        for mask in (0, (1 << size) - 1, rng.getrandbits(size), 1 << (size - 1)):
            bits = CyclicSet(size, mask).indicator()
            assert bits_mask(np.array(bits, dtype=np.uint8)) == mask
            assert bits_mask(np.array(bits, dtype=bool)) == mask


_MEMBER_CASES = [
    [],
    [0],
    [-1, -12, -13, -26],  # negative: reduced mod m
    [3, 3, 3, 16, 29],  # duplicates, also after reduction
    [13, 26, 10**30, -(10**30)],  # out of range, beyond int64
    [np.int64(-5), np.uint8(7), np.int32(40)],  # numpy integer scalars
    np.array([-5, 0, 12, 13, 2**40, -(2**62)], dtype=np.int64),
    np.array([1, 14, 2**63 + 3], dtype=np.uint64),
    np.array([7, 8, 200], dtype=np.uint8),
    range(-20, 40, 3),
]


@pytest.mark.parametrize("members", _MEMBER_CASES)
@pytest.mark.parametrize("m", [1, 13, 64])
def test_masks_from_members_match_the_or_loop(members, m):
    want = oracles.members_mask(m, members)
    assert CyclicSet.from_members(m, members).mask == want
    assert GridSet.from_cells(m, members).mask == want
    assert CyclicSet.from_members(m, (x for x in members)).mask == want
    for factor in (1, 2, 3, 8):
        refined = refine(GridSet(m, want), factor)
        assert refined.mask == oracles.refine_mask(want, m, factor)
        assert refined.resolution == m * factor


def test_members_keep_the_int_meaning():
    # floats and bools still mean int(x) % m, as before
    assert CyclicSet.from_members(7, [2.9, -0.5, True]).members() == (0, 1, 2)
    assert GridSet.from_cells(7, np.array([8.5, 1.0])).cells() == (1,)
    with pytest.raises(ValueError):
        CyclicSet.from_members(0, [1])
    with pytest.raises(SolfreeError):
        GridSet.from_cells(0, [1])


@pytest.mark.parametrize("cls", [CyclicFunction, GridFunction])
def test_function_values_are_exact(cls):
    f = cls(4, [0, 1, 0.5, Fraction(2, 3)])
    assert f.values == (0, 1, Fraction(1, 2), Fraction(2, 3))
    assert all(type(v) is Fraction for v in f.values)
    nums, den = f.numerators()
    assert den == 6 and nums == [0, 6, 3, 4]
    assert all(type(v) is int for v in nums)
    for bad in (Fraction(-1, 3), Fraction(4, 3), -1, 2):
        with pytest.raises(SolfreeError, match=r"\[0,1\]"):
            cls(2, [Fraction(1, 2), bad])
