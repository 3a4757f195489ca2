"""Tests for exact solution measures, DFT and U^2 norms on Z/m."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from solfree.cyclic import (
    CyclicFunction,
    CyclicSet,
    dft,
    dilate_set,
    is_free,
    l2_norm,
    solution_count_bruteforce,
    solution_measure_convolution,
    solution_measure_spectral,
    u2_norm,
)
from solfree.errors import SolfreeError
from solfree.forms import LinearForm

from oracles import u2_norm_bruteforce


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
