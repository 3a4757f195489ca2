"""Tests for exact grid-set computations on the circle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solfree.errors import ResolutionCapError, SolfreeError
from solfree.forms import LinearForm
from solfree.torus import (
    GridFunction,
    GridSet,
    attainable_shifts,
    classical_eulerian,
    common_resolution,
    dilate_image,
    eulerian_weight,
    eulerian_weight_table,
    grid_fourier_coefficients,
    is_free_grid,
    l2_norm_grid,
    refine,
    solution_measure_grid,
    u2_fourth_power_values,
    u2_norm_grid,
)

import oracles
from oracles import (
    dilation_preimage,
    eulerian_identity_check,
    ones_form,
    u2_fourth_power_truncated,
)

SUMFREE = LinearForm((1, 1, -1))


def random_grid_set(rng, n, density=0.4):
    return GridSet.from_cells(n, [b for b in range(n) if rng.random() < density])


class TestGridSet:
    def test_interval(self):
        A = GridSet.from_interval(6, Fraction(1, 3), Fraction(2, 3))
        assert A.cells() == (2, 3)
        assert A.measure == Fraction(1, 3)
        B = GridSet.from_interval(4, Fraction(3, 4), Fraction(1, 4))  # wraps
        assert B.cells() == (0, 3)

    def test_membership(self):
        A = GridSet.from_interval(6, Fraction(1, 3), Fraction(2, 3))
        assert Fraction(1, 3) in A  # half-open: left endpoint included
        assert Fraction(1, 2) in A
        assert Fraction(2, 3) not in A

    def test_json_roundtrip_one_indexed(self):
        A = GridSet.from_cells(3, [1])  # [1/3, 2/3)
        data = A.to_json()
        assert data == {"N": 3, "cells": [2]}
        assert GridSet.from_json(data) == A


class TestRefine:
    def test_example(self):
        A = GridSet.from_cells(3, [0])  # spec cell {1} at N=3
        refined = refine(A, 2)
        assert refined.resolution == 6 and refined.cells() == (0, 1)

    def test_empty(self):
        assert refine(GridSet.empty(4), 5).size == 0

    def test_measure_preserved_random(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randrange(1, 30)
            A = random_grid_set(rng, n)
            k = rng.randrange(1, 6)
            assert refine(A, k).measure == A.measure

    def test_cap(self):
        with pytest.raises(ResolutionCapError):
            refine(GridSet.full(1024), 2**12)

    @pytest.mark.parametrize("den", [7, 2**70 + 1])
    def test_function(self, den):
        f = GridFunction(3, (Fraction(1, den), Fraction(0), Fraction(den - 2, den)))
        g = refine(f, 3)
        assert g.values == tuple(v for v in f.values for _ in range(3))
        nums, g_den = g.numerator_array()
        assert (nums.tolist(), g_den) == GridFunction(9, g.values).numerators()
        assert g.mean == f.mean
        assert not nums.flags.writeable


class TestDilations:
    def test_preimage_identity(self):
        A = GridSet.from_cells(5, [2, 3])
        assert dilation_preimage(A, 1) == A

    def test_preimage_example(self):
        A = GridSet.from_interval(2, 0, Fraction(1, 2))
        pre = dilation_preimage(A, 2)
        assert pre.resolution == 4
        assert pre.cells() == (0, 2)  # [0,1/4) u [1/2,3/4)

    def test_preimage_measure_random(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randrange(1, 20)
            A = random_grid_set(rng, n)
            c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            assert dilation_preimage(A, c).measure == A.measure

    def test_preimage_pointwise_positive(self):
        # for c > 0 the grid preimage is pointwise exact on rationals
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 12)
            A = random_grid_set(rng, n)
            c = rng.randrange(1, 5)
            pre = dilation_preimage(A, c)
            x = Fraction(rng.randrange(0, 100), 101)
            assert (x in pre) == ((c * x) % 1 in A)

    def test_image_identity(self):
        A = GridSet.from_cells(7, [1, 5])
        assert dilate_image(A, 1) == A

    def test_image_example(self):
        A = GridSet.from_interval(3, 0, Fraction(1, 3))
        img = dilate_image(A, 2)
        assert img == GridSet.from_interval(3, 0, Fraction(2, 3))

    def test_image_full(self):
        assert dilate_image(GridSet.full(5), 3) == GridSet.full(5)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
    def test_image_matches_the_cell_loop(self, n):
        rng = random.Random(f"image-{n}")
        sets = [GridSet.empty(n), GridSet.full(n)] + [random_grid_set(rng, n) for _ in range(2)]
        for A in sets:
            for c in (1, -1, 2, -2, 3, -3, n, -n):
                assert dilate_image(A, c) == oracles.dilate_image(A, c)


class TestEulerianWeights:
    def test_all_ones_pairs(self):
        assert eulerian_weight((1, 1), 0) == Fraction(1, 2)
        assert eulerian_weight((1, 1), 1) == Fraction(1, 2)

    def test_all_ones_triples(self):
        assert [eulerian_weight((1, 1, 1), m) for m in range(3)] == [
            Fraction(1, 6),
            Fraction(4, 6),
            Fraction(1, 6),
        ]

    def test_classical_eulerian_numbers(self):
        # <n r> for n = 4: 1, 11, 11, 1 over 4! = 24
        assert classical_eulerian(4) == [
            Fraction(1, 24),
            Fraction(11, 24),
            Fraction(11, 24),
            Fraction(1, 24),
        ]

    def test_mixed_example(self):
        # d = (2,-1): exact double integral gives 1/4, 1/2, 1/4
        assert eulerian_weight((2, -1), -1) == Fraction(1, 4)
        assert eulerian_weight((2, -1), 0) == Fraction(1, 2)
        assert eulerian_weight((2, -1), 1) == Fraction(1, 4)

    def test_sum_to_one(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(1, 7)
            d = tuple(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(n))
            table = eulerian_weight_table(d)
            assert sum(table.weights.values()) == 1

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        for d in [(2, -1), (3, 1, -2), (-2, -3), (1, 4, -1, 2)]:
            table = eulerian_weight_table(d)
            samples = rng.random((200_000, len(d)))
            sums = samples @ np.array(d, dtype=float)
            floors = np.floor(sums).astype(int)
            for w, weight in table.weights.items():
                est = float(np.mean(floors == w))
                sigma = math.sqrt(float(weight) * (1 - float(weight)) / len(sums))
                assert abs(est - float(weight)) < max(5 * sigma, 1e-3)

    def test_flip_symmetry(self):
        # negating all coefficients mirrors the weight table: the flip
        # v -> 1-v sends sum d v to sum d - sum d v, so
        # W(-d, w) = W(d, -w - 1 + #{d_i exactly hit}) boundary effects cancel
        # in volume: W(-d, w) = W(d, -w - 1)
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randrange(1, 5)
            d = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
            neg = tuple(-c for c in d)
            table = eulerian_weight_table(d)
            for w, weight in table.weights.items():
                assert eulerian_weight(neg, -w - 1) == weight

    def test_rejects_zero(self):
        with pytest.raises(SolfreeError):
            eulerian_weight((1, 0), 0)


class TestAttainableShifts:
    def test_mixed(self):
        assert attainable_shifts((1, 1, -1)) == [0, 1]
        assert attainable_shifts((2, -1, -1)) == [-1, 0, 1]

    def test_same_sign(self):
        assert attainable_shifts((1, 1, 1)) == [0, 1, 2]
        assert attainable_shifts((-1, -2)) == [-2, -1, 0]


class TestSolutionMeasureGrid:
    def test_full(self):
        A = GridSet.full(3)
        assert solution_measure_grid(SUMFREE, [A] * 3) == 1

    def test_middle_third(self):
        A = GridSet.from_interval(3, Fraction(1, 3), Fraction(2, 3))
        assert solution_measure_grid(SUMFREE, [A] * 3) == 0

    def test_half(self):
        A = GridSet.from_interval(2, 0, Fraction(1, 2))
        assert solution_measure_grid(SUMFREE, [A] * 3) == Fraction(1, 8)

    def test_matches_area_oracle(self):
        # T for x1+x2-x3 on intervals equals a planar area; compare against
        # a brute-force rational computation on a fine common grid
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randrange(2, 7)
            sets = [random_grid_set(rng, n) for _ in range(3)]
            measure = solution_measure_grid(SUMFREE, sets)
            # oracle: decompose [0,1)^2 into n^2 * k^2 squares, k=3; count
            # squares by the exact cell of x, y and x+y via midpoints is
            # not exact, so instead integrate exactly: for cells a,b of x,y
            # the function x+y covers cells (a+b) and (a+b+1) with measure
            # split by the triangle rule: vol{v1+v2<1} = 1/2.
            total = Fraction(0)
            ind = [s.indicator() for s in sets]
            for a in range(n):
                if not ind[0][a]:
                    continue
                for b in range(n):
                    if not ind[1][b]:
                        continue
                    lo = (a + b) % n
                    hi = (a + b + 1) % n
                    total += Fraction(ind[2][lo] + ind[2][hi], 2)
            assert measure == total / n**2

    def test_monotone_and_multilinear(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(2, 8)
            sets = [random_grid_set(rng, n) for _ in range(3)]
            bigger = sets[0].union(random_grid_set(rng, n))
            assert solution_measure_grid(SUMFREE, [bigger, sets[1], sets[2]]) >= (
                solution_measure_grid(SUMFREE, sets)
            )
            # additivity over a disjoint split of the first argument
            part = GridSet(n, sets[0].mask & random_grid_set(rng, n).mask)
            rest = sets[0].difference(part)
            assert solution_measure_grid(SUMFREE, sets) == solution_measure_grid(
                SUMFREE, [part, sets[1], sets[2]]
            ) + solution_measure_grid(SUMFREE, [rest, sets[1], sets[2]])

    def test_functions_match_sets(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(2, 6)
            sets = [random_grid_set(rng, n) for _ in range(3)]
            funcs = [GridFunction.from_set(s) for s in sets]
            assert solution_measure_grid(SUMFREE, funcs) == solution_measure_grid(
                SUMFREE, sets
            )

    def test_mixed_resolutions(self):
        A = GridSet.from_interval(2, 0, Fraction(1, 2))
        B = GridSet.from_interval(4, 0, Fraction(1, 2))
        C = GridSet.from_interval(8, 0, Fraction(1, 2))
        assert solution_measure_grid(SUMFREE, [A, B, C]) == Fraction(1, 8)


_COEFFS = st.integers(-6, 6).filter(bool)


@st.composite
def _grid_items(draw, t, functions, largest):
    """t grid sets, or with `functions` also k/8 step functions, each at a
    divisor of a common resolution 1..largest."""
    common = draw(st.integers(1, largest))
    items = []
    for _ in range(t):
        n = draw(st.sampled_from([d for d in range(1, common + 1) if common % d == 0]))
        if not functions or draw(st.booleans()):
            bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            items.append(GridSet.from_cells(n, [b for b in range(n) if bits[b]]))
        else:
            nums = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
            items.append(GridFunction.from_numerators(n, nums, 8))
    return items


@st.composite
def _grid_cases(draw, functions=True, largest=12):
    coeffs = draw(st.lists(_COEFFS, min_size=2, max_size=4))
    content = draw(st.sampled_from([1, 1, 2, 3]))
    form = LinearForm(tuple(content * c for c in coeffs))
    return form, draw(_grid_items(form.t, functions, largest))


class TestBoxSplineMeasure:
    """The box-spline read against the parametrization it replaced."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_grid_cases())
    def test_matches_the_parametrized_measure(self, case):
        form, items = case
        assert solution_measure_grid(form, items) == oracles.solution_measure_grid(form, items)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_grid_cases(), st.integers(2, 4))
    def test_content_is_divided_out(self, case, g):
        form, items = case
        multiple = LinearForm(tuple(g * c for c in form.coeffs))
        assert solution_measure_grid(multiple, items) == solution_measure_grid(form, items)

    @pytest.mark.parametrize("coeffs", [(1, 1, -1), (2, 3, -2, -3), (1, -4), (3, 5), (1, 2, 3, 4)])
    def test_weights_are_a_density(self, coeffs):
        # the full group: every cell tuple counts, so the weights sum to 1
        assert solution_measure_grid(LinearForm(coeffs), [GridSet.full(5)] * len(coeffs)) == 1


class TestEulerianIdentity:
    def test_middle_third(self):
        A = GridSet.from_interval(3, Fraction(1, 3), Fraction(2, 3))
        lhs, rhs = eulerian_identity_check(3, [A] * 3)
        assert lhs == rhs == 0

    def test_full(self):
        A = GridSet.full(4)
        lhs, rhs = eulerian_identity_check(3, [A] * 3)
        assert lhs == rhs == 1

    def test_random_t4(self):
        rng = random.Random(10)
        for _ in range(25):
            sets = [random_grid_set(rng, 6) for _ in range(4)]
            lhs, rhs = eulerian_identity_check(4, sets)
            assert lhs == rhs


class TestSandwich:
    @pytest.mark.parametrize("coeffs", [(2, 3, -1), (2, -1, -1), (3, 1, -2)])
    def test_sandwich(self, coeffs):
        form = LinearForm(coeffs)
        ones = ones_form(3)
        # T_1 here takes the images c_i A_i with the all-ones form in t
        # variables; rewrite sum y_i = 0 as y1 + y2 - (-y3) = 0
        rng = random.Random(sum(abs(c) for c in coeffs))
        prod_c = abs(math.prod(coeffs))
        for _ in range(30):
            n = rng.randrange(2, 7)
            sets = [random_grid_set(rng, n) for _ in range(3)]
            t_l = solution_measure_grid(form, sets)
            images = [dilate_image(s, c) for s, c in zip(sets, coeffs)]
            # sum of all coordinates: negate the last image for (1,1,-1)
            images[-1] = dilate_image(images[-1], -1)
            t_ones = solution_measure_grid(ones, images)
            assert t_l <= t_ones <= prod_c * t_l


class TestIsFreeGrid:
    def test_middle_third_free(self):
        A = GridSet.from_cells(3, [1])
        ok, witness = is_free_grid(SUMFREE, A)
        assert ok and witness is None

    def test_half_not_free(self):
        A = GridSet.from_interval(2, 0, Fraction(1, 2))
        ok, witness = is_free_grid(SUMFREE, A)
        assert not ok
        assert witness.cells == (1, 1, 1)

    def test_corner_rule_same_sign(self):
        # [0,1/3) for x1+x2+x3: only the all-zero corner solves, so the
        # measure vanishes while pointwise freeness fails
        form = LinearForm((1, 1, 1))
        A = GridSet.from_cells(3, [0])
        assert solution_measure_grid(form, [A] * 3) == 0
        ok, witness = is_free_grid(form, A)
        assert not ok and witness.cells == (1, 1, 1) and witness.shift == 0

    def test_free_implies_zero_measure(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 8)
            sets = [random_grid_set(rng, n, 0.3) for _ in range(3)]
            ok, _ = is_free_grid(SUMFREE, sets)
            if ok:
                assert solution_measure_grid(SUMFREE, sets) == 0

    def test_witness_contains_real_solution(self):
        rng = random.Random(12)
        found = 0
        while found < 20:
            n = rng.randrange(2, 8)
            coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
            form = LinearForm(coeffs)
            sets = [random_grid_set(rng, n, 0.5) for _ in range(3)]
            ok, witness = is_free_grid(form, sets)
            if ok:
                continue
            found += 1
            n2 = witness.resolution
            cells = [b - 1 for b in witness.cells]
            for s, b in zip(common_resolution(list(sets)), cells):
                assert s.mask >> b & 1
            # residue identity: sum c_i a_i + w = 0 mod N
            assert (
                sum(c * b for c, b in zip(coeffs, cells)) + witness.shift
            ) % n2 == 0


def _first_cell_solution(form, sets):
    """(w, cells): the first attainable shift w, in increasing order, for
    which some cell tuple solves sum c_i a_i = -w (mod N), and the first
    such tuple in lexicographic order; by enumeration."""
    refined = common_resolution(list(sets))
    n = refined[0].resolution
    first = {}  # residue -> the first cell tuple in lexicographic order
    for cells in itertools.product(*[g.cells() for g in refined]):
        first.setdefault(sum(c * a for c, a in zip(form.coeffs, cells)) % n, cells)
    for w in attainable_shifts(form.coeffs):
        if -w % n in first:
            return w, first[-w % n]
    return None


class TestIsFreeGridMatchesEnumeration:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_grid_cases(functions=False, largest=8))
    def test_verdict_and_witness(self, case):
        form, sets = case
        ok, witness = is_free_grid(form, sets)
        want = _first_cell_solution(form, sets)
        assert ok == (want is None)
        if want is not None:
            n = witness.resolution
            cells = tuple(b - 1 for b in witness.cells)
            assert (witness.shift, cells) == want
            assert n == math.lcm(*[s.resolution for s in sets])
            assert (sum(c * a for c, a in zip(form.coeffs, cells)) + witness.shift) % n == 0
            assert witness.shift in attainable_shifts(form.coeffs)
            for s, a in zip(sets, cells):  # each witness cell lies in its set
                assert Fraction(a, n) in s


class TestU2Grid:
    def test_constant(self):
        f = GridFunction.constant(5, Fraction(2, 7))
        assert abs(u2_norm_grid(f) - 2 / 7) < 1e-12

    def test_half_interval(self):
        A = GridSet.from_interval(2, 0, Fraction(1, 2))
        assert abs(u2_norm_grid(A) - (1 / 12) ** 0.25) < 1e-9

    def test_truncated_series_cross_check(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randrange(2, 12)
            vals = [rng.random() for _ in range(n)]
            closed = u2_fourth_power_values(vals)
            truncated = u2_fourth_power_truncated(vals, 4000 * n)
            assert abs(closed - truncated) < 1e-9

    def test_dominated_by_l2(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randrange(2, 40)
            f = GridFunction(
                n, tuple(Fraction(rng.randrange(0, 101), 100) for _ in range(n))
            )
            assert u2_norm_grid(f) <= l2_norm_grid(f) + 1e-12


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: eulerian_weight_table(()), "coeffs"),
        (lambda: GridFunction(0, ()), "resolution"),
    ],
    ids=["empty-weight-table", "zero-resolution-function"],
)
def test_bad_arguments_name_the_argument(call, fragment):
    with pytest.raises(SolfreeError, match=fragment):
        call()


def test_grid_fourier_coefficients():
    # half interval: fhat(0) = 1/2, |fhat(k)| = 1/(pi |k|) for odd k
    A = GridSet.from_interval(2, 0, Fraction(1, 2))
    ks = np.array([0, 1, 2, 3, -1])
    vals = grid_fourier_coefficients(A, ks)
    assert abs(vals[0] - 0.5) < 1e-12
    assert abs(abs(vals[1]) - 1 / math.pi) < 1e-12
    assert abs(vals[2]) < 1e-12
    assert abs(abs(vals[3]) - 1 / (3 * math.pi)) < 1e-12
    assert abs(vals[4] - np.conj(vals[1])) < 1e-12
    # direct quadrature oracle for a random step function
    rng = random.Random(15)
    f = GridFunction(5, tuple(Fraction(rng.randrange(0, 11), 10) for _ in range(5)))
    for k in (0, 1, 2, 7):
        xs = (np.arange(200000) + 0.5) / 200000
        cell = np.floor(xs * 5).astype(int)
        fx = np.array([float(v) for v in f.values])[cell]
        quad = np.mean(fx * np.exp(-2j * np.pi * k * xs))
        assert abs(grid_fourier_coefficients(f, [k])[0] - quad) < 1e-4
