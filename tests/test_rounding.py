"""Tests for randomized rounding and its stability report."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from solfree.cyclic import (
    CyclicFunction,
    CyclicSet,
    half_spectrum_weights,
    is_free,
    u2_fourth_power_rows,
    u2_norm_values,
)
from solfree.errors import SolfreeError
from solfree.forms import LinearForm
from solfree.rounding import round_to_set, rounding_stability_report
from solfree.torus import (
    GridFunction,
    GridSet,
    grid_u2_weights,
    u2_fourth_power_values,
)

SUMFREE = LinearForm((1, 1, -1))


class TestRoundToSet:
    def test_indicator_is_fixed_point(self):
        A = CyclicSet.from_members(13, [1, 5, 6])
        f = CyclicFunction.from_set(A)
        result = round_to_set(f, trials=3, seed=42)
        assert result.best_set == A
        assert result.u2_distance < 1e-12

    def test_grid_indicator_fixed_point(self):
        A = GridSet.from_cells(16, [0, 3, 7, 9])
        f = GridFunction.from_set(A)
        result = round_to_set(f, trials=2, seed=1)
        assert result.best_set == A
        assert result.u2_distance < 1e-12

    def test_reproducible(self):
        f = CyclicFunction.constant(101, Fraction(1, 2))
        r1 = round_to_set(f, trials=5, seed=7)
        r2 = round_to_set(f, trials=5, seed=7)
        assert r1.best_set == r2.best_set
        assert r1.per_trial == r2.per_trial
        r3 = round_to_set(f, trials=5, seed=8)
        assert r3.per_trial != r1.per_trial

    def test_half_constant_large_prime(self):
        # best-of-20 distance well below the empirical 1.5 p^(-1/4) mark
        p = 10007
        f = CyclicFunction.constant(p, Fraction(1, 2))
        result = round_to_set(f, trials=20, seed=0)
        assert result.u2_distance <= 0.15

    def test_half_constant_grid(self):
        f = GridFunction.constant(4096, Fraction(1, 2))
        result = round_to_set(f, trials=20, seed=0)
        assert result.u2_distance <= 0.2

    def test_needs_positive_trials(self):
        with pytest.raises(SolfreeError):
            round_to_set(CyclicFunction.constant(5, 0), trials=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"trials": True}, "trials"),
            ({"trials": 2.5}, "trials"),
            ({"trials": "3"}, "trials"),
            ({"trials": 0}, "trials"),
            ({"trials": -2}, "trials"),
            ({"seed": -1}, "seed"),
            ({"seed": False}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"seed": "7"}, "seed"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, name):
        f = CyclicFunction.constant(5, Fraction(1, 2))
        with pytest.raises(SolfreeError, match=name):
            round_to_set(f, **kwargs)

    def test_accepts_numpy_integers(self):
        f = CyclicFunction.constant(7, Fraction(1, 3))
        ref = round_to_set(f, trials=3, seed=5)
        result = round_to_set(f, trials=np.int64(3), seed=np.uint8(5))
        assert result.per_trial == ref.per_trial and result.best_set == ref.best_set
        assert type(result.trials) is int and type(result.seed) is int

    @pytest.mark.parametrize("trials", [1, 3, 7, 20])
    @pytest.mark.parametrize("kind", ["cyclic", "grid"])
    def test_matches_the_per_trial_loop(self, trials, kind):
        # in blocks of 5: 1 and 3 fill part of one block, 7 ends in a partial
        # block, 20 fills four
        rng = np.random.default_rng([trials, len(kind)])
        if kind == "cyclic":
            n, make, distance = 1009, CyclicFunction, oracles.u2_norm_values
        else:
            n, make, distance = 1024, GridFunction, oracles.u2_norm_grid_values
        f = make(n, tuple(Fraction(int(k), 256) for k in rng.integers(0, 257, size=n)))
        result = round_to_set(f, trials=trials, seed=31)
        bits, per_trial = oracles.round_loop(f.float_values(), trials, 31, distance)
        assert result.best_set.mask == oracles.members_mask(n, np.flatnonzero(bits))
        assert len(result.per_trial) == trials
        for got, want in zip(result.per_trial, per_trial):
            assert math.isclose(got, want, rel_tol=1e-12)
        assert result.u2_distance == min(result.per_trial)

    def test_memory_stays_blocked(self):
        # a stack of all 100 trials would hold about 26 MB
        rng = np.random.default_rng(17)
        f = GridFunction(16384, tuple(Fraction(int(k), 256) for k in rng.integers(0, 257, 16384)))
        f.float_values()
        tracemalloc.start()
        try:
            round_to_set(f, trials=100, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# signed vectors k / 2^20 of every length class rfft treats differently:
# n = 1 and 2 (one and two bins), odd, even, primes and powers of two
_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 8, 97, 128, 251, 256, 257, 300]),
    st.integers(1, 300),
)
_SIGNED_ROWS = _LENGTHS.flatmap(
    lambda n: st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n)
).map(lambda ks: np.array(ks, dtype=float) / 2**20)


class TestHalfSpectrum:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_SIGNED_ROWS)
    def test_matches_full_spectrum(self, values):
        assert math.isclose(
            u2_norm_values(values), oracles.u2_norm_values(values), rel_tol=1e-12
        )
        assert math.isclose(
            u2_fourth_power_values(values),
            oracles.u2_fourth_power_values(values),
            rel_tol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 101])
    def test_batched_rows_match_single_rows(self, n):
        rows = np.random.default_rng(n).random((6, n)) - 0.5
        for weights, single in (
            (half_spectrum_weights(n), lambda r: u2_norm_values(r) ** 4),
            (grid_u2_weights(n), u2_fourth_power_values),
        ):
            batched = u2_fourth_power_rows(rows, weights)
            for got, row in zip(batched, rows):
                assert math.isclose(got, single(row), rel_tol=1e-12)

    def test_weights_count_every_bin(self):
        for n in range(1, 40):
            assert half_spectrum_weights(n).sum() == n


class TestStabilityReport:
    def test_indicator_zero_gaps(self):
        A = CyclicSet.from_members(11, [2, 3, 8])
        f = CyclicFunction.from_set(A)
        report = rounding_stability_report(f, A, SUMFREE)
        assert report.mean_gap == 0
        assert report.per_form[0]["gap"] == 0

    def test_random_function(self):
        rng = np.random.default_rng(3)
        m = 31
        f = CyclicFunction(
            m, tuple(Fraction(x).limit_denominator(256) for x in rng.random(m))
        )
        result = round_to_set(f, trials=10, seed=4)
        report = rounding_stability_report(f, result.best_set, SUMFREE)
        assert float(report.mean_gap) <= report.u2_distance + 1e-9
        for row in report.per_form:
            assert row["gap"] <= row["bound"] + 1e-9

    def test_grid_function(self):
        rng = np.random.default_rng(5)
        n = 32
        f = GridFunction(
            n, tuple(Fraction(x).limit_denominator(128) for x in rng.random(n))
        )
        result = round_to_set(f, trials=5, seed=9)
        report = rounding_stability_report(f, result.best_set, SUMFREE)
        for row in report.per_form:
            assert row["gap"] <= row["bound"] + 1e-9

    def test_spectral_path_matches_exact(self):
        rng = np.random.default_rng(8)
        m = 17
        f = CyclicFunction(
            m, tuple(Fraction(x).limit_denominator(64) for x in rng.random(m))
        )
        A = round_to_set(f, trials=3, seed=2).best_set
        exact = rounding_stability_report(f, A, SUMFREE, spectral=False)
        fast = rounding_stability_report(f, A, SUMFREE, spectral=True)
        for a, b in zip(exact.per_form, fast.per_form):
            assert abs(a["gap"] - b["gap"]) < 1e-9

    def test_inadmissible_rejected(self):
        f = CyclicFunction.constant(9, Fraction(1, 2))
        A = CyclicSet.from_members(9, [1])
        with pytest.raises(SolfreeError):
            rounding_stability_report(f, A, LinearForm((3, 1, -1)))

    def test_mismatched_carriers(self):
        f = CyclicFunction.constant(9, Fraction(1, 2))
        A = CyclicSet.from_members(7, [1])
        with pytest.raises(SolfreeError):
            rounding_stability_report(f, A, SUMFREE)


def test_rounded_free_function_often_nearly_free():
    # rounding the indicator of a free set plus tiny noise keeps T small
    members = range(4, 8)
    A = CyclicSet.from_members(11, members)  # {4..7} is sum-free mod 11
    assert is_free(SUMFREE, A)[0]
    f = CyclicFunction(
        11,
        tuple(
            Fraction(9, 10) if x in A else Fraction(1, 20) for x in range(11)
        ),
    )
    result = round_to_set(f, trials=30, seed=11)
    report = rounding_stability_report(f, result.best_set, SUMFREE)
    assert report.per_form[0]["T_A"] <= report.per_form[0]["T_f"] + 3 * result.u2_distance
