"""Exact measure computations on the circle for grid sets.

A grid set at resolution N is a union of half-open cells
[(j-1)/N, j/N), j = 1..N; internally cells are indexed 0..N-1 (cell b
covers [b/N, (b+1)/N)), matching the residue b of Z/N under x -> floor(Nx).
External serialization uses the 1-indexed convention.

Exact solution measures reduce to one cyclic convolution count.  With
x_i = (a_i + v_i)/N for a cell a_i and v_i in [0,1),

    T_L = N^(1-t) * sum_w rho_c(w) * C(-w mod N),

where C is the convolution mod N of the cell vectors dilated by c_i, and
rho_c(w) is the density at the integer w of sum c_i v_i for v uniform on
[0,1)^t: a box spline (de Boor, Hollig and Riemenschneider, *Box Splines*,
1993).  It is the mean of |c_t| consecutive generalized Eulerian weights

    W(d, w) = Vol{ v in [0,1)^n : w <= sum d_i v_i < w + 1 }

of d = (c_1, ..., c_{t-1}), computed by inclusion-exclusion over box
corners in rational arithmetic.  A form with content g > 1 is measured as
the primitive form L/g, whose kernel is one of the g components of the
kernel of L.

Pointwise freeness of grid sets is decided exactly, for the form as given,
content included: a cell tuple (a_1, ..., a_t) at resolution N contains a
solution of sum c_i x_i = 0 (mod 1) iff sum c_i a_i = -w (mod N) for some
integer w attainable as sum c_i v_i with v in [0,1)^t, i.e. strictly
between the negative and positive coefficient sums, or w = 0 when all
coefficients share one sign (the all-left-endpoints corner).
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclic import (
    ExactValues,
    _first_solution,
    _solution_counts,
    bits_mask,
    half_spectrum_weights,
    integer_vector,
    mask_bits,
    members_mask,
    u2_fourth_power_rows,
)
from .errors import ResolutionCapError, SolfreeError
from .forms import LinearForm, as_family, content_reduce

DEFAULT_RESOLUTION_CAP = 2**18


def resolution_cap() -> int:
    value = os.environ.get("SOLFREE_RESOLUTION_CAP")
    return int(value) if value else DEFAULT_RESOLUTION_CAP


def _check_resolution(n: int):
    cap = resolution_cap()
    if n > cap:
        raise ResolutionCapError(
            f"required resolution {n} exceeds cap {cap} "
            "(set SOLFREE_RESOLUTION_CAP to raise)"
        )
    return n


@dataclass(frozen=True)
class GridSet:
    """Union of half-open cells [b/N, (b+1)/N) stored as a bitmask."""

    resolution: int
    mask: int

    def __post_init__(self):
        if self.resolution < 1:
            raise SolfreeError("resolution must be positive")
        if self.mask < 0 or self.mask >> self.resolution:
            raise SolfreeError("bitmask out of range for resolution")

    @classmethod
    def from_cells(cls, resolution: int, cells: Iterable[int]) -> "GridSet":
        """Cells given 0-indexed: cell b covers [b/N, (b+1)/N)."""
        if resolution < 1:
            raise SolfreeError("resolution must be positive")
        return cls(resolution, members_mask(resolution, cells))

    @classmethod
    def from_interval(cls, resolution: int, lo: Fraction, hi: Fraction) -> "GridSet":
        """The half-open interval [lo, hi) (mod 1); endpoints must be
        multiples of 1/resolution.  lo >= hi wraps around."""
        lo, hi = Fraction(lo), Fraction(hi)
        a = lo * resolution
        b = hi * resolution
        if a.denominator != 1 or b.denominator != 1:
            raise SolfreeError("interval endpoints must sit on the grid")
        a, b = int(a) % resolution, int(b) % resolution
        if a < b:
            cells = range(a, b)
        else:
            cells = list(range(a, resolution)) + list(range(0, b))
        return cls.from_cells(resolution, cells)

    @classmethod
    def full(cls, resolution: int) -> "GridSet":
        return cls(resolution, (1 << resolution) - 1)

    @classmethod
    def empty(cls, resolution: int) -> "GridSet":
        return cls(resolution, 0)

    def cells(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(mask_bits(self.mask, self.resolution)).tolist())

    def __contains__(self, x) -> bool:
        """Point membership for an exact rational x (mod 1)."""
        x = Fraction(x) % 1
        cell = int(x * self.resolution)  # floor
        return bool(self.mask >> cell & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def measure(self) -> Fraction:
        return Fraction(self.size, self.resolution)

    def indicator(self) -> list[int]:
        return mask_bits(self.mask, self.resolution).tolist()

    def union(self, other: "GridSet") -> "GridSet":
        a, b = common_resolution([self, other])
        return GridSet(a.resolution, a.mask | b.mask)

    def difference(self, other: "GridSet") -> "GridSet":
        a, b = common_resolution([self, other])
        return GridSet(a.resolution, a.mask & ~b.mask)

    def to_json(self) -> dict:
        return {"N": self.resolution, "cells": [b + 1 for b in self.cells()]}

    @classmethod
    def from_json(cls, data: dict) -> "GridSet":
        n = int(data["N"])
        return cls.from_cells(n, (int(j) - 1 for j in data["cells"]))


@dataclass(frozen=True)
class GridFunction(ExactValues):
    """Step function constant on the cells of a grid, values in [0,1]."""

    resolution: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.resolution < 1:
            raise SolfreeError(f"resolution must be positive, got {self.resolution}")
        self._init_values(self.resolution, "resolution")

    @classmethod
    def constant(cls, resolution: int, value) -> "GridFunction":
        return cls(resolution, (Fraction(value),) * resolution)

    @classmethod
    def from_set(cls, A: GridSet) -> "GridFunction":
        return cls.from_numerators(A.resolution, mask_bits(A.mask, A.resolution), 1)


GridLike = GridSet | GridFunction


def refine(item: GridLike, factor: int):
    """Same point set / step function at resolution N * factor."""
    if factor < 1:
        raise SolfreeError("refinement factor must be positive")
    if factor == 1:
        return item
    n = item.resolution
    _check_resolution(n * factor)
    if isinstance(item, GridSet):
        return GridSet(n * factor, bits_mask(np.repeat(mask_bits(item.mask, n), factor)))
    nums, den = item.numerator_array()
    return GridFunction.from_numerators(n * factor, np.repeat(nums, factor), den)


def common_resolution(items: Sequence[GridLike]) -> list:
    """Refine all items to the lcm of their resolutions."""
    target = math.lcm(*[it.resolution for it in items])
    _check_resolution(target)
    return [refine(it, target // it.resolution) for it in items]


def dilate_image(A: GridSet, c: int) -> GridSet:
    """Image c * A at resolution N: each cell maps onto |c| consecutive
    cells (an interval of length |c|/N, wrapped).

    Exact for c > 0; for c < 0 the true image is half-open on the right and
    the returned set differs from it on finitely many boundary points.
    """
    if c == 0:
        raise SolfreeError("dilation factor must be nonzero")
    n = A.resolution
    d = abs(c)
    starts = np.flatnonzero(mask_bits(A.mask, n)) * (d % n) % n
    cells = (starts[:, None] + np.arange(min(d, n))) % n  # min(d, n) cells cover as many
    bits = np.zeros(n, dtype=np.uint8)
    bits[cells if c > 0 else n - 1 - cells] = 1
    return GridSet(n, bits_mask(bits))


# ---------------------------------------------------------------------------
# Generalized Eulerian weights


@dataclass(frozen=True)
class EulerianWeightTable:
    """W(d, w) for all integers w with W > 0; the weights sum to 1."""

    coeffs: tuple[int, ...]
    weights: dict[int, Fraction]

    def __getitem__(self, w: int) -> Fraction:
        return self.weights.get(w, Fraction(0))

    def support(self) -> list[int]:
        return sorted(self.weights)


def _signed_subset_sums(b: Sequence[int]) -> dict[int, int]:
    """Coefficients of prod_i (1 - z^{b_i}): subset sum -> signed count."""
    sums = {0: 1}
    for bi in b:
        nxt = dict(sums)
        for s, coef in sums.items():
            nxt[s + bi] = nxt.get(s + bi, 0) - coef
        sums = {s: c for s, c in nxt.items() if c != 0}
    return sums


@functools.lru_cache(maxsize=None)
def _box_cdf_table(b: tuple[int, ...]):
    n = len(b)
    norm = math.factorial(n) * math.prod(b)
    sums = _signed_subset_sums(b)

    def cdf(s: int) -> Fraction:
        """Vol{u in [0,1]^n : sum b_i u_i <= s} for integer s."""
        total = 0
        for sigma, coef in sums.items():
            d = s - sigma
            if d > 0:
                total += coef * d**n
        return Fraction(total, norm)

    return cdf


def eulerian_weight(coeffs: Sequence[int], w: int) -> Fraction:
    """W(d, w) = Vol{v in [0,1)^n : w <= sum d_i v_i < w+1}, exact.

    Negative coefficients are flipped via v -> 1 - v, shifting w by the sum
    of the negative coefficients; the remaining volume is an inclusion-
    exclusion of simplex slices of the box prod [0, b_i].
    """
    d = tuple(int(c) for c in coeffs)
    if any(c == 0 for c in d):
        raise SolfreeError("weight coefficients must be nonzero")
    neg = sum(c for c in d if c < 0)
    b = tuple(sorted(abs(c) for c in d))
    cdf = _box_cdf_table(b)
    shifted = w - neg
    return cdf(shifted + 1) - cdf(shifted)


def eulerian_weight_table(coeffs: Sequence[int]) -> EulerianWeightTable:
    d = tuple(int(c) for c in coeffs)
    if not d:
        raise SolfreeError("coeffs must hold at least one coefficient")
    lo = sum(c for c in d if c < 0)
    hi = sum(c for c in d if c > 0)
    weights = {}
    for w in range(lo, hi):
        value = eulerian_weight(d, w)
        if value:
            weights[w] = value
    if sum(weights.values(), Fraction(0)) != 1:
        raise AssertionError(f"weights for {d} do not sum to 1")
    return EulerianWeightTable(d, weights)


def classical_eulerian(n: int) -> list[Fraction]:
    """<n r>/n! for r = 0..n-1 via the all-ones weight table."""
    table = eulerian_weight_table((1,) * n)
    return [table[r] for r in range(n)]


def attainable_shifts(coeffs: Sequence[int]) -> list[int]:
    """Integers w attained by sum c_i v_i with v in [0,1)^t.

    These are the integers strictly between the negative and the positive
    coefficient sums, plus w = 0 when all coefficients share one sign.
    """
    lo = sum(c for c in coeffs if c < 0)
    hi = sum(c for c in coeffs if c > 0)
    shifts = set(range(lo + 1, hi))
    if lo == 0 or hi == 0:
        shifts.add(0)
    return sorted(shifts)


# ---------------------------------------------------------------------------
# Solution measures


def _box_spline_weights(coeffs: Sequence[int], n: int) -> dict[int, Fraction]:
    """r -> sum of rho_c(w) over the integers w with -w = r (mod n), for the
    residues where it is positive; rho_c(w) is the mean of the |c_t|
    Eulerian weights W(front, u) for u = w - 1, ..., w - c_t if c_t > 0,
    and u = w, ..., w - c_t - 1 if c_t < 0."""
    *front, last = coeffs
    b = abs(last)
    steps = range(1, b + 1) if last > 0 else range(1 - b, 1)  # w - u
    weights = {}
    for u, weight in eulerian_weight_table(tuple(front)).weights.items():
        for j in steps:
            weights[-(u + j) % n] = weights.get(-(u + j) % n, 0) + weight / b
    return weights


def solution_measure_grid(form: LinearForm, items: Sequence[GridLike]) -> Fraction:
    """Exact T_L(A_1, ..., A_t) on the circle for grid sets or step functions.

    The form is divided by its content first (module docstring).  Every
    item is refined to the common resolution N as its integer vector
    (indicator, or numerators over one denominator); the measure is
    N^(1-t) sum_w rho_c(w) C(-w mod N), one dot product per residue.
    """
    if len(items) != form.t:
        raise SolfreeError(f"form has {form.t} variables but {len(items)} inputs given")
    form, _ = content_reduce(form)
    n = _check_resolution(math.lcm(*[it.resolution for it in items]))
    vectors, denominator = [], 1
    for it in items:
        vec, den = integer_vector(it, it.resolution)
        vectors.append(np.repeat(vec, n // it.resolution))
        denominator *= den
    weights = _box_spline_weights(form.coeffs, n)
    counts = _solution_counts(form.coeffs, vectors, n, list(weights))
    total = sum(map(operator.mul, weights.values(), counts), Fraction(0))
    return total / (denominator * n ** (form.t - 1))


# ---------------------------------------------------------------------------
# Pointwise freeness


@dataclass(frozen=True)
class GridWitness:
    """A cell tuple (1-indexed, at `resolution`) containing a real solution."""

    form: LinearForm
    resolution: int
    cells: tuple[int, ...]
    shift: int


def is_free_grid(forms, sets) -> tuple[bool, GridWitness | None]:
    """Exact pointwise emptiness of (A_1 x ... x A_t) ∩ ker L on the circle.

    `sets` may be a single GridSet (diagonal solutions in A^t) or one set
    per variable.  Solutions inside products of half-open cells are decided
    by the attainable-shift rule; the returned witness names the
    lexicographically smallest cell tuple (1-indexed) at the common
    resolution, for the first attainable shift that has one.  The form is
    not divided by its content: freeness is pointwise.
    """
    family = as_family(forms)
    for form in family:
        items = sets if not isinstance(sets, GridSet) else [sets] * form.t
        if len(items) != form.t:
            raise SolfreeError("one set per variable required")
        refined = common_resolution(list(items))
        n = refined[0].resolution
        vectors = [mask_bits(g.mask, n) for g in refined]
        shifts = {}  # residue -> the smallest attainable shift w at it
        for w in attainable_shifts(form.coeffs):
            shifts.setdefault(-w % n, w)
        found = _first_solution(form.coeffs, vectors, n, list(shifts))
        if found is not None:
            residue, cells = found
            return False, GridWitness(form, n, tuple(b + 1 for b in cells), shifts[residue])
    return True, None


# ---------------------------------------------------------------------------
# U^2 norm of step functions


def l2_norm_grid(f: GridLike) -> float:
    if isinstance(f, GridSet):
        return float(math.sqrt(f.measure))
    vals = f.float_values()
    return float(np.sqrt(np.mean(vals * vals)))


def grid_fourier_coefficients(f: GridLike, ks) -> np.ndarray:
    """Circle Fourier coefficients fhat(k) of a step function.

    Each cell contributes a boxcar of width 1/N, so

        fhat(k) = D(k mod N) * exp(-i pi k / N) * sinc(pi k / N)

    with D the normalized length-N DFT of the cell values and
    sinc(x) = sin(x)/x, sinc(0) = 1.
    """
    if isinstance(f, GridSet):
        f = GridFunction.from_set(f)
    n = f.resolution
    coeffs = np.fft.fft(f.float_values()) / n
    ks = np.asarray(ks, dtype=int)
    x = np.pi * ks / n
    sinc = np.ones_like(x, dtype=float)
    nz = ks != 0
    sinc[nz] = np.sin(x[nz]) / x[nz]
    return coeffs[ks % n] * np.exp(-1j * x) * sinc


def grid_u2_weights(n: int) -> np.ndarray:
    """Weights of the rfft bins k = 0..N//2 in the circle's U^2 sum: the
    half-spectrum multiplicities times the lattice factor (2 + cos 2 pi k/N)/3."""
    k = np.arange(n // 2 + 1)
    return half_spectrum_weights(n) * ((2.0 + np.cos(2 * np.pi * k / n)) / 3.0)


def u2_fourth_power_values(values) -> float:
    """sum_{k in Z} |fhat(k)|^4 for a real step function (any real values).

    The sum over a fixed frequency residue class j has the closed value
    |D(j)|^4 * (2 + cos(2 pi j / N)) / 3, since

        sum_{l in Z} (x + l)^(-4) = pi^4 (2 + cos 2 pi x) / (3 sin^4(pi x)),

    so no truncation error is incurred.  The classes j and N - j have equal
    terms, so the sum runs over the half spectrum j = 0..N//2, each term
    weighted by the lattice factor and by 1 at j = 0 and at j = N/2 for
    even N, 2 elsewhere (`grid_u2_weights`).
    """
    values = np.asarray(values, dtype=float)
    return float(u2_fourth_power_rows(values, grid_u2_weights(len(values))))


def u2_norm_grid(f: GridLike) -> float:
    """U^2 norm on the circle of a step function: (sum_k |fhat(k)|^4)^(1/4)."""
    if isinstance(f, GridSet):
        f = GridFunction.from_set(f)
    return u2_fourth_power_values(f.float_values()) ** 0.25


def u2_norm_grid_values(values) -> float:
    """U^2 norm of an arbitrary real step function (no [0,1] restriction)."""
    return u2_fourth_power_values(values) ** 0.25
