"""Sets and functions on Z/m: exact solution measures, DFT, U^2 norm.

Conventions.  The solution measure of a form L = (c1, ..., ct) on sets
A1, ..., At <= Z/m is

    T_L = #{(x1,...,xt) in A1 x ... x At : sum c_i x_i = 0 mod m} / m^(t-1),

an exact rational.  The normalization matches the Haar measure of the
kernel subgroup {x : L(x) = 0}, which has m^(t-1) * gcd(c1, ..., ct, m)
elements; measures are refused unless gcd(c1, ..., ct, m) = 1 rather than
silently renormalized.  The form is divided by its content first, which
changes no count when the content is prime to m.  The last coefficient need
not be invertible.  The discrete Fourier transform carries the 1/m inside:

    fhat(g) = (1/m) * sum_x f(x) exp(-2 pi i g x / m),

so that T_L(f1,...,ft) = sum_g f1hat(c1 g) ... fthat(ct g) holds as a plain
sum over frequencies whenever every gcd(c_i, m) = 1.

One count serves every measure and freeness test, here and on the circle.
With u_i the value vector of item i dilated by c_i, the cyclic convolution
C = u_1 * ... * u_t has C(r) = sum of prod f_i(a_i) over the tuples with
sum c_i a_i = r (mod m).  The Z/m measure reads C(0).  The circle measure
(`torus.solution_measure_grid`) reads C(-w) for each integer w with the
box-spline weight of w.  Freeness asks whether C, less the constant tuples
when those are excluded, is non-zero at an allowed residue: 0 on Z/m, the
attainable shifts on the circle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import SolfreeError
from .forms import LinearForm, as_family, content_reduce
from .groups import validate_modulus


def mask_bits(mask: int, size: int) -> np.ndarray:
    """0/1 uint8 array whose entry x is bit x of `mask`, for x < size."""
    raw = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size]


def bits_mask(bits: np.ndarray) -> int:
    """Inverse of `mask_bits`: the int whose bit x is set iff bits[x] != 0."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def members_mask(size: int, members: Iterable[int]) -> int:
    """The mask with bit (x mod size) set for every x in `members`.

    A 1-D numpy integer array is reduced in one vectorized step; any other
    iterable element by element as int(x) % size.  The bits are scattered
    into a 0/1 row and packed once, in O(size): OR-ing them into an int one
    at a time would copy a size-bit int per member.
    """
    if isinstance(members, np.ndarray) and members.ndim == 1 and members.dtype.kind in "iu":
        index = members % size
    else:
        index = [int(x) % size for x in members]
    bits = np.zeros(size, dtype=np.uint8)
    bits[index] = 1
    return bits_mask(bits)


@dataclass(frozen=True)
class CyclicSet:
    """Subset of Z/m stored as a bitmask (bit x set iff x is a member)."""

    modulus: int
    mask: int

    def __post_init__(self):
        validate_modulus(self.modulus)
        if self.mask < 0 or self.mask >> self.modulus:
            raise SolfreeError("bitmask out of range for modulus")

    @classmethod
    def from_members(cls, modulus: int, members: Iterable[int]) -> "CyclicSet":
        validate_modulus(modulus)
        return cls(modulus, members_mask(modulus, members))

    @classmethod
    def full(cls, modulus: int) -> "CyclicSet":
        return cls(modulus, (1 << modulus) - 1)

    @classmethod
    def empty(cls, modulus: int) -> "CyclicSet":
        return cls(modulus, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(mask_bits(self.mask, self.modulus)).tolist())

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> (x % self.modulus) & 1)

    def __len__(self):
        return self.mask.bit_count()

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.modulus)

    def indicator(self) -> list[int]:
        return mask_bits(self.mask, self.modulus).tolist()

    def union(self, other: "CyclicSet") -> "CyclicSet":
        self._check(other)
        return CyclicSet(self.modulus, self.mask | other.mask)

    def difference(self, other: "CyclicSet") -> "CyclicSet":
        self._check(other)
        return CyclicSet(self.modulus, self.mask & ~other.mask)

    def complement(self) -> "CyclicSet":
        return CyclicSet(self.modulus, ~self.mask & ((1 << self.modulus) - 1))

    def shift(self, r: int) -> "CyclicSet":
        """Translate: {x + r mod m}, a rotation of the mask."""
        m, r = self.modulus, r % self.modulus
        rotated = (self.mask << r | self.mask >> (m - r)) & ((1 << m) - 1)
        return CyclicSet(m, rotated)

    def _check(self, other):
        if self.modulus != other.modulus:
            raise SolfreeError("modulus mismatch")

    def to_json(self) -> dict:
        return {"m": self.modulus, "members": sorted(self.members())}

    @classmethod
    def from_json(cls, data: dict) -> "CyclicSet":
        return cls.from_members(int(data["m"]), data["members"])


_ZERO, _ONE = Fraction(0), Fraction(1)
_FLOAT_EXACT = 2**53  # integers below this convert to float64 exactly


def exact_floats(nums: np.ndarray, den: int) -> np.ndarray:
    """float(Fraction(n, den)) for each n in `nums`, correctly rounded.

    When every |n| and den are below 2^53 both convert to float64 exactly,
    and IEEE division rounds their quotient correctly, as int / int does.
    """
    if den < _FLOAT_EXACT and nums.dtype != object:
        if len(nums) == 0 or kernels.max_abs(nums) < _FLOAT_EXACT:
            return nums / den
    return np.array([n / den for n in nums.tolist()], dtype=float)


def _fractions_of(nums: np.ndarray, den: int) -> tuple[Fraction, ...]:
    """The Fractions n / den; the values 0 and 1 share one object each."""
    if den == 1:
        return tuple(_ONE if n else _ZERO for n in nums.tolist())
    return tuple(
        _ZERO if n == 0 else _ONE if n == den else Fraction(n, den) for n in nums.tolist()
    )


def _reduce_numerators(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Divide numerators and denominator by their common gcd: the pair
    (n_x / g, D / g) with D / g the lcm of the reduced denominators of n_x / D."""
    g = math.gcd(den, int(np.gcd.reduce(nums))) if len(nums) else den
    if g == 1:
        nums = nums.copy()
    else:
        if g >= 2**63:  # then every numerator is 0, but int64 cannot divide by g
            nums = nums.astype(object)
        nums, den = nums // g, den // g
    if nums.dtype == object and den < 2**63:
        nums = nums.astype(np.int64)
    nums.flags.writeable = False
    return nums, den


class _Numerated(tuple):
    """The values tuple that `ExactValues.from_numerators` hands to the
    constructor; `exact` holds their reduced (numerators, denominator)
    pair, already checked against [0,1]."""


class ExactValues:
    """Values in [0,1] kept both as Fractions and as the reduced pair
    (numerators, common denominator); shared by CyclicFunction and
    GridFunction.

    The pair is the one `numerators()` documents.  A function built by
    `from_numerators` keeps it from the start; any other derives it from its
    Fractions on first use.  `mean` and `float_values()` read it.
    """

    values: tuple[Fraction, ...]

    def _init_values(self, size: int, size_name: str) -> None:
        values, exact = self.values, None
        if isinstance(values, _Numerated):
            values, exact = tuple(values), values.exact
        else:
            values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_exact", exact)
        if len(values) != size:
            raise SolfreeError(f"value vector length must equal {size_name}")
        if exact is None and any(v.numerator < 0 or v.numerator > v.denominator for v in values):
            raise SolfreeError("values must lie in [0,1]")

    @classmethod
    def from_numerators(cls, size: int, nums, den: int):
        """The function with values nums[x] / den, checked in numpy; cells at
        0 and 1 share one Fraction each."""
        nums = kernels.int_array(nums)
        den = int(den)
        if den < 1:
            raise SolfreeError("denominator must be positive")
        if len(nums) and (nums.min() < 0 or nums.max() > den):
            raise SolfreeError("values must lie in [0,1]")
        nums, den = _reduce_numerators(nums, den)
        values = _Numerated(_fractions_of(nums, den))
        values.exact = (nums, den)
        return cls(size, values)

    def numerator_array(self) -> tuple[np.ndarray, int]:
        """(numerators, D) as in `numerators()`, the numerators as a read-only
        int64 array, or as an object array of Python ints where they do not
        fit in int64."""
        if self._exact is None:
            den = math.lcm(*[v.denominator for v in self.values]) if self.values else 1
            nums = kernels.int_array([v.numerator * (den // v.denominator) for v in self.values])
            nums.flags.writeable = False
            object.__setattr__(self, "_exact", (nums, den))
        return self._exact

    def numerators(self) -> tuple[list[int], int]:
        """Common-denominator integer representation (numerators, D): D is
        the lcm of the reduced denominators of the values."""
        nums, den = self.numerator_array()
        return nums.tolist(), den

    @property
    def mean(self) -> Fraction:
        nums, den = self.numerator_array()
        if nums.dtype != object and den * len(nums) < 2**63:
            total = int(nums.sum())
        else:
            total = sum(nums.tolist())
        return Fraction(total, den * len(nums))

    def float_values(self) -> np.ndarray:
        return exact_floats(*self.numerator_array())


@dataclass(frozen=True)
class CyclicFunction(ExactValues):
    """Function Z/m -> [0,1] stored as exact rationals."""

    modulus: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        validate_modulus(self.modulus)
        self._init_values(self.modulus, "modulus")

    @classmethod
    def constant(cls, modulus: int, value) -> "CyclicFunction":
        return cls(modulus, (Fraction(value),) * modulus)

    @classmethod
    def from_set(cls, A: CyclicSet) -> "CyclicFunction":
        return cls.from_numerators(A.modulus, mask_bits(A.mask, A.modulus), 1)


@dataclass(frozen=True)
class CyclicSpectrum:
    """Fourier coefficients of a function on Z/m; entry g is fhat(g)."""

    modulus: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (self.modulus,):
            raise SolfreeError("coefficient vector length must equal modulus")


FunctionLike = CyclicSet | CyclicFunction


def _as_function(item: FunctionLike) -> CyclicFunction:
    if isinstance(item, CyclicSet):
        return CyclicFunction.from_set(item)
    if isinstance(item, CyclicFunction):
        return item
    raise SolfreeError(f"expected CyclicSet or CyclicFunction, got {type(item)!r}")


def _common_modulus(items) -> int:
    moduli = {it.modulus for it in items}
    if len(moduli) != 1:
        raise SolfreeError(f"mismatched moduli {sorted(moduli)}")
    return moduli.pop()


def _check_items(form: LinearForm, items) -> int:
    if len(items) != form.t:
        raise SolfreeError(f"form has {form.t} variables but {len(items)} inputs given")
    m = _common_modulus(items)
    if math.gcd(*form.coeffs, m) != 1:
        raise SolfreeError(
            f"coefficients {form.coeffs} share a factor with {m}; "
            "the kernel of the form is not a subgroup of index m"
        )
    return m


def integer_vector(item, size: int) -> tuple[np.ndarray, int]:
    """(numerators, denominator) of a function's values, or a set's 0/1
    indicator of length `size` over 1; on Z/m or on the circle."""
    if isinstance(item, ExactValues):
        return item.numerator_array()
    return mask_bits(item.mask, size), 1


def dilated_vector(values, c: int, m: int) -> list[int]:
    """u with u[(c*x) mod m] aggregated from values[x]."""
    x = kernels.int_array(values)
    positions = np.arange(m) * (c % m) % m
    if math.gcd(c, m) == 1:  # a permutation: nothing aggregates
        out = np.empty_like(x)
        out[positions] = x
        return out.tolist()
    if x.dtype != object and m and kernels.max_abs(x) * m >= 2**63:
        x = x.astype(object)
    out = np.zeros(m, dtype=x.dtype)
    np.add.at(out, positions, x)
    return out.tolist()


def _dilated_convolutions(coeffs, vectors, m: int, split: int):
    """(left, suffix) for the vectors dilated by `coeffs` mod m: left is the
    convolution of the first `split` (None for none), suffix[i] that of
    those from i >= split on.  Every convolution has a dilated vector as
    one operand."""
    dilated = [dilated_vector(vec, c, m) for c, vec in zip(coeffs, vectors)]
    left = None
    for vec in dilated[:split]:
        left = vec if left is None else kernels.convolve_cyclic(left, vec)
    suffix = {len(dilated) - 1: dilated[-1]}
    for i in range(len(dilated) - 2, split - 1, -1):
        suffix[i] = kernels.convolve_cyclic(dilated[i], suffix[i + 1])
    return left, suffix


def _solution_counts(coeffs, vectors, m: int, residues) -> list[int]:
    """C(r) for each r in `residues`, C the convolution of the vectors
    dilated by `coeffs` mod m.

    C is split as L * R, L the convolution of the first ceil(t/2) dilated
    vectors and R of the others, so each C(r) = sum_z L(z) R(r - z) is one
    dot product, and no kernel operand is itself a convolution for t <= 4.
    """
    half = (len(coeffs) + 1) // 2
    left, suffix = _dilated_convolutions(coeffs, vectors, m, half)
    right = suffix[half][:1] + suffix[half][:0:-1]  # R(-z) at index z
    # np.roll by r: R(r - z) at index z
    return [sum(map(operator.mul, left, right[m - r :] + right[: m - r])) for r in residues]


def _first_solution(coeffs, vectors, m: int, residues, *, exclude_constant=False):
    """(r, a) for the first r in `residues` reached as sum c_i a_i (mod m)
    by a tuple a of members of the 0/1 vectors, with a the lexicographically
    smallest such tuple; None if no residue is reached.

    With `exclude_constant`, tuples (x, ..., x) are skipped: their count at
    r is subtracted.  The tuple is built left to right from the suffix
    convolutions, taking the smallest member that leaves a completion.
    """
    _, suffix = _dilated_convolutions(coeffs, vectors, m, 0)
    common = np.flatnonzero(np.logical_and.reduce(vectors)).tolist() if exclude_constant else []
    for r in residues:
        constants = {x for x in common if (sum(coeffs) * x - r) % m == 0}
        if suffix[0][r] <= len(constants):
            continue
        tup, remaining = [], r
        for i, c in enumerate(coeffs):
            for b in np.flatnonzero(vectors[i]).tolist():
                rest = (remaining - c * b) % m
                count = suffix[i + 1][rest] if i + 1 < len(coeffs) else int(rest == 0)
                if b in constants and tup.count(b) == i:
                    count -= 1  # (b, ..., b) is among the completions
                if count > 0:
                    tup.append(b)
                    remaining = rest
                    break
            else:
                raise AssertionError("witness backtracking failed")
        return r, tuple(tup)
    return None


def solution_measure_convolution(
    form: LinearForm, items: Sequence[FunctionLike]
) -> Fraction:
    """Exact T_L via cyclic convolution of dilated value vectors.

    Accepts [0,1]-valued functions as well as sets.  The form is divided by
    its content, so the count reads C(0) for the primitive form; with
    gcd(c1, ..., ct, m) = 1 that is the count for the form itself.  Cost
    O(t * m log m): t - 2 exact FFT convolutions and one dot product.
    """
    m = _check_items(form, items)
    form, _ = content_reduce(form)
    vectors, denominator = [], 1
    for it in items:
        vec, den = integer_vector(it if isinstance(it, CyclicSet) else _as_function(it), m)
        vectors.append(vec)
        denominator *= den
    (total,) = _solution_counts(form.coeffs, vectors, m, [0])
    return Fraction(total, denominator * m ** (form.t - 1))


def dft(f: FunctionLike) -> CyclicSpectrum:
    """fhat(g) = (1/m) sum_x f(x) e(-g x / m)."""
    if isinstance(f, CyclicSet):
        # a set's Fraction values would cost more to build than the FFT
        values = mask_bits(f.mask, f.modulus).astype(float)
    else:
        values = _as_function(f).float_values()
    return CyclicSpectrum(f.modulus, np.fft.fft(values) / f.modulus)


def solution_measure_spectral(
    form: LinearForm, spectra: Sequence[CyclicSpectrum]
) -> complex:
    """sum_g f1hat(c1 g) ... fthat(ct g); requires gcd(c_i, m) = 1 for all i."""
    if len(spectra) != form.t:
        raise SolfreeError("one spectrum per variable required")
    m = _common_modulus(spectra)
    for c in form.coeffs:
        if math.gcd(abs(c), m) != 1:
            raise SolfreeError(f"coefficient {c} is not invertible mod {m}")
    gammas = np.arange(m)
    total = np.ones(m, dtype=complex)
    for c, spec in zip(form.coeffs, spectra):
        total *= spec.coefficients[(c * gammas) % m]
    return complex(total.sum())


def l2_norm(f: FunctionLike) -> float:
    """Mean-square norm sqrt((1/m) sum |f(x)|^2)."""
    vals = _as_function(f).float_values()
    return float(np.sqrt(np.mean(vals * vals)))


def u2_norm(f: FunctionLike) -> float:
    """Gowers U^2 norm: (sum_g |fhat(g)|^4)^(1/4)."""
    spec = dft(f)
    return float(np.sum(np.abs(spec.coefficients) ** 4) ** 0.25)


def half_spectrum_weights(n: int) -> np.ndarray:
    """How often each rfft bin k = 0..n//2 of a real length-n vector occurs
    in its full spectrum: once at k = 0, once at the Nyquist bin k = n/2
    when n is even, and twice elsewhere, since bin n - k mirrors bin k."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return weights


def u2_fourth_power_rows(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] |rhat(k)|^4 over the half spectrum of each row r of a
    real array (the last axis), with rhat = rfft(r) / n; one batched rfft
    for all rows.

    With `half_spectrum_weights(n)` this is sum_g |rhat(g)|^4 over all of
    Z/n, the fourth power of the U^2 norm.
    """
    spectra = np.fft.rfft(rows, axis=-1)
    power = spectra.real**2
    power += spectra.imag**2
    del spectra
    power *= power
    power *= weights
    return power.sum(axis=-1) / float(rows.shape[-1]) ** 4


def u2_norm_values(values: np.ndarray) -> float:
    """U^2 norm of an arbitrary real vector on Z/m (no [0,1] restriction).

    Computed from the half spectrum: ||f||^4 = sum_k w_k |fhat(k)|^4 over
    k = 0..m//2, with w_k = 1 at k = 0 and at k = m/2 for even m, and
    w_k = 2 elsewhere (`half_spectrum_weights`).
    """
    values = np.asarray(values, dtype=float)
    return float(u2_fourth_power_rows(values, half_spectrum_weights(len(values))) ** 0.25)


def dilate_set(A: CyclicSet, n: int) -> CyclicSet:
    """Image {n*a mod m}; a bijection when gcd(n, m) = 1."""
    m = A.modulus
    members = np.flatnonzero(mask_bits(A.mask, m))
    return CyclicSet.from_members(m, members * (n % m) % m)


def is_free(
    forms, A: CyclicSet | Sequence[CyclicSet], *, exclude_constant: bool = False
) -> tuple[bool, tuple | None]:
    """Decide whether no form in the family has a solution.

    `A` may be one set (solutions inside A^t) or a list of t sets per form
    (product solutions).  Returns (True, None) or (False, witness) where the
    witness is (form, (x1, ..., xt)), the lexicographically smallest
    solution.  No coefficient need be invertible, and the form is not
    divided by its content: freeness is pointwise.  With
    ``exclude_constant=True``, solutions with all coordinates equal are
    ignored: an off-label variant used only for demonstrations with
    translation-invariant forms, which admit no non-empty free set
    otherwise.
    """
    family = as_family(forms)
    for form in family:
        sets = A if not isinstance(A, CyclicSet) else [A] * form.t
        if len(sets) != form.t:
            raise SolfreeError("one set per variable required")
        m = _common_modulus(sets)
        vectors = [mask_bits(s.mask, m) for s in sets]
        found = _first_solution(form.coeffs, vectors, m, [0], exclude_constant=exclude_constant)
        if found is not None:
            return False, (form, found[1])
    return True, None
