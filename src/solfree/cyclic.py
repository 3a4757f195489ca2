"""Sets and functions on Z/m: exact solution measures, DFT, U^2 norm.

Conventions.  The solution measure of a form L = (c1, ..., ct) on sets
A1, ..., At <= Z/m is

    T_L = #{(x1,...,xt) in A1 x ... x At : sum c_i x_i = 0 mod m} / m^(t-1),

an exact rational.  The normalization matches the Haar measure of the
kernel subgroup {x : L(x) = 0}, which has exactly m^(t-1) elements when
gcd(c_t, m) = 1; measures are refused otherwise rather than silently
renormalized.  The discrete Fourier transform carries the 1/m inside:

    fhat(g) = (1/m) * sum_x f(x) exp(-2 pi i g x / m),

so that T_L(f1,...,ft) = sum_g f1hat(c1 g) ... fthat(ct g) holds as a plain
sum over frequencies whenever every gcd(c_i, m) = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import SolfreeError
from .forms import FormFamily, LinearForm, as_family
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

    def complement(self) -> "CyclicSet":
        return CyclicSet(self.modulus, ~self.mask & ((1 << self.modulus) - 1))

    def union(self, other: "CyclicSet") -> "CyclicSet":
        self._check(other)
        return CyclicSet(self.modulus, self.mask | other.mask)

    def difference(self, other: "CyclicSet") -> "CyclicSet":
        self._check(other)
        return CyclicSet(self.modulus, self.mask & ~other.mask)

    def shift(self, r: int) -> "CyclicSet":
        """Translate: {x + r mod m}."""
        m = self.modulus
        return CyclicSet.from_members(m, ((x + r) % m for x in self.members()))

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
    if math.gcd(abs(form.coeffs[-1]), m) != 1:
        raise SolfreeError(
            f"last coefficient {form.coeffs[-1]} is not invertible mod {m}; "
            "the kernel is not parametrized by the first t-1 coordinates"
        )
    return m


def solution_count_bruteforce(form: LinearForm, sets: Sequence[CyclicSet]) -> Fraction:
    """Exact T_L by enumeration over the first t-1 coordinates.

    Requires gcd(c_t, m) = 1 so the last coordinate is determined.
    """
    if any(not isinstance(s, CyclicSet) for s in sets):
        raise SolfreeError("brute-force counting expects sets")
    m = _check_items(form, sets)
    *front, last_c = form.coeffs
    inv = pow(last_c % m, -1, m)
    count = 0
    member_lists = [s.members() for s in sets[:-1]]
    last = sets[-1]
    for tup in product(*member_lists):
        rhs = -sum(c * x for c, x in zip(front, tup)) % m
        if (rhs * inv) % m in last:
            count += 1
    return Fraction(count, m ** (form.t - 1))


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


def solution_measure_convolution(
    form: LinearForm, items: Sequence[FunctionLike]
) -> Fraction:
    """Exact T_L via cyclic convolution of dilated value vectors.

    Same value as :func:`solution_count_bruteforce`; accepts [0,1]-valued
    functions as well as sets.  With u_i the vector of item i dilated by
    c_i, the count is (u_1 * ... * u_t)(0) = sum_z L(z) R(-z), where L
    convolves the first ceil(t/2) vectors and R the others.  So no
    convolution has a convolution as an operand for t <= 4, and every
    kernel operand is as narrow as one item's numerators.  Cost
    O(t * m log m): t - 2 exact FFT convolutions and one dot product.
    """
    m = _check_items(form, items)
    t = form.t
    dilated = []
    denominator = 1
    for c, it in zip(form.coeffs, items):
        if isinstance(it, CyclicSet):
            vec = mask_bits(it.mask, m)
        else:
            vec, den = _as_function(it).numerator_array()
            denominator *= den
        dilated.append(dilated_vector(vec, c, m))
    half = (t + 1) // 2
    left = _convolve_all(dilated[:half])
    right = _convolve_all(dilated[half:])
    right = right[:1] + right[:0:-1]  # R(-z) at index z
    total = sum(map(operator.mul, left, right))
    return Fraction(total, denominator * m ** (t - 1))


def _convolve_all(vectors: list[list[int]]) -> list[int]:
    conv = vectors[0]
    for vec in vectors[1:]:
        conv = kernels.convolve_cyclic(conv, vec)
    return conv


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
    return CyclicSet.from_members(A.modulus, (n * a % A.modulus for a in A.members()))


def is_free(
    forms, A: CyclicSet | Sequence[CyclicSet], *, exclude_constant: bool = False
) -> tuple[bool, tuple | None]:
    """Decide whether no form in the family has a solution.

    `A` may be one set (solutions inside A^t) or a list of t sets per form
    (product solutions).  Returns (True, None) or (False, witness) where the
    witness is (form, (x1, ..., xt)).  With ``exclude_constant=True``,
    solutions with all coordinates equal are ignored: an off-label variant
    used only for demonstrations with translation-invariant forms, which
    admit no non-empty free set otherwise.
    """
    family = as_family(forms)
    for form in family:
        sets = A if not isinstance(A, CyclicSet) else [A] * form.t
        if len(sets) != form.t:
            raise SolfreeError("one set per variable required")
        m = _common_modulus(sets)
        witness = _find_solution(form, sets, m, exclude_constant)
        if witness is not None:
            return False, (form, witness)
    return True, None


def _find_solution(form, sets, m, exclude_constant):
    *front, last_c = form.coeffs
    if math.gcd(abs(last_c), m) == 1:
        inv = pow(last_c % m, -1, m)
        last = sets[-1]
        for tup in product(*[s.members() for s in sets[:-1]]):
            x_t = (-sum(c * x for c, x in zip(front, tup)) * inv) % m
            if x_t in last:
                full = tup + (x_t,)
                if exclude_constant and len(set(full)) == 1:
                    continue
                return full
        return None
    for tup in product(*[s.members() for s in sets]):
        if sum(c * x for c, x in zip(form.coeffs, tup)) % m == 0:
            if exclude_constant and len(set(tup)) == 1:
                continue
            return tup
    return None


def solution_tuples(form: LinearForm, m: int, *, exclude_constant: bool = False):
    """All solution tuples of L(x) = 0 in (Z/m)^t (generator)."""
    *front, last_c = form.coeffs
    if math.gcd(abs(last_c), m) == 1:
        inv = pow(last_c % m, -1, m)
        for tup in product(range(m), repeat=form.t - 1):
            x_t = (-sum(c * x for c, x in zip(front, tup)) * inv) % m
            full = tup + (x_t,)
            if exclude_constant and len(set(full)) == 1:
                continue
            yield full
    else:
        for tup in product(range(m), repeat=form.t):
            if sum(c * x for c, x in zip(form.coeffs, tup)) % m == 0:
                if exclude_constant and len(set(tup)) == 1:
                    continue
                yield tup
