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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

import numpy as np

from . import kernels
from .errors import SolfreeError
from .forms import FormFamily, LinearForm, as_family
from .groups import validate_modulus


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
        mask = 0
        for x in members:
            mask |= 1 << (int(x) % modulus)
        return cls(modulus, mask)

    @classmethod
    def full(cls, modulus: int) -> "CyclicSet":
        return cls(modulus, (1 << modulus) - 1)

    @classmethod
    def empty(cls, modulus: int) -> "CyclicSet":
        return cls(modulus, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.modulus) if self.mask >> x & 1)

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
        m = self.modulus
        return [self.mask >> x & 1 for x in range(m)]

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


@dataclass(frozen=True)
class CyclicFunction:
    """Function Z/m -> [0,1] stored as exact rationals."""

    modulus: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        validate_modulus(self.modulus)
        values = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.modulus:
            raise SolfreeError("value vector length must equal modulus")
        if any(v < 0 or v > 1 for v in values):
            raise SolfreeError("values must lie in [0,1]")

    @classmethod
    def constant(cls, modulus: int, value) -> "CyclicFunction":
        return cls(modulus, (Fraction(value),) * modulus)

    @classmethod
    def from_set(cls, A: CyclicSet) -> "CyclicFunction":
        return cls(A.modulus, tuple(Fraction(b) for b in A.indicator()))

    @property
    def mean(self) -> Fraction:
        return sum(self.values, Fraction(0)) / self.modulus

    def float_values(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=float)

    def numerators(self) -> tuple[list[int], int]:
        """Common-denominator integer representation (numerators, D)."""
        den = math.lcm(*[v.denominator for v in self.values]) if self.values else 1
        return [int(v * den) for v in self.values], den


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


FunctionLike = Union[CyclicSet, CyclicFunction]


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


def dilated_vector(values: Sequence[int], c: int, m: int) -> list[int]:
    """u with u[(c*x) mod m] aggregated from values[x]."""
    out = [0] * m
    for x, v in enumerate(values):
        if v:
            out[(c * x) % m] += v
    return out


def solution_measure_convolution(
    form: LinearForm, items: Sequence[FunctionLike]
) -> Fraction:
    """Exact T_L via iterated cyclic convolution of dilated value vectors.

    Same value as :func:`solution_count_bruteforce`; accepts [0,1]-valued
    functions as well as sets.  Cost O(t * m^2) in exact integer arithmetic.
    """
    m = _check_items(form, items)
    t = form.t
    vectors = []
    denominator = 1
    for it in items:
        if isinstance(it, CyclicSet):
            vectors.append(it.indicator())
        else:
            nums, den = _as_function(it).numerators()
            vectors.append(nums)
            denominator *= den
    conv = None
    for c, vec in zip(form.coeffs[:-1], vectors[:-1]):
        dil = dilated_vector(vec, c, m)
        conv = dil if conv is None else kernels.convolve_cyclic(conv, dil)
    last_vec = vectors[-1]
    inv = pow(form.coeffs[-1] % m, -1, m)
    total = 0
    for z, n_z in enumerate(conv):
        if n_z:
            x_t = (-z * inv) % m
            v = last_vec[x_t]
            if v:
                total += n_z * v
    return Fraction(total, denominator * m ** (t - 1))


def dft(f: FunctionLike) -> CyclicSpectrum:
    """fhat(g) = (1/m) sum_x f(x) e(-g x / m)."""
    if isinstance(f, CyclicSet):
        # a set's Fraction values would cost more to build than the FFT
        values = np.array(f.indicator(), dtype=float)
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


def u2_norm_values(values: np.ndarray) -> float:
    """U^2 norm of an arbitrary real vector on Z/m (no [0,1] restriction)."""
    coeffs = np.fft.fft(np.asarray(values, dtype=float)) / len(values)
    return float(np.sum(np.abs(coeffs) ** 4) ** 0.25)


def dilate_set(A: CyclicSet, n: int) -> CyclicSet:
    """Image {n*a mod m}; a bijection when gcd(n, m) = 1."""
    return CyclicSet.from_members(A.modulus, (n * a % A.modulus for a in A.members()))


def is_free(
    forms, A: Union[CyclicSet, Sequence[CyclicSet]], *, exclude_constant: bool = False
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
