"""Transference between Z/p and the circle via character-support isomorphisms.

The pipeline replaces a [0,1]-valued function by a trigonometric polynomial
with small symmetric Fourier support (regularization), moves that support
to the dual of the target group through a Freiman isomorphism (which
preserves all additive relations of bounded length, hence the finite
spectral sums of the solution measures), synthesizes on the target group
and restores the range [0,1] with the mean preserved exactly.  Quantitative
losses are not certified a priori; every stage reports its achieved errors
a-posteriori, exactly where rational arithmetic permits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import kernels
from .cyclic import (
    CyclicFunction,
    dft,
    exact_floats,
    solution_measure_convolution,
)
from .errors import SolfreeError
from .forms import (
    LinearForm,
    as_family,
    is_admissible,
    k_admissibility_threshold,
    multiplier_height,
)
from .groups import TORUS, is_prime
from .torus import GridFunction, GridSet, grid_fourier_coefficients, solution_measure_grid

DEFAULT_SAMPLE_DENOMINATOR = 2**20


def centered_lift(x: int, p: int) -> int:
    """Representative of x mod p in (-p/2, p/2]."""
    x %= p
    return x if x <= p // 2 else x - p


@dataclass(frozen=True)
class SpectralFunction:
    """Function with finite symmetric character support.

    `carrier` is the group the function lives on: a prime p for Z/p
    (frequencies are residues mod p) or TORUS (frequencies are integers).
    The coefficient at 0 is the mean, also kept exactly in `mean`.
    """

    carrier: object
    coefficients: dict[int, complex]
    mean: Fraction

    def __post_init__(self):
        coeffs = dict(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if 0 not in coeffs:
            raise SolfreeError("spectral support must contain 0")
        if abs(coeffs[0].imag) > 1e-9:
            raise SolfreeError("mean coefficient must be real")
        for g in coeffs:
            if self._negate(g) not in coeffs:
                raise SolfreeError(f"support is not symmetric: missing -{g}")

    def _negate(self, g: int) -> int:
        if self.carrier is TORUS:
            return -g
        return (-g) % self.carrier

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    @property
    def support_size(self) -> int:
        return len(self.coefficients)

    def conjugate_symmetric(self, tol: float = 1e-9) -> bool:
        return all(
            abs(self.coefficients[self._negate(g)] - np.conj(c)) <= tol
            for g, c in self.coefficients.items()
        )


@dataclass(frozen=True)
class FreimanMap:
    """Bijection between finite frequency sets preserving bounded additive
    relations; maps 0 to 0.

    `source_modulus`/`target_modulus` are None for the integers (the dual
    of the circle) and p for residues mod p.
    """

    pairs: dict[int, int]
    source_modulus: Optional[int]
    target_modulus: Optional[int]
    k: int

    def __post_init__(self):
        pairs = dict(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(set(pairs.values())) != len(pairs):
            raise SolfreeError("map is not injective")
        if pairs.get(0, None) != 0:
            raise SolfreeError("a Freiman map must send 0 to 0")

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.pairs))

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.pairs.values()))

    def __call__(self, g: int) -> int:
        key = g if self.source_modulus is None else g % self.source_modulus
        return self.pairs[key]


def verify_freiman_isomorphism(
    phi: FreimanMap, k: Optional[int] = None, cap: int = 10_000_000
) -> bool:
    """Check that sums of k domain elements agree iff the corresponding
    image sums agree.

    Unit multiples.  When one side of phi is an integer set A and the other
    is Z/M, and phi(a) = mu * a (mod M) for one unit mu of Z/M (reduction
    mod N, and a dilation followed by a centred lift mod p, are both of this
    form), phi is a Freiman k-isomorphism iff no nonzero multiple of M lies
    in kA - kA.  Proof: a -> mu * a (mod M) is additive, so equal sums over
    A stay equal; two k-fold sums x, y over A have equal images iff
    mu (x - y) = 0 (mod M) iff M divides x - y, as mu is a unit.  So the
    check is that distinct elements of kA are distinct mod M, which holds
    when k * span(A) < M.  Both pipeline searches keep k * span(A) below M,
    so their maps are accepted in O(|A|); a unit multiple wider than that is
    enumerated as below.

    Other maps.  The pairs (sum of sources, sum of images) over all
    k-multisets form the k-fold sumset of the graph {(a, phi(a))}, and phi is
    a Freiman k-isomorphism iff that relation is a bijection.  Since
    phi(0) = 0, the j-fold sumset lies inside the (j+1)-fold one, so the
    relation must be a bijection at every level j <= k as well.  The sumset
    is built level by level, keeping each distinct source sum with its
    single image; the check ends at the first level that is not a
    bijection.  The candidate sums formed, counted over all levels, must
    stay below `cap`.
    """
    k = k or phi.k
    if _is_narrow_unit_multiple(phi, k):
        return True
    src_mod, dst_mod = phi.source_modulus, phi.target_modulus
    widest = max(abs(v) for pair in phi.pairs.items() for v in pair)
    dtype = np.int64 if k * widest < 2**62 else object
    sources = np.array(list(phi.pairs), dtype=dtype)
    images = np.array(list(phi.pairs.values()), dtype=dtype)
    level = (np.zeros(1, dtype=dtype), np.zeros(1, dtype=dtype))  # the 0-fold sumset
    work = 0
    for j in range(1, k + 1):
        work += len(level[0]) * len(sources)
        if work > cap:
            raise SolfreeError(
                f"verification needs more than {cap} candidate sums by level {j}"
            )
        s = np.add.outer(level[0], sources).ravel()
        d = np.add.outer(level[1], images).ravel()
        if src_mod is not None:
            s %= src_mod
        if dst_mod is not None:
            d %= dst_mod
        level = _bijection_graph(s, d)
        if level is None:
            return False
    return True


def _is_narrow_unit_multiple(phi: FreimanMap, k: int) -> bool:
    """Whether phi is a unit multiple between an integer set A and Z/M with
    k * span(A) < M.  O(|A|): the multiplier is read off one element prime
    to M."""
    if phi.source_modulus is None and phi.target_modulus is not None:
        modulus, ints, residues = phi.target_modulus, list(phi.pairs), list(phi.pairs.values())
    elif phi.source_modulus is not None and phi.target_modulus is None:
        modulus, ints, residues = phi.source_modulus, list(phi.pairs.values()), list(phi.pairs)
    else:
        return False
    if k * (max(ints) - min(ints)) >= modulus:
        return False
    pivot = next((i for i, a in enumerate(ints) if math.gcd(a, modulus) == 1), None)
    if pivot is None:
        return False
    mu = residues[pivot] * pow(ints[pivot], -1, modulus) % modulus
    return math.gcd(mu, modulus) == 1 and not any(
        (b - mu * a) % modulus for a, b in zip(ints, residues)
    )


def _bijection_graph(sources: np.ndarray, images: np.ndarray):
    """The distinct pairs (sources[i], images[i]) as (sources, images) arrays
    if they are the graph of a bijection, else None.

    Sorts instead of calling np.unique, which imports numpy.ma (about 1.2 MB
    of resident memory) on its first call.
    """
    order = np.argsort(sources)
    sources, images = sources[order], images[order]
    starts = np.ones(len(sources), dtype=bool)
    starts[1:] = sources[1:] != sources[:-1]
    run_start = np.maximum.accumulate(np.where(starts, np.arange(len(sources)), 0))
    if not np.array_equal(images, images[run_start]):
        return None  # one source sum with two image sums
    sources, images = sources[starts], images[starts]
    ranked = np.sort(images)
    if np.any(ranked[1:] == ranked[:-1]):
        return None  # one image sum with two source sums
    return sources, images


def find_iso_modp_to_int(p: int, frequencies, k: int) -> FreimanMap:
    """Freiman k-isomorphism from a frequency set R mod p into the integers.

    Searches for the smallest dilation factor lam in 1..p-1 whose centered
    lifts of lam*R all lie in (-p/(2k), p/(2k)); then two sums of at most k
    lifts agree mod p iff they agree in Z.  The constructed map is verified
    explicitly afterwards.
    """
    if not is_prime(p):
        raise SolfreeError(f"{p} is not prime")
    R = sorted({x % p for x in frequencies})
    if 0 not in R:
        raise SolfreeError("frequency set must contain 0")
    for lam in range(1, p):
        lifts = [centered_lift(lam * g, p) for g in R]
        if all(2 * k * abs(ell) < p for ell in lifts):
            phi = FreimanMap(
                dict(zip(R, lifts)), source_modulus=p, target_modulus=None, k=k
            )
            if not verify_freiman_isomorphism(phi):
                continue
            return phi
    raise SolfreeError(
        f"no dilation maps the frequency set R into (-p/2k, p/2k) as a Freiman "
        f"isomorphism: |R| = {len(R)}, p = {p}, k = {k}; shrink R by lowering "
        f"the multiplier height or max_support, or use a larger prime p"
    )


def find_iso_int_to_modn(frequencies, k: int, modulus: int) -> FreimanMap:
    """Freiman k-isomorphism from an integer frequency set into Z/N by
    reduction mod N, valid when 2k * diameter(A) < N (all sums of at most
    k elements then live in a window shorter than N).  Verified explicitly.
    """
    A = sorted(set(int(x) for x in frequencies))
    if 0 not in A:
        raise SolfreeError("frequency set must contain 0")
    diameter = A[-1] - A[0]
    if 2 * k * diameter >= modulus:
        raise SolfreeError(
            f"window condition failed: 2*{k}*{diameter} >= {modulus}; "
            "increase the modulus or shrink the support"
        )
    phi = FreimanMap(
        {a: a % modulus for a in A}, source_modulus=None, target_modulus=modulus, k=k
    )
    if not verify_freiman_isomorphism(phi):
        raise AssertionError("window condition held but verification failed")
    return phi


def build_product_set(frequencies, h: int, modulus: Optional[int] = None):
    """h-fold sumset R + R + ... + R in the (additively written) dual."""
    if h < 1:
        raise SolfreeError("h must be >= 1")
    R = kernels.int_array(sorted(set(frequencies)))
    if R.dtype != object and len(R) and kernels.max_abs(R) * h >= 2**63:
        R = R.astype(object)
    result = R
    for _ in range(h - 1):
        sums = np.add.outer(result, R).ravel()
        if modulus is not None:
            sums %= modulus
        sums = np.sort(sums)
        distinct = np.ones(len(sums), dtype=bool)
        distinct[1:] = sums[1:] != sums[:-1]
        result = sums[distinct]
    return result.tolist()


# ---------------------------------------------------------------------------
# Regularization


@dataclass
class RegularizeReport:
    support_size: int
    threshold: float
    l2_residual: float
    per_form: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "support_size": self.support_size,
            "threshold": self.threshold,
            "l2_residual": self.l2_residual,
            "per_form": self.per_form,
        }


def _select_support(
    positive: np.ndarray, mags: np.ndarray, paired: np.ndarray, threshold: float, max_support: int
) -> list[int]:
    """Frequencies with magnitude >= threshold, in symmetric pairs, capped
    at max_support; 0 always kept.

    `positive` holds the frequencies g > 0 with their magnitudes `mags`;
    `paired[i]` says whether -positive[i] is a frequency too.  Deterministic:
    pairs are taken greedily in the order (-magnitude, frequency value), and
    one that does not fit is skipped.  Returns [0, g1, -g1, g2, -g2, ...] in
    that order.
    """
    if max_support < 1:
        raise SolfreeError("support cap must allow at least the mean")
    order = np.lexsort((positive, -mags))
    order = order[mags[order] >= threshold]
    cum = np.cumsum(np.where(paired[order], 2, 1))
    fits = int(np.searchsorted(cum, max_support - 1, side="right"))
    taken = order[:fits].tolist()
    room = max_support - 1 - (int(cum[fits - 1]) if fits else 0)
    if room == 1:
        # a pair did not fit and cannot later: only an unpaired frequency can
        rest = order[fits:]
        taken += rest[~paired[rest]][:1].tolist()
    chosen = [0]
    for i in taken:
        g = int(positive[i])
        chosen.append(g)
        if paired[i]:
            chosen.append(-g)
    return chosen


def regularize(
    f: Union[CyclicFunction, GridFunction],
    threshold: float,
    max_support: int,
    forms=None,
) -> tuple[SpectralFunction, RegularizeReport]:
    """Spectral truncation: keep frequencies with |fhat| >= threshold
    (always keeping 0), in symmetric pairs, at most max_support in total.

    The mean is preserved exactly.  The report carries the l2 residual and,
    when `forms` is given, the per-form solution-measure drift computed
    spectrally.
    """
    if threshold < 0:
        raise SolfreeError("threshold must be >= 0")
    if isinstance(f, CyclicFunction):
        m = f.modulus
        spec = dft(f).coefficients
        # np.hypot, like abs() of a Python complex, is the C library's hypot
        mags = np.hypot(spec.real, spec.imag)
        positive = np.arange(1, m // 2 + 1)  # frequencies lifted into (-m/2, m/2]
        chosen = _select_support(
            positive, mags[positive], 2 * positive < m, threshold, min(max_support, m)
        )
        residues = [g % m for g in chosen]
        coeffs = {r: complex(spec[r]) for r in residues}
        dropped = np.ones(m, dtype=bool)
        dropped[residues] = False
        dropped_sq = float(np.sum(mags[dropped] ** 2))
        mean = f.mean
        coeffs[0] = complex(float(mean))
        fprime = SpectralFunction(m, coeffs, mean)
    elif isinstance(f, (GridFunction, GridSet)):
        if isinstance(f, GridSet):
            f = GridFunction.from_set(f)
        n = f.resolution
        dmax = float(np.max(np.abs(np.fft.fft(f.float_values()) / n)))
        if threshold > 0:
            cutoff = max(n, int(math.ceil(dmax * n / (math.pi * threshold))))
        else:
            cutoff = max(n, max_support)
        ks = np.arange(-cutoff, cutoff + 1)
        vals = grid_fourier_coefficients(f, ks)
        positive = ks[cutoff + 1 :]
        mags = np.hypot(vals.real, vals.imag)[cutoff + 1 :]
        chosen = _select_support(
            positive, mags, np.ones(cutoff, dtype=bool), threshold, max_support
        )
        coeffs = {g: complex(vals[g + cutoff]) for g in chosen}
        # Parseval over the circle: sum_k |fhat(k)|^2 = mean of f^2 exactly
        total_sq = float(np.mean(f.float_values() ** 2))
        kept_sq = sum(abs(c) ** 2 for c in coeffs.values())
        dropped_sq = total_sq - kept_sq
        if dropped_sq < 1e-13 * max(1.0, total_sq):  # float noise floor
            dropped_sq = 0.0
        coeffs[0] = complex(float(f.mean))
        fprime = SpectralFunction(TORUS, coeffs, f.mean)
    else:
        raise SolfreeError(f"cannot regularize {type(f)!r}")

    residual = math.sqrt(max(dropped_sq, 0.0))
    report = RegularizeReport(
        support_size=fprime.support_size, threshold=threshold, l2_residual=residual
    )
    if forms is not None:
        for form in as_family(forms):
            t_reg = finite_spectral_measure(fprime, form)
            t_src = _exact_measure(f, form)
            report.per_form.append(
                {
                    "form": form.to_json(),
                    "T_source": float(t_src),
                    "T_regularized": t_reg.real,
                    "delta": abs(float(t_src) - t_reg.real),
                }
            )
    return fprime, report


def _exact_measure(f, form) -> Fraction:
    if isinstance(f, CyclicFunction):
        return solution_measure_convolution(form, [f] * form.t)
    return solution_measure_grid(form, [f] * form.t)


def finite_spectral_measure(spec: SpectralFunction, form: LinearForm) -> complex:
    """The finite sum  sum_g  prod_i fhat(c_i g)  over frequencies g with
    every c_i g inside the support."""
    coeffs = spec.coefficients
    total = 0 + 0j
    for g in _index_candidates(spec, form):
        prod = 1 + 0j
        ok = True
        for c in form.coeffs:
            key = c * g if spec.carrier is TORUS else (c * g) % spec.carrier
            if key not in coeffs:
                ok = False
                break
            prod *= coeffs[key]
        if ok:
            total += prod
    return total


def _index_candidates(spec, form):
    if spec.carrier is TORUS:
        c0 = form.coeffs[0]
        return sorted({s // c0 for s in spec.support if s % c0 == 0})
    return range(spec.carrier)


def transfer_spectrum(fprime: SpectralFunction, phi: FreimanMap) -> SpectralFunction:
    """Push the spectrum through a Freiman map: ghat(phi(g)) = fhat(g),
    zero elsewhere.  The mean is carried over exactly."""
    support = set(fprime.support)
    domain = set(phi.domain)
    missing = support - (
        domain
        if phi.source_modulus is None
        else {g % phi.source_modulus for g in domain}
    )
    if missing:
        raise SolfreeError(f"support escapes the map domain: {sorted(missing)}")
    carrier = TORUS if phi.target_modulus is None else phi.target_modulus
    coeffs = {phi(g): c for g, c in fprime.coefficients.items()}
    return SpectralFunction(carrier, coeffs, fprime.mean)


# ---------------------------------------------------------------------------
# Synthesis and range correction


def synthesize_cyclic(spec: SpectralFunction, p: Optional[int] = None) -> np.ndarray:
    """Evaluate the trigonometric polynomial at all residues of Z/p."""
    if spec.carrier is TORUS:
        raise SolfreeError("use synthesize_grid for circle spectra")
    p = p or spec.carrier
    full = np.zeros(p, dtype=complex)
    for g, c in spec.coefficients.items():
        full[g % p] = c
    values = np.fft.ifft(full) * p
    return values.real


def synthesize_grid(spec: SpectralFunction, resolution: int) -> tuple[np.ndarray, float]:
    """Evaluate the trigonometric polynomial at the cell midpoints of a grid.

    Returns (values, bound) where `bound` dominates the difference between
    the midpoint value and any value on the cell:
    max |g'| / (2N) <= 2 pi sum |k| |ghat(k)| / (2N).
    """
    if spec.carrier is not TORUS:
        raise SolfreeError("use synthesize_cyclic for Z/p spectra")
    xs = (np.arange(resolution) + 0.5) / resolution
    values = np.zeros(resolution, dtype=complex)
    for k, c in spec.coefficients.items():
        values += c * np.exp(2j * np.pi * k * xs)
    bound = (
        2
        * math.pi
        * sum(abs(k) * abs(c) for k, c in spec.coefficients.items())
        / (2 * resolution)
    )
    return values.real, float(bound)


@dataclass
class RangeReport:
    l2_distance: float
    linf_distance: float
    iterations: int
    clipped_mass: float
    per_form: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "l2_distance": self.l2_distance,
            "linf_distance": self.linf_distance,
            "iterations": self.iterations,
            "clipped_mass": self.clipped_mass,
            "per_form": self.per_form,
        }


def quantize_values(values, denominator: int) -> list[Fraction]:
    """Round floats to the rational grid with the given denominator."""
    return [Fraction(round(float(v) * denominator), denominator) for v in values]


def _quantized_numerators(raw: np.ndarray, denominator: int) -> np.ndarray:
    """The numerators of :func:`quantize_values` over `denominator`: np.rint,
    like round(), rounds half to even."""
    scaled = np.rint(np.asarray(raw, dtype=float) * denominator)
    if len(scaled) and np.max(np.abs(scaled)) < 2**62:
        return scaled.astype(np.int64)
    return np.array([int(x) for x in scaled], dtype=object)


def range_correct(
    g,
    target_mean: Optional[Fraction] = None,
    *,
    sample_resolution: Optional[int] = None,
    denominator: int = DEFAULT_SAMPLE_DENOMINATOR,
    forms=None,
):
    """Clip to [0,1], then restore the mean exactly by spreading the missing
    (or excess) mass uniformly over the slack region -- the cells whose
    clipped value is strictly inside [0,1] -- re-clipping and iterating to
    exactness.  Cells at the boundary are drawn in only if the strict slack
    region is exhausted.

    `g` may be a SpectralFunction (sampled first: at cell midpoints for a
    circle spectrum with `sample_resolution`, at residues for Z/p, and
    quantized to `denominator`), or a CyclicFunction/GridFunction with exact
    values.  Returns (function, report); the output mean equals
    `target_mean` (default: the input mean) exactly.

    The rounds are not run cell by cell but replayed on integer numerators
    a_x / D, with the sort-and-prefix-sum idiom of Duchi et al., "Efficient
    projections onto the l1-ball", ICML 2008.  The replay is exact, with the
    same rounds, iteration count and values as the cell-by-cell loop
    (kept as the test oracle), for three reasons:

    - each round adds one common amount to every cell of the slack region,
      so its cells keep their order and reach the bound in order of their
      room; after shifts summing to s, the cells with room <= s * D sit at
      the bound and the others moved by s, and one binary search on the
      sorted rooms with their prefix sums gives the new total;
    - the missing mass keeps its sign: a round that clips no cell restores
      the mean, and one that clips some leaves mass of the same sign, so
      the slack region only shrinks;
    - when the slack region is exhausted, the cells drawn in instead all
      sit at the far bound, so they form one group of equal values, which
      one round completes.

    Only scalars are Fractions.  Each per-cell difference in the report is
    one exact integer ratio, rounded once, as float() of a Fraction is.
    """
    if isinstance(g, SpectralFunction):
        if target_mean is None:
            target_mean = g.mean
        if g.carrier is TORUS:
            if sample_resolution is None:
                raise SolfreeError("sample_resolution required for circle spectra")
            raw, _ = synthesize_grid(g, sample_resolution)
            out_type = GridFunction
        else:
            raw = synthesize_cyclic(g)
            out_type = CyclicFunction
        nums, den = _quantized_numerators(raw, denominator), denominator
    elif isinstance(g, (CyclicFunction, GridFunction)):
        nums, den = g.numerator_array()
        out_type = type(g)
        if target_mean is None:
            target_mean = g.mean
    else:
        raise SolfreeError(f"cannot range-correct {type(g)!r}")

    target_mean = Fraction(target_mean)
    if target_mean < 0 or target_mean > 1:
        raise SolfreeError(f"mean {target_mean} outside [0,1]")
    n = len(nums)
    out_nums, out_den, iterations, diffs, clipped = _water_fill(nums, den, target_mean * n)
    report = RangeReport(
        l2_distance=float(np.sqrt(np.mean(diffs**2))),
        linf_distance=float(np.max(np.abs(diffs))),
        iterations=iterations,
        clipped_mass=clipped,
    )
    out = out_type.from_numerators(n, out_nums, out_den)
    if forms is not None:
        for form in as_family(forms):
            report.per_form.append(
                {"form": form.to_json(), "T_corrected": float(_exact_measure(out, form))}
            )
    return out, report


def _water_fill(a: np.ndarray, den: int, target_total: Fraction):
    """Replay the clip-and-spread rounds of :func:`range_correct` on the
    values a_x / den, for the total `target_total`.

    Returns (numerators, denominator) of the result, the iteration count,
    the differences input minus result as floats, and the clipped mass.
    """
    n = len(a)
    if a.dtype != object and max(den, kernels.max_abs(a)) * (n + 1) >= 2**62:
        a = a.astype(object)  # so that every sum below stays exact
    c = np.minimum(np.maximum(a, 0), den)
    clipped = a - c
    clipped_mass = int(np.sum(np.abs(clipped))) / den
    interior = np.flatnonzero((c > 0) & (c < den))
    missing = target_total - Fraction(int(c.sum()), den)
    sign = 1 if missing > 0 else -1
    missing = abs(missing)
    room = den - c[interior] if sign > 0 else c[interior]
    order = np.argsort(room, kind="stable")
    room = room[order]
    prefix = np.concatenate((np.zeros(1, dtype=room.dtype), np.cumsum(room)))
    # after shifts summing to s, cells with room <= s * den sit at the bound
    # (the first `at_bound` in order) and the others moved by s
    shift, at_bound, iterations = Fraction(0), 0, 0
    fallback = None
    while True:
        left = missing - Fraction(int(prefix[at_bound]), den) - (len(room) - at_bound) * shift
        if left == 0:
            break
        iterations += 1
        if at_bound == len(room):
            # slack exhausted: the cells at the far bound form one equal group
            group = np.flatnonzero(c == (0 if sign > 0 else den))
            if len(group) == 0 or left > len(group):
                raise SolfreeError("no room to restore the mean")
            fallback = (group, left / len(group))
            break
        shift += left / (len(room) - at_bound)
        reach = min(shift.numerator * den // shift.denominator, den)
        at_bound = int(np.searchsorted(room, reach, side="right"))

    extra = fallback[1] if fallback else shift  # the one non-integer amount
    q = extra.denominator
    if c.dtype != object and den * q * (n + 1) >= 2**62:
        c, a = c.astype(object), a.astype(object)
    bound = den if sign > 0 else 0
    saturated = interior[order[:at_bound]]
    out = c * q
    out[saturated] = bound * q
    diff_nums = clipped.copy()
    diff_nums[saturated] = c[saturated] - bound
    diffs = exact_floats(diff_nums, den)
    if fallback:
        group = fallback[0]
        moved = extra if sign > 0 else 1 - extra
        out[group] = moved.numerator * den
        diffs[group] = exact_floats(a[group] * q - moved.numerator * den, den * q)
    else:
        moving = interior[order[at_bound:]]
        out[moving] += sign * extra.numerator * den
        diffs[moving] = -sign * extra.numerator / q
    return out, den * q, iterations, diffs, clipped_mass


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class PipelineReport:
    """What `transfer_pipeline` produced.  `lam` is phi(1), the image of 1
    under the Freiman map, or None when 1 is not in the map's domain and
    always on the way to Z/p; it is not the dilation the search chose."""

    alpha: Fraction
    support_size: int
    lam: Optional[int]
    per_form: list[dict]
    bounds_flag: bool
    stages: dict

    def to_json(self) -> dict:
        return {
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "support_size": self.support_size,
            "lambda": self.lam,
            "per_form": self.per_form,
            "bounds_flag": self.bounds_flag,
            "stages": self.stages,
        }


def transfer_pipeline(
    f,
    target,
    eps: float,
    height: int,
    forms,
    *,
    threshold: Optional[float] = None,
    max_support: int = 256,
    sample_resolution: int = 2048,
    denominator: int = DEFAULT_SAMPLE_DENOMINATOR,
):
    """regularize -> product set -> Freiman isomorphism -> transfer ->
    sample -> range-correct.

    `f` is a CyclicFunction on Z/p (target TORUS) or a GridFunction/GridSet
    (target: a prime p).  Every form must have at least three variables, be
    admissible on the finite side, and have multiplier height at most
    `height`.  Returns (g, PipelineReport); the output mean equals the input
    mean exactly, and the report compares exact solution measures per form
    against the heuristic target bound t * eps * alpha^(t-2), setting
    bounds_flag False (without failing) if some form exceeds it.
    """
    family = as_family(forms)
    if isinstance(f, GridSet):
        f = GridFunction.from_set(f)
    to_torus = target is TORUS
    p = f.modulus if to_torus else int(target)
    if not is_prime(p):
        raise SolfreeError(f"the finite group side needs a prime, got {p}")
    k = 2
    for form in family:
        if form.t < 3:
            raise SolfreeError("pipeline forms need at least three variables")
        if not is_admissible(form, p):
            raise SolfreeError(f"{form.coeffs} is not admissible mod {p}")
        if multiplier_height(form) > height:
            raise SolfreeError(
                f"form {form.coeffs} has multiplier height above {height}"
            )
        k = max(k, k_admissibility_threshold(form))

    threshold = eps if threshold is None else threshold
    fprime, reg_report = regularize(f, threshold, max_support)
    support = list(fprime.support)

    if to_torus:
        q_set = build_product_set(support, height, modulus=p)
        phi = find_iso_modp_to_int(p, q_set, k)
        lam = phi.pairs.get(1)
        spec_t = transfer_spectrum(fprime, phi)
        g, range_report = range_correct(
            spec_t,
            target_mean=fprime.mean,
            sample_resolution=sample_resolution,
            denominator=denominator,
        )
    else:
        q_set = build_product_set(support, height)
        phi = find_iso_int_to_modn(q_set, k, p)
        lam = None
        spec_p = transfer_spectrum(fprime, phi)
        g, range_report = range_correct(spec_p, target_mean=fprime.mean, denominator=denominator)

    alpha = fprime.mean
    per_form = []
    flag = True
    for form in family:
        t_src = _exact_measure(f, form)
        t_dst = _exact_measure(g, form)
        delta = abs(float(t_src - t_dst))
        bound = form.t * eps * float(alpha) ** (form.t - 2)
        if delta > bound:
            flag = False
        per_form.append(
            {
                "form": form.to_json(),
                "T_source": float(t_src),
                "T_target": float(t_dst),
                "delta": delta,
                "target_bound": bound,
            }
        )
    report = PipelineReport(
        alpha=alpha,
        support_size=fprime.support_size,
        lam=lam,
        per_form=per_form,
        bounds_flag=flag,
        stages={
            "regularize": reg_report.to_json(),
            "range_correct": range_report.to_json(),
        },
    )
    return g, report
