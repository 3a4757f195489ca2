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
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Union

import numpy as np

from .cyclic import (
    CyclicFunction,
    dft,
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
    """Exhaustively check that sums of k domain elements agree iff the
    corresponding image sums agree, by hashing each k-multiset sum.

    The number of k-multisets must stay below `cap`.
    """
    k = k or phi.k
    domain = phi.domain
    n_comb = math.comb(len(domain) + k - 1, k)
    if n_comb > cap:
        raise SolfreeError(f"verification needs {n_comb} multisets, cap is {cap}")
    src_mod, dst_mod = phi.source_modulus, phi.target_modulus
    seen: dict[int, int] = {}
    image_seen: dict[int, int] = {}
    for combo in combinations_with_replacement(domain, k):
        s = sum(combo)
        if src_mod is not None:
            s %= src_mod
        d = sum(phi.pairs[a] for a in combo)
        if dst_mod is not None:
            d %= dst_mod
        if s in seen:
            if seen[s] != d:
                return False
        else:
            seen[s] = d
        if d in image_seen:
            if image_seen[d] != s:
                return False
        else:
            image_seen[d] = s
    return True


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
    R = sorted(set(frequencies))
    result = set(R)
    for _ in range(h - 1):
        result = {
            (a + b) % modulus if modulus is not None else a + b
            for a in result
            for b in R
        }
    return sorted(result)


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


def _select_support(mags: dict[int, float], threshold: float, max_support: int):
    """Frequencies with magnitude >= threshold, in symmetric pairs, capped
    at max_support; 0 always kept.  Deterministic: pairs ordered by
    (-magnitude, frequency value)."""
    if max_support < 1:
        raise SolfreeError("support cap must allow at least the mean")
    reps = sorted(
        (g for g in mags if g > 0),
        key=lambda g: (-mags[g], g),
    )
    chosen = [0]
    for g in reps:
        if mags[g] < threshold:
            continue
        pair = 2 if mags.get(-g) is not None and g != -g else 1
        if len(chosen) + pair > max_support:
            continue
        chosen.append(g)
        if pair == 2:
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
        all_freqs = {centered_lift(g, m): complex(spec[g]) for g in range(m)}
        mags = {g: abs(c) for g, c in all_freqs.items()}
        chosen = _select_support(mags, threshold, min(max_support, m))
        coeffs = {g % m: all_freqs[g] for g in chosen}
        dropped_sq = sum(
            mags[g] ** 2 for g in all_freqs if g not in set(chosen)
        )
        coeffs[0] = complex(float(f.mean))
        fprime = SpectralFunction(m, coeffs, f.mean)
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
        mags = {int(k): float(abs(v)) for k, v in zip(ks, vals)}
        coefmap = {int(k): complex(v) for k, v in zip(ks, vals)}
        chosen = _select_support(mags, threshold, max_support)
        coeffs = {g: coefmap[g] for g in chosen}
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


def _clip01(v: Fraction) -> Fraction:
    if v < 0:
        return Fraction(0)
    if v > 1:
        return Fraction(1)
    return v


def quantize_values(values, denominator: int) -> list[Fraction]:
    """Round floats to the rational grid with the given denominator."""
    return [Fraction(round(float(v) * denominator), denominator) for v in values]


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
    circle spectrum with `sample_resolution`, at residues for Z/p), or a
    CyclicFunction/GridFunction with exact values.  Returns (function,
    report); the output mean equals `target_mean` (default: the input mean)
    exactly.
    """
    if isinstance(g, SpectralFunction):
        if target_mean is None:
            target_mean = g.mean
        if g.carrier is TORUS:
            if sample_resolution is None:
                raise SolfreeError("sample_resolution required for circle spectra")
            raw, _ = synthesize_grid(g, sample_resolution)
            values = quantize_values(raw, denominator)
            carrier = ("grid", sample_resolution)
        else:
            raw = synthesize_cyclic(g)
            values = quantize_values(raw, denominator)
            carrier = ("cyclic", g.carrier)
    elif isinstance(g, CyclicFunction):
        values = list(g.values)
        carrier = ("cyclic", g.modulus)
    elif isinstance(g, GridFunction):
        values = list(g.values)
        carrier = ("grid", g.resolution)
    else:
        raise SolfreeError(f"cannot range-correct {type(g)!r}")

    n = len(values)
    if target_mean is None:
        target_mean = sum(values, Fraction(0)) / n
    target_mean = Fraction(target_mean)
    if target_mean < 0 or target_mean > 1:
        raise SolfreeError(f"mean {target_mean} outside [0,1]")

    original = [Fraction(v) for v in values]
    vals = [_clip01(v) for v in original]
    clipped_mass = sum(abs(a - b) for a, b in zip(original, vals))
    target_total = target_mean * n
    iterations = 0
    while True:
        delta = target_total - sum(vals, Fraction(0))
        if delta == 0:
            break
        iterations += 1
        if iterations > n + 2:
            raise AssertionError("range correction failed to converge")
        if delta > 0:
            slack = [i for i, v in enumerate(vals) if 0 < v < 1]
            if not slack:
                slack = [i for i, v in enumerate(vals) if v < 1]
        else:
            slack = [i for i, v in enumerate(vals) if 0 < v < 1]
            if not slack:
                slack = [i for i, v in enumerate(vals) if v > 0]
        if not slack:
            raise SolfreeError("no room to restore the mean")
        add = delta / len(slack)
        for i in slack:
            vals[i] = _clip01(vals[i] + add)

    diffs = [float(a - b) for a, b in zip(original, vals)]
    report = RangeReport(
        l2_distance=float(np.sqrt(np.mean(np.array(diffs) ** 2))),
        linf_distance=max((abs(d) for d in diffs), default=0.0),
        iterations=iterations,
        clipped_mass=float(clipped_mass),
    )
    if carrier[0] == "cyclic":
        out = CyclicFunction(carrier[1], tuple(vals))
    else:
        out = GridFunction(carrier[1], tuple(vals))
    if forms is not None:
        for form in as_family(forms):
            report.per_form.append(
                {"form": form.to_json(), "T_corrected": float(_exact_measure(out, form))}
            )
    return out, report


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass
class PipelineReport:
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
