"""Slow reference implementations that the fast paths are tested against.

Each is a direct transcription of its definition, with no bound-dependent
branches.  Most are pure Python; the U^2 sums and the rounding loop keep
the full-spectrum numpy form the half-spectrum paths replaced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np


def convolve_cyclic(a, b):
    """Cyclic convolution of two equal-length integer sequences.

    Returns c with c[k] = sum_i a[i] * b[(k - i) mod n], exact.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            if k >= n:
                k -= n
            out[k] += ai * bj
    return out


def u2_fourth_power(values):
    """Fourth power of the U^2 norm of a real-valued function on Z/m,
    by direct enumeration of the cubic parallelogram average:

        (1/m^3) * sum_{x,h,k} f(x) f(x+h) f(x+k) f(x+h+k)
    """
    m = len(values)
    total = 0.0
    for h in range(m):
        for k in range(m):
            s = 0.0
            for x in range(m):
                xh = x + h
                if xh >= m:
                    xh -= m
                xk = x + k
                if xk >= m:
                    xk -= m
                xhk = xh + k
                if xhk >= m:
                    xhk -= m
                s += values[x] * values[xh] * values[xk] * values[xhk]
            total += s
    return total / m**3


def u2_norm_bruteforce(values) -> float:
    """Quadruple-average U^2 norm, O(m^3); independent cross-check."""
    power = u2_fourth_power([float(v) for v in values])
    return float(max(power, 0.0) ** 0.25)


def verify_freiman_isomorphism(phi, k=None):
    """Freiman k-isomorphism check by enumerating every k-multiset of the
    domain: equal source sums must have equal image sums and vice versa."""
    k = k or phi.k
    src_mod, dst_mod = phi.source_modulus, phi.target_modulus
    seen = {}
    image_seen = {}
    for combo in combinations_with_replacement(sorted(phi.pairs), k):
        s = sum(combo)
        if src_mod is not None:
            s %= src_mod
        d = sum(phi.pairs[a] for a in combo)
        if dst_mod is not None:
            d %= dst_mod
        if seen.setdefault(s, d) != d or image_seen.setdefault(d, s) != s:
            return False
    return True


def _clip01(v):
    if v < 0:
        return Fraction(0)
    if v > 1:
        return Fraction(1)
    return v


def water_fill_loop(values, target_total):
    """Range correction cell by cell in Fractions: clip to [0,1], then spread
    the missing (or excess) mass over the cells strictly inside (0,1), or
    over every cell not at the bound it moves toward when there is none,
    re-clip, and repeat until the total is `target_total`.

    Returns (values, iterations, clipped mass, differences input minus
    output as floats).  Raises ValueError when no cell can move.
    """
    original = [Fraction(v) for v in values]
    vals = [_clip01(v) for v in original]
    clipped_mass = sum((abs(a - b) for a, b in zip(original, vals)), Fraction(0))
    iterations = 0
    while True:
        delta = target_total - sum(vals, Fraction(0))
        if delta == 0:
            break
        iterations += 1
        if delta > 0:
            slack = [i for i, v in enumerate(vals) if 0 < v < 1]
            if not slack:
                slack = [i for i, v in enumerate(vals) if v < 1]
        else:
            slack = [i for i, v in enumerate(vals) if 0 < v < 1]
            if not slack:
                slack = [i for i, v in enumerate(vals) if v > 0]
        if not slack:
            raise ValueError("no room to restore the mean")
        add = delta / len(slack)
        for i in slack:
            vals[i] = _clip01(vals[i] + add)
    diffs = [float(a - b) for a, b in zip(original, vals)]
    return vals, iterations, clipped_mass, diffs


def solution_measure(coeffs, value_lists, m):
    """sum over all (x_1..x_t) in (Z/m)^t with sum c_i x_i = 0 of
    prod f_i(x_i), over m^(t-1): the solution measure of exact values."""
    total = Fraction(0)
    for xs in product(range(m), repeat=len(coeffs)):
        if sum(c * x for c, x in zip(coeffs, xs)) % m == 0:
            term = Fraction(1)
            for values, x in zip(value_lists, xs):
                term *= values[x]
            total += term
    return total / m ** (len(coeffs) - 1)


def members_mask(size, members):
    """Bitmask with bit (int(x) % size) set for each member, one OR at a time."""
    mask = 0
    for x in members:
        mask |= 1 << (int(x) % size)
    return mask


def refine_mask(mask, size, factor):
    """The mask of a grid set refined by `factor`: each cell becomes a block."""
    out, block = 0, (1 << factor) - 1
    for b in range(size):
        if mask >> b & 1:
            out |= block << (b * factor)
    return out


def u2_norm_values(values):
    """U^2 norm on Z/m from the full complex spectrum: (sum_g |fhat(g)|^4)^(1/4)."""
    coeffs = np.fft.fft(np.asarray(values, dtype=float)) / len(values)
    return float(np.sum(np.abs(coeffs) ** 4) ** 0.25)


def u2_fourth_power_values(values):
    """sum_k |fhat(k)|^4 on the circle for a step function, from the full
    spectrum times the lattice factor (2 + cos 2 pi j / N) / 3."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    coeffs = np.fft.fft(values) / n
    lattice = (2.0 + np.cos(2 * np.pi * np.arange(n) / n)) / 3.0
    return float(np.sum(np.abs(coeffs) ** 4 * lattice))


def u2_norm_grid_values(values):
    return u2_fourth_power_values(values) ** 0.25


def round_loop(probs, trials, seed, distance):
    """Best-of-trials rounding one trial at a time: trial t draws
    default_rng([seed, t]).random(n) < probs, is scored by `distance` of
    probs - bits, and the first strictly smallest score wins.

    Returns (bits of the kept trial, list of scores)."""
    best_bits, best, per_trial = None, None, []
    for trial in range(trials):
        bits = np.random.default_rng([seed, trial]).random(len(probs)) < probs
        d = distance(probs - bits.astype(float))
        per_trial.append(d)
        if best is None or d < best:
            best_bits, best = bits, d
    return best_bits, per_trial
