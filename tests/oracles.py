"""Slow reference implementations that the fast paths are tested against.

Each is a direct transcription of its definition, with no bound-dependent
branches.  Most are pure Python; the U^2 sums and the rounding loop keep
the full-spectrum numpy form the half-spectrum paths replaced, and the
circle measure keeps the parametrization by the first t-1 coordinates
that the box-spline read replaced.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from solfree import kernels
from solfree.cyclic import CyclicSet, dilated_vector, solution_measure_convolution
from solfree.errors import SolfreeError
from solfree.forms import LinearForm
from solfree.torus import (
    GridSet,
    classical_eulerian,
    common_resolution,
    eulerian_weight_table,
    solution_measure_grid as circle_measure,
)


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


def solution_count_bruteforce(form, sets):
    """Exact T_L on Z/m by enumeration over the first t-1 coordinates.

    Requires gcd(c_t, m) = 1 so the last coordinate is determined.
    """
    if any(not isinstance(s, CyclicSet) for s in sets):
        raise SolfreeError("brute-force counting expects sets")
    if len(sets) != form.t:
        raise SolfreeError("one set per variable required")
    moduli = {s.modulus for s in sets}
    if len(moduli) != 1:
        raise SolfreeError(f"mismatched moduli {sorted(moduli)}")
    m = moduli.pop()
    *front, last_c = form.coeffs
    if math.gcd(last_c, m) != 1:
        raise SolfreeError(f"last coefficient {last_c} is not invertible mod {m}")
    inv = pow(last_c % m, -1, m)
    count = 0
    for tup in product(*[s.members() for s in sets[:-1]]):
        rhs = -sum(c * x for c, x in zip(front, tup)) % m
        if (rhs * inv) % m in sets[-1]:
            count += 1
    return Fraction(count, m ** (form.t - 1))


def first_solution_enumerated(form, sets, m, exclude_constant=False):
    """The first tuple of A_1 x ... x A_t in lexicographic order with
    sum c_i x_i = 0 (mod m), skipping constant tuples if asked; or None."""
    for tup in product(*[s.members() for s in sets]):
        if sum(c * x for c, x in zip(form.coeffs, tup)) % m == 0:
            if exclude_constant and len(set(tup)) == 1:
                continue
            return tup
    return None


def shift_set(A, r):
    """{x + r mod m}, one member at a time."""
    m = A.modulus
    return CyclicSet(m, members_mask(m, ((x + r) % m for x in A.members())))


def dilate_set(A, n):
    """{n a mod m}, one member at a time."""
    m = A.modulus
    return CyclicSet(m, members_mask(m, (n * a % m for a in A.members())))


def dilation_preimage(A, c):
    """{x : c x in A (mod 1)} at resolution N*|c|; measure is preserved.

    For negative c the true preimage is a union of intervals half-open on
    the left; the returned grid set agrees with it except at finitely many
    cell-boundary points, which never affects measures.
    """
    n, d = A.resolution, abs(c)
    if c > 0:
        source = A.cells()
    else:
        source = [(n - 1 - b) % n for b in A.cells()]  # reflection, cellwise
    mask = 0
    for b in source:
        for j in range(d):
            mask |= 1 << (b + j * n)
    return GridSet(n * d, mask)


def dilate_image(A, c):
    """Image c * A at resolution N, cell by cell: cell b covers the |c|
    cells from |c| b on, reflected when c < 0."""
    n, d = A.resolution, abs(c)
    out = set()
    for b in A.cells():
        for j in range(d):
            cell = (d * b + j) % n
            out.add(cell if c > 0 else (n - 1 - cell) % n)
    return GridSet(n, members_mask(n, out))


def _integer_vector(item):
    if isinstance(item, GridSet):
        return np.array(item.indicator(), dtype=np.int64), 1
    return item.numerator_array()


def solution_measure_grid(form, items):
    """Exact T_L on the circle by parametrizing the kernel with the first
    t-1 coordinates y_i (x_i = c_t y_i, x_t = -sum_{i<t} c_i y_i).

    The items are refined to a common resolution n and pulled back through
    x -> c_t x to resolution n' = n |c_t|; the front vectors dilated by
    d_i = -c_i are convolved, and each Eulerian weight W(d, w) of the unit
    box weights the count of the last vector shifted by w.  A form with
    content g > 1 comes out as the primitive form: x_i = c_t y_i covers
    the kernel of gL' as it covers that of L'.
    """
    c_t = form.coeffs[-1]
    n = math.lcm(*[it.resolution for it in items])
    d = abs(c_t)
    n_prime = n * d
    vectors, dens = [], []
    for it in items:
        vec, den = _integer_vector(it)
        vectors.append(np.repeat(vec, n // it.resolution))
        dens.append(den)
    # preimages under x -> c_t x: cell b pulls back from cell b mod n, or
    # from its reflection n - 1 - (b mod n) when c_t < 0
    front = [np.tile(vec if c_t > 0 else vec[::-1], d) for vec in vectors[:-1]]
    last = np.repeat(vectors[-1], d)
    d_coeffs = tuple(-c for c in form.coeffs[:-1])
    conv = None
    for d_i, vec in zip(d_coeffs, front):
        dil = dilated_vector(vec, d_i, n_prime)
        conv = dil if conv is None else kernels.convolve_cyclic(conv, dil)
    total = Fraction(0)
    for w, weight in eulerian_weight_table(d_coeffs).weights.items():
        # sum_y conv[y] * last[(y + w) mod n']
        total += weight * sum(map(operator.mul, conv, np.roll(last, -w).tolist()))
    return total / (math.prod(dens) * Fraction(n_prime) ** (form.t - 1))


def ones_form(t):
    """x_1 + ... + x_{t-1} - x_t."""
    return LinearForm((1,) * (t - 1) + (-1,))


def eulerian_identity_check(t, sets):
    """Two independent exact computations of T(A_1, ..., A_t) for the form
    x_1 + ... + x_{t-1} - x_t on grid sets at a common resolution N:

    - lhs: the circle measure `torus.solution_measure_grid`;
    - rhs: sum_r <t-1 r>/(t-1)! times the Z/N solution measure of
      (A'_1, ..., A'_t - r), using the residue sets A'_i.

    Returns (lhs, rhs) for exact equality assertions.
    """
    form = ones_form(t)
    refined = common_resolution(list(sets))
    lhs = circle_measure(form, refined)
    residues = [CyclicSet(g.resolution, g.mask) for g in refined]  # x/N in A iff x in A'
    rhs = Fraction(0)
    for r, weight in enumerate(classical_eulerian(t - 1)):
        shifted = residues[:-1] + [residues[-1].shift(-r)]
        rhs += weight * solution_measure_convolution(form, shifted)
    return lhs, rhs


def u2_fourth_power_truncated(values, cutoff):
    """Explicit series sum_{|k| <= cutoff} |fhat(k)|^4 on the circle.

    The discarded tail is below 2 (N/pi)^4 max|D|^4 / (3 cutoff^3); used to
    cross-check the closed-form lattice sum.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    coeffs = np.fft.fft(values) / n
    mag4 = np.abs(coeffs) ** 4
    ks = np.arange(-cutoff, cutoff + 1)
    x = np.pi * ks / n
    sinc = np.ones_like(x)
    nz = ks != 0
    sinc[nz] = np.sin(x[nz]) / x[nz]
    return float(np.sum(mag4[ks % n] * sinc**4))
