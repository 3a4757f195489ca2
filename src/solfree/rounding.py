"""Randomized rounding of [0,1]-valued functions to sets.

Rounding draws each element (residue of Z/m, or whole grid cell at the
function's own resolution) independently with probability f(x); among a
given number of independent trials the set with the smallest U^2 distance
to f is kept.  The expected fourth power of that distance is governed by
the measure of degenerate parallelograms, which vanishes like 1/m (or one
over the cell count), so the achieved distance decays like m^(-1/4).

The stability report certifies the consequences used downstream: the mean
gap is at most the U^2 distance, and each solution-measure gap is at most
t times it (multilinearity plus the generalized von Neumann bound, with
all l2 factors at most 1 for [0,1]-valued arguments).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .cyclic import (
    CyclicFunction,
    CyclicSet,
    bits_mask,
    dft,
    half_spectrum_weights,
    mask_bits,
    solution_measure_convolution,
    solution_measure_spectral,
    u2_fourth_power_rows,
    u2_norm_values,
)
from .errors import SolfreeError
from .forms import as_family, is_admissible
from .torus import (
    GridFunction,
    GridSet,
    grid_u2_weights,
    solution_measure_grid,
    u2_norm_grid_values,
)


@dataclass
class RoundingResult:
    best_set: Union[CyclicSet, GridSet]
    u2_distance: float
    trials: int
    seed: int
    per_trial: list[float] = field(default_factory=list)


_BLOCK = 5  # trials ranked per batched rfft: bounds the rows held at once


def _index_arg(value, name: str) -> int:
    if isinstance(value, bool):
        raise SolfreeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise SolfreeError(f"{name} must be an integer, got {value!r}") from None


def round_to_set(
    f: Union[CyclicFunction, GridFunction], trials: int = 20, seed: int = 0
) -> RoundingResult:
    """Best-of-`trials` independent Bernoulli roundings of f, ranked by the
    U^2 distance ||f - 1_A||.  Deterministic for a fixed (f, trials, seed):
    trial i uses the stream seeded by (seed, i), and the first of several
    equally distant trials is kept.

    The trials are drawn and ranked in blocks of a few rows, with one
    batched rfft per block (`u2_fourth_power_rows`), so an entry of
    `per_trial` can differ in the last bit from `u2_norm_values` or
    `u2_norm_grid_values` of the same row computed alone.
    """
    trials = _index_arg(trials, "trials")
    seed = _index_arg(seed, "seed")
    if trials < 1:
        raise SolfreeError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise SolfreeError(f"seed must be non-negative, got {seed}")
    if isinstance(f, CyclicFunction):
        n, make, weights = f.modulus, CyclicSet, half_spectrum_weights(f.modulus)
    elif isinstance(f, GridFunction):
        n, make, weights = f.resolution, GridSet, grid_u2_weights(f.resolution)
    else:
        raise SolfreeError(f"cannot round {type(f)!r}")
    probs = f.float_values()
    best_bits, best_dist, per_trial = None, None, []
    for start in range(0, trials, _BLOCK):
        bits = np.stack(
            [
                np.random.default_rng([seed, trial]).random(n) < probs
                for trial in range(start, min(start + _BLOCK, trials))
            ]
        )
        dists = u2_fourth_power_rows(probs - bits, weights) ** 0.25
        per_trial.extend(dists.tolist())
        i = int(np.argmin(dists))
        if best_dist is None or dists[i] < best_dist:
            best_bits, best_dist = bits[i], dists[i]
    return RoundingResult(
        best_set=make(n, bits_mask(best_bits)),
        u2_distance=float(best_dist),
        trials=trials,
        seed=seed,
        per_trial=per_trial,
    )


@dataclass
class StabilityReport:
    mean_gap: Fraction
    u2_distance: float
    per_form: list[dict]

    def to_json(self) -> dict:
        return {
            "mean_gap": float(self.mean_gap),
            "u2_distance": self.u2_distance,
            "per_form": self.per_form,
        }


def rounding_stability_report(
    f: Union[CyclicFunction, GridFunction],
    A: Union[CyclicSet, GridSet],
    forms,
    *,
    spectral: bool = False,
) -> StabilityReport:
    """Per-form solution-measure gaps |T_L(f) - T_L(A)| together with the
    mean gap, each checked against its U^2 bound:

        |mean(f) - mu(A)|   <=     ||f - 1_A||_{U^2}
        |T_L(f) - T_L(A)|   <=  t * ||f - 1_A||_{U^2}

    Raises if a bound fails (beyond float tolerance).  With
    ``spectral=True`` the measures on Z/m are computed by the float
    spectral sum instead of exact convolution (used at large m).
    """
    family = as_family(forms)
    cyclic_case = isinstance(f, CyclicFunction)
    if cyclic_case:
        if not isinstance(A, CyclicSet) or A.modulus != f.modulus:
            raise SolfreeError("set and function live on different groups")
        u2 = u2_norm_values(f.float_values() - mask_bits(A.mask, A.modulus))
        mean_gap = abs(f.mean - A.density)
        carrier = f.modulus
    else:
        if not isinstance(A, GridSet) or A.resolution != f.resolution:
            raise SolfreeError("set and function live on different grids")
        u2 = u2_norm_grid_values(f.float_values() - mask_bits(A.mask, A.resolution))
        mean_gap = abs(f.mean - A.measure)
        carrier = None

    if float(mean_gap) > u2 + 1e-9:
        raise AssertionError("mean gap exceeded the U^2 distance")
    per_form = []
    for form in family:
        if cyclic_case and not is_admissible(form, carrier):
            raise SolfreeError(f"{form.coeffs} is not admissible mod {carrier}")
        if cyclic_case:
            if spectral:
                t_f = solution_measure_spectral(form, [dft(f)] * form.t).real
                t_a = solution_measure_spectral(form, [dft(A)] * form.t).real
                gap = abs(t_f - t_a)
            else:
                t_f = solution_measure_convolution(form, [f] * form.t)
                t_a = solution_measure_convolution(form, [A] * form.t)
                gap = abs(float(t_f - t_a))
        else:
            t_f = solution_measure_grid(form, [f] * form.t)
            t_a = solution_measure_grid(form, [A] * form.t)
            gap = abs(float(t_f - t_a))
        bound = form.t * u2
        if gap > bound + 1e-9:
            raise AssertionError(
                f"solution-measure gap {gap} exceeded the bound {bound}"
            )
        per_form.append(
            {
                "form": form.to_json(),
                "T_f": float(t_f),
                "T_A": float(t_a),
                "gap": gap,
                "bound": bound,
            }
        )
    return StabilityReport(mean_gap=mean_gap, u2_distance=u2, per_form=per_form)
