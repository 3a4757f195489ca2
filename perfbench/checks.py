"""Output checks: a record of each job's outputs, invariants, reference match.

A record has two parts.  ``exact`` holds values that must equal the
reference exactly: digests of exact ``Fraction`` vectors and sets, exact
means, verdicts and witnesses.  ``floats`` holds report fields computed in
floating point, which must match the reference within ``REL_TOL`` (or
``ABS_TOL`` near zero).  Invariants are checked on every run, whether or
not the reference has a record for the seed.
"""

from __future__ import annotations

import hashlib

REL_TOL = 1e-9
ABS_TOL = 1e-12
BOUND_SLACK = 1e-9  # the float tolerance the stability report itself allows


def digest(items) -> str:
    """sha256 over the decimal text of exact Fractions, in order."""
    h = hashlib.sha256()
    for v in items:
        h.update(f"{v.numerator}/{v.denominator},".encode())
    return h.hexdigest()


def _per_form_floats(per_form, keys) -> dict:
    return {f"{i}.{k}": float(entry[k]) for i, entry in enumerate(per_form) for k in keys}


def pipeline_record(out) -> dict:
    g, rep = out
    stages = rep.stages
    return {
        "exact": {
            "values": digest(g.values),
            "mean": str(g.mean),
            "alpha": str(rep.alpha),
            "support_size": rep.support_size,
            "lambda_reported": rep.lam,
            "bounds_flag": rep.bounds_flag,
            "range_iterations": stages["range_correct"]["iterations"],
        },
        "floats": {
            "l2_residual": stages["regularize"]["l2_residual"],
            "l2_distance": stages["range_correct"]["l2_distance"],
            "linf_distance": stages["range_correct"]["linf_distance"],
            "clipped_mass": stages["range_correct"]["clipped_mass"],
            **_per_form_floats(rep.per_form, ("T_source", "T_target", "delta", "target_bound")),
        },
    }


def round_record(out) -> dict:
    result, rep = out
    best = result.best_set
    return {
        "exact": {
            "set": hashlib.sha256(f"{best.mask:x}".encode()).hexdigest(),
            "size": best.size,
            "mean_gap": str(rep.mean_gap),
        },
        "floats": {
            "u2_distance": result.u2_distance,
            "report_u2": rep.u2_distance,
            **_per_form_floats(rep.per_form, ("T_f", "T_A", "gap", "bound")),
        },
    }


def free_record(out) -> dict:
    free, witness = out
    exact = {"free": free, "witness": None}
    if witness is not None:
        exact["witness"] = {
            "form": list(witness.form.coeffs),
            "resolution": witness.resolution,
            "cells": list(witness.cells),
            "shift": witness.shift,
        }
    return {"exact": exact, "floats": {}}


RECORDS = {"pipeline": pipeline_record, "round": round_record, "free": free_record}


def _pipeline_invariants(job, out):
    g, _ = out
    problems = []
    if len(g.values) != job.expect["cells"]:
        problems.append(f"output has {len(g.values)} cells, expected {job.expect['cells']}")
    if g.mean != job.expect["mean"]:
        problems.append(f"output mean {g.mean} != input mean {job.expect['mean']}")
    if any(v < 0 or v > 1 for v in g.values):
        problems.append("an output value lies outside [0, 1]")
    return problems


def _round_invariants(job, out):
    result, rep = out
    problems = []
    if len(result.per_trial) != job.expect["trials"]:
        problems.append(f"{len(result.per_trial)} trials run, expected {job.expect['trials']}")
    if result.u2_distance != min(result.per_trial):
        problems.append("kept set is not the best trial")
    if float(rep.mean_gap) > rep.u2_distance + BOUND_SLACK:
        problems.append("mean gap exceeds the U^2 distance")
    for entry in rep.per_form:
        if entry["gap"] > entry["bound"] + BOUND_SLACK:
            problems.append(f"measure gap {entry['gap']} exceeds its bound {entry['bound']}")
    return problems


def attainable_shifts(coeffs) -> set:
    """Integers w = sum c_i v_i for some v in [0,1)^t (independent of solfree)."""
    lo = sum(c for c in coeffs if c < 0)
    hi = sum(c for c in coeffs if c > 0)
    shifts = set(range(lo + 1, hi))
    if lo == 0 or hi == 0:
        shifts.add(0)
    return shifts


def _free_invariants(job, out):
    free, witness = out
    expected = job.expect["free"]
    if expected is not None and free != expected:
        return [f"verdict free={free}, expected {expected}"]
    if free:
        return [] if witness is None else ["free verdict carries a witness"]
    if witness is None:
        return ["non-free verdict without a witness"]
    grid, n = job.expect["grid"], witness.resolution
    if n != grid.resolution:
        return [f"witness at resolution {n}, set at {grid.resolution}"]
    cells = [c - 1 for c in witness.cells]  # witnesses are 1-indexed
    problems = []
    if not all(grid.mask >> c & 1 for c in cells):
        problems.append(f"witness cells {witness.cells} are not all in the set")
    coeffs = witness.form.coeffs
    if sum(c * a for c, a in zip(coeffs, cells)) % n != -witness.shift % n:
        problems.append("witness does not satisfy sum c_i a_i = -w (mod N)")
    if witness.shift not in attainable_shifts(coeffs):
        problems.append(f"witness shift {witness.shift} is not attainable")
    return problems


INVARIANTS = {"pipeline": _pipeline_invariants, "round": _round_invariants, "free": _free_invariants}


def invariant_problems(job, out) -> list[str]:
    return INVARIANTS[job.kind](job, out)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def reference_problems(record: dict, ref: dict) -> list[str]:
    problems = []
    for key in sorted(set(record["exact"]) | set(ref["exact"])):
        if record["exact"].get(key) != ref["exact"].get(key):
            problems.append(
                f"{key}: {record['exact'].get(key)!r} != reference {ref['exact'].get(key)!r}"
            )
    for key in sorted(set(record["floats"]) | set(ref["floats"])):
        a, b = record["floats"].get(key), ref["floats"].get(key)
        if a is None or b is None or not _close(a, b):
            problems.append(f"{key}: {a!r} != reference {b!r} (rel tol {REL_TOL})")
    return problems
