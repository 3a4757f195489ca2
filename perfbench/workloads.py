"""The benchmark's workloads: seeded inputs, jobs and size ladders.

Each workload is a fixed list of jobs.  A job is one call (or one short
chain of calls) into the public API of ``solfree``; it carries what its
output checks need to know about its inputs.  The jobs of a workload's
size ladder share one size parameter: ``growth_exp`` is the log-log slope
of their seconds from the smallest to the largest rung, and
``largest_job_ref_s`` is the seconds of the largest rung.

Jobs look functions up through the module objects at call time, so the
tracer's wrappers (installed on those modules) see the benchmark's own
calls as well as the program's internal ones.
"""

from __future__ import annotations

import importlib
import sys
import types
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

EPS = 0.02
SUM_FREE = (1, 1, -1)  # x + y = z
FOUR_VAR = (2, 3, -2, -3)  # 2x + 3y = 2z + 3w, k-admissible for k = 3
ROUNDING_TRIALS = 20
SPARSE_DRAW = 1109  # the one random grid set that sparse_transfer translates

MODULES = ("forms", "groups", "kernels", "cyclic", "torus", "transfer", "rounding")


def import_solfree(src: Path) -> types.SimpleNamespace:
    """Import solfree afresh from `src`, dropping any copy imported before.

    Raises ImportError when `src` holds no solfree package, or when the
    package found lives elsewhere (an installed copy would not be the code
    under test).
    """
    for name in [n for n in sys.modules if n == "solfree" or n.startswith("solfree.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module("solfree")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"solfree was imported from {origin}, not from {src}")
    mods = {name: importlib.import_module(f"solfree.{name}") for name in MODULES}
    return types.SimpleNamespace(package=package, **mods)


@dataclass
class Job:
    """One unit of checked work.

    `kind` selects the output checks ("pipeline", "round" or "free");
    `expect` holds what those checks need; `seeded` says whether the
    outputs depend on the workload seed (reference records of seed-free
    jobs are shared by all seeds).
    """

    name: str
    kind: str
    run: Callable[[], object]
    expect: dict
    seeded: bool
    size: Optional[int] = None  # ladder size parameter, None if off the ladder


@dataclass
class Workload:
    name: str
    ladder_parameter: str
    jobs: list[Job] = field(default_factory=list)

    @property
    def ladder(self) -> list[Job]:
        return sorted((j for j in self.jobs if j.size is not None), key=lambda j: j.size)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _middle_third_zp(sf, p: int):
    """{floor(p/3)+1, ..., floor(2p/3)} on Z/p: sum-free for x + y = z."""
    return sf.cyclic.CyclicSet.from_members(p, range(p // 3 + 1, 2 * p // 3 + 1))


def _middle_third_grid(sf, n: int):
    """Cells ceil(n/3) .. floor(2n/3)-1, inside [1/3, 2/3): free for x + y = z."""
    return sf.torus.GridSet.from_cells(n, range(-(-n // 3), 2 * n // 3))


def _pipeline_job(sf, name, f, target, height, forms, *, size=None, seeded=False, **kw):
    forms = [sf.forms.LinearForm(c) for c in forms]
    if isinstance(f, sf.torus.GridSet):
        mean, cells = f.measure, int(target)
    elif target is sf.package.TORUS:
        mean, cells = f.mean, kw["sample_resolution"]
    else:
        mean, cells = f.mean, int(target)
    return Job(
        name=name,
        kind="pipeline",
        run=lambda: sf.transfer.transfer_pipeline(f, target, EPS, height, forms, **kw),
        expect={"mean": mean, "cells": cells},
        seeded=seeded,
        size=size,
    )


def _round_job(sf, name, f, seed, seeded=True):
    form = sf.forms.LinearForm(SUM_FREE)

    def run():
        result = sf.rounding.round_to_set(f, ROUNDING_TRIALS, seed)
        return result, sf.rounding.rounding_stability_report(f, result.best_set, [form])

    return Job(name, "round", run, {"trials": ROUNDING_TRIALS}, seeded=seeded)


def _free_job(sf, name, grid, *, free=None, seeded, size=None):
    form = sf.forms.LinearForm(SUM_FREE)
    return Job(
        name=name,
        kind="free",
        run=lambda: sf.torus.is_free_grid(form, grid),
        expect={"grid": grid, "free": free},
        seeded=seeded,
        size=size,
    )


def _k_over_256_values(rng, n):
    """n seeded values k/256, k uniform in 0..256."""
    return tuple(Fraction(int(k), 256) for k in rng.integers(0, 257, size=n))


def _random_grid(sf, rng, n, density):
    return sf.torus.GridSet.from_cells(n, np.flatnonzero(rng.random(n) < density))


def interval_transfer(sf, seed: int) -> Workload:
    """The middle third goes from Z/p to the circle and back.

    The support is small (19 frequencies), so Freiman search and
    verification cost nothing.  The time goes to exact measures on
    2^20-denominator numerators, which take the limb-split kernel path, and
    to Fraction range correction.  The inputs do not depend on the seed.
    """
    w = Workload("interval_transfer", "p of the circle-to-Z/p jobs")
    for p in (2003, 5003, 10007):
        f = sf.cyclic.CyclicFunction.from_set(_middle_third_zp(sf, p))
        w.jobs.append(
            _pipeline_job(
                sf, f"zp_to_circle:{p}", f, sf.package.TORUS, 1, [SUM_FREE],
                sample_resolution=2 * p,
            )
        )
    interval = sf.torus.GridSet.from_interval(6, Fraction(1, 3), Fraction(2, 3))
    for p in (5003, 10007, 20011):
        w.jobs.append(
            _pipeline_job(sf, f"circle_to_zp:{p}", interval, p, 1, [SUM_FREE], size=p)
        )
    return w


def sparse_transfer(sf, seed: int) -> Workload:
    """A random grid set goes to Z/2003; a dilated interval to the circle.

    The spectrum of a random set is spread out, so Freiman verification of
    its product set dominates.  How much verification that is depends on
    which frequencies a draw makes largest, and varies widely from draw to
    draw.  So every run uses one fixed random draw, and the seed picks a
    translate and a reflection of it.  These keep every Fourier magnitude,
    hence the support, the product set and the Freiman work, while the
    exact outputs differ from seed to seed.

    The dilated middle third 1234*A on Z/4001 makes the dilation search
    find a nontrivial lambda.
    """
    w = Workload("sparse_transfer", "max_support of the grid-to-Z/2003 jobs")
    n = 64
    base = np.flatnonzero(_rng(SPARSE_DRAW, 1).random(n) < 0.3)
    cells = (n - 1 - base if seed // n % 2 else base) + seed
    grid = sf.torus.GridSet.from_cells(n, cells % n)
    for max_support in (32, 48, 64):
        w.jobs.append(
            _pipeline_job(
                sf, f"grid_to_zp:{max_support}", grid, 2003, 2, [SUM_FREE, FOUR_VAR],
                threshold=0.0, max_support=max_support, size=max_support, seeded=True,
            )
        )
    p = 4001
    dilated = sf.cyclic.dilate_set(_middle_third_zp(sf, p), 1234)
    w.jobs.append(
        _pipeline_job(
            sf, f"dilated_to_circle:{p}", sf.cyclic.CyclicFunction.from_set(dilated),
            sf.package.TORUS, 2, [SUM_FREE], sample_resolution=2 * p,
        )
    )
    return w


def round_and_decide(sf, seed: int) -> Workload:
    """Seeded functions are rounded to sets; grid sets are decided free or not.

    The kernel sees 0/1 and 8-bit inputs, which take the int64 path, and no
    transfer code runs: a kernel change that helps wide inputs but hurts
    narrow ones shows up here.
    """
    w = Workload("round_and_decide", "N of the is_free_grid jobs on the seeded set")
    m, n = 10007, 16384
    f_zp = sf.cyclic.CyclicFunction(m, _k_over_256_values(_rng(seed, 2), m))
    f_grid = sf.torus.GridFunction(n, _k_over_256_values(_rng(seed, 3), n))
    w.jobs.append(_round_job(sf, f"round_zp:{m}", f_zp, seed))
    w.jobs.append(_round_job(sf, f"round_grid:{n}", f_grid, seed))
    for i, n in enumerate((8192, 32768)):
        w.jobs.append(_free_job(sf, f"free_interval:{n}", _middle_third_grid(sf, n),
                                free=True, seeded=False))
        w.jobs.append(_free_job(sf, f"free_random:{n}", _random_grid(sf, _rng(seed, 4 + i), n, 0.3),
                                seeded=True, size=n))
    return w


def probe(sf) -> list[Job]:
    """Tiny fixed jobs that reach every traced layer once.

    The traced run ends with these, so that each per-layer metric is
    measured in every workload and a wrapper that no longer reaches its
    layer shows up as a failed probe rather than as a silent zero.
    """
    p = 101
    f = sf.cyclic.CyclicFunction.from_set(_middle_third_zp(sf, p))
    return [
        _pipeline_job(sf, f"probe_zp_to_circle:{p}", f, sf.package.TORUS, 1, [SUM_FREE],
                      sample_resolution=2 * p),
        _round_job(sf, f"probe_round_zp:{p}", f, 0, seeded=False),
        _free_job(sf, "probe_free_interval:30", _middle_third_grid(sf, 30),
                  free=True, seeded=False),
    ]


WORKLOADS = {
    "interval_transfer": interval_transfer,
    "sparse_transfer": sparse_transfer,
    "round_and_decide": round_and_decide,
}
