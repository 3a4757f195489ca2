"""Outside-in tracer: spans and counts around solfree's public functions.

The tracer replaces each traced function by a wrapper in every solfree
module that holds a reference to it, for instance
``transfer.solution_measure_grid`` as well as ``torus.solution_measure_grid``,
so calls are seen wherever the caller looks the function up.  A span's self
time is its duration minus the durations of the spans it encloses.  Counts
are derived only from what a wrapped call takes in and returns.  The
original functions are put back by :meth:`Tracer.restore`.

Time spent deriving counts is excluded from every span's self time; it shows
only in the traced pass's wall time, and so in ``trace.overhead_frac``.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

INT64_SAFE = 2**62  # inputs with n * max|a| * max|b| at or above this are "wide"


def chosen_dilation(phi):
    """The dilation lam with phi(g) = lam * g (mod M) on the whole domain.

    M is the map's modulus (source for Z/p -> Z, target for Z -> Z/N).  The
    search behind a Freiman map picks lam; reading it back from the map
    records what was chosen even where the pipeline's report leaves it out.
    Returns None if the map is not a dilation.
    """
    modulus = phi.source_modulus or phi.target_modulus
    pivot = next((g for g in phi.pairs if g % modulus and math.gcd(g, modulus) == 1), None)
    if pivot is None:
        return None
    lam = phi.pairs[pivot] * pow(pivot, -1, modulus) % modulus
    if all((phi.pairs[g] - lam * g) % modulus == 0 for g in phi.pairs):
        return lam
    return None


class Tracer:
    """Collects per-span calls, total and self seconds, and named counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.job = None  # name of the job being run, set by the caller
        self.events = []  # per-job records: dilations chosen, lambdas reported
        self._open = []  # child seconds accumulated by each open span
        self._undo = []

    def _wrap(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
            if observe is not None:
                start = time.perf_counter()
                observe(self, args, kwargs, return_value)
                if self._open:  # keep the observer out of the parent's self time
                    self._open[-1] += time.perf_counter() - start
            return return_value

        return wrapper

    def install(self, modules, table):
        """Wrap each (module, attribute, span name, observer) in `table`
        wherever one of `modules` holds the original function."""
        for module, attr, name, observe in table:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def restore(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    # observers: (tracer, args, kwargs, return value) -> None

    def _convolve(self, args, kwargs, out):
        a, b = args
        n = len(a)
        self.counts["kernels.convolve.len_sum"] += n
        if n * max(map(abs, a), default=0) * max(map(abs, b), default=0) >= INT64_SAFE:
            self.counts["kernels.convolve.wide_calls"] += 1

    def _measure_grid(self, args, kwargs, out):
        _, items = args
        self.counts["torus.measure_grid.cells"] += math.lcm(*[it.resolution for it in items])

    def _regularize(self, args, kwargs, out):
        self.counts["transfer.regularize.support"] += out[0].support_size

    def _product_set(self, args, kwargs, out):
        self.counts["transfer.product_set.size"] += len(out)

    def _freiman_search(self, args, kwargs, out):
        self.events.append(
            {"job": self.job, "dilation_chosen": chosen_dilation(out), "domain": len(out.pairs)}
        )

    def _pipeline(self, args, kwargs, out):
        self.events.append({"job": self.job, "lambda_reported": out[1].lam})

    def _freiman_verify(self, args, kwargs, out):
        phi = args[0]
        k = (args[1] if len(args) > 1 else kwargs.get("k")) or phi.k
        self.counts["transfer.freiman_verify.multisets"] += math.comb(len(phi.pairs) + k - 1, k)

    def _range_correct(self, args, kwargs, out):
        g, report = out
        self.counts["transfer.range_correct.iterations"] += report.iterations
        self.counts["transfer.range_correct.cells"] += len(g.values)


def layer_table(sf):
    """(module, attribute, span name, observer) for every traced function."""
    t = Tracer
    return [
        (sf.kernels, "convolve_cyclic", "kernels.convolve", t._convolve),
        (sf.cyclic, "solution_measure_convolution", "cyclic.measure_conv", None),
        (sf.cyclic, "dft", "cyclic.dft", None),
        (sf.torus, "solution_measure_grid", "torus.measure_grid", t._measure_grid),
        (sf.torus, "eulerian_weight_table", "torus.eulerian_table", None),
        (sf.torus, "is_free_grid", "torus.is_free_grid", None),
        (sf.transfer, "regularize", "transfer.regularize", t._regularize),
        (sf.transfer, "build_product_set", "transfer.product_set", t._product_set),
        (sf.transfer, "find_iso_modp_to_int", "transfer.freiman_search", t._freiman_search),
        (sf.transfer, "find_iso_int_to_modn", "transfer.freiman_search", t._freiman_search),
        (sf.transfer, "verify_freiman_isomorphism", "transfer.freiman_verify", t._freiman_verify),
        (sf.transfer, "synthesize_cyclic", "transfer.synthesize", None),
        (sf.transfer, "synthesize_grid", "transfer.synthesize", None),
        (sf.transfer, "range_correct", "transfer.range_correct", t._range_correct),
        (sf.transfer, "transfer_pipeline", "transfer.pipeline", t._pipeline),
        (sf.rounding, "round_to_set", "rounding.round", None),
        (sf.rounding, "rounding_stability_report", "rounding.stability", None),
    ]


def solfree_modules():
    return [m for n, m in sys.modules.items() if n == "solfree" or n.startswith("solfree.")]
