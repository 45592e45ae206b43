"""Outside-in span tracing of the deformfield layers.

The tracer wraps every public function of each layer module and records
one span per call: name, start, end and the index of the enclosing span.
It patches the name each calling module looks up, so that
``pipeline.estimate_field`` is traced as well as
``likelihood.estimate_field``, and it restores every original object on
``uninstall``.  The program's own code is not modified.

Spans are kept in memory and reduced to layer metrics after the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

# The layers are the package's modules; config, cli and errors are set-up
# and glue only and are not traced.
LAYERS = (
    "pipeline",
    "fields",
    "increments",
    "likelihood",
    "diskgeom",
    "flow",
    "conformal",
    "grids",
    "svgplots",
)
PACKAGE = "deformfield"

# |mu| at or above this counts as a block fit pushed against the cap.
AT_CAP = 0.999


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Tracer:
    """Records spans and counters around wrapped calls in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """A callable that runs fn inside a span named name.

        on_return(tracer, args, kwargs, result) runs after the span has
        closed, so counter bookkeeping is not charged to the layer.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, clock(), float("nan"), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every public function of every layer; returns the patches made."""
        package_modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in public_functions(mod):
                wrapped = self.wrap(f"{layer}.{attr}", fn, _HOOKS.get(f"{layer}.{attr}"))
                for owner in package_modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self.patch(owner, name, wrapped)
        # likelihood calls optimize.minimize through the scipy module it
        # imported; one span per call counts the Nelder-Mead searches.
        optimize = importlib.import_module(f"{PACKAGE}.likelihood").optimize
        self.patch(optimize, "minimize", self.wrap("likelihood.minimize", optimize.minimize))
        return list(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def public_functions(mod) -> list[tuple[str, object]]:
    """(name, function) for each public function defined in mod itself."""
    return [
        (name, obj)
        for name, obj in sorted(vars(mod).items())
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
    ]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_entries(tracer, args, kwargs, result):
    tracer.counts["fields.covariance_eval.entries"] += int(
        getattr(_arg(args, kwargs, 1, "t"), "size", 1)
    )


def _count_flops(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "mat").shape[0]
    tracer.counts["fields.cholesky_with_jitter.gflop"] += n**3 / 3.0 / 1e9


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["grids.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_blocks(tracer, args, kwargs, result):
    ok = result.ok_mask()
    tracer.counts["likelihood.blocks_ok"] += int(ok.sum())
    tracer.counts["likelihood.blocks_missing"] += int((~ok).sum())
    tracer.counts["likelihood.blocks_at_cap"] += int((abs(result.mu[ok]) >= AT_CAP).sum())


_HOOKS = {
    "fields.covariance_eval": _count_entries,
    "fields.cholesky_with_jitter": _count_flops,
    "grids.write_grd": _count_bytes,
    "likelihood.estimate_field": _count_blocks,
}


# ---------------------------------------------------------------------------
# Reduction of a span list


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    out = []
    for s, kids in zip(spans, _children(spans)):
        inside = [
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        ]
        out.append((s.end - s.start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def _ancestor_sets(spans: list[Span]) -> list[frozenset]:
    """Names of every enclosing span, per span (parents precede children)."""
    sets: list[frozenset] = []
    for s in spans:
        if s.parent < 0:
            sets.append(frozenset())
        else:
            sets.append(sets[s.parent] | {spans[s.parent].name})
    return sets


def busy_time(spans: list[Span], match, ancestors=None) -> float:
    """Time inside spans whose name satisfies match, nested ones counted once."""
    ancestors = ancestors if ancestors is not None else _ancestor_sets(spans)
    return sum(
        s.end - s.start
        for s, anc in zip(spans, ancestors)
        if match(s.name) and not any(match(a) for a in anc)
    )


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pipeline run."""
    anc = _ancestor_sets(spans)
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)

    def busy(name):
        return busy_time(spans, lambda n: n == name, anc)

    def calls_under(name, ancestor):
        return sum(1 for s, a in zip(spans, anc) if s.name == name and ancestor in a)

    def stage_self(stage):
        return sum(t for s, t in zip(spans, selfs) if s.name == f"pipeline.stage_{stage}")

    searches = calls_under("likelihood.minimize", "likelihood.estimate_field")
    m = {
        "fields.covariance_eval.s": busy("fields.covariance_eval"),
        "fields.covariance_eval.entries": counts["fields.covariance_eval.entries"],
        "fields.cholesky_with_jitter.s": busy("fields.cholesky_with_jitter"),
        "fields.cholesky_with_jitter.calls": calls["fields.cholesky_with_jitter"],
        "fields.cholesky_with_jitter.gflop": counts["fields.cholesky_with_jitter.gflop"],
        "fields.simulate_isotropic.s": busy("fields.simulate_isotropic"),
        "increments.increment_matrix.calls": calls["increments.increment_matrix"],
        "increments.increment_matrix.s": busy("increments.increment_matrix"),
        "likelihood.estimate_alpha.s": busy("likelihood.estimate_alpha"),
        "likelihood.alpha_evals": calls_under("fields.g_alpha", "likelihood.estimate_alpha"),
        "likelihood.estimate_field.s": busy("likelihood.estimate_field"),
        "likelihood.searches": searches,
        "likelihood.nll_evals": calls_under("fields.g_alpha", "likelihood.estimate_field"),
        "likelihood.fit_yield": counts["likelihood.blocks_ok"] / searches if searches else 0.0,
        "likelihood.blocks_missing": counts["likelihood.blocks_missing"],
        "likelihood.blocks_at_cap": counts["likelihood.blocks_at_cap"],
        "diskgeom.interpolate_dilatation.s": busy("diskgeom.interpolate_dilatation"),
        "diskgeom.interpolate_dilatation.calls": calls["diskgeom.interpolate_dilatation"],
        "diskgeom.frechet_mean.s": busy("diskgeom.frechet_mean"),
        "diskgeom.frechet_mean.calls": calls["diskgeom.frechet_mean"],
        "diskgeom.smooth_dilatation.s": busy("diskgeom.smooth_dilatation"),
        "flow.reconstruct_map.s": busy("flow.reconstruct_map"),
        "flow.flow_step.calls": calls["flow.flow_step"],
        "flow.sigma_field.s": busy("flow.sigma_field"),
        "flow.poisson_solve_dirichlet.s": busy("flow.poisson_solve_dirichlet"),
        "flow.poisson_solve_dirichlet.calls": calls["flow.poisson_solve_dirichlet"],
        "conformal.compose_estimate.s": busy("conformal.compose_estimate"),
        "conformal.distance_d1.s": busy("conformal.distance_d1"),
        "conformal.distance_d2.s": busy("conformal.distance_d2"),
        "grids.write_grd.s": busy("grids.write_grd"),
        "grids.read_grd.s": busy("grids.read_grd"),
        "grids.bytes_written": counts["grids.bytes_written"],
        "svgplots.s": busy_time(spans, lambda n: n.startswith("svgplots."), anc),
        "pipeline.simulate.self_s": stage_self("simulate"),
        "pipeline.estimate.self_s": stage_self("estimate"),
        "pipeline.reconstruct.self_s": stage_self("reconstruct"),
        "pipeline.evaluate.s": busy("pipeline.stage_evaluate"),
    }
    return {k: float(v) for k, v in m.items()}
