"""Figures of merit computed from sample sets or exact distributions.

Every model is a minimization problem (Max-Cut costs are negated cuts), so
relative quantities compare negative numbers for cut problems and positive
ones for tours; no sign handling leaks to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import SampleSet
from .qaoa import LayerLedger, OutputDistribution


class UndefinedMetricError(ValueError):
    """The metric's reference value is missing or degenerate."""


@dataclass
class MetricContext:
    """Reference values a metric may need.

    ``optimal_cost`` comes from an oracle; ``best_found_cost`` is the best
    cost pooled across all solvers on the instance and backs the hatted
    fallback variants.  ``l_star``/``l_worst`` are the best and worst tour
    lengths; ``worst_cost`` enables the span-normalized ratio variant.
    """

    optimal_cost: float | None = None
    best_found_cost: float | None = None
    l_star: float | None = None
    l_worst: float | None = None
    worst_cost: float | None = None

    def __post_init__(self) -> None:
        if self.l_star is not None and self.l_worst is not None:
            if self.l_worst < self.l_star:
                raise ValueError("l_worst must be >= l_star")


def _time_to_target(per_try, p: float, target: float):
    """``per_try`` times the independent tries until a hit of probability ``p``
    at the target confidence: one try if ``p >= 1``, infinity if ``p <= 0``."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return per_try
    return per_try * max(1, math.ceil(math.log(1.0 - target) / math.log1p(-p)))


def hit_share(sample: SampleSet, threshold_cost: float) -> float:
    """Count-weighted share of the draws whose cost is at most ``threshold_cost``."""
    m = sample.total_draws
    if m < 1:
        raise ValueError("sample set is empty")
    return sum(count for _, count, cost in sample.items() if cost <= threshold_cost) / m


def tts(sample: SampleSet, p_star: float, target: float = 0.99) -> float:
    """Time to sample an optimal solution at the target confidence.

    (t_solve / M) * ceil(log(1 - target) / log(1 - p_star)); a certain hit
    costs one draw's time, zero hit probability costs infinity.
    """
    if not 0.0 <= p_star <= 1.0:
        raise ValueError(f"p_star must lie in [0, 1], got {p_star}")
    m = sample.total_draws
    if m < 1:
        raise ValueError("sample set is empty")
    return _time_to_target(sample.timing.solve / m, p_star, target)


def tts_oh(sample: SampleSet, p_star: float, target: float = 0.99) -> float:
    """tts plus the pre- and post-processing overheads; infinity propagates."""
    base = tts(sample, p_star, target)
    if math.isinf(base):
        return math.inf
    return base + sample.timing.preprocess + sample.timing.postprocess


def ttt(
    sample: SampleSet | OutputDistribution,
    threshold_cost: float,
    target: float = 0.99,
) -> float:
    """Time (or repetitions, for a distribution) to reach a threshold cost.

    Uses the fraction of draws with cost <= threshold (exact mass for a
    distribution) in place of p_star.  For a distribution the per-draw time
    is taken as 1, so the result counts repetitions.
    """
    if isinstance(sample, OutputDistribution):
        p = float(sample.probabilities[sample.costs <= threshold_cost].sum())
        per_draw = 1.0
    else:
        p = hit_share(sample, threshold_cost)
        per_draw = sample.timing.solve / sample.total_draws
    return _time_to_target(per_draw, p, target)


def tts_layers(dist: OutputDistribution, ledger: LayerLedger,
               target: float = 0.99) -> float:
    """Expected CNOT layers until the optimum is sampled at the target confidence.

    total_layers * ceil(log(1 - target) / log(1 - p_star)); a certain hit
    costs exactly one shot, a zero hit probability costs infinity.
    """
    return float(_time_to_target(ledger.total_layers, dist.p_star, target))


@dataclass(frozen=True)
class BsfResult:
    """Relative best-found cost; ``reference`` records which baseline was used."""

    c: float
    relative_error: float
    reference: str  # "optimal" -> c, "best_found" -> the hatted variant


def bsf_relative(sample: SampleSet, ctx: MetricContext) -> BsfResult:
    """Best sampled cost divided by the reference cost, plus |1 - c|.

    Prefers the oracle optimum; falls back to the pooled best-found cost,
    in which case the result is the hatted variant (reference label
    "best_found").
    """
    if ctx.optimal_cost is not None:
        reference, label = ctx.optimal_cost, "optimal"
    elif ctx.best_found_cost is not None:
        reference, label = ctx.best_found_cost, "best_found"
    else:
        raise UndefinedMetricError("context provides neither optimum nor best-found cost")
    if reference == 0.0:
        raise UndefinedMetricError("reference cost is zero; the ratio is undefined")
    _, best = sample.best()
    c = best / reference
    return BsfResult(c=c, relative_error=abs(1.0 - c), reference=label)


def fob(per_instance_c_hat: Sequence[float], tol: float = 1e-9) -> float:
    """Fraction of instances whose relative best-found cost equals one."""
    values = list(per_instance_c_hat)
    if not values:
        raise ValueError("need at least one instance")
    hits = sum(1 for c in values if abs(c - 1.0) <= tol)
    return hits / len(values)


def approximation_ratio(
    sample: SampleSet | OutputDistribution,
    ctx: MetricContext,
    normalize: str = "optimal",
) -> float:
    """Expected sample cost over the optimal cost.

    ``normalize="span"`` instead maps the expectation onto [0, 1] as
    (worst - <C>) / (worst - optimal), requiring ``ctx.worst_cost``.
    """
    if ctx.optimal_cost is None:
        raise UndefinedMetricError("approximation ratio needs the optimal cost")
    expectation = sample.expected_cost()
    if normalize == "optimal":
        if ctx.optimal_cost == 0.0:
            raise UndefinedMetricError("optimal cost is zero; the ratio is undefined")
        return expectation / ctx.optimal_cost
    if normalize == "span":
        if ctx.worst_cost is None:
            raise UndefinedMetricError("span normalization needs the worst cost")
        span = ctx.worst_cost - ctx.optimal_cost
        if span == 0.0:
            raise UndefinedMetricError("worst equals optimal; the span is degenerate")
        return (ctx.worst_cost - expectation) / span
    raise ValueError(f"unknown normalization {normalize!r}")


def feasibility_ratio(
    sample: SampleSet | OutputDistribution,
    feasible: Callable[[str], bool] | None = None,
) -> float:
    """Count-weighted fraction of samples satisfying all constraints.

    For exact distributions the mass on feasible states is normalized by
    the total mass, so a fully feasible basis yields exactly 1.0.
    """
    if isinstance(sample, OutputDistribution):
        if sample.feasible is None:
            raise UndefinedMetricError("distribution carries no feasibility data")
        return float(sample.probabilities[sample.feasible].sum()
                     / sample.probabilities.sum())
    if feasible is None:
        raise UndefinedMetricError("sample sets need a feasibility predicate")
    m = sample.total_draws
    if m < 1:
        raise ValueError("sample set is empty")
    hits = sum(count for x, count, _ in sample.items() if feasible(x))
    return hits / m


def tsp_combined_error(
    sample: SampleSet | OutputDistribution,
    ctx: MetricContext,
    length_of: Callable[[str], float | None] | None = None,
) -> float:
    """Mean normalized tour error with infeasible draws scored as worst.

    Each draw contributes (l(x) - l*) / (l_worst - l*) when feasible and 1
    otherwise.  Distributions use their stored lengths and feasibility;
    sample sets need ``length_of`` returning a length or None (infeasible).
    """
    if ctx.l_star is None or ctx.l_worst is None:
        raise UndefinedMetricError("combined error needs l_star and l_worst")
    span = ctx.l_worst - ctx.l_star
    if span <= 0.0:
        raise UndefinedMetricError("l_worst must exceed l_star")
    if isinstance(sample, OutputDistribution):
        if sample.feasible is None or sample.lengths is None:
            raise UndefinedMetricError("distribution carries no tour data")
        deviation = np.where(
            sample.feasible,
            np.nan_to_num(sample.lengths, nan=ctx.l_worst) - ctx.l_star,
            span,
        )
        return float(sample.probabilities @ deviation) / span
    if length_of is None:
        raise UndefinedMetricError("sample sets need a length_of decoder")
    m = sample.total_draws
    if m < 1:
        raise ValueError("sample set is empty")
    total = 0.0
    for x, count, _ in sample.items():
        length = length_of(x)
        total += count * (span if length is None else length - ctx.l_star)
    return total / (m * span)


def pareto_front(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset when minimizing both coordinates.

    A point is dropped iff some other point is at most as large in both
    coordinates and strictly smaller in one.  The survivors come back
    sorted by runtime, stable with respect to the input order.
    """
    kept = []
    for i, (run_i, qual_i) in enumerate(points):
        dominated = False
        for j, (run_j, qual_j) in enumerate(points):
            if i == j:
                continue
            if (
                run_j <= run_i
                and qual_j <= qual_i
                and (run_j < run_i or qual_j < qual_i)
            ):
                dominated = True
                break
        if not dominated:
            kept.append((run_i, qual_i))
    return sorted(kept, key=lambda point: point[0])


def equal_frequency_bins(values: Sequence[float], num_bins: int) -> list[int]:
    """Deterministic equal-frequency group assignment.

    Sorts the values, splits the sorted order into ``num_bins`` contiguous
    runs of near-equal length, and maps equal values to the same bin (the
    one holding their first occurrence).  Returns one bin index per input.
    """
    if num_bins < 1:
        raise ValueError("need at least one bin")
    order = sorted(range(len(values)), key=lambda i: values[i])
    n = len(values)
    bins = [0] * n
    boundaries: dict[float, int] = {}
    for rank, idx in enumerate(order):
        bin_index = min(num_bins - 1, rank * num_bins // max(1, n))
        value = values[idx]
        if value in boundaries:
            bin_index = boundaries[value]
        else:
            boundaries[value] = bin_index
        bins[idx] = bin_index
    return bins
