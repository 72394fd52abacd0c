import math

import numpy as np
import pytest

from optbench import (
    MetricContext,
    SampleSet,
    Timing,
    approximation_ratio,
    bsf_relative,
    feasibility_ratio,
    fob,
    gen_tsp_circular,
    hit_share,
    pareto_front,
    qaoa_tsp_simulate,
    tsp_combined_error,
    tsp_exhaustive,
    tts,
    tts_oh,
    ttt,
)
from optbench.instances import make_rng
from optbench.metrics import UndefinedMetricError, equal_frequency_bins

from conftest import brute_force_tours


def make_sample(draws, t_pre=0.0, t_solve=1.0, t_post=0.0, n=2):
    return SampleSet.from_draws(n, draws, timing=Timing(t_pre, t_solve, t_post))


# ----------------------------------------------------------------------
# Time to solution
# ----------------------------------------------------------------------

def test_tts_certain_hit_costs_one_draw():
    sample = make_sample([("00", 0.0)] * 4, t_solve=2.0)
    assert tts(sample, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_tts_zero_probability_is_infinite():
    sample = make_sample([("00", 0.0)])
    assert tts(sample, 0.0) == math.inf


def test_tts_half_probability_arithmetic():
    sample = make_sample([("00", 0.0)] * 10, t_solve=1.0)
    assert math.ceil(math.log(0.01) / math.log(0.5)) == 7
    assert tts(sample, 0.5) == pytest.approx(0.7, abs=1e-12)


def test_tts_monotone_in_p_star():
    sample = make_sample([("00", 0.0)] * 10, t_solve=1.0)
    grid = np.linspace(0.01, 1.0, 50)
    values = [tts(sample, p) for p in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_tts_rejects_bad_probability():
    sample = make_sample([("00", 0.0)])
    with pytest.raises(ValueError):
        tts(sample, 1.5)


def test_tts_oh_adds_overheads():
    sample = make_sample([("00", 0.0)] * 10, t_pre=0.2, t_solve=1.0, t_post=0.1)
    assert tts_oh(sample, 0.5) == pytest.approx(0.7 + 0.3, abs=1e-12)
    zero = make_sample([("00", 0.0)] * 4, t_solve=2.0)
    assert tts_oh(zero, 1.0) == tts(zero, 1.0)
    assert tts_oh(sample, 0.0) == math.inf


# ----------------------------------------------------------------------
# Time to target
# ----------------------------------------------------------------------

def test_ttt_infinite_threshold_counts_everything():
    sample = make_sample([("00", 5.0), ("01", 7.0)], t_solve=1.0)
    assert ttt(sample, math.inf) == pytest.approx(0.5)


def test_ttt_threshold_below_min_is_infinite():
    sample = make_sample([("00", 5.0)])
    assert ttt(sample, 4.0) == math.inf


def test_ttt_partial_fraction():
    draws = [("00", 1.0)] * 3 + [("01", 9.0)] * 7
    sample = make_sample(draws, t_solve=1.0)
    assert math.ceil(math.log(0.01) / math.log(0.7)) == 13
    assert ttt(sample, 2.0) == pytest.approx(1.3, abs=1e-12)


def test_ttt_on_distribution_counts_mass():
    inst = gen_tsp_circular(4, 0.4, seed=0)
    dist = qaoa_tsp_simulate(inst, "perm", [0.0], [0.0])
    reps = ttt(dist, float(np.median(dist.costs)))
    assert reps >= 1.0


# ----------------------------------------------------------------------
# Best solution found
# ----------------------------------------------------------------------

def test_bsf_at_optimum():
    ctx = MetricContext(optimal_cost=-10.0)
    sample = make_sample([("00", -10.0)])
    result = bsf_relative(sample, ctx)
    assert result.c == 1.0
    assert result.relative_error == 0.0
    assert result.reference == "optimal"


def test_bsf_cut_ninety_of_hundred():
    ctx = MetricContext(optimal_cost=-100.0)
    sample = make_sample([("00", -90.0)])
    result = bsf_relative(sample, ctx)
    assert result.c == pytest.approx(0.9)
    assert result.relative_error == pytest.approx(0.1)


def test_bsf_falls_back_to_best_found():
    ctx = MetricContext(best_found_cost=-50.0)
    sample = make_sample([("00", -40.0)])
    result = bsf_relative(sample, ctx)
    assert result.reference == "best_found"
    assert result.c == pytest.approx(0.8)


def test_bsf_zero_reference_rejected():
    ctx = MetricContext(optimal_cost=0.0)
    with pytest.raises(UndefinedMetricError):
        bsf_relative(make_sample([("00", 1.0)]), ctx)
    with pytest.raises(UndefinedMetricError):
        bsf_relative(make_sample([("00", 1.0)]), MetricContext())


# ----------------------------------------------------------------------
# Fraction of overall best
# ----------------------------------------------------------------------

def test_fob_all_none_partial():
    assert fob([1.0, 1.0, 1.0]) == 1.0
    assert fob([0.5, 0.9, 0.99]) == 0.0
    assert fob([1.0, 1.0, 1.0, 0.7]) == 0.75
    assert fob([1.0 + 5e-10]) == 1.0  # tolerance on the ratio
    with pytest.raises(ValueError):
        fob([])


# ----------------------------------------------------------------------
# Approximation ratio
# ----------------------------------------------------------------------

def test_ar_all_optimal_is_one():
    ctx = MetricContext(optimal_cost=-4.0)
    sample = make_sample([("00", -4.0)] * 3)
    assert approximation_ratio(sample, ctx) == 1.0


def test_ar_uniform_single_qubit_model():
    # uniform over {0, 1} with costs {0, -1}: <C> = -0.5, r = 0.5
    ctx = MetricContext(optimal_cost=-1.0)
    sample = make_sample([("0", 0.0), ("1", -1.0)], n=1)
    assert approximation_ratio(sample, ctx) == pytest.approx(0.5)


def test_ar_span_mode():
    ctx = MetricContext(optimal_cost=-4.0, worst_cost=0.0)
    sample = make_sample([("00", -4.0), ("00", -4.0)])
    assert approximation_ratio(sample, ctx, normalize="span") == pytest.approx(1.0)
    mixed = make_sample([("00", -4.0), ("01", 0.0)])
    assert approximation_ratio(mixed, ctx, normalize="span") == pytest.approx(0.5)


def test_ar_single_draw_equals_bsf_c():
    ctx = MetricContext(optimal_cost=-8.0)
    sample = make_sample([("00", -6.0)])
    assert approximation_ratio(sample, ctx) == pytest.approx(bsf_relative(sample, ctx).c)


def test_ar_zero_optimum_rejected():
    with pytest.raises(UndefinedMetricError):
        approximation_ratio(make_sample([("00", 1.0)]), MetricContext(optimal_cost=0.0))


# ----------------------------------------------------------------------
# Feasibility ratio
# ----------------------------------------------------------------------

def test_feasibility_perm_distribution_is_one():
    inst = gen_tsp_circular(4, 0.3, seed=1)
    dist = qaoa_tsp_simulate(inst, "perm", [0.7], [0.4])
    assert feasibility_ratio(dist) == pytest.approx(1.0)


def test_feasibility_uniform_hobo_fraction():
    inst = gen_tsp_circular(4, 0.3, seed=2)  # k = 3
    dist = qaoa_tsp_simulate(inst, "hobo", [0.0], [0.0])
    assert feasibility_ratio(dist) == pytest.approx(6 / 64)


def test_feasibility_predicate_on_samples():
    sample = make_sample([("00", 0.0), ("01", 1.0), ("01", 1.0)])
    assert feasibility_ratio(sample, lambda x: x == "01") == pytest.approx(2 / 3)
    assert feasibility_ratio(sample, lambda x: False) == 0.0


# ----------------------------------------------------------------------
# Combined tour error
# ----------------------------------------------------------------------

def test_combined_error_all_optimal_is_zero(unit_square):
    result = tsp_exhaustive(unit_square)
    ctx = MetricContext(l_star=result.optimal_length, l_worst=result.worst_length)
    sample = make_sample([("x", 0.0)], n=1)
    value = tsp_combined_error(sample, ctx, length_of=lambda x: result.optimal_length)
    assert value == 0.0


def test_combined_error_all_infeasible_is_one(unit_square):
    result = tsp_exhaustive(unit_square)
    ctx = MetricContext(l_star=result.optimal_length, l_worst=result.worst_length)
    sample = make_sample([("x", 0.0), ("y", 0.0)], n=1)
    assert tsp_combined_error(sample, ctx, length_of=lambda x: None) == 1.0


def test_combined_error_uniform_square_matches_enumeration(unit_square):
    tours = brute_force_tours(unit_square)
    l_star, l_worst = min(tours.values()), max(tours.values())
    ctx = MetricContext(l_star=l_star, l_worst=l_worst)
    dist = qaoa_tsp_simulate(unit_square, "perm", [0.0], [0.0])
    expected = np.mean([(l - l_star) / (l_worst - l_star) for l in tours.values()])
    assert tsp_combined_error(dist, ctx) == pytest.approx(expected, abs=1e-12)


def test_combined_error_degenerate_span_rejected():
    ctx = MetricContext(l_star=2.0, l_worst=2.0)
    with pytest.raises(UndefinedMetricError):
        tsp_combined_error(make_sample([("0", 0.0)], n=1), ctx, length_of=lambda x: 2.0)


def test_combined_error_distribution_vs_sampling(unit_square):
    result = tsp_exhaustive(unit_square)
    ctx = MetricContext(l_star=result.optimal_length, l_worst=result.worst_length)
    dist = qaoa_tsp_simulate(unit_square, "perm", [0.4], [0.9])
    exact = tsp_combined_error(dist, ctx)
    rng = make_rng(17)
    draws = rng.choice(dist.costs.size, size=100_000, p=dist.probabilities)
    contributions = (dist.lengths[draws] - ctx.l_star) / (ctx.l_worst - ctx.l_star)
    estimate = contributions.mean()
    sigma = contributions.std(ddof=1) / math.sqrt(draws.size)
    assert abs(estimate - exact) <= 3 * sigma + 1e-12


# ----------------------------------------------------------------------
# Pareto front and grouping
# ----------------------------------------------------------------------

def test_pareto_single_point():
    assert pareto_front([(1.0, 0.5)]) == [(1.0, 0.5)]


def test_pareto_incomparable_pair_kept():
    assert pareto_front([(1.0, 0.5), (2.0, 0.1)]) == [(1.0, 0.5), (2.0, 0.1)]


def test_pareto_dominated_dropped():
    assert pareto_front([(1.0, 0.5), (2.0, 0.5)]) == [(1.0, 0.5)]


def test_pareto_duplicates_survive():
    assert pareto_front([(1.0, 0.5), (1.0, 0.5)]) == [(1.0, 0.5), (1.0, 0.5)]


def test_equal_frequency_bins():
    values = [10, 10, 12, 12, 14, 14]
    bins = equal_frequency_bins(values, 3)
    assert bins == [0, 0, 1, 1, 2, 2]
    # equal values always share a bin
    bins = equal_frequency_bins([5, 5, 5, 9], 2)
    assert bins[0] == bins[1] == bins[2]
    assert bins[3] == 1


def test_time_to_target_bracket_shared_by_tts_ttt_and_layers():
    from optbench import LayerLedger, OutputDistribution, tts_layers

    ledger = LayerLedger("qubo", 4, 0, 3, 2, 2)
    for hits in (0, 1, 300, 500, 999, 1000):
        sample = make_sample([("00", 0.0)] * hits + [("11", 1.0)] * (1000 - hits), t_solve=3.0)
        p = hits / 1000
        reps = max(1, math.ceil(math.log(0.01) / math.log1p(-p))) if 0 < p < 1 else None
        per_draw = 3.0 / 1000
        expected = math.inf if p == 0 else per_draw if p == 1 else per_draw * reps
        assert tts(sample, p) == expected
        assert ttt(sample, 0.5) == expected
        dist = OutputDistribution("full", np.ones(1), np.ones(1), np.zeros(1), p_star=p)
        total = ledger.total_layers
        assert tts_layers(dist, ledger) == (math.inf if p == 0 else float(total) if p == 1
                                            else float(total * reps))


def test_hit_share_weighs_each_draw_by_its_count():
    sample = make_sample([("00", -2.0)] * 3 + [("01", -1.0)] * 2 + [("11", 0.5)] * 5)
    assert hit_share(sample, -2.0) == 3 / 10  # the threshold counts as a hit
    assert hit_share(sample, -1.0 + 1e-9) == 5 / 10
    assert hit_share(sample, -3.0) == 0.0
    assert hit_share(sample, math.inf) == 1.0
    with pytest.raises(ValueError, match="sample set is empty"):
        hit_share(SampleSet.empty(2), 0.0)


def test_zero_solve_time_and_zero_probability_is_infinite_not_nan():
    sample = make_sample([("11", 1.0)] * 4, t_solve=0.0)
    assert tts(sample, 0.0) == math.inf
    assert ttt(sample, 0.5) == math.inf
    assert tts_oh(sample, 0.0) == math.inf
