import itertools
import math

import numpy as np
import pytest
from scipy import stats

from optbench import (
    BinaryPolynomial,
    DegreeError,
    DimensionError,
    SaConfig,
    SizeCapError,
    TsConfig,
    TspInstance,
    cut_weight,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_circular,
    gen_tsp_planar,
    goemans_williamson,
    local_search_maxcut,
    maxcut_qubo,
    nearest_neighbor_tsp,
    simulated_annealing,
    tabu_search,
    tour_length,
    tsp_exhaustive,
)

from conftest import brute_force_cut, brute_force_tours, reference_tsp_exhaustive


def assert_costs_match_model(sample, poly):
    for x, _, cost in sample.items():
        assert cost == pytest.approx(poly.evaluate(x), abs=1e-9)


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------

def test_sa_rejects_high_degree():
    with pytest.raises(DegreeError):
        simulated_annealing(BinaryPolynomial(3, {(0, 1, 2): 1.0}))


def test_sa_zero_temperature_is_strict_descent(triangle):
    poly = maxcut_qubo(triangle)
    for start in ("000", "111", "010", "101"):
        sample = simulated_annealing(
            poly, SaConfig(sweeps=5, t0=1e-12, seed=0), starts=[start]
        )
        _, cost = sample.best()
        assert cost <= poly.evaluate(start) + 1e-12


def test_sa_single_variable_finds_minimum():
    poly = BinaryPolynomial(1, {(0,): -1.0})
    sample = simulated_annealing(poly, SaConfig(reads=5, sweeps=1, seed=1))
    assert sample.samples == {"1": 5}
    assert sample.costs["1"] == -1.0


@pytest.mark.parametrize("reads", (3, 100))
def test_sa_model_without_variables_returns_its_constant_like_ts(reads):
    # 3 reads run one at a time, 100 step together.
    poly = BinaryPolynomial(0, {(): 2.0})
    sample = simulated_annealing(poly, SaConfig(reads=reads, seed=4))
    ts = tabu_search(poly, TsConfig(restarts=reads, seed=4))
    assert (sample.samples, sample.costs) == ({"": reads}, {"": 2.0})
    assert (sample.samples, sample.costs) == (ts.samples, ts.costs)
    assert sample.info["t0"] == 1.0


@pytest.mark.parametrize("reads", (1, 60))
def test_sa_rejects_a_schedule_that_reaches_zero_temperature(triangle, reads):
    # 1e-320 * 1e-3 * 1e-3 underflows to 0.0, where an uphill move's
    # exponent -delta / (kb * T) is undefined.
    cfg = SaConfig(reads=reads, sweeps=3, t0=1e-320, alpha=1e-3, seed=0)
    with pytest.raises(ValueError, match="underflows"):
        simulated_annealing(maxcut_qubo(triangle), cfg)
    simulated_annealing(maxcut_qubo(triangle), SaConfig(reads=reads, sweeps=2, t0=1e-320,
                                                        alpha=1e-3, seed=0))


def test_sa_from_an_empty_list_of_starts_returns_no_samples(triangle):
    sample = simulated_annealing(maxcut_qubo(triangle), SaConfig(seed=1), starts=[])
    assert (sample.samples, sample.costs) == ({}, {})


# Each kernel from one list of starts; "sa-batched" repeats it to 60 reads,
# which step together.
START_KERNELS = {
    "sa": lambda inst, starts: simulated_annealing(maxcut_qubo(inst), SaConfig(sweeps=2, seed=0),
                                                   starts=starts),
    "sa-batched": lambda inst, starts: simulated_annealing(
        maxcut_qubo(inst), SaConfig(sweeps=2, seed=0), starts=starts * 60),
    "ts": lambda inst, starts: tabu_search(maxcut_qubo(inst), TsConfig(seed=0), starts=starts),
    "ls": lambda inst, starts: local_search_maxcut(inst, seed=0, starts=starts),
}


@pytest.mark.parametrize("kernel", START_KERNELS)
@pytest.mark.parametrize("start", ["0x1", "012", "0 1"])
def test_a_start_with_a_character_other_than_0_or_1_raises(triangle, kernel, start):
    with pytest.raises(ValueError, match="only '0'/'1'"):
        START_KERNELS[kernel](triangle, ["010", start])


@pytest.mark.parametrize("kernel", START_KERNELS)
@pytest.mark.parametrize("start", ["01", "0101"])
def test_a_start_of_the_wrong_length_raises(triangle, kernel, start):
    with pytest.raises(DimensionError, match=f"length {len(start)}"):
        START_KERNELS[kernel](triangle, ["010", start])


def test_sa_triangle_hits_optimum_often(triangle):
    # Exhaustively check the landscape first: every strict local minimum of
    # the flip neighborhood sits at the optimal cost -2.
    poly = maxcut_qubo(triangle)
    for bits in itertools.product("01", repeat=3):
        x = "".join(bits)
        cost = poly.evaluate(x)
        neighbor_costs = [
            poly.evaluate(x[:i] + ("1" if x[i] == "0" else "0") + x[i + 1:])
            for i in range(3)
        ]
        if all(cost < nc for nc in neighbor_costs):
            assert cost == -2.0
    sample = simulated_annealing(poly, SaConfig(reads=1000, sweeps=20, seed=3))
    hits = sum(c for x, c, cost in sample.items() if cost == -2.0)
    assert hits / 1000 > 0.5
    assert_costs_match_model(sample, poly)


def test_sa_more_sweeps_weakly_dominates_single_sweep():
    # Paired over a fixed instance set: slow annealing (alpha -> 1 via many
    # sweeps) should not lose to one-sweep annealing in mean cost.
    slow_means, fast_means = [], []
    for seed in range(12):
        poly = maxcut_qubo(gen_regular(12, 3, seed=seed))
        slow = simulated_annealing(poly, SaConfig(reads=40, sweeps=50, seed=seed))
        fast = simulated_annealing(poly, SaConfig(reads=40, sweeps=1, seed=seed))
        slow_means.append(slow.expected_cost())
        fast_means.append(fast.expected_cost())
    diffs = np.array(slow_means) - np.array(fast_means)
    assert np.mean(diffs) < 0.0
    result = stats.wilcoxon(diffs, alternative="less")
    assert result.pvalue < 0.05


def test_sa_deterministic_per_seed(triangle):
    poly = maxcut_qubo(triangle)
    a = simulated_annealing(poly, SaConfig(reads=50, sweeps=5, seed=9))
    b = simulated_annealing(poly, SaConfig(reads=50, sweeps=5, seed=9))
    assert a.samples == b.samples


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SaConfig(sweeps=0)
    with pytest.raises(ValueError):
        SaConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SaConfig(t0=0.0)
    # A NaN or infinite temperature accepts every uphill move: on
    # maxcut_qubo(gen_erdos_renyi(40, 0.3, 1)), 50 reads of 50 sweeps at seed 0
    # found -131 with t0 = nan and -146 with t0 = inf, against -161 by default.
    for key in ("t0", "kb"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                SaConfig(**{key: value})


# ----------------------------------------------------------------------
# Tabu search
# ----------------------------------------------------------------------

def test_ts_tenure_zero_never_worse_than_start(triangle):
    poly = maxcut_qubo(triangle)
    for bits in itertools.product("01", repeat=3):
        start = "".join(bits)
        sample = tabu_search(
            poly, TsConfig(iterations=10, tenure=0, seed=0), starts=[start]
        )
        _, cost = sample.best()
        assert cost <= poly.evaluate(start) + 1e-12


def test_ts_two_variable_unique_optimum_within_two_iterations():
    # Unique optimum at x = 11 with cost -3; enumerate the 4-state landscape.
    poly = BinaryPolynomial(2, {(0,): -1.0, (1,): -1.0, (0, 1): -1.0})
    costs = {x: poly.evaluate(x) for x in ("00", "01", "10", "11")}
    assert min(costs, key=costs.get) == "11"
    starts = ["00", "01", "10", "11"]
    sample = tabu_search(poly, TsConfig(iterations=2, tenure=1, seed=0), starts=starts)
    assert all(cost == -3.0 for _, _, cost in sample.items())


def test_ts_all_tabu_takes_oldest_move():
    # tenure >= n forces the deadlock rule once every variable is tabu.
    poly = BinaryPolynomial(2, {(0,): 1.0, (1,): 2.0})
    sample = tabu_search(poly, TsConfig(iterations=8, tenure=5, seed=1), starts=["11"])
    x, cost = sample.best()
    assert cost == 0.0  # still reaches the optimum despite full tabu list
    assert_costs_match_model(sample, poly)


def test_ts_finds_optimum_on_most_small_regular_instances():
    hits = 0
    total = 40
    for seed in range(total):
        inst = gen_regular(12, 3, seed=100 + seed)
        poly = maxcut_qubo(inst)
        _, best = poly.argmin_exhaustive()
        sample = tabu_search(poly, TsConfig(restarts=20, seed=seed))
        if sample.best()[1] <= best + 1e-9:
            hits += 1
    assert hits / total >= 0.95


# ----------------------------------------------------------------------
# Max-Cut local search
# ----------------------------------------------------------------------

def test_ls_single_edge_reaches_full_cut():
    from optbench import MaxCutInstance

    inst = MaxCutInstance(2, ((0, 1, 2.5),))
    sample = local_search_maxcut(inst, seed=0, starts=["00", "01", "10", "11"])
    assert all(cost == -2.5 for _, _, cost in sample.items())


def test_ls_four_cycle_from_every_start(four_cycle):
    # Enumerating all 16 states shows the 4-cycle has four zero-gain
    # plateau states (adjacent pairs on the same side, cut 2) where strict
    # improvement stalls; every other start reaches the full cut 4.
    plateau = set()
    for bits in itertools.product("01", repeat=4):
        x = "".join(bits)
        base = cut_weight(four_cycle, x)
        gains = []
        for i in range(4):
            flipped = x[:i] + ("1" if x[i] == "0" else "0") + x[i + 1:]
            gains.append(cut_weight(four_cycle, flipped) - base)
        if max(gains) <= 0 and base < 4.0:
            plateau.add(x)
    assert plateau == {"0011", "0110", "1001", "1100"}
    for bits in itertools.product("01", repeat=4):
        start = "".join(bits)
        sample = local_search_maxcut(four_cycle, seed=0, starts=[start])
        _, cost = sample.best()
        assert cost == (-2.0 if start in plateau else -4.0)


def test_ls_output_is_one_flip_stable():
    inst = gen_regular(10, 3, seed=5)
    sample = local_search_maxcut(inst, restarts=20, seed=5)
    for x, _, _ in sample.items():
        base = cut_weight(inst, x)
        for i in range(10):
            flipped = x[:i] + ("1" if x[i] == "0" else "0") + x[i + 1:]
            assert cut_weight(inst, flipped) <= base + 1e-12


def test_ls_costs_match_model(four_cycle):
    poly = maxcut_qubo(four_cycle)
    sample = local_search_maxcut(four_cycle, restarts=10, seed=2)
    assert_costs_match_model(sample, poly)


@pytest.mark.parametrize("restarts", [0, -1])
def test_ls_rejects_fewer_than_one_restart_like_ts(four_cycle, restarts):
    with pytest.raises(ValueError) as ls_error:
        local_search_maxcut(four_cycle, restarts=restarts, seed=0)
    with pytest.raises(ValueError) as ts_error:
        TsConfig(restarts=restarts)
    assert str(ls_error.value) == str(ts_error.value) == f"restarts must be >= 1, got {restarts}"


# ----------------------------------------------------------------------
# Goemans-Williamson
# ----------------------------------------------------------------------

def test_gw_single_edge_always_cuts():
    from optbench import MaxCutInstance

    inst = MaxCutInstance(2, ((0, 1, 3.0),))
    sample = goemans_williamson(inst, hyperplanes=200, seed=0)
    assert all(cost == pytest.approx(-3.0) for _, _, cost in sample.items())
    assert sample.timing.preprocess > 0.0


def test_gw_triangle_meets_approximation_guarantee(triangle):
    sample = goemans_williamson(triangle, hyperplanes=4000, seed=1)
    mean_cut = -sample.expected_cost()
    assert mean_cut >= 0.878 * 2.0


def test_gw_five_cycle_ratio(five_cycle):
    _, optimal_cut = brute_force_cut(five_cycle)
    assert optimal_cut == 4.0
    sample = goemans_williamson(five_cycle, hyperplanes=10_000, seed=2)
    cuts = np.array([
        -cost for x, count, cost in sample.items() for _ in range(count)
    ])
    mean = cuts.mean()
    sigma = cuts.std(ddof=1) / math.sqrt(cuts.size)
    assert mean / optimal_cut >= 0.878 - 3 * sigma


@pytest.mark.parametrize("hyperplanes", (0, -2))
def test_gw_needs_a_hyperplane(triangle, hyperplanes):
    # no hyperplane drew an empty sample, whose p* then divided by zero
    with pytest.raises(ValueError, match=f"hyperplanes must be >= 1, got {hyperplanes}"):
        goemans_williamson(triangle, hyperplanes=hyperplanes, seed=0)


def test_gw_seed_reproducible(triangle):
    a = goemans_williamson(triangle, hyperplanes=100, seed=7)
    b = goemans_williamson(triangle, hyperplanes=100, seed=7)
    assert a.samples == b.samples
    assert a.costs == b.costs


def test_gw_cut_invariant_under_global_flip(triangle):
    sample = goemans_williamson(triangle, hyperplanes=50, seed=3)
    for x, _, cost in sample.items():
        flipped = "".join("1" if c == "0" else "0" for c in x)
        assert cut_weight(triangle, flipped) == pytest.approx(-cost, abs=1e-9)


def test_gw_flags_negative_weights():
    from optbench import MaxCutInstance

    inst = MaxCutInstance(3, ((0, 1, 1.0), (1, 2, -0.5)))
    sample = goemans_williamson(inst, hyperplanes=10, seed=0)
    assert sample.info["negative_weights"] is True


@pytest.mark.parametrize("num_nodes", (2, 5))
def test_gw_zero_cut_costs_positive_zero(num_nodes):
    from optbench import MaxCutInstance

    inst = MaxCutInstance(num_nodes, ())
    poly = maxcut_qubo(inst)
    sample = goemans_williamson(inst, hyperplanes=3, seed=1)
    for x, _, cost in sample.items():
        assert math.copysign(1.0, cost) == math.copysign(1.0, poly.evaluate(x)) == 1.0


# ----------------------------------------------------------------------
# TSP greedy and oracle
# ----------------------------------------------------------------------

def test_nn_three_locations_unique_tour():
    inst = gen_tsp_circular(3, 1.0, seed=0)
    d = inst.distances
    tour, length = nearest_neighbor_tsp(inst, start=0)
    assert sorted(tour) == [0, 1, 2]
    assert length == pytest.approx(d[0, 1] + d[1, 2] + d[2, 0])


def test_nn_regular_polygon_walks_perimeter():
    inst = gen_tsp_circular(7, 0.0, seed=0)
    tour, length = nearest_neighbor_tsp(inst, start=0)
    assert length == pytest.approx(7 * 2 * math.sin(math.pi / 7), abs=1e-9)


def test_nn_tie_breaks_to_smallest_index():
    d = np.array([
        [0.0, 1.0, 1.0, 2.0],
        [1.0, 0.0, 2.0, 1.0],
        [1.0, 2.0, 0.0, 1.0],
        [2.0, 1.0, 1.0, 0.0],
    ])
    from optbench import TspInstance

    inst = TspInstance(distances=d)
    tour, _ = nearest_neighbor_tsp(inst, start=0)
    assert tour == (0, 1, 3, 2)  # 1 before 2 despite the tie


@pytest.mark.parametrize("start", range(4))
def test_nn_length_is_the_walk_length_of_its_tour_from_location_zero(start):
    inst = gen_tsp_circular(4, 1.0, seed=5)
    tour, length = nearest_neighbor_tsp(inst, start=start)
    zero = tour.index(0)
    assert length == tour_length(inst, tour[zero + 1:] + tour[:zero])


def test_a_location_at_infinite_distance_never_reaches_nn():
    # an instance with an infinite distance is rejected when it is built, so no
    # tour rule (nearest neighbour's scan included) meets an infinite leg
    with pytest.raises(ValueError, match=r"distance \(0,2\) = inf is not finite"):
        TspInstance(distances=[[0.0, 1.0, math.inf], [1.0, 0.0, math.inf],
                               [math.inf, math.inf, 0.0]])


def test_tsp_exhaustive_three_locations_degenerate():
    inst = gen_tsp_circular(3, 0.8, seed=9)
    result = tsp_exhaustive(inst)
    assert result.optimal_length == pytest.approx(result.worst_length)


def test_tsp_exhaustive_square(unit_square):
    tours = brute_force_tours(unit_square)
    result = tsp_exhaustive(unit_square)
    assert result.optimal_length == pytest.approx(min(tours.values()))
    assert result.worst_length == pytest.approx(max(tours.values()))
    assert result.optimal_length == pytest.approx(4 * math.sqrt(2.0))
    assert result.worst_length == pytest.approx(4 + 2 * math.sqrt(2.0))


def test_tsp_exhaustive_beats_greedy_from_every_start():
    inst = gen_tsp_circular(6, 1.0, seed=11)
    result = tsp_exhaustive(inst)
    for start in range(6):
        _, greedy = nearest_neighbor_tsp(inst, start=start)
        assert result.optimal_length <= greedy + 1e-9


def test_tsp_exhaustive_cap():
    inst = gen_tsp_circular(6, 1.0, seed=0)
    with pytest.raises(SizeCapError):
        tsp_exhaustive(inst, cap=4)


def _tour_instances(k):
    return [gen(k + 1, seed) for seed in range(3)
            for gen in (lambda m, s: gen_tsp_circular(m, 1.0, seed=s), gen_tsp_planar)]


@pytest.mark.parametrize("k", range(3, 8))
def test_tsp_exhaustive_matches_scalar_loop_and_brute_force(k):
    # Mirror-image tours sum the same legs in opposite orders, so they tie
    # only up to rounding: the tie-break is pinned against the scalar loop
    # (same leg order, first strict minimum), the lengths against the
    # independent oracle.
    for inst in _tour_instances(k):
        result = tsp_exhaustive(inst)
        assert tuple(result) == reference_tsp_exhaustive(inst)
        tours = brute_force_tours(inst)
        assert result.optimal_length == pytest.approx(min(tours.values()), abs=1e-12)
        assert result.worst_length == pytest.approx(max(tours.values()), abs=1e-12)
        assert tours[result.tour] == pytest.approx(result.optimal_length, abs=1e-12)


@pytest.mark.parametrize("k", range(3, 8))
def test_tsp_exhaustive_returns_lexicographically_smallest_optimum(k):
    # Integer distances make every walk length exact, so each tour ties its
    # reverse exactly and the oracle must return the smaller of the two.
    for inst in _tour_instances(k):
        integral = TspInstance(distances=np.round(100 * inst.distances))
        tours = brute_force_tours(integral)
        best = min(tours.values())
        result = tsp_exhaustive(integral)
        assert result.tour == min(tour for tour, length in tours.items() if length == best)
        assert result.optimal_length == best
        assert result.worst_length == max(tours.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ls_and_gw_give_the_same_samples_with_or_without_the_polynomial(seed):
    inst = gen_erdos_renyi(12, 0.5, seed, weights="uniform")
    poly = maxcut_qubo(inst)
    for solve in (lambda **kw: local_search_maxcut(inst, restarts=20, seed=seed, **kw),
                  lambda **kw: goemans_williamson(inst, hyperplanes=50, seed=seed, **kw)):
        built, given = solve(), solve(poly=poly)
        assert (built.samples, built.costs) == (given.samples, given.costs)
