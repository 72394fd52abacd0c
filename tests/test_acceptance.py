"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is sized for desk-scale hardware (a few minutes).
"""

import itertools
import math

import numpy as np
import pytest

from optbench import (
    GeneratorParams,
    LayerCountUnavailable,
    MetricContext,
    SampleSet,
    Timing,
    approximation_ratio,
    expand_generator,
    feasibility_ratio,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_planar,
    goemans_williamson,
    layer_ledger,
    maxcut_qubo,
    qaoa_qubo_simulate,
    qaoa_tsp_simulate,
    tsp_combined_error,
    tsp_exhaustive,
    tts,
    tts_layers,
    tts_oh,
    ttt,
)
from optbench.formulations import cut_weight
from optbench.harness import (
    ExperimentConfig,
    SolverSpec,
    fob_by_solver,
    run_bsf_experiment,
    run_tts_experiment,
    summarize_groups,
)
from optbench.instances import make_rng
from optbench.qaoa import CompiledProblem, embed_onehot_state, train_generator

from test_model import random_poly


def ok(number: int, message: str) -> None:
    print(f"CRITERION {number:2d} PASS: {message}")


# ----------------------------------------------------------------------
# 1. Metric unit suite
# ----------------------------------------------------------------------

def test_c01_metric_unit_suite():
    certain = SampleSet.from_draws(1, [("0", 0.0)] * 4, timing=Timing(0, 2.0, 0))
    assert tts(certain, 1.0) == pytest.approx(2.0 / 4, abs=1e-12)
    assert tts(certain, 0.0) == math.inf

    ten = SampleSet.from_draws(1, [("0", 0.0)] * 10, timing=Timing(0, 1.0, 0))
    assert math.ceil(math.log(0.01) / math.log(1 - 0.5)) == 7
    assert tts(ten, 0.5) == pytest.approx(0.7, abs=1e-12)

    # tts = 0.5 s (certain hit, 2 s over 4 draws) + 0.2 pre + 0.1 post = 0.8
    padded = SampleSet.from_draws(1, [("0", 0.0)] * 4, timing=Timing(0.2, 2.0, 0.1))
    assert tts(padded, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert tts_oh(padded, 1.0) == pytest.approx(0.8, abs=1e-12)
    assert tts_oh(padded, 0.0) == math.inf
    assert tts_oh(certain, 1.0) == tts(certain, 1.0)

    mixed = SampleSet.from_draws(
        1, [("0", 1.0)] * 3 + [("1", 9.0)] * 7, timing=Timing(0, 1.0, 0)
    )
    assert ttt(mixed, math.inf) == pytest.approx(0.1, abs=1e-12)
    assert ttt(mixed, 0.5) == math.inf
    assert math.ceil(math.log(0.01) / math.log(0.7)) == 13
    assert ttt(mixed, 2.0) == pytest.approx(1.3, abs=1e-12)
    ok(1, "tts/tts_oh/ttt edge and arithmetic cases exact")


# ----------------------------------------------------------------------
# 2. Model equivalence
# ----------------------------------------------------------------------

def spin_energy_all_points(ising) -> np.ndarray:
    """Independent vectorized spin-model evaluation over every basis state."""
    n = ising.num_spins
    idx = np.arange(1 << n, dtype=np.uint64)
    spins = np.empty((1 << n, n))
    for i in range(n):
        spins[:, i] = 1.0 - 2.0 * ((idx >> np.uint64(i)) & np.uint64(1)).astype(float)
    energy = np.full(1 << n, ising.offset)
    energy += spins @ ising.linear
    for (i, j), coupling in ising.quadratic.items():
        energy += coupling * spins[:, i] * spins[:, j]
    return energy


def test_c02_model_equivalence():
    rng = make_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        poly = random_poly(rng, n, num_terms=3 * n)
        qubo_costs = poly.cost_vector()
        ising_costs = spin_energy_all_points(poly.to_ising())
        assert np.max(np.abs(qubo_costs - ising_costs)) <= 1e-9

    for g in range(20):
        inst = gen_erdos_renyi(10, 0.5, seed=4000 + g, weights="uniform")
        poly = maxcut_qubo(inst)
        for _ in range(200):
            x = "".join(str(b) for b in rng.integers(0, 2, 10))
            assert poly.evaluate(x) == pytest.approx(-cut_weight(inst, x), abs=1e-9)
    ok(2, "200 random QUBOs match their spin form on every basis state; "
          "negated-cut identity holds on 200 bipartitions x 20 graphs")


# ----------------------------------------------------------------------
# 3. QAOA correctness
# ----------------------------------------------------------------------

def test_c03_qaoa_correctness():
    inst = gen_tsp_planar(4, seed=31)  # k = 3
    for kind in ("qubo", "hobo", "xy", "perm"):
        dist = qaoa_tsp_simulate(inst, kind, [0.0], [0.0])
        size = dist.probabilities.size
        assert np.max(np.abs(dist.probabilities - 1.0 / size)) <= 1e-12

    # 50 random parameter settings: the constrained encodings place all
    # mass on their enforced-feasible bases.
    rng = make_rng(32)
    inst4 = gen_tsp_planar(5, seed=33)  # k = 4
    for trial in range(25):
        beta = rng.uniform(0, math.pi, 2)
        gamma = rng.uniform(0, 2 * math.pi, 2)
        perm_dist = qaoa_tsp_simulate(inst4, "perm", beta, gamma)
        assert feasibility_ratio(perm_dist) == 1.0
        xy_dist = qaoa_tsp_simulate(inst4, "xy", beta, gamma)
        embedded = embed_onehot_state(xy_dist.amplitudes, 4)
        onehot_mask = np.zeros(embedded.size, dtype=bool)
        for digits in itertools.product(range(4), repeat=4):
            bits = sum(1 << (slot * 4 + digit) for slot, digit in enumerate(digits))
            onehot_mask[bits] = True
        assert np.all(embedded[~onehot_mask] == 0.0)  # structurally no leakage
        subspace = np.ones(xy_dist.probabilities.size, dtype=bool)
        masked = float(xy_dist.probabilities[subspace].sum() / xy_dist.probabilities.sum())
        assert masked == 1.0

    # subspace simulation equals the full 2**(k*k) statevector for k = 3
    from conftest import dense_phase, dense_two_qubit, dense_xy_gate
    from optbench.formulations import tsp_onehot_qubo
    from optbench.qaoa import xy_pair_schedule

    inst3 = gen_tsp_planar(4, seed=34)
    beta = rng.uniform(0, math.pi, 2)
    gamma = rng.uniform(0, 2 * math.pi, 2)
    dist = qaoa_tsp_simulate(inst3, "xy", beta, gamma)
    embedded = embed_onehot_state(dist.amplitudes, 3)
    costs = tsp_onehot_qubo(inst3).cost_vector()
    psi = np.zeros(512, dtype=np.complex128)
    for digits in itertools.product(range(3), repeat=3):
        bits = sum(1 << (slot * 3 + digit) for slot, digit in enumerate(digits))
        psi[bits] = (1.0 / math.sqrt(3)) ** 3
    for b, g in zip(beta, gamma):
        psi = dense_phase(psi, costs, g)
        gate = dense_xy_gate(b)
        for block in range(3):
            for i, j in xy_pair_schedule(3):
                psi = dense_two_qubit(psi, 9, block * 3 + i, block * 3 + j, gate)
    assert np.max(np.abs(embedded - psi)) <= 1e-7
    ok(3, "zero-angle uniformity in all four encodings; constrained bases keep "
          "feasibility exactly 1 at 50 random settings; xy subspace matches the "
          "full statevector at 1e-7")


# ----------------------------------------------------------------------
# 4. Adiabatic ordering and the layer-denominated TTS curve
# ----------------------------------------------------------------------

def test_c04_adiabatic_ordering(tmp_path):
    depths = (2, 4, 8, 16, 32)
    instances = [gen_regular(10, 3, seed=500 + i) for i in range(20)]
    wins = 0
    curves = {p: [] for p in depths}
    for inst in instances:
        poly = maxcut_qubo(inst)
        _, c_star = poly.argmin_exhaustive()
        ctx = MetricContext(optimal_cost=c_star)
        ars = {}
        for p in depths:
            beta, gamma = expand_generator(GeneratorParams.ramp(), p)
            dist = qaoa_qubo_simulate(poly, beta, gamma, optimal_cost=c_star)
            ars[p] = approximation_ratio(dist, ctx)
            ledger = layer_ledger("maxcut", inst, p)
            curves[p].append(tts_layers(dist, ledger))
        if ars[32] > ars[2]:
            wins += 1
    assert wins >= 18  # >= 90% of 20 instances

    lines = ["# p median_tts_layers p12.5 p87.5"]
    for p in depths:
        arr = np.array(curves[p])
        lines.append(
            f"{p} {np.median(arr):.1f} {np.percentile(arr, 12.5):.1f} "
            f"{np.percentile(arr, 87.5):.1f}"
        )
    out = tmp_path / "qaoa_layer_tts.dat"
    out.write_text("\n".join(lines) + "\n")
    assert out.exists() and len(out.read_text().splitlines()) == 1 + len(depths)
    print("\n".join(lines))
    ok(4, f"ramp AR at p=32 beats p=2 on {wins}/20 instances; "
          "layer-TTS curve emitted (shape reported above, not asserted)")


# ----------------------------------------------------------------------
# 5. Rounding guarantee of the relaxation sampler
# ----------------------------------------------------------------------

def test_c05_gw_guarantee():
    ratios = []
    for seed in range(30):
        inst = gen_erdos_renyi(12, 0.5, seed=300 + seed)
        poly = maxcut_qubo(inst)
        _, c_star = poly.argmin_exhaustive()
        sample = goemans_williamson(inst, hyperplanes=10_000, seed=seed)
        ratios.append(-sample.expected_cost() / (-c_star))
    ratios = np.array(ratios)
    sigma = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert ratios.mean() >= 0.878 - 3 * sigma
    ok(5, f"mean sampled-cut ratio {ratios.mean():.4f} >= 0.878 - 3*{sigma:.4f} "
          "over 30 graphs x 10000 hyperplanes")


# ----------------------------------------------------------------------
# 6. Desk-scale fixed-read protocol
# ----------------------------------------------------------------------

def test_c06_tts_experiment_desk_scale(tmp_path):
    instances = []
    for size in (10, 12, 14):
        for i in range(10):
            instances.append(gen_regular(size, 3, seed=600 + 10 * size + i))
        for density in (0.25, 0.5, 0.75):
            for i in range(10):
                instances.append(
                    gen_erdos_renyi(size, density, seed=700 + int(100 * density) + 10 * size + i)
                )
    solvers = [
        SolverSpec("sa", "sa", {"reads": 200, "sweeps": 20}),
        SolverSpec("ts", "ts", {"restarts": 200}),
        SolverSpec("ls", "ls", {"restarts": 200}),
        SolverSpec("exhaustive", "exhaustive"),
        SolverSpec("qaoa8", "qaoa", {"p": 8}),
    ]
    cfg = ExperimentConfig(scenario="tts", solvers=solvers, instances=instances,
                           seed=61, num_groups=3)
    records = run_tts_experiment(cfg)
    assert all(r.status == "ok" for r in records)

    regular_ids = {
        rec.instance_id for rec in records
        if rec.instance_id.startswith("regular")
    }
    assert len(regular_ids) == 30
    for solver in ("sa", "ts", "ls"):
        finite = sum(
            1 for rec in records
            if rec.solver == solver and rec.instance_id in regular_ids
            and not math.isinf(rec.metrics["tts"])
        )
        assert finite >= 0.9 * len(regular_ids), f"{solver}: {finite}/30 finite"

    from optbench.harness import emit_report

    written = emit_report(records, tmp_path)
    rows = summarize_groups(records, "tts")
    assert rows and all(
        key in rows[0] for key in ("median", "p12.5", "p87.5")
    )
    summary = (tmp_path / "summary.txt").read_text()
    assert "median" in summary and "p12.5" in summary
    ok(6, f"{len(records)} runs complete over 120 instances; heuristics reach "
          "finite TTS on >= 90% of 3-regular instances; group tables carry "
          "median and 75%-interval fields")


# ----------------------------------------------------------------------
# 7. Time-limited best-solution-found protocol
# ----------------------------------------------------------------------

def bsf_config(instances, time_limit=2.0, seed=71):
    solvers = [
        SolverSpec("sa", "sa", {"reads": 1, "sweeps": 500}),
        SolverSpec("ts", "ts", {"restarts": 1}),
        SolverSpec("ls", "ls", {"restarts": 1}),
    ]
    return ExperimentConfig(scenario="bsf", solvers=solvers, instances=instances,
                            seed=seed, time_limit=time_limit, num_groups=2)


def test_c07_bsf_experiment():
    instances = [
        gen_erdos_renyi(size, 0.2, seed=800 + size * 10 + i)
        for size in (30, 40, 50, 60)
        for i in range(5)
    ]
    records = run_bsf_experiment(bsf_config(instances))
    assert all(r.status == "ok" for r in records)

    by_instance: dict[str, list] = {}
    for record in records:
        by_instance.setdefault(record.instance_id, []).append(record)
    assert len(by_instance) == 20
    for iid, group in by_instance.items():
        c_hats = [r.metrics["c_hat"] for r in group]
        errors = [r.metrics["relative_error"] for r in group]
        assert all(e >= 0.0 for e in errors)
        assert any(c == 1.0 for c in c_hats), f"{iid}: no credited winner"
        winner = max(range(len(group)), key=lambda i: -group[i].best_cost)
        assert min(errors) == 0.0
    fobs = fob_by_solver(records)
    assert all(0.0 <= v <= 1.0 for v in fobs.values())

    # determinism of the non-timing outputs under a fixed call budget
    small = instances[:4]
    first = run_bsf_experiment(bsf_config(small, time_limit=60.0), max_calls=1)
    second = run_bsf_experiment(bsf_config(small, time_limit=60.0), max_calls=1)
    for a, b in zip(first, second):
        assert a.best_cost == b.best_cost
        assert a.total_draws == b.total_draws
        assert a.metrics == b.metrics
    ok(7, f"20 instances x 3 solvers within 2 s budgets: every instance credits "
          f"a winner (FOB {fobs}); fixed-budget reruns are bit-identical")


# ----------------------------------------------------------------------
# 8. Layer accounting table
# ----------------------------------------------------------------------

def test_c08_layer_table():
    for k in (3, 4, 5, 6):
        log_k = math.ceil(math.log2(k))
        assert layer_ledger("qubo", k, 1).cost_layers_per_round == 8 * k
        assert layer_ledger("hobo", k, 1).cost_layers_per_round == 2 * k ** 3
        assert layer_ledger("xy", k, 1).cost_layers_per_round == 6 * k
        assert layer_ledger("perm", k, 1).cost_layers_per_round == 4 * k
        assert layer_ledger("qubo", k, 1).qubit_count == k * k
        assert layer_ledger("hobo", k, 1).qubit_count == k * log_k
        assert layer_ledger("xy", k, 1).qubit_count == k * k
        assert layer_ledger("perm", k, 1).qubit_count == k * k
        assert layer_ledger("xy", k, 1).state_prep_layers == 4 * log_k
        assert layer_ledger("xy", k, 1).mixer_layers_per_round == (
            12 if k % 2 else 8
        )
        with pytest.raises(LayerCountUnavailable):
            layer_ledger("perm", k, 1).total_layers
    ok(8, "every numeric layer/qubit cell reproduced for k = 3..6; "
          "permutation totals raise the documented unavailable signal")


# ----------------------------------------------------------------------
# 9. Combined tour error
# ----------------------------------------------------------------------

def test_c09_tsp_combined_error():
    rng = make_rng(91)
    for index in range(10):
        inst = gen_tsp_planar(5, seed=900 + index)  # k = 4
        oracle = tsp_exhaustive(inst)
        ctx = MetricContext(l_star=oracle.optimal_length, l_worst=oracle.worst_length)
        dist = qaoa_tsp_simulate(inst, "perm", [0.0], [0.0])  # uniform over permutations
        exact = tsp_combined_error(dist, ctx)
        draws = rng.choice(dist.costs.size, size=100_000, p=dist.probabilities)
        contributions = (dist.lengths[draws] - ctx.l_star) / (
            ctx.l_worst - ctx.l_star
        )
        sigma = contributions.std(ddof=1) / math.sqrt(draws.size)
        assert abs(contributions.mean() - exact) <= 3 * sigma + 1e-12

    inst = gen_tsp_planar(5, seed=990)
    oracle = tsp_exhaustive(inst)
    ctx = MetricContext(l_star=oracle.optimal_length, l_worst=oracle.worst_length)
    infeasible = SampleSet.from_draws(3, [("000", 0.0), ("111", 0.0)])
    assert tsp_combined_error(infeasible, ctx, length_of=lambda x: None) == 1.0
    ok(9, "uniform-permutation error matches 1e5-draw Monte-Carlo within 3 sigma "
          "on 10 instances; all-infeasible input scores exactly 1")


# ----------------------------------------------------------------------
# 10. Generator-function training
# ----------------------------------------------------------------------

def test_c10_generator_training():
    ramp = GeneratorParams([1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0])
    for p in (2, 4, 8):
        beta, gamma = expand_generator(ramp, p)
        i = np.arange(1, p + 1)
        assert np.array_equal(beta, 1.0 - i / p)
        assert np.array_equal(gamma, i / p)

    train = [maxcut_qubo(gen_regular(10, 3, seed=100 + i)) for i in range(10)]
    test = [maxcut_qubo(gen_regular(10, 3, seed=200 + i)) for i in range(10)]
    result = train_generator(train, "qubo", p=4, budget=3000, seed=7)
    rb, rg = expand_generator(GeneratorParams.ramp(), 4)
    tb, tg = expand_generator(result.params, 4)

    def gaps(problems, beta, gamma):
        return [CompiledProblem("qubo", poly).gap(beta, gamma) for poly in problems]

    train_trained = float(np.mean(gaps(train, tb, tg)))
    train_ramp = float(np.mean(gaps(train, rb, rg)))
    assert train_trained <= train_ramp + 1e-12  # == mean AR dominance

    trained_gaps = gaps(test, tb, tg)
    ramp_gaps = gaps(test, rb, rg)
    wins = sum(1 for t, r in zip(trained_gaps, ramp_gaps) if t <= r + 1e-12)
    assert wins >= 8
    ok(10, f"ramp coefficients expand exactly; trained schedule dominates the "
           f"ramp on the training mean (AR {1 - train_ramp:.3f} -> "
           f"{1 - train_trained:.3f}) and on {wins}/10 held-out instances")
