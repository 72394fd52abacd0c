"""The vectorised SA, TS and LS kernels against the scalar references.

Same seed and starts must give exactly the same samples and costs as the
one-read-at-a-time loops in conftest.py, and the exact recheck must go
through BinaryPolynomial.evaluate_batch.
"""

import numpy as np
import pytest

from optbench import (
    BinaryPolynomial,
    SaConfig,
    TsConfig,
    cut_weight,
    gen_erdos_renyi,
    gen_regular,
    local_search_maxcut,
    maxcut_qubo,
    simulated_annealing,
    tabu_search,
)

from conftest import reference_ls, reference_sa, reference_ts

GRAPHS = {
    "regular-8": lambda seed: gen_regular(8, 3, seed),
    "regular-12": lambda seed: gen_regular(12, 3, seed),
    "er-unit-10": lambda seed: gen_erdos_renyi(10, 0.5, seed),
    "er-uniform-10": lambda seed: gen_erdos_renyi(10, 0.5, seed, weights="uniform"),
    "er-uniform-13": lambda seed: gen_erdos_renyi(13, 0.3, seed, weights="uniform"),
}
SEEDS = (0, 1, 2)


def as_pair(sample):
    return sample.samples, sample.costs


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reads", (1, 25))
def test_sa_matches_reference(graph, seed, reads):
    poly = maxcut_qubo(GRAPHS[graph](seed))
    sample = simulated_annealing(poly, SaConfig(reads=reads, sweeps=8, seed=seed))
    assert as_pair(sample) == reference_sa(poly, reads=reads, sweeps=8, seed=seed)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reads", (1, 25))
@pytest.mark.parametrize("tenure", (0, 3, None, "above_n"))
def test_ts_matches_reference(graph, seed, reads, tenure):
    inst = GRAPHS[graph](seed)
    tenure = inst.num_nodes + 3 if tenure == "above_n" else tenure
    poly = maxcut_qubo(inst)
    sample = tabu_search(poly, TsConfig(restarts=reads, tenure=tenure, seed=seed))
    assert as_pair(sample) == reference_ts(poly, restarts=reads, tenure=tenure, seed=seed)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reads", (1, 25))
def test_ls_matches_reference(graph, seed, reads):
    inst = GRAPHS[graph](seed)
    sample = local_search_maxcut(inst, restarts=reads, seed=seed)
    assert as_pair(sample) == reference_ls(inst, restarts=reads, seed=seed)


@pytest.mark.parametrize("graph", GRAPHS)
def test_kernels_match_reference_from_given_starts(graph):
    inst = GRAPHS[graph](4)
    poly = maxcut_qubo(inst)
    rng = np.random.default_rng(11)
    starts = ["".join(map(str, row)) for row in rng.integers(0, 2, (6, inst.num_nodes))]
    starts.append(starts[0])
    sa = simulated_annealing(poly, SaConfig(sweeps=5, seed=3), starts=starts)
    assert as_pair(sa) == reference_sa(poly, sweeps=5, seed=3, starts=starts)
    ts = tabu_search(poly, TsConfig(iterations=30, tenure=4, seed=3), starts=starts)
    assert as_pair(ts) == reference_ts(poly, iterations=30, tenure=4, seed=3, starts=starts)
    ls = local_search_maxcut(inst, seed=3, starts=starts)
    assert as_pair(ls) == reference_ls(inst, seed=3, starts=starts)


def test_recheck_is_one_batch(monkeypatch):
    def refuse(self, x):
        raise AssertionError("per-sample evaluate called")

    inst = gen_erdos_renyi(9, 0.5, 5, weights="uniform")
    poly = maxcut_qubo(inst)
    monkeypatch.setattr(BinaryPolynomial, "evaluate", refuse)
    samples = [
        simulated_annealing(poly, SaConfig(reads=10, sweeps=5, seed=1)),
        tabu_search(poly, TsConfig(restarts=10, seed=1)),
        local_search_maxcut(inst, restarts=10, seed=1, poly=poly),
    ]
    for sample in samples:
        for x, _, cost in sample.items():
            assert cost == pytest.approx(-cut_weight(inst, x), abs=1e-12)


def test_evaluate_batch_is_bitwise_evaluate():
    poly = BinaryPolynomial(6, {
        (): -0.3, (0,): 0.1, (1, 2): 0.2, (0, 3, 5): -1.7, (4,): 1e-17,
        (2, 5): 3.3, (1, 3, 4, 5): 0.7,
    })
    rng = np.random.default_rng(2)
    X = rng.integers(0, 2, (64, 6)).astype(np.uint8)
    batch = poly.evaluate_batch(X)
    assert [float(c).hex() for c in batch] == [poly.evaluate(x).hex() for x in X]
    assert poly.evaluate_batch(np.zeros((0, 6))).shape == (0,)
    assert BinaryPolynomial(2).evaluate_batch(np.ones((3, 2))).tolist() == [0.0] * 3
