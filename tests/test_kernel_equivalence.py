"""The vectorised kernels against the scalar references in conftest.py.

Same seed and starts must give SA, TS and LS exactly the same samples and
costs as the one-read-at-a-time loops, on SA's and TS's scalar and batched
paths alike, and GW exactly the samples, costs and info of its per-edge loop.
The exact recheck must go through BinaryPolynomial.evaluate_batch.  The
blocked transverse circuit must match the one-qubit-per-pass loop to 1e-12
in every amplitude, and the strided cost table the one-mask-per-term loop
bit for bit.  A Max-Cut circuit on the half basis must match the full
circuit of its polynomial to 1e-12 in every output and gradient.  The
half-basis rule must agree with conftest.py's brute-force flip check, and a
cut polynomial must run, and train, bit for bit as its instance.  The level
index from one sort must equal np.unique and np.searchsorted bit for bit,
and the c* that a circuit roster takes from the half table must be the
exhaustive oracle's optimum.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from optbench import (
    BinaryPolynomial,
    IsingModel,
    MaxCutInstance,
    SaConfig,
    SizeCapError,
    TsConfig,
    cut_weight,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_planar,
    goemans_williamson,
    local_search_maxcut,
    maxcut_qubo,
    qaoa_hobo_tsp_simulate,
    qaoa_qubo_simulate,
    simulated_annealing,
    tabu_search,
    train_generator,
    tsp_onehot_qubo,
)
from optbench import harness, qaoa, solvers
from optbench.qaoa import _CompiledProblem, embed_onehot_state

from conftest import (
    compile_full_basis,
    plus_field,
    reference_cost_vector,
    reference_flip_symmetric,
    reference_gw,
    reference_ls,
    reference_sa,
    reference_transverse_evolve,
    reference_ts,
)

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


@pytest.fixture
def batched(monkeypatch):
    """Step every SA call's reads together, and fail any call that would not."""
    def refuse(*args):
        raise AssertionError("one-read-at-a-time SA path taken")

    monkeypatch.setattr(solvers, "_MIN_BATCH_READS", 1)
    monkeypatch.setattr(solvers, "_anneal_one_by_one", refuse)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reads", (1, 25))
def test_batched_sa_matches_reference(graph, seed, reads, batched):
    poly = maxcut_qubo(GRAPHS[graph](seed))
    sample = simulated_annealing(poly, SaConfig(reads=reads, sweeps=8, seed=seed))
    assert as_pair(sample) == reference_sa(poly, reads=reads, sweeps=8, seed=seed)


@pytest.mark.parametrize("graph", GRAPHS)
def test_batched_sa_matches_reference_from_given_starts(graph, batched):
    poly = maxcut_qubo(GRAPHS[graph](4))
    rng = np.random.default_rng(11)
    starts = ["".join(map(str, row)) for row in rng.integers(0, 2, (6, poly.num_vars))]
    starts.append(starts[0])
    sa = simulated_annealing(poly, SaConfig(sweeps=5, seed=3), starts=starts)
    assert as_pair(sa) == reference_sa(poly, sweeps=5, seed=3, starts=starts)


@pytest.mark.parametrize("graph", ("er-uniform-10", "er-uniform-13"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("t0", (0.3, 4.0))
@pytest.mark.parametrize("path", ("one_by_one", "together"))
def test_sa_fixed_schedule_matches_reference(graph, seed, t0, path, request):
    if path == "together":
        request.getfixturevalue("batched")
    poly = maxcut_qubo(GRAPHS[graph](seed))
    schedule = {"t0": t0, "alpha": 0.7, "kb": 2.0}
    sample = simulated_annealing(poly, SaConfig(reads=25, sweeps=8, seed=seed, **schedule))
    assert as_pair(sample) == reference_sa(poly, reads=25, sweeps=8, seed=seed, **schedule)


def test_sa_chunks_split_the_reads_in_stream_order(monkeypatch):
    # Room for 4 reads of 6 sweeps x 13 variables per chunk: 25 reads run as
    # seven chunks of 3 or 4, in read order.
    poly = maxcut_qubo(GRAPHS["er-uniform-13"](2))
    sizes = []

    together = solvers._anneal_together

    def spy(rng, starts, reads, *args):
        sizes.append(len(reads))
        return together(rng, starts, reads, *args)

    monkeypatch.setattr(solvers, "_CHUNK_DRAWS", 4 * 2 * 6 * 13)
    monkeypatch.setattr(solvers, "_MIN_BATCH_READS", 1)
    monkeypatch.setattr(solvers, "_anneal_together", spy)
    sample = simulated_annealing(poly, SaConfig(reads=25, sweeps=6, seed=5))
    assert as_pair(sample) == reference_sa(poly, reads=25, sweeps=6, seed=5)
    assert sizes == [3, 4, 3, 4, 3, 4, 4]


def scalar_rule(delta, uniform, kt):
    """The acceptance test of the scalar loops, as a predicate."""
    if delta > 0.0:
        exponent = -delta / kt
        if exponent < -700.0 or uniform >= math.exp(exponent):
            return False
    return True


def test_metropolis_decides_as_the_scalar_rule_where_np_exp_rounds_apart():
    # With kt = 1 the exponent of delta is exactly -delta.  Uniforms sit on
    # math.exp's value, one ulp either side of it and on np.exp's value, at
    # exponents where np.exp rounds above or below math.exp (none where both
    # come from one libm); then the uniforms 0.0 and 2^-53 around the -700
    # cutoff, and signed zero and overflowing deltas at the top uniform.
    rng = np.random.default_rng(0)
    exponents = rng.uniform(-40.0, 0.0, 20000)
    above = [e for e in exponents if np.exp(e) > math.exp(e)][:20]
    below = [e for e in exponents if np.exp(e) < math.exp(e)][:20]
    delta, uniforms = [], []
    for e in above + below:
        exact = math.exp(e)
        for u in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0), np.exp(e)):
            delta.append(-e)
            uniforms.append(float(u))
    cutoff = (699.0, 700.0, np.nextafter(700.0, 0.0), np.nextafter(700.0, 800.0), 701.0, 800.0)
    for d in cutoff:
        delta += [d, d]
        uniforms += [0.0, 2.0 ** -53]
    top = np.nextafter(1.0, 0.0)
    delta += [0.0, -0.0, -1000.0]
    uniforms += [top, top, top]
    delta, uniforms = np.array(delta), np.array(uniforms)
    with np.errstate(over="ignore"):
        accept = solvers._metropolis(delta, uniforms, 1.0)
        np_alone = uniforms < np.exp(-delta)
    expected = [scalar_rule(d, u, 1.0) for d, u in zip(delta.tolist(), uniforms.tolist())]
    assert accept.tolist() == expected
    assert expected[-15:] == [True, False] * 3 + [False] * 6 + [True] * 3
    # np.exp alone accepts the uniform 0.0 below the cutoff until e^-800
    # underflows, and rounds the other way at every uniform placed between
    # its value and math.exp's.
    assert np_alone[-15:].tolist() == [True, False] * 5 + [False] * 2 + [True] * 3
    placed = 4 * (len(above) + len(below))
    between = [k for k, (d, u) in enumerate(zip(delta[:placed], uniforms[:placed]))
               if min(np.exp(-d), math.exp(-d)) <= u < max(np.exp(-d), math.exp(-d))]
    assert len(between) >= len(above) + len(below)
    assert all(np_alone[k] != expected[k] for k in between)


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


def random_polynomial(n, degree, terms, rng, integer=False):
    """Up to ``terms`` random terms of degree 1..``degree`` over n variables, plus a constant."""
    poly = {(): float(rng.integers(-3, 4)) if integer else rng.normal()}
    for _ in range(terms if n else 0):
        term = tuple(rng.choice(n, int(rng.integers(1, min(degree, n) + 1)), replace=False))
        poly[term] = float(rng.integers(-5, 6)) if integer else rng.normal()
    return BinaryPolynomial(n, poly)


def assert_transverse_matches_reference(dist, beta, gamma):
    expected = reference_transverse_evolve(dist.costs, dist.num_qubits, beta, gamma)
    assert np.max(np.abs(dist.amplitudes - expected), initial=0.0) <= 1e-12
    assert np.max(np.abs(dist.probabilities - np.abs(expected) ** 2), initial=0.0) <= 1e-12


# n = 0..13 covers one block (n <= 6), two and three blocks, and odd widths
# (n = 7 splits 4 + 3, n = 13 splits 5 + 4 + 4); float costs at n >= 9 have
# more than 256 distinct levels.
@pytest.mark.parametrize("n", range(14))
@pytest.mark.parametrize("integer", (True, False))
def test_transverse_circuit_matches_per_qubit_reference(n, integer):
    rng = np.random.default_rng(100 + n)
    poly = random_polynomial(n, 2, 3 * n, rng, integer=integer)
    beta, gamma = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
    assert_transverse_matches_reference(qaoa_qubo_simulate(poly, beta, gamma), beta, gamma)


def test_transverse_circuit_with_more_levels_than_uint16_holds():
    rng = np.random.default_rng(7)
    poly = BinaryPolynomial(17, {(i,): rng.normal() for i in range(17)})
    beta, gamma = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
    dist = qaoa_qubo_simulate(poly, beta, gamma)
    assert np.unique(dist.costs).size > 1 << 16
    assert_transverse_matches_reference(dist, beta, gamma)


@pytest.mark.parametrize("k", (3, 4, 5))
def test_hobo_tour_circuit_matches_per_qubit_reference(k):
    rng = np.random.default_rng(k)
    beta, gamma = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    dist = qaoa_hobo_tsp_simulate(gen_tsp_planar(k + 1, seed=k), beta, gamma)
    assert_transverse_matches_reference(dist, beta, gamma)


@pytest.mark.parametrize("kind", ("qubo", "hobo", "xy", "perm"))
def test_level_phase_is_bitwise_cost_phase(kind):
    problem = gen_tsp_planar(5, seed=3)
    if kind == "qubo":
        problem = random_polynomial(12, 3, 40, np.random.default_rng(3))
    compiled = _CompiledProblem(kind, problem)
    levels, index = compiled._levels
    for gamma in (0.37, -1.9):
        phase = np.take(np.exp(-1j * gamma * levels), index, mode="clip")
        assert phase.tobytes() == np.exp(-1j * gamma * compiled.costs).tobytes()


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("seed", range(4))
def test_cost_vector_is_bitwise_mask_reference(degree, seed):
    rng = np.random.default_rng(10 * degree + seed)
    n = int(rng.integers(max(degree, 1), 13))
    poly = random_polynomial(n, degree, 0 if degree == 0 else 25, rng)
    full = poly.cost_vector()
    assert full.view(np.uint64).tolist() == reference_cost_vector(poly).view(np.uint64).tolist()
    for _ in range(6):
        start = int(rng.integers(0, 1 << n))
        stop = int(rng.integers(start, (1 << n) + 1))
        part = poly.cost_vector(start, stop)
        expected = reference_cost_vector(poly, start, stop)
        assert part.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_xy_cost_table_is_bitwise_embedded_cost_vector(k):
    # Both tables add the constant, then each satisfied term in term order.
    poly = random_polynomial(k * k, 4, 40, np.random.default_rng(k))
    full = embed_onehot_state(np.arange(1.0, k ** k + 1), k)
    support = np.flatnonzero(full)  # full index of each one-hot state, in embedding order
    expected = poly.cost_vector()[support[np.argsort(full[support].real)]]
    costs = _CompiledProblem("xy", poly, k=k).costs
    assert costs.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_argmin_exhaustive_across_chunks_matches_enumeration():
    # 21 variables span two 2**20 chunks.  x0 and x20 tie at (1, 0) and
    # (0, 1); the lexicographically smallest optimum has x0 = 0, so it lies
    # in the second chunk.
    n = 21
    rng = np.random.default_rng(21)
    terms = {(0, 20): 2.0, (0,): -1.0, (20,): -1.0}
    for _ in range(30):
        pair = tuple(rng.choice(np.arange(1, 20), 2, replace=False))
        terms[pair] = float(rng.integers(-3, 4))
    poly = BinaryPolynomial(n, terms)
    costs = reference_cost_vector(poly)
    best = costs.min()
    optima = sorted(format(int(i), f"0{n}b")[::-1] for i in np.flatnonzero(costs == best))
    assert poly.argmin_exhaustive() == (optima[0], float(best))
    assert optima[0][0] == "0" and optima[0][-1] == "1"


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_gw_matches_reference(graph, seed):
    inst = GRAPHS[graph](seed)
    sample = goemans_williamson(inst, seed=seed)
    expected = reference_gw(inst, seed=seed)
    assert (sample.samples, sample.costs, sample.info) == (
        expected.samples, expected.costs, expected.info)


# ----------------------------------------------------------------------
# Half-basis Max-Cut circuits against the full circuit
# ----------------------------------------------------------------------

def assert_half_matches_full(inst, beta, gamma):
    """Every output of the half compile of ``inst`` against the full compile of its polynomial."""
    half = _CompiledProblem("qubo", inst)
    full = compile_full_basis(maxcut_qubo(inst))
    assert half.costs.size * 2 == full.costs.size
    for optimal_cost in (None, float(full.costs.min())):
        ours = half.simulate(beta, gamma, optimal_cost)
        theirs = full.simulate(beta, gamma, optimal_cost)
        assert (ours.basis, ours.num_qubits) == (theirs.basis, theirs.num_qubits)
        for name in ("amplitudes", "probabilities", "costs"):
            assert np.max(np.abs(getattr(ours, name) - getattr(theirs, name))) <= 1e-12
        assert abs(ours.p_star - theirs.p_star) <= 1e-12
        assert abs(ours.expected_cost() - theirs.expected_cost()) <= 1e-12
    assert_transverse_matches_reference(ours, beta, gamma)
    if full.costs.min() == 0.0:
        for compiled in (half, full):
            with pytest.raises(ValueError, match="zero optimal cost"):
                compiled.gap(beta, gamma)
        return
    value, d_beta, d_gamma = half.gap(beta, gamma, gradient=True)
    expected_value, expected_beta, expected_gamma = full.gap(beta, gamma, gradient=True)
    assert abs(value - expected_value) <= 1e-12
    assert np.max(np.abs(d_beta - expected_beta)) <= 1e-12
    assert np.max(np.abs(d_gamma - expected_gamma)) <= 1e-12


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("p", (1, 3))
def test_half_basis_maxcut_circuit_matches_full_circuit(graph, p):
    rng = np.random.default_rng(p)
    assert_half_matches_full(GRAPHS[graph](p), rng.uniform(-2, 2, p), rng.uniform(-2, 2, p))


@pytest.mark.parametrize("inst", [
    MaxCutInstance(2, ((0, 1, 1.0),)),  # one stored qubit
    MaxCutInstance(7, ()),  # every cut costs 0
], ids=["n2", "edgeless"])
def test_half_basis_maxcut_circuit_at_the_edges(inst):
    assert_half_matches_full(inst, np.array([0.4, -1.1]), np.array([0.9, 0.3]))


def test_half_basis_cap_counts_stored_qubits():
    inst = gen_regular(6, 3, seed=0)
    poly = maxcut_qubo(inst)
    for model in (inst, poly):  # the instance runs as its cut polynomial
        assert qaoa_qubo_simulate(model, [0.3], [0.2], cap=5).amplitudes.size == 1 << 6
    with pytest.raises(SizeCapError, match="6 qubits exceed"):
        qaoa_qubo_simulate(plus_field(poly), [0.3], [0.2], cap=5)
    with pytest.raises(SizeCapError):
        compile_full_basis(poly, cap=5)


# ----------------------------------------------------------------------
# The half basis follows the cost: every flip-symmetric polynomial of
# degree <= 2 runs on it, an instance through its cut polynomial
# ----------------------------------------------------------------------

def flip_cases() -> dict:
    """Polynomials by name, each with whether it is flip-symmetric."""
    symmetric = {f"cut-{name}": maxcut_qubo(make(0)) for name, make in GRAPHS.items()}
    rng = np.random.default_rng(5)
    for n in (5, 8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        couplings = {pair: float(rng.normal()) for pair in pairs}
        symmetric[f"ising-{n}"] = IsingModel(n, np.zeros(n), couplings, 0.3).to_polynomial()
    cases = {name: (poly, True) for name, poly in symmetric.items()}
    cases.update({f"{name}+field": (plus_field(poly), False) for name, poly in symmetric.items()})
    for k in (3, 4):
        cases[f"tour-k{k}"] = (tsp_onehot_qubo(gen_tsp_planar(k + 1, seed=k)), False)
    cases["cubic"] = (BinaryPolynomial(4, {(0, 1, 2): 1.0, (1, 3): 1.0, (3,): -0.5}), False)
    cases["no-variable"] = (BinaryPolynomial(0, {(): 2.0}), False)
    cases["one-variable"] = (BinaryPolynomial(1, {(): 2.0}), True)
    cases["one-variable-field"] = (BinaryPolynomial(1, {(0,): -1.0}), False)
    return cases


FLIP_CASES = flip_cases()


@pytest.mark.parametrize("name", FLIP_CASES)
def test_reference_flip_symmetry_compares_each_state_with_its_complement(name):
    poly, expected = FLIP_CASES[name]
    assert reference_flip_symmetric(poly) is expected


@pytest.mark.parametrize("name", FLIP_CASES)
def test_flip_symmetry_rule_agrees_with_the_reference(name):
    poly, expected = FLIP_CASES[name]
    assert qaoa._flip_symmetric(poly) is reference_flip_symmetric(poly) is expected
    assert _CompiledProblem("qubo", poly).half is expected


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("p", (1, 3))
def test_cut_polynomial_circuit_is_its_instance_circuit_bit_for_bit(graph, p):
    inst = GRAPHS[graph](p)
    rng = np.random.default_rng(10 + p)
    beta, gamma = rng.uniform(-2, 2, p), rng.uniform(-2, 2, p)
    ours = qaoa_qubo_simulate(maxcut_qubo(inst), beta, gamma)
    theirs = qaoa_qubo_simulate(inst, beta, gamma)
    assert (ours.p_star, ours.expected_cost()) == (theirs.p_star, theirs.expected_cost())
    for name in ("amplitudes", "probabilities", "costs"):
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    for dist in (ours, theirs):
        assert_transverse_matches_reference(dist, beta, gamma)


def test_train_generator_on_cut_polynomials_is_training_on_their_instances():
    instances = [make(0) for make in GRAPHS.values()]
    ours = train_generator([maxcut_qubo(inst) for inst in instances], "qubo", p=2, budget=60)
    theirs = train_generator(instances, "qubo", p=2, budget=60)
    assert (ours.objective, ours.evaluations, ours.budget_exhausted) == (
        theirs.objective, theirs.evaluations, theirs.budget_exhausted)
    assert ours.params.theta_beta.tobytes() == theirs.params.theta_beta.tobytes()
    assert ours.params.theta_gamma.tobytes() == theirs.params.theta_gamma.tobytes()


def test_level_index_above_uint16_is_uint32_and_the_phase_stays_bitwise(monkeypatch):
    rng = np.random.default_rng(7)
    poly = BinaryPolynomial(17, {(i,): rng.normal() for i in range(17)})
    compiled = _CompiledProblem("qubo", poly)
    levels, index = compiled._levels
    assert levels.size > 1 << 16 and index.dtype == np.uint32
    # with the mixer left out, evolve's state is the start times the cost phase
    monkeypatch.setattr(_CompiledProblem, "_mix",
                        lambda self, psi, spare, beta, adjoint=False: (psi, spare, 0.0))
    start = np.full(compiled.costs.size, 1.0 / math.sqrt(compiled.costs.size), dtype=np.complex128)
    for gamma in (0.37, -1.9):
        psi = compiled.evolve(np.array([0.0]), np.array([gamma]))
        assert psi.tobytes() == (start * np.exp(-1j * gamma * compiled.costs)).tobytes()


# ----------------------------------------------------------------------
# The level index from one sort, the rotating transverse blocks and the
# half table as the oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("distinct, dtype", [
    (7, np.uint8), (256, np.uint8), (257, np.uint16), (1 << 16, np.uint16),
    ((1 << 16) + 1, np.uint32),
])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["one", "stack"])
def test_level_index_from_one_sort_equals_unique_and_searchsorted(distinct, dtype, stack):
    rng = np.random.default_rng(distinct)
    values = (rng.permutation(distinct) - distinct // 2) * 0.37
    picks = rng.integers(0, distinct, (*stack, 1 << 17))  # every level tied many times
    picks.reshape(-1)[:distinct] = np.arange(distinct)
    costs = values[rng.permuted(picks, axis=-1)]
    compiled = _CompiledProblem.__new__(_CompiledProblem)  # the index reads only the costs
    compiled.costs = costs
    levels, index = compiled._levels
    expected = np.unique(costs)
    assert levels.tobytes() == expected.tobytes()
    assert index.dtype == dtype and index.shape == costs.shape
    assert np.array_equal(index, np.searchsorted(expected, costs))


def transverse_problems(n):
    """An n-variable polynomial and an (n + 1)-node graph: n stored qubits, full and half."""
    rng = np.random.default_rng(n)
    return {"full": random_polynomial(n, 3, 2 * n, rng),
            "half": gen_erdos_renyi(n + 1, 0.3, n, weights="uniform")}


# 5, 11, 16 and 19 stored qubits run as 1, 2, 3 and 4 blocks
@pytest.mark.parametrize("n", (5, 11, 16, 19))
@pytest.mark.parametrize("basis", ("full", "half"))
def test_rotating_transverse_blocks_match_per_qubit_reference(n, basis):
    compiled = _CompiledProblem("qubo", transverse_problems(n)[basis])
    assert compiled.costs.size == 1 << n
    rng = np.random.default_rng(n + 1)
    beta, gamma = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
    assert_transverse_matches_reference(compiled.simulate(beta, gamma), beta, gamma)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_circuit_roster_takes_the_oracle_optimum_from_the_half_table(graph, seed):
    inst = GRAPHS[graph](seed)
    (record,) = harness._instance_records(
        inst, "tts", [harness.SolverSpec("qaoa1", "qaoa", {"p": 1})], seed, harness.ORACLE_CAP)
    assert record.status == "ok" and record.metrics["p_star"] > 0.0
    expected = maxcut_qubo(inst).argmin_exhaustive()[1]
    if "uniform" in graph:  # the half table sums each cut in its own order
        assert abs(record.best_cost - expected) <= 1e-12 * abs(expected)
    else:
        assert record.best_cost == expected


# ----------------------------------------------------------------------
# Tabu search one restart at a time against the batched kernel
# ----------------------------------------------------------------------

def ts_on_both_paths(monkeypatch, poly, cfg, starts=None):
    """The samples, costs and info of one TS call on each path, forced by the cutoff."""
    def refuse(*args):
        raise AssertionError("the other TS path taken")

    out = []
    for cutoff, other in ((math.inf, "_tabu_together"), (-1, "_tabu_one_by_one")):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_MAX_SCALAR_TS", cutoff)
            patch.setattr(solvers, other, refuse)
            sample = tabu_search(poly, cfg, starts=starts)
        out.append((sample.samples, sample.costs, sample.info))
    return out


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tenure", (0, 3, None, "above_n"))
def test_ts_paths_match_each_other_and_reference(graph, seed, tenure, monkeypatch):
    inst = GRAPHS[graph](seed)
    tenure = inst.num_nodes + 3 if tenure == "above_n" else tenure
    poly = maxcut_qubo(inst)
    cfg = TsConfig(restarts=6, tenure=tenure, seed=seed)
    one_by_one, together = ts_on_both_paths(monkeypatch, poly, cfg)
    assert one_by_one == together
    assert one_by_one[:2] == reference_ts(poly, restarts=6, tenure=tenure, seed=seed)


@pytest.mark.parametrize("graph", GRAPHS)
def test_ts_paths_match_from_given_starts(graph, monkeypatch):
    poly = maxcut_qubo(GRAPHS[graph](4))
    rng = np.random.default_rng(11)
    starts = ["".join(map(str, row)) for row in rng.integers(0, 2, (6, poly.num_vars))]
    starts.append(starts[0])
    cfg = TsConfig(iterations=30, tenure=4, seed=3)
    one_by_one, together = ts_on_both_paths(monkeypatch, poly, cfg, starts)
    assert one_by_one == together
    assert one_by_one[:2] == reference_ts(poly, iterations=30, tenure=4, seed=3, starts=starts)


@pytest.mark.parametrize("n", (30, 45, 60))
@pytest.mark.parametrize("weights", ("unit", "uniform"))
@pytest.mark.parametrize("seed", (0, 1))
def test_ts_paths_match_on_bsf_shaped_graphs(n, weights, seed, monkeypatch):
    poly = maxcut_qubo(gen_erdos_renyi(n, 0.2, seed, weights=weights))
    one_by_one, together = ts_on_both_paths(monkeypatch, poly, TsConfig(restarts=1, seed=seed))
    assert one_by_one == together
    assert one_by_one[:2] == reference_ts(poly, restarts=1, seed=seed)


def test_ts_paths_match_where_rounding_ties_moves(monkeypatch):
    # Next to a constant of 1e16, gains a few ulps apart add up to the same
    # cost, so the first least cost is often not at the least gain.
    rng = np.random.default_rng(5)
    n = 12
    terms = {(): 1e16, **{(i,): float(rng.normal()) for i in range(n)}}
    terms.update({(i, j): float(rng.normal()) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.4})
    poly = BinaryPolynomial(n, terms)
    for tenure in (0, 3, n):
        cfg = TsConfig(restarts=4, iterations=80, tenure=tenure, seed=tenure)
        one_by_one, together = ts_on_both_paths(monkeypatch, poly, cfg)
        assert one_by_one == together


@pytest.mark.parametrize("path", ("one_by_one", "together"))
def test_ts_on_a_model_with_no_variables_returns_the_constant(path, monkeypatch):
    monkeypatch.setattr(solvers, "_MAX_SCALAR_TS", math.inf if path == "one_by_one" else -1)
    poly = BinaryPolynomial(0, {(): 1.5})
    sample = tabu_search(poly, TsConfig(restarts=2, iterations=3, seed=1))
    assert sample.best() == ("", 1.5)
    assert sample.samples == {"": 2}


def test_ts_takes_the_scalar_loop_for_one_restart_and_the_batch_for_many(monkeypatch):
    taken = []

    def spy(name):
        kernel = getattr(solvers, name)

        def call(*args):
            taken.append(name)
            return kernel(*args)
        return call

    for name in ("_tabu_one_by_one", "_tabu_together"):
        monkeypatch.setattr(solvers, name, spy(name))
    tabu_search(maxcut_qubo(gen_erdos_renyi(60, 0.2, 0)), TsConfig(restarts=1, seed=0))
    tabu_search(maxcut_qubo(GRAPHS["regular-12"](0)), TsConfig(restarts=200, seed=0))
    assert taken == ["_tabu_one_by_one", "_tabu_together"]


def test_neighbor_lists_equal_the_per_row_construction():
    poly = maxcut_qubo(GRAPHS["er-uniform-13"](1))
    terms = dict(poly.terms)
    terms.update({(13,): 0.5, (2, 14): -1.25})  # 13 has no neighbour, 14 one
    _, (_, _, coupling, neighbors) = solvers._compile_quadratic(BinaryPolynomial(15, terms))
    expected = [[(j, float(coupling[i, j])) for j in range(15) if coupling[i, j] != 0.0]
                for i in range(15)]
    assert expected[13] == [] and expected[14] == [(2, -1.25)]
    assert [list(row) for row in neighbors] == expected


def test_adjacency_equals_the_edge_loop():
    # The cut polynomial's coupling is twice the weight matrix, each entry
    # summed in edge order: 2e16 + 2 - 2e16 is 0, not 2.
    parallel = SimpleNamespace(num_nodes=4, edges=(
        (0, 1, 1e16), (1, 3, 0.25), (0, 1, 1.0), (2, 3, -0.5), (0, 1, -1e16), (1, 3, 0.5)))
    for inst in (parallel, gen_erdos_renyi(13, 0.5, 3, weights="uniform"),
                 MaxCutInstance(3, ())):
        expected = np.zeros((inst.num_nodes, inst.num_nodes))
        for u, v, w in inst.edges:
            expected[u, v] += w
            expected[v, u] += w
        _, (_, _, coupling, _) = solvers._compile_quadratic(maxcut_qubo(inst))
        assert coupling.tobytes() == (2.0 * expected).tobytes()
    assert solvers._compile_quadratic(maxcut_qubo(parallel))[1][2][0, 1] == 0.0


def test_compiled_arrays_are_built_once_and_read_only():
    poly = maxcut_qubo(GRAPHS["er-uniform-13"](2))
    _, compiled = solvers._compile_quadratic(poly)
    groups = poly.terms_by_degree()
    assert solvers._compile_quadratic(poly)[1] is compiled
    assert poly.terms_by_degree() is groups
    _, linear, coupling, _ = compiled
    for array in (linear, coupling, *(a for group in groups.values() for a in group)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert linear[0] != 0 and coupling[0].any()
