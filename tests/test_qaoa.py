import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    BinaryPolynomial,
    CompiledProblem,
    GeneratorParams,
    LayerCountUnavailable,
    MaxCutInstance,
    MetricContext,
    OutputDistribution,
    SizeCapError,
    expand_generator,
    feasibility_ratio,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_circular,
    gen_tsp_planar,
    layer_ledger,
    maxcut_qubo,
    qaoa_qubo_simulate,
    qaoa_tsp_simulate,
    train_generator,
    tsp_combined_error,
    tsp_exhaustive,
    tts_layers,
)
from optbench import qaoa
from optbench.formulations import hobo_cost, tour_permutations, tsp_onehot_qubo
from optbench.instances import make_rng
from optbench.qaoa import (
    embed_onehot_state,
    onehot_state_index,
    xy_pair_rotation,
    xy_pair_schedule,
)

from conftest import (
    compile_full_basis,
    dense_phase,
    dense_single_qubit,
    dense_two_qubit,
    dense_uniform,
    dense_xy_gate,
    plus_field,
    reference_onehot_decode,
)


# ----------------------------------------------------------------------
# Zero-angle circuits are identities on the uniform start state
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["qubo", "hobo", "xy", "perm"])
def test_zero_schedule_gives_uniform_distribution(kind):
    inst = gen_tsp_circular(4, 0.8, seed=2)
    dist = qaoa_tsp_simulate(inst, kind, [0.0], [0.0])
    size = dist.probabilities.size
    assert np.max(np.abs(dist.probabilities - 1.0 / size)) < 1e-12


def test_zero_schedule_uniform_p_star_counts_optima():
    inst = MaxCutInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
    poly = maxcut_qubo(inst)
    dist = qaoa_qubo_simulate(poly, [0.0], [0.0])
    optima = int(np.sum(poly.cost_vector() == -2.0))
    assert dist.p_star == pytest.approx(optima / 8.0)


def test_hobo_uniform_feasibility_fraction():
    inst = gen_tsp_circular(4, 0.5, seed=1)  # k = 3, two bits per slot
    dist = qaoa_tsp_simulate(inst, "hobo", [0.0], [0.0])
    assert float(dist.probabilities[dist.feasible].sum()) == pytest.approx(6 / 64)


# ----------------------------------------------------------------------
# Single-qubit closed form against hand-multiplied matrices
# ----------------------------------------------------------------------

def test_single_qubit_closed_form_and_matrix_product():
    poly = BinaryPolynomial(1, {(0,): 1.0})
    for gamma in (0.3, 1.1, 2.0):
        beta = math.pi / 4
        dist = qaoa_qubo_simulate(poly, [beta], [gamma])
        # closed form: P(x=1) = (1 - sin(2 beta) sin(gamma)) / 2
        expected_p1 = (1.0 - math.sin(2 * beta) * math.sin(gamma)) / 2.0
        assert dist.probabilities[1] == pytest.approx(expected_p1, abs=1e-12)
        # independent 2x2 product: phase then exp(+i beta sigma_x)
        psi = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2)
        psi *= np.exp(-1j * gamma * np.array([0.0, 1.0]))
        mixer = np.array(
            [
                [math.cos(beta), 1j * math.sin(beta)],
                [1j * math.sin(beta), math.cos(beta)],
            ]
        )
        psi = mixer @ psi
        assert np.allclose(dist.amplitudes, psi, atol=1e-12)


def test_qubo_simulator_matches_dense_oracle():
    # Full independent simulation of a 3-qubit, p = 2 circuit.
    rng = make_rng(5)
    poly = maxcut_qubo(MaxCutInstance(3, ((0, 1, 1.0), (1, 2, 0.5))))
    beta = rng.uniform(0, math.pi, 2)
    gamma = rng.uniform(0, 2 * math.pi, 2)
    dist = qaoa_qubo_simulate(poly, beta, gamma)
    psi = dense_uniform(3)
    costs = poly.cost_vector()
    for b, g in zip(beta, gamma):
        psi = dense_phase(psi, costs, g)
        gate = np.array(
            [[math.cos(b), 1j * math.sin(b)], [1j * math.sin(b), math.cos(b)]]
        )
        for q in range(3):
            psi = dense_single_qubit(psi, 3, q, gate)
    assert np.allclose(dist.amplitudes, psi, atol=1e-12)


# ----------------------------------------------------------------------
# XY mixer
# ----------------------------------------------------------------------

def test_xy_pair_rotation_full_transfer():
    gate = xy_pair_rotation(math.pi / 4)
    transferred = gate @ np.array([1.0, 0.0])
    assert np.allclose(transferred, [0.0, -1j])


def test_xy_pair_schedule_layout():
    assert xy_pair_schedule(2) == [(0, 1)]
    assert xy_pair_schedule(3) == [(0, 1), (1, 2), (2, 0)]
    assert xy_pair_schedule(4) == [(0, 1), (2, 3), (1, 2)]
    assert xy_pair_schedule(5) == [(0, 1), (2, 3), (1, 2), (3, 4), (4, 0)]


def test_xy_subspace_matches_full_statevector_k3():
    # Embed the subspace state into the full 2**9 space and compare with an
    # independently implemented full-space circuit (W-state start, one-hot
    # QUBO phases, brick-wall XY gates).
    inst = gen_tsp_circular(4, 0.9, seed=3)  # k = 3
    k = 3
    rng = make_rng(8)
    beta = rng.uniform(0, math.pi, 2)
    gamma = rng.uniform(0, 2 * math.pi, 2)
    dist = qaoa_tsp_simulate(inst, "xy", beta, gamma)
    embedded = embed_onehot_state(dist.amplitudes, k)

    poly = tsp_onehot_qubo(inst)
    costs = poly.cost_vector()
    n = k * k
    psi = np.zeros(1 << n, dtype=np.complex128)
    for digits in itertools.product(range(k), repeat=k):
        bits = sum(1 << (slot * k + digit) for slot, digit in enumerate(digits))
        psi[bits] = (1.0 / math.sqrt(k)) ** k
    for b, g in zip(beta, gamma):
        psi = dense_phase(psi, costs, g)
        gate = dense_xy_gate(b)
        for block in range(k):
            for i, j in xy_pair_schedule(k):
                psi = dense_two_qubit(psi, n, block * k + i, block * k + j, gate)
    assert np.max(np.abs(embedded - psi)) < 1e-7


def test_xy_mass_never_leaves_subspace():
    inst = gen_tsp_planar(5, seed=4)  # k = 4
    rng = make_rng(10)
    for _ in range(5):
        beta = rng.uniform(0, math.pi, 3)
        gamma = rng.uniform(0, 2 * math.pi, 3)
        dist = qaoa_tsp_simulate(inst, "xy", beta, gamma)
        assert dist.norm() == pytest.approx(1.0, abs=1e-9)
        # per-block marginals stay normalized because the basis is the subspace
        assert dist.probabilities.size == 4 ** 4


def test_xy_generic_polynomial_costs_match_embedding():
    inst = gen_tsp_circular(4, 0.6, seed=6)
    k = 3
    poly = tsp_onehot_qubo(inst)
    dist = CompiledProblem("xy", poly, k=k).simulate([0.1], [0.2])
    direct = qaoa_tsp_simulate(inst, "xy", [0.1], [0.2])
    assert np.allclose(dist.costs, direct.costs, atol=1e-9)
    assert np.allclose(dist.probabilities, direct.probabilities, atol=1e-12)


def test_xy_diagonal_cost_equals_onehot_qubo_on_embedded_states():
    inst = gen_tsp_circular(4, 1.1, seed=7)
    k = 3
    poly = tsp_onehot_qubo(inst)
    dist = qaoa_tsp_simulate(inst, "xy", [0.0], [0.0])
    for digits in itertools.product(range(k), repeat=k):
        index = onehot_state_index([d + 1 for d in digits], k)
        bits = ["0"] * (k * k)
        for slot, digit in enumerate(digits):
            bits[slot * k + digit] = "1"
        assert dist.costs[index] == pytest.approx(
            poly.evaluate("".join(bits)), abs=1e-9
        )


# ----------------------------------------------------------------------
# Permutation mixer
# ----------------------------------------------------------------------

def test_perm_mixer_two_pi_is_identity():
    inst = gen_tsp_circular(5, 0.7, seed=9)
    ref = qaoa_tsp_simulate(inst, "perm", [0.0], [0.4])
    dist = qaoa_tsp_simulate(inst, "perm", [2 * math.pi], [0.4])
    assert np.allclose(dist.amplitudes, ref.amplitudes, atol=1e-9)


def test_perm_zero_gamma_stays_uniform():
    inst = gen_tsp_circular(5, 0.7, seed=9)
    dist = qaoa_tsp_simulate(inst, "perm", [1.3], [0.0])
    size = dist.probabilities.size
    assert np.max(np.abs(dist.probabilities - 1.0 / size)) < 1e-12


def test_perm_support_is_feasible_only():
    inst = gen_tsp_planar(5, seed=12)
    dist = qaoa_tsp_simulate(inst, "perm", [0.8], [0.5])
    assert dist.probabilities.size == math.factorial(4)
    assert bool(np.all(dist.feasible))
    assert float(dist.probabilities[dist.feasible].sum()) == pytest.approx(1.0)


def test_perm_costs_scale_tour_lengths():
    inst = gen_tsp_circular(4, 0.5, seed=13)
    a = 0.25
    dist = CompiledProblem("perm", inst, a=a).simulate([0.1], [0.2])
    assert np.allclose(dist.costs, a * dist.lengths)


# ----------------------------------------------------------------------
# Diagonal-cost consistency for hobo
# ----------------------------------------------------------------------

def test_hobo_costs_match_scalar_decomposition():
    inst = gen_tsp_circular(4, 0.9, seed=14)  # k = 3, 6 qubits
    dist = qaoa_tsp_simulate(inst, "hobo", [0.0], [0.0])
    for index in range(64):
        x = "".join("1" if (index >> i) & 1 else "0" for i in range(6))
        assert dist.costs[index] == pytest.approx(hobo_cost(inst, x), abs=1e-9)


def test_hobo_feasible_costs_cross_check_oracle():
    inst = gen_tsp_planar(5, seed=15)  # k = 4, power of two: no range violations
    dist = qaoa_tsp_simulate(inst, "hobo", [0.0], [0.0])
    a, _ = __import__("optbench").tsp_default_penalties(inst)
    result = tsp_exhaustive(inst)
    feasible_costs = dist.costs[dist.feasible]
    assert feasible_costs.min() == pytest.approx(a * result.optimal_length, abs=1e-9)
    assert feasible_costs.max() == pytest.approx(a * result.worst_length, abs=1e-9)


# The k = 5 one-hot QUBO holds 2**25 states: within the qubo cap, but too
# large for a unit test.
TOUR_KINDS_BY_K = {k: ("qubo", "hobo", "xy", "perm") if k <= 4 else ("hobo", "xy", "perm")
                   for k in (2, 3, 4, 5)}


@pytest.mark.parametrize("k", TOUR_KINDS_BY_K)
def test_least_feasible_length_is_the_exhaustive_optimum_bit_for_bit(k):
    for seed in range(4):
        for inst in (gen_tsp_planar(k + 1, seed=seed), gen_tsp_circular(k + 1, 0.3, seed=seed)):
            optimum = tsp_exhaustive(inst).optimal_length
            for kind in TOUR_KINDS_BY_K[k]:
                compiled = CompiledProblem(kind, inst)
                assert np.count_nonzero(compiled.feasible) == math.factorial(k)
                assert compiled.lengths[compiled.feasible].min() == optimum


@pytest.mark.parametrize("kind", ["qubo", "hobo", "xy", "perm"])
def test_tour_p_star_needs_no_outside_oracle(kind, monkeypatch):
    tours = [gen_tsp_planar(4, seed=31), gen_tsp_circular(5, 0.4, seed=32)]  # k = 3 and 4
    rng = make_rng(33)
    beta, gamma = rng.uniform(0, math.pi, 3), rng.uniform(0, 2 * math.pi, 3)
    expected = [qaoa_tsp_simulate(inst, kind, beta, gamma).p_star for inst in tours]

    def no_oracle(*args, **kwargs):
        raise AssertionError("tour circuits must not call the exhaustive oracle")

    monkeypatch.setattr("optbench.qaoa.tsp_exhaustive", no_oracle)
    monkeypatch.setattr("optbench.solvers.tsp_exhaustive", no_oracle)
    assert [qaoa_tsp_simulate(inst, kind, beta, gamma).p_star for inst in tours] == expected
    assert all(0.0 < p_star <= 1.0 for p_star in expected)


# ----------------------------------------------------------------------
# Norm preservation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["qubo", "hobo", "xy", "perm"])
def test_norm_preserved_at_random_parameters(kind):
    inst = gen_tsp_circular(4, 1.0, seed=21)
    rng = make_rng(22)
    for _ in range(5):
        beta = rng.uniform(0, math.pi, 2)
        gamma = rng.uniform(0, 2 * math.pi, 2)
        dist = qaoa_tsp_simulate(inst, kind, beta, gamma)
        assert dist.norm() == pytest.approx(1.0, abs=1e-9)


def test_size_caps():
    inst = gen_tsp_planar(9, seed=0)  # k = 8 -> 64 one-hot qubits
    with pytest.raises(SizeCapError):
        qaoa_tsp_simulate(inst, "xy", [0.1], [0.1])
    with pytest.raises(SizeCapError):
        qaoa_qubo_simulate(BinaryPolynomial(30, {(0,): 1.0}), [0.1], [0.1])


# ----------------------------------------------------------------------
# Generator function
# ----------------------------------------------------------------------

def test_expand_generator_reproduces_linear_ramp():
    gp = GeneratorParams([1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0])
    for p in (1, 2, 5, 32):
        beta, gamma = expand_generator(gp, p)
        i = np.arange(1, p + 1)
        assert np.allclose(beta, 1.0 - i / p, atol=1e-15)
        assert np.allclose(gamma, i / p, atol=1e-15)
        # hinted monotone pattern: decaying beta, growing gamma
        assert np.all(np.diff(beta) <= 0)
        assert np.all(np.diff(gamma) >= 0)


def test_expand_generator_zero_and_constant():
    zero = GeneratorParams(np.zeros(5), np.zeros(5))
    beta, gamma = expand_generator(zero, 4)
    assert not beta.any() and not gamma.any()
    const = GeneratorParams([0.7], [0.2])
    beta, gamma = expand_generator(const, 3)
    assert np.allclose(beta, 0.7)
    assert np.allclose(gamma, 0.2)


def test_ramp_classmethod_matches_explicit():
    gp = GeneratorParams.ramp()
    assert gp.theta_beta.tolist() == [1.0, -1.0, 0.0, 0.0, 0.0]
    assert gp.theta_gamma.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_train_generator_dominates_ramp_start():
    poly = BinaryPolynomial(1, {(0,): -1.0})
    result = train_generator([poly], "qubo", p=1, budget=400, seed=0)
    ramp = GeneratorParams.ramp()
    beta, gamma = expand_generator(ramp, 1)
    ramp_gap = CompiledProblem("qubo", poly).gap(beta, gamma)
    assert result.objective <= ramp_gap + 1e-12
    assert result.evaluations <= 400


def test_train_generator_deterministic():
    problems = [maxcut_qubo(gen_regular(6, 3, seed=s)) for s in range(2)]
    a = train_generator(problems, "qubo", p=2, budget=300, seed=5)
    b = train_generator(problems, "qubo", p=2, budget=300, seed=5)
    assert np.array_equal(a.params.theta_beta, b.params.theta_beta)
    assert np.array_equal(a.params.theta_gamma, b.params.theta_gamma)
    assert a.objective == b.objective


def test_train_generator_budget_flag():
    problems = [maxcut_qubo(gen_regular(6, 3, seed=0))]
    result = train_generator(problems, "qubo", p=2, budget=5, seed=0)
    assert result.budget_exhausted
    assert result.evaluations <= 5
    assert result.params is not None


def test_zero_optimum_problem_simulates_but_does_not_train():
    poly = maxcut_qubo(MaxCutInstance(4, ()))  # no edges: every cut costs 0
    dist = qaoa_qubo_simulate(poly, [0.3, 0.2], [0.1, 0.4])
    assert dist.norm() == pytest.approx(1.0, abs=1e-12)
    assert dist.p_star == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="zero optimal cost"):
        train_generator([poly], "qubo", p=2, budget=10, seed=0)


def test_zero_and_one_qubit_problems_simulate():
    empty = qaoa_qubo_simulate(BinaryPolynomial(0, {(): 2.5}), [0.3, -0.7], [0.2, 0.4])
    assert empty.num_qubits == 0
    assert empty.amplitudes == pytest.approx([np.exp(-1j * 0.6 * 2.5)], abs=1e-15)
    assert empty.p_star == pytest.approx(1.0, abs=1e-15)
    beta, gamma = [0.3, -0.7], [0.2, 0.4]
    one = qaoa_qubo_simulate(BinaryPolynomial(1, {(0,): -1.0}), beta, gamma)
    psi = dense_uniform(1)
    for b, g in zip(beta, gamma):
        psi = dense_phase(psi, np.array([0.0, -1.0]), g)
        gate = np.array([[np.cos(b), 1j * np.sin(b)], [1j * np.sin(b), np.cos(b)]])
        psi = dense_single_qubit(psi, 1, 0, gate)
    assert np.allclose(one.amplitudes, psi, atol=1e-12)
    assert one.p_star == pytest.approx(abs(psi[1]) ** 2, abs=1e-12)


def test_gap_rejects_zero_optimum_before_running_a_circuit(monkeypatch):
    def refuse(self, beta, gamma):
        raise AssertionError("circuit run")

    compiled = CompiledProblem("qubo", maxcut_qubo(MaxCutInstance(3, ())))
    monkeypatch.setattr(CompiledProblem, "evolve", refuse)
    with pytest.raises(ValueError, match="zero optimal cost"):
        compiled.gap(np.array([0.1]), np.array([0.2]))


@pytest.mark.parametrize("gradient", [False, True])
@pytest.mark.parametrize("beta, gamma", [([0.1, 0.2], [0.3]), ([], [])],
                         ids=["unequal", "empty"])
def test_gap_checks_its_schedule_as_simulate_does(beta, gamma, gradient):
    # evolve's zip ran the unequal schedule at p = 1, and the empty one at p = 0
    compiled = CompiledProblem("qubo", gen_regular(8, 3, 1))
    for run in (compiled.simulate, partial(compiled.gap, gradient=gradient)):
        with pytest.raises(ValueError, match="equal-length schedules with p >= 1"):
            run(beta, gamma)


def test_gradient_step_stability():
    # Central differences at 1e-4 agree with a Richardson-style smaller
    # step to within 1e-3 relative norm at random coefficient points.
    problems = [maxcut_qubo(gen_regular(6, 3, seed=3))]
    compiled = CompiledProblem("qubo", problems[0])
    rng = make_rng(30)

    def objective(theta):
        gp = GeneratorParams(theta[:5], theta[5:])
        beta, gamma = expand_generator(gp, 3)
        return compiled.gap(beta, gamma)

    def grad(theta, h):
        g = np.zeros_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            g[i] = (objective(theta + e) - objective(theta - e)) / (2 * h)
        return g

    for _ in range(10):
        theta = rng.uniform(-1, 1, 10)
        g_coarse = grad(theta, 1e-4)
        g_fine = grad(theta, 1e-5)
        scale = max(np.linalg.norm(g_fine), 1e-8)
        assert np.linalg.norm(g_coarse - g_fine) / scale < 1e-3


def central_differences(compiled, beta, gamma, h=1e-5):
    """Central-difference gradient of the gap by beta and by gamma."""
    def diff(shift_beta, shift_gamma):
        return (compiled.gap(beta + shift_beta, gamma + shift_gamma)
                - compiled.gap(beta - shift_beta, gamma - shift_gamma)) / (2 * h)

    zero, step = np.zeros(beta.size), h * np.eye(beta.size)
    return (np.array([diff(e, zero) for e in step]), np.array([diff(zero, e) for e in step]))


@pytest.mark.parametrize("kind, problem", [
    ("qubo", maxcut_qubo(gen_regular(8, 3, seed=2))),
    ("qubo", BinaryPolynomial(1, {(0,): -1.0})),
    ("hobo", gen_tsp_planar(4, seed=1)),
    ("xy", gen_tsp_planar(4, seed=1)),  # k = 3: the brick wall closes with a wrap pair
    ("xy", gen_tsp_planar(5, seed=1)),
    ("perm", gen_tsp_planar(4, seed=1)),
    ("qubo", gen_tsp_planar(4, seed=1)),  # k = 3: the phase fills by doubling
], ids=["qubo", "qubo-1-qubit", "hobo", "xy-k3", "xy-k4", "perm", "qubo-tour-k3"])
@pytest.mark.parametrize("p", [1, 3])
def test_adjoint_gradient_matches_central_differences(kind, problem, p):
    compiled = CompiledProblem(kind, problem)
    rng = make_rng(p)
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    value, d_beta, d_gamma = compiled.gap(beta, gamma, gradient=True)
    assert value == compiled.gap(beta, gamma)  # the forward run is the plain gap, bit for bit
    fd_beta, fd_gamma = central_differences(compiled, beta, gamma)
    assert np.abs(d_beta - fd_beta).max() < 1e-6
    assert np.abs(d_gamma - fd_gamma).max() < 1e-6


@pytest.mark.parametrize("budget, gradients", [(5, 0), (21, 1), (30, 1), (68, 3)])
def test_train_generator_charges_each_gradient_as_central_differences(monkeypatch, budget,
                                                                      gradients):
    # a point costs 1 evaluation and its gradient 2 * len(theta) = 20; a point
    # whose gradient does not fit is evaluated, fills the budget and stops the search
    runs = []
    gap = CompiledProblem.gap

    def counting_gap(self, beta, gamma, gradient=False):
        runs.append(gradient)
        return gap(self, beta, gamma, gradient)

    monkeypatch.setattr(CompiledProblem, "gap", counting_gap)
    problems = [maxcut_qubo(gen_regular(6, 3, seed=0))]
    result = train_generator(problems, "qubo", p=2, budget=budget, seed=0)
    assert result.evaluations == budget and result.budget_exhausted
    points = gradients + (budget % 21 != 0)
    assert runs == [True] * gradients + [False] * (points - gradients)


def test_train_generator_counts_21_evaluations_per_point_when_not_exhausted():
    result = train_generator([BinaryPolynomial(1, {(0,): -1.0})], "qubo", p=1, budget=5000,
                             seed=0, random_restarts=1)
    assert not result.budget_exhausted
    assert result.evaluations % 21 == 0 and 0 < result.evaluations < 5000


@pytest.mark.parametrize("budget", [0, -3])
def test_train_generator_rejects_a_budget_below_one(budget):
    problems = [maxcut_qubo(gen_regular(6, 3, seed=0))]
    with pytest.raises(ValueError, match="budget"):
        train_generator(problems, "qubo", p=2, budget=budget, seed=0)


# ----------------------------------------------------------------------
# Stacks of problems: one circuit pass for every same-size problem
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind, problems", [
    ("qubo", [plus_field(maxcut_qubo(gen_regular(8, 3, seed=s)), 0.5) for s in range(3)]),
    ("qubo", [gen_regular(8, 3, seed=s) for s in range(3)]),  # Max-Cut on the half basis
    ("hobo", [gen_tsp_planar(4, seed=s) for s in range(3)]),
    ("xy", [gen_tsp_planar(4, seed=s) for s in range(3)]),  # 27 states: rows start unaligned
    ("perm", [gen_tsp_planar(5, seed=s) for s in range(3)]),
    # two different full-basis problems: half-integer cuts and real-weight
    # terms share no levels
    ("qubo", [plus_field(maxcut_qubo(gen_regular(6, 3, seed=0)), 0.5),
              BinaryPolynomial(6, {(0, 1): 0.7, (2,): -1.3, (3, 4, 5): 2.1, (): 0.25})]),
    ("qubo", [gen_tsp_planar(4, seed=s) for s in range(3)]),  # k = 3 one-hot tours
], ids=["qubo", "qubo-half", "hobo", "xy", "perm", "two-problems", "qubo-tour"])
@pytest.mark.parametrize("p", [1, 3])
def test_stack_rows_equal_standalone_gaps_bit_for_bit(kind, problems, p):
    parts = [CompiledProblem(kind, problem) for problem in problems]
    stack = CompiledProblem.stack(parts)
    rng = make_rng(p)
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    values, d_beta, d_gamma = stack.gap(beta, gamma, gradient=True)
    assert values.shape == (len(parts),) and d_beta.shape == d_gamma.shape == (len(parts), p)
    assert np.array_equal(stack.gap(beta, gamma), values)
    for row, part in enumerate(parts):
        value, row_beta, row_gamma = part.gap(beta, gamma, gradient=True)
        assert values[row] == value
        assert d_beta[row].tobytes() == row_beta.tobytes()
        assert d_gamma[row].tobytes() == row_gamma.tobytes()


def test_stack_rejects_mixed_state_sizes():
    parts = [CompiledProblem("qubo", maxcut_qubo(gen_regular(n, 3, seed=0))) for n in (6, 8)]
    with pytest.raises(ValueError, match="state size"):
        CompiledProblem.stack(parts)


def test_stack_of_no_problems_is_a_value_error():
    with pytest.raises(ValueError, match="empty"):
        CompiledProblem.stack([])


def test_stack_keeps_one_phase_rule_and_training_keeps_the_rules_apart(monkeypatch):
    # A k = 3 tour QUBO fills its phase by doubling, a 9-variable polynomial
    # through its level index: both hold 2**9 amplitudes, but never one stack
    problems = [gen_tsp_planar(4, seed=0),
                plus_field(maxcut_qubo(gen_erdos_renyi(9, 0.5, seed=1)), 0.5)]
    with pytest.raises(ValueError, match="phase rule"):
        CompiledProblem.stack([CompiledProblem("qubo", problem) for problem in problems])
    stacks = []
    gap = CompiledProblem.gap

    def recording_gap(self, beta, gamma, gradient=False):
        stacks.append(self.costs.shape)
        return gap(self, beta, gamma, gradient)

    monkeypatch.setattr(CompiledProblem, "gap", recording_gap)
    result = train_generator(problems, "qubo", p=2, budget=60, seed=0, random_restarts=1)
    monkeypatch.undo()
    assert set(stacks) == {(1, 1 << 9)}
    beta, gamma = expand_generator(result.params, 2)
    gaps = [CompiledProblem("qubo", problem).gap(beta, gamma) for problem in problems]
    assert result.objective == float(np.mean(gaps))


def test_stack_with_a_zero_optimum_row_raises_before_running_a_circuit(monkeypatch):
    def refuse(self, beta, gamma):
        raise AssertionError("circuit run")

    stack = CompiledProblem.stack([
        CompiledProblem("qubo", maxcut_qubo(gen_regular(4, 3, seed=0))),
        CompiledProblem("qubo", maxcut_qubo(MaxCutInstance(4, ()))),  # every cut costs 0
    ])
    monkeypatch.setattr(CompiledProblem, "evolve", refuse)
    with pytest.raises(ValueError, match="zero optimal cost"):
        stack.gap(np.array([0.1]), np.array([0.2]), gradient=True)


@pytest.mark.parametrize("cap, sizes, point", [
    # one stack per state size, each run in training-set order of its first
    # problem; a cut polynomial runs on its half basis
    (None, [6, 8, 6, 8, 8], [(2, 1 << 5), (3, 1 << 7)]),
    # a 128-amplitude cap stacks n = 6 graphs (32 stored amplitudes) in fours
    # and runs each n = 8 graph alone; a stack runs from the point it fills,
    # a partial one last
    (128, [6, 8, 6, 8, 6, 6, 8, 6],
     [(1, 1 << 7), (1, 1 << 7), (4, 1 << 5), (1, 1 << 7), (1, 1 << 5)]),
])
def test_train_generator_runs_one_gap_call_per_stack(monkeypatch, cap, sizes, point):
    # n = 6 and n = 8 graphs interleaved; the objective is the training-set
    # mean of the standalone gaps at the returned theta
    problems = [maxcut_qubo(gen_regular(n, 3, seed=s)) for s, n in enumerate(sizes)]
    stack_rows = []
    gap = CompiledProblem.gap

    def recording_gap(self, beta, gamma, gradient=False):
        stack_rows.append(self.costs.shape)
        return gap(self, beta, gamma, gradient)

    if cap is not None:
        monkeypatch.setattr("optbench.qaoa._STACK_AMPLITUDES", cap)
    monkeypatch.setattr(CompiledProblem, "gap", recording_gap)
    result = train_generator(problems, "qubo", p=2, budget=60, seed=0, random_restarts=1)
    monkeypatch.undo()
    assert stack_rows == point * (len(stack_rows) // len(point))
    beta, gamma = expand_generator(result.params, 2)
    gaps = [CompiledProblem("qubo", problem).gap(beta, gamma) for problem in problems]
    assert result.objective == float(np.mean(gaps))


def test_train_generator_keeps_half_and_full_problems_of_one_state_size_apart(monkeypatch):
    # A half-basis 8-node Max-Cut and a full 7-variable polynomial (a cut
    # plus a field) both hold 2**7 amplitudes but differ in their mixers:
    # each runs as its own stack, whose gap is the problem's own.
    problems = [gen_regular(8, 3, seed=0),
                plus_field(maxcut_qubo(gen_erdos_renyi(7, 0.5, seed=1)), 0.5)]
    stacks = []
    gap = CompiledProblem.gap

    def recording_gap(self, beta, gamma, gradient=False):
        stacks.append((self.num_qubits, self.half, self.costs.shape))
        return gap(self, beta, gamma, gradient)

    monkeypatch.setattr(CompiledProblem, "gap", recording_gap)
    both = train_generator(problems, "qubo", p=2, budget=60, seed=0, random_restarts=1)
    monkeypatch.undo()
    assert set(stacks) == {(8, True, (1, 1 << 7)), (7, False, (1, 1 << 7))}
    beta, gamma = expand_generator(both.params, 2)
    gaps = [CompiledProblem("qubo", problem).gap(beta, gamma) for problem in problems]
    assert both.objective == float(np.mean(gaps))
    full_gap = compile_full_basis(maxcut_qubo(problems[0])).gap(beta, gamma)
    assert abs(gaps[0] - full_gap) <= 1e-12


def test_one_problem_stack_views_its_cost_table():
    part = CompiledProblem("qubo", maxcut_qubo(gen_regular(6, 3, seed=0)))
    stacked = CompiledProblem.stack([part])
    assert stacked.costs.shape == (1, 1 << 5)
    assert np.shares_memory(stacked.costs, part.costs)


def test_evolve_gathers_the_cost_phase_without_a_state_sized_index_copy():
    # psi and spare are the only new state-sized arrays; np.take's intp copy
    # of the uint8 level index, 8 bytes per state, would exceed the 1 MiB slack
    import tracemalloc

    poly = maxcut_qubo(gen_regular(18, 3, seed=0))
    tracemalloc.start()
    try:
        compiled = CompiledProblem("qubo", poly)
        tracemalloc.reset_peak()
        psi = compiled.evolve(np.array([0.3, -0.2]), np.array([0.1, 0.4]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    index = compiled._levels[1]
    assert index.dtype == np.uint8
    assert peak <= 2 * psi.nbytes + compiled.costs.nbytes + index.nbytes + (1 << 20)


# ----------------------------------------------------------------------
# A half-basis output stays on the half; the one-hot tour table comes from
# its k**k decodable states
# ----------------------------------------------------------------------

def test_half_basis_simulate_peak_stays_near_the_stored_state():
    # the compile, the level index, evolve's two state vectors and the half
    # probabilities; a full-basis mirror inside simulate would need 4.6 states
    import tracemalloc

    n = 18
    inst = gen_regular(n, 3, seed=0)
    beta, gamma = expand_generator(GeneratorParams.ramp(), 4)
    tracemalloc.start()
    try:
        dist = qaoa_qubo_simulate(inst, beta, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < dist.p_star <= 1.0
    assert peak <= 3.25 * (1 << (n - 1)) * 16


def explicit_mirror(half: np.ndarray) -> np.ndarray:
    """Full-basis entry x is the stored entry of x or, above the half, of its complement."""
    size = 2 * half.size
    x = np.arange(size)
    return half[np.where(x < half.size, x, size - 1 - x)]


@pytest.mark.parametrize("inst", [
    gen_regular(10, 3, seed=1),
    gen_erdos_renyi(11, 0.4, seed=3, weights="uniform"),
    MaxCutInstance(2, ((0, 1, 1.0),)),
], ids=["regular", "weighted", "n2"])
def test_half_basis_output_reads_back_the_mirror_of_the_half(inst):
    beta, gamma = np.array([0.4, -0.3, 0.9]), np.array([0.2, 0.7, -0.5])
    compiled = CompiledProblem("qubo", inst)
    amplitudes = explicit_mirror(compiled.evolve(beta, gamma) * math.sqrt(0.5))
    probabilities = np.abs(amplitudes)
    probabilities *= probabilities
    costs = explicit_mirror(compiled.costs)
    levels = np.unique(costs)
    # the least cost by default, then given, then a level above it, which
    # takes in more states whose order counts in the sum
    for optimal_cost in (None, float(levels[0]), float(levels[-1 if levels.size < 2 else 1])):
        dist = compiled.simulate(beta, gamma, optimal_cost)
        threshold = (levels[0] if optimal_cost is None else optimal_cost) + 1e-9
        assert dist.p_star == float(probabilities[costs <= threshold].sum())
        assert (dist.basis, dist.num_qubits) == ("full", inst.num_nodes)
        assert dist.amplitudes.tobytes() == amplitudes.tobytes()
        assert dist.probabilities.tobytes() == probabilities.tobytes()
        assert dist.costs.tobytes() == costs.tobytes()
        scale = max(1.0, float(np.abs(costs).max()))
        assert abs(dist.expected_cost() - float(probabilities @ costs)) <= 1e-12 * scale
        assert abs(dist.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("shape", ("planar", "circular"))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_onehot_qubo_tour_table_matches_the_brute_force_decoder(k, shape, seed):
    inst = (gen_tsp_planar(k + 1, seed=seed) if shape == "planar"
            else gen_tsp_circular(k + 1, 0.3, seed=seed))
    compiled = CompiledProblem("qubo", inst)
    lengths, feasible = reference_onehot_decode(inst)
    assert compiled.lengths.dtype == lengths.dtype and compiled.feasible.dtype == bool
    assert compiled.lengths.tobytes() == lengths.tobytes()  # NaN pattern included
    assert compiled.feasible.tobytes() == feasible.tobytes()


@pytest.mark.parametrize("k", (2, 3, 4))
def test_onehot_qubo_tour_output_scatters_its_tours_only_when_read(k):
    # the compile and the run keep lengths and feasibility on the k**k
    # one-hot states; read from the output, they are the 2**(k*k) arrays
    # of the brute-force decoder, and so are the metrics that read them
    inst = gen_tsp_planar(k + 1, seed=k)
    compiled = CompiledProblem("qubo", inst)
    dist = compiled.simulate([0.4, -0.3], [0.7, 0.2])
    assert not {"lengths", "feasible"} & (vars(compiled).keys() | vars(dist).keys())
    lengths, feasible = reference_onehot_decode(inst)
    full = OutputDistribution(basis="full", probabilities=dist.probabilities,
                              amplitudes=dist.amplitudes, costs=dist.costs, p_star=dist.p_star,
                              num_qubits=k * k, k=k, feasible=feasible, lengths=lengths)
    l_star = lengths[feasible].min()
    assert dist.p_star == float(dist.probabilities[feasible & (lengths <= l_star + 1e-9)].sum())
    ctx = MetricContext(l_star=l_star, l_worst=lengths[feasible].max())
    assert feasibility_ratio(dist) == feasibility_ratio(full)
    assert tsp_combined_error(dist, ctx) == tsp_combined_error(full, ctx)
    assert dist.lengths.tobytes() == lengths.tobytes()  # NaN pattern included
    assert dist.feasible.tobytes() == feasible.tobytes()
    assert dist.lengths is dist.lengths  # scattered once


def test_onehot_qubo_tour_output_and_its_compile_share_one_scatter():
    inst = gen_tsp_planar(4, seed=3)
    compiled = CompiledProblem("qubo", inst)
    dist = compiled.simulate([0.4, -0.3], [0.7, 0.2])
    assert dist.lengths is compiled.lengths
    assert dist.feasible is compiled.feasible
    assert compiled.simulate([0.1], [0.2]).lengths is dist.lengths  # a second run scatters none


def test_repr_and_equality_of_an_output_read_no_field():
    # the dataclass's own repr and == read every field: they built the
    # full-basis arrays, and == of two outputs raised "The truth value of an
    # array with more than one element is ambiguous"
    compiled = CompiledProblem("qubo", gen_tsp_planar(4, seed=3))
    half = CompiledProblem("qubo", gen_regular(10, 3, seed=0))
    outputs = [compiled.simulate([0.4, -0.3], [0.7, 0.2]),
               half.simulate([0.3], [0.5]), half.simulate([0.3], [0.5])]
    holders = [compiled, half, *outputs]
    before = [set(vars(holder)) for holder in holders]
    for output in outputs:
        assert repr(output).startswith("<optbench.qaoa._CircuitOutput object at ")
        assert output == output
    assert outputs[1] != outputs[2] and not outputs[1] == outputs[2]
    assert [set(vars(holder)) for holder in holders] == before
    plain = [OutputDistribution("full", np.ones(2), np.ones(2), np.zeros(2), p_star=1.0)
             for _ in range(2)]
    assert plain[0] == plain[0] and plain[0] != plain[1]


def test_onehot_qubo_tour_compile_never_enumerates_the_full_basis_digits(monkeypatch):
    # the tour tables come from per-slot vectors of the k one-hot digits,
    # never from the 2**(k*k) basis's k*k bits
    bases = []
    slot_values = qaoa._slot_values
    monkeypatch.setattr(qaoa, "_slot_values",
                        lambda k, base: bases.append((k, base)) or slot_values(k, base))
    for k in (2, 3, 4):
        CompiledProblem("qubo", gen_tsp_planar(k + 1, seed=k))
    assert {k for k, _ in bases} == {2, 3, 4}
    assert all(base == k for k, base in bases)


# ----------------------------------------------------------------------
# Layer ledger and layer-denominated time to solution
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_layer_ledger_tsp_cells(k):
    log_k = math.ceil(math.log2(k))
    qubo = layer_ledger("qubo", k, depth=2)
    assert (qubo.cost_layers_per_round, qubo.qubit_count) == (8 * k, k * k)
    assert qubo.state_prep_layers == 0 and qubo.mixer_layers_per_round == 0
    hobo = layer_ledger("hobo", k, depth=2)
    assert (hobo.cost_layers_per_round, hobo.qubit_count) == (2 * k ** 3, k * log_k)
    xy = layer_ledger("xy", k, depth=2)
    assert xy.cost_layers_per_round == 6 * k
    assert xy.qubit_count == k * k
    assert xy.state_prep_layers == 4 * log_k
    assert xy.mixer_layers_per_round == (12 if k % 2 else 8)
    perm = layer_ledger("perm", k, depth=2)
    assert perm.cost_layers_per_round == 4 * k
    assert perm.qubit_count == k * k
    with pytest.raises(LayerCountUnavailable):
        perm.total_layers


def test_layer_ledger_known_cells():
    xy4 = layer_ledger("xy", 4, depth=1)
    assert (xy4.state_prep_layers, xy4.cost_layers_per_round,
            xy4.mixer_layers_per_round, xy4.qubit_count) == (8, 24, 8, 16)
    hobo5 = layer_ledger("hobo", 5, depth=1)
    assert (hobo5.qubit_count, hobo5.cost_layers_per_round) == (15, 250)


def test_layer_ledger_total_composition():
    ledger = layer_ledger("xy", 4, depth=3)
    assert ledger.total_layers == 8 + 3 * (24 + 8)


def test_layer_ledger_maxcut_single_edge():
    inst = MaxCutInstance(2, ((0, 1, 1.0),))
    ledger = layer_ledger("maxcut", inst, depth=1)
    assert ledger.cost_layers_per_round == 2
    assert ledger.mixer_layers_per_round == 0
    assert ledger.total_layers == 2


def test_layer_ledger_maxcut_uses_edge_coloring():
    inst = gen_regular(10, 3, seed=1)
    ledger = layer_ledger("maxcut", inst, depth=2)
    assert ledger.cost_layers_per_round in (6, 8)  # 3 or 4 color classes
    assert ledger.qubit_count == 10


def test_tts_layers_edge_cases():
    inst = gen_tsp_circular(4, 0.5, seed=1)
    dist = qaoa_tsp_simulate(inst, "xy", [0.1], [0.1])
    ledger = layer_ledger("xy", 3, depth=1)
    total = ledger.total_layers
    dist.p_star = 1.0
    assert tts_layers(dist, ledger) == total
    dist.p_star = 0.0
    assert tts_layers(dist, ledger) == math.inf
    dist.p_star = 0.5
    assert math.ceil(math.log(0.01) / math.log(0.5)) == 7
    assert tts_layers(dist, ledger) == total * 7


def test_compiled_problem_dispatch():
    inst = gen_tsp_circular(4, 0.5, seed=2)
    compiled = CompiledProblem("xy", inst)
    dist = compiled.simulate([0.1, 0.2], [0.3, 0.4])
    assert dist.basis == "onehot"
    with pytest.raises(ValueError):
        compiled.simulate([0.1], [0.3, 0.4])


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("angle", ("beta", "gamma"))
def test_non_finite_angles_are_rejected(angle, bad):
    # a NaN or infinite angle once ran to p* = nan and norm nan without an error
    beta, gamma = [0.2, 0.3], [0.1, 0.4]
    (beta if angle == "beta" else gamma)[1] = bad
    with pytest.raises(ValueError, match="finite"):
        qaoa_qubo_simulate(gen_regular(8, 3, 0), beta, gamma)
    tour = CompiledProblem("xy", gen_tsp_planar(4, 0))
    with pytest.raises(ValueError, match="finite"):
        tour.simulate(beta, gamma)
    with pytest.raises(ValueError, match="finite"):
        tour.gap(beta, gamma, gradient=True)


# 5, 11, 16 and 19 stored qubits run the transverse mixer as 1, 2, 3 and 4 blocks
@pytest.mark.parametrize("n", (5, 11, 16, 19))
@pytest.mark.parametrize("half", (False, True), ids=["full", "half"])
def test_rotating_transverse_blocks_gradients_match_central_differences(n, half):
    inst = gen_erdos_renyi(n + half, 0.4, seed=n, weights="uniform")
    compiled = (CompiledProblem("qubo", inst) if half
                else compile_full_basis(maxcut_qubo(inst)))
    assert compiled.costs.size == 1 << n
    rng = make_rng(n)
    beta, gamma = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    _, d_beta, d_gamma = compiled.gap(beta, gamma, gradient=True)
    fd_beta, fd_gamma = central_differences(compiled, beta, gamma)
    assert np.abs(d_beta - fd_beta).max() < 1e-6
    assert np.abs(d_gamma - fd_gamma).max() < 1e-6


# ----------------------------------------------------------------------
# Metamorphic check: relabelling a graph's nodes leaves the circuit unchanged
# ----------------------------------------------------------------------

def relabelled(inst: MaxCutInstance, rng) -> MaxCutInstance:
    """``inst`` with its nodes renamed by a random permutation drawn from ``rng``."""
    name = rng.permutation(inst.num_nodes)
    edges = ((int(min(name[u], name[v])), int(max(name[u], name[v])), w)
             for u, v, w in inst.edges)
    return MaxCutInstance(inst.num_nodes, tuple(sorted(edges)))


def assert_relabelling_invariant(inst: MaxCutInstance, seed: int, p: int, weights: str) -> None:
    # The cost, the start and the mixer commute with a permutation of the
    # qubits (arXiv:2012.04713), so c*, p* and the expected cost stay; the
    # cost table is permuted, and only its summation order changes.
    rng = make_rng(seed)
    ours, theirs = CompiledProblem("qubo", inst), CompiledProblem("qubo", relabelled(inst, rng))
    if weights == "unit":
        assert ours.costs.min() == theirs.costs.min()
    else:
        assert theirs.costs.min() == pytest.approx(ours.costs.min(), rel=1e-12, abs=0.0)
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    dist, relabelled_dist = ours.simulate(beta, gamma), theirs.simulate(beta, gamma)
    assert relabelled_dist.p_star == pytest.approx(dist.p_star, abs=1e-12)
    assert relabelled_dist.expected_cost() == pytest.approx(dist.expected_cost(), abs=1e-12)


@given(n=st.integers(2, 16), density=st.sampled_from((0.3, 0.6, 1.0)),
       weights=st.sampled_from(("unit", "uniform")), p=st.integers(1, 3),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_relabelling_nodes_leaves_c_star_p_star_and_expected_cost(n, density, weights, p, seed):
    assert_relabelling_invariant(gen_erdos_renyi(n, density, seed, weights=weights), seed, p,
                                 weights)


@pytest.mark.parametrize("weights", ("unit", "uniform"))
def test_relabelling_invariance_at_22_nodes(weights):
    # 2**21 stored states: a size the reference loops do not reach
    assert_relabelling_invariant(gen_erdos_renyi(22, 0.3, 5, weights=weights), 5, 2, weights)


# ----------------------------------------------------------------------
# Metamorphic checks on tours: renaming the non-depot locations and
# reversing a tour
# ----------------------------------------------------------------------

def relabelled_tour(inst, rng):
    """``inst`` with locations 1..k renamed by a random permutation drawn from ``rng``."""
    name = np.concatenate([[0], 1 + rng.permutation(inst.k)])
    distances = np.empty_like(inst.distances)
    distances[np.ix_(name, name)] = inst.distances
    return type(inst)(distances=distances)


def tour_instance(k: int, shape: str, seed: int):
    return (gen_tsp_planar(k + 1, seed=seed) if shape == "planar"
            else gen_tsp_circular(k + 1, 0.3, seed=seed))


@given(k=st.integers(2, 5), shape=st.sampled_from(("planar", "circular")),
       p=st.integers(1, 3), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_relabelling_locations_leaves_l_star_and_the_mixer_symmetric_p_star(k, shape, p, seed):
    # l* in every encoding; p* where the mixer commutes with the renaming:
    # the transverse mixer of the one-hot QUBO and the projector mixer
    inst = tour_instance(k, shape, seed)
    rng = make_rng(seed)
    other = relabelled_tour(inst, rng)
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    for kind in ("qubo", "hobo", "xy", "perm"):
        if kind == "qubo" and k > 4:
            continue
        ours, theirs = CompiledProblem(kind, inst), CompiledProblem(kind, other)
        l_star = ours.lengths[ours.feasible].min()
        assert theirs.lengths[theirs.feasible].min() == pytest.approx(l_star, abs=1e-12)
        if kind in ("qubo", "perm"):
            p_star = ours.simulate(beta, gamma).p_star
            assert theirs.simulate(beta, gamma).p_star == pytest.approx(p_star, abs=1e-12)


@given(k=st.integers(2, 5), shape=st.sampled_from(("planar", "circular")),
       seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_a_tour_and_its_reverse_have_one_walk_length(k, shape, seed):
    # in the perm and xy tables, each built from the slots' own vectors
    inst = tour_instance(k, shape, seed)
    tours = tour_permutations(k).tolist()
    perm, xy = CompiledProblem("perm", inst), CompiledProblem("xy", inst)
    reverse = [tours.index(tour[::-1]) for tour in tours]
    assert np.abs(perm.lengths - perm.lengths[reverse]).max() <= 1e-12
    states = [onehot_state_index(tour, k) for tour in tours]
    backward = [onehot_state_index(tour[::-1], k) for tour in tours]
    assert np.abs(xy.lengths[states] - xy.lengths[backward]).max() <= 1e-12
    assert xy.lengths[states].tobytes() == perm.lengths.tobytes()


# ----------------------------------------------------------------------
# Metamorphic checks on polynomials and weights: a constant shift and a
# power-of-two weight scale
# ----------------------------------------------------------------------

def shifted(poly: BinaryPolynomial, shift: float) -> BinaryPolynomial:
    """``poly`` plus the constant ``shift``."""
    return BinaryPolynomial(poly.num_vars, {**poly.terms, (): poly.constant + shift})


@given(case=st.sampled_from(("integer", "real", "cut", "tour")), n=st.integers(1, 10),
       shift=st.one_of(st.integers(-40, 40).map(float), st.floats(-40.0, 40.0)),
       p=st.integers(1, 3), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_adding_a_constant_leaves_p_star(case, n, shift, p, seed):
    # The constant multiplies the state by a global phase each round.  A
    # tour QUBO's least-cost states are its optimal tours, so its circuit
    # compiled as a tour, phase by doubling, gives the p* of its polynomial
    # compiled as one, shifted or not, phase through the level index.
    rng = make_rng(seed)
    if case == "tour":
        inst = gen_tsp_planar(3 + n % 3, seed=seed)  # k = 2..4
        poly = tsp_onehot_qubo(inst)
    elif case == "cut":
        poly = maxcut_qubo(gen_erdos_renyi(n + 1, 0.5, seed))
    else:
        terms = {(int(i), int(j)): rng.normal() for i, j in rng.integers(0, n, (2 * n, 2))}
        terms.update({(int(i),): rng.normal() for i in rng.integers(0, n, n)})
        poly = BinaryPolynomial(n, {term: float(round(c * 3)) if case == "integer" else c
                                    for term, c in terms.items()})
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    p_star = CompiledProblem("qubo", poly).simulate(beta, gamma).p_star
    moved = CompiledProblem("qubo", shifted(poly, shift)).simulate(beta, gamma).p_star
    assert moved == pytest.approx(p_star, abs=1e-12)
    if case == "tour":
        tour = CompiledProblem("qubo", inst)
        assert tour._quadratic is not None
        assert tour.simulate(beta, gamma).p_star == pytest.approx(p_star, abs=1e-12)


@given(n=st.integers(2, 14), density=st.sampled_from((0.3, 0.6, 1.0)),
       weights=st.sampled_from(("unit", "uniform")), j=st.integers(-4, 8),
       p=st.integers(1, 3), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_scaling_every_weight_by_a_power_of_two_scales_every_cost(n, density, weights, j, p,
                                                                   seed):
    # Every sum in the cost table scales exactly by 2**j, and gamma / 2**j
    # times the scaled cost is gamma times the cost, so p* stays.
    inst = gen_erdos_renyi(n, density, seed, weights=weights)
    scale = 2.0 ** j
    scaled = MaxCutInstance(n, tuple((u, v, w * scale) for u, v, w in inst.edges))
    ours, theirs = CompiledProblem("qubo", inst), CompiledProblem("qubo", scaled)
    assert theirs.half == ours.half
    assert theirs.costs.tobytes() == (ours.costs * scale).tobytes()
    rng = make_rng(seed)
    beta, gamma = rng.uniform(-1, 1, p), rng.uniform(-1, 1, p)
    p_star = ours.simulate(beta, gamma).p_star
    assert theirs.simulate(beta, gamma / scale).p_star == pytest.approx(p_star, abs=1e-12)


# ----------------------------------------------------------------------
# Metamorphic check: renaming a polynomial's variables leaves the
# flip-symmetric predicate, and so the half-basis rule, unchanged
# ----------------------------------------------------------------------

def relabelled_polynomial(poly: BinaryPolynomial, rng) -> BinaryPolynomial:
    """``poly`` with its variables renamed by a random permutation drawn from ``rng``."""
    name = rng.permutation(poly.num_vars)
    return BinaryPolynomial(poly.num_vars, {tuple(int(name[i]) for i in term): coeff
                                            for term, coeff in poly.terms.items()})


@given(case=st.sampled_from(("unit", "uniform", "tour")), field=st.booleans(),
       n=st.integers(2, 12), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_relabelling_variables_leaves_the_flip_symmetric_predicate(case, field, n, seed):
    # Each variable's sum of coefficients moves to its new name unchanged, and
    # math.fsum makes the sum independent of the order of its parts.
    rng = make_rng(seed)
    if case == "tour":
        poly = tsp_onehot_qubo(gen_tsp_planar(3 + n % 3, seed=seed))  # k = 2..4
    else:
        poly = maxcut_qubo(gen_erdos_renyi(n, 0.5, seed, weights=case))
    if field:  # a 1e-6 field on one variable
        var = (int(rng.integers(poly.num_vars)),)
        poly = BinaryPolynomial(poly.num_vars, {**poly.terms, var: poly.terms.get(var, 0.0) + 1e-6})
    symmetric = qaoa._flip_symmetric(poly)
    if case != "tour":  # a cut polynomial is flip-symmetric, and a field breaks that
        assert symmetric is not field
    assert qaoa._flip_symmetric(relabelled_polynomial(poly, rng)) is symmetric
