import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    BinaryPolynomial,
    DegreeError,
    DimensionError,
    SampleSet,
    SizeCapError,
    Timing,
    maxcut_qubo,
    merge,
)
from optbench.instances import make_rng

from conftest import brute_force_cut


def triangle_poly():
    from optbench import MaxCutInstance

    return maxcut_qubo(MaxCutInstance(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))))


# ----------------------------------------------------------------------
# Construction and evaluation
# ----------------------------------------------------------------------

def test_evaluate_all_zero_annihilates_nonconstant_terms():
    poly = BinaryPolynomial(2, {(0, 1): 2, (0,): -1, (1,): -1})
    assert poly.evaluate("00") == 0.0


def test_evaluate_direct_substitution():
    poly = BinaryPolynomial(2, {(0, 1): 2, (0,): -1, (1,): -1})
    assert poly.evaluate("01") == -1.0


def test_evaluate_triangle_matches_cut_enumeration(triangle):
    poly = maxcut_qubo(triangle)
    for bits in itertools.product("01", repeat=3):
        x = "".join(bits)
        cut = sum(w for u, v, w in triangle.edges if x[u] != x[v])
        assert poly.evaluate(x) == pytest.approx(-cut, abs=1e-12)
    assert poly.evaluate("011") == -2.0


def test_evaluate_length_mismatch():
    poly = BinaryPolynomial(3, {(0,): 1.0})
    with pytest.raises(DimensionError):
        poly.evaluate("01")


def test_multilinear_reduction_and_zero_drop():
    poly = BinaryPolynomial(2, {(0, 0): 3.0, (1, 1, 1): 2.0, (0, 1): 0.0})
    assert poly.terms == {(0,): 3.0, (1,): 2.0}
    assert poly.degree == 1


def test_duplicate_keys_accumulate():
    poly = BinaryPolynomial(2, {(0, 1): 1.0, (1, 0): 2.0})
    assert poly.terms == {(0, 1): 3.0}


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        BinaryPolynomial(2, {(2,): 1.0})


# ----------------------------------------------------------------------
# Spin conversion
# ----------------------------------------------------------------------

def test_to_ising_zero_polynomial():
    ising = BinaryPolynomial(3).to_ising()
    assert np.all(ising.linear == 0.0)
    assert ising.quadratic == {}
    assert ising.offset == 0.0


def test_to_ising_single_quadratic_term():
    ising = BinaryPolynomial(2, {(0, 1): 4.0}).to_ising()
    assert ising.quadratic == {(0, 1): 1.0}
    assert ising.linear.tolist() == [-1.0, -1.0]
    assert ising.offset == 1.0


def test_to_ising_single_cut_edge():
    poly = BinaryPolynomial(2, {(0, 1): 2.0, (0,): -1.0, (1,): -1.0})
    ising = poly.to_ising()
    assert ising.quadratic == {(0, 1): 0.5}
    assert np.all(ising.linear == 0.0)
    assert ising.offset == -0.5


def test_to_ising_degree_cap():
    with pytest.raises(DegreeError):
        BinaryPolynomial(3, {(0, 1, 2): 1.0}).to_ising()


def random_poly(rng, n, num_terms):
    terms = {}
    for _ in range(num_terms):
        size = min(int(rng.integers(0, 3)), n)
        key = tuple(rng.choice(n, size=size, replace=False)) if size else ()
        terms[key] = terms.get(key, 0.0) + float(rng.normal())
    return BinaryPolynomial(n, terms)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_qubo_ising_equivalence_exhaustive(seed, n):
    rng = make_rng(seed)
    poly = random_poly(rng, n, num_terms=2 * n)
    ising = poly.to_ising()
    for index in range(1 << n):
        x = "".join("1" if (index >> i) & 1 else "0" for i in range(n))
        assert abs(poly.evaluate(x) - ising.energy_of_bits(x)) <= 1e-9


def test_ising_roundtrip_to_polynomial():
    rng = make_rng(7)
    poly = random_poly(rng, 5, 8)
    back = poly.to_ising().to_polynomial()
    for index in range(1 << 5):
        x = "".join("1" if (index >> i) & 1 else "0" for i in range(5))
        assert poly.evaluate(x) == pytest.approx(back.evaluate(x), abs=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_evaluate_permutation_consistency(seed):
    rng = make_rng(seed)
    n = 6
    poly = random_poly(rng, n, 10)
    perm = rng.permutation(n)
    relabeled = BinaryPolynomial(
        n, {tuple(perm[i] for i in term): c for term, c in poly.terms.items()}
    )
    x = "".join(str(int(b)) for b in rng.integers(0, 2, n))
    permuted_x = ["0"] * n
    for i, char in enumerate(x):
        permuted_x[perm[i]] = char
    assert poly.evaluate(x) == pytest.approx(relabeled.evaluate("".join(permuted_x)))


# ----------------------------------------------------------------------
# Exhaustive argmin
# ----------------------------------------------------------------------

def test_argmin_constant_polynomial_tie_break():
    poly = BinaryPolynomial(4, {(): 2.5})
    x, cost = poly.argmin_exhaustive()
    assert x == "0000"
    assert cost == 2.5


def test_argmin_triangle(triangle):
    x, cost = maxcut_qubo(triangle).argmin_exhaustive()
    assert cost == -2.0
    oracle_x, oracle_cut = brute_force_cut(triangle)
    assert cost == -oracle_cut


def test_argmin_four_cycle_cuts_all_edges(four_cycle):
    _, cost = maxcut_qubo(four_cycle).argmin_exhaustive()
    assert cost == -4.0


def test_argmin_cap():
    with pytest.raises(SizeCapError):
        BinaryPolynomial(10, {(0,): 1.0}).argmin_exhaustive(cap=9)


def test_argmin_dominates_random_assignments():
    rng = make_rng(11)
    poly = random_poly(rng, 10, 25)
    _, best = poly.argmin_exhaustive()
    for _ in range(1000):
        x = "".join(str(int(b)) for b in rng.integers(0, 2, 10))
        assert best <= poly.evaluate(x) + 1e-12


def test_argmin_lexicographic_tie_break_prefers_low_variables():
    # Both '10' and '01' cost -1; '01' is lexicographically smaller.
    poly = BinaryPolynomial(2, {(0,): -1.0, (1,): -1.0, (0, 1): 1.0})
    x, cost = poly.argmin_exhaustive()
    assert (x, cost) == ("01", -1.0)


def test_cost_vector_matches_evaluate():
    rng = make_rng(3)
    poly = random_poly(rng, 6, 12)
    costs = poly.cost_vector()
    for index in range(1 << 6):
        x = "".join("1" if (index >> i) & 1 else "0" for i in range(6))
        assert costs[index] == pytest.approx(poly.evaluate(x), abs=1e-12)


@pytest.mark.parametrize("start, stop", ((6, 12), (-2, 3), (5, 2)),
                         ids=("past-the-last-state", "negative-start", "stop-before-start"))
@pytest.mark.parametrize("constant", (0.5, 1.0), ids=("term-path", "doubling"))
def test_cost_vector_rejects_ranges_outside_the_states(start, stop, constant):
    poly = BinaryPolynomial(3, {(0,): 1.0, (0, 2): 2.0, (): constant})
    with pytest.raises(ValueError, match="0 <= start <= stop <= 8"):
        poly.cost_vector(start, stop)
    assert poly.cost_vector(8, 8).size == 0 and poly.cost_vector(0, 8).size == 8


# ----------------------------------------------------------------------
# Sample sets and merging
# ----------------------------------------------------------------------

def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(2, samples={"01": 0}, costs={"01": 1.0})
    with pytest.raises(DimensionError):
        SampleSet(2, samples={"011": 1}, costs={"011": 1.0})
    with pytest.raises(ValueError):
        SampleSet(2, samples={"01": 1}, costs={})
    with pytest.raises(ValueError):
        Timing(solve=-1.0)


def test_merge_with_empty_is_identity():
    a = SampleSet.from_draws(2, [("01", -1.0), ("01", -1.0), ("11", 0.0)],
                             timing=Timing(0.1, 0.3, 0.05))
    merged = merge(a, SampleSet.empty(2))
    assert merged.samples == a.samples
    assert merged.costs == a.costs
    assert merged.timing == a.timing


def test_merge_adds_counts():
    a = SampleSet.from_draws(2, [("10", 2.0)])
    b = SampleSet.from_draws(2, [("10", 2.0)])
    merged = merge(a, b)
    assert merged.samples == {"10": 2}
    assert merged.total_draws == 2


def test_merge_timing_semantics():
    a = SampleSet.from_draws(1, [("0", 0.0)], timing=Timing(0.2, 0.3, 0.01))
    b = SampleSet.from_draws(1, [("1", 1.0)], timing=Timing(0.9, 0.4, 0.02))
    merged = merge(a, b)
    assert merged.timing.solve == pytest.approx(0.7)
    assert merged.timing.preprocess == pytest.approx(1.1)
    assert merged.timing.postprocess == pytest.approx(0.03)


def test_merge_dimension_mismatch():
    with pytest.raises(DimensionError):
        merge(SampleSet.empty(2), SampleSet.empty(3))


def test_merge_cost_mismatch_rejected():
    a = SampleSet.from_draws(1, [("1", 1.0)])
    b = SampleSet.from_draws(1, [("1", 2.0)])
    with pytest.raises(ValueError):
        merge(a, b)


def _pooled_sets():
    """Four sets of one model: repeated and new bitstrings, clashing info keys."""
    return [
        SampleSet.from_draws(2, [("01", -1.0), ("11", 0.0)], timing=Timing(0.5, 0.25, 0.125),
                             info={"solver": "a", "x": 1}),
        SampleSet.from_draws(2, [("10", -1.0), ("01", -1.0), ("01", -1.0)],
                             timing=Timing(0.25, 1.0, 0.0), info={"y": 2, "solver": "b"}),
        SampleSet.from_draws(2, [("00", 0.0), ("10", -1.0)], timing=Timing(2.0, 0.5, 0.375),
                             info={"z": 3, "x": 4}),
        SampleSet.empty(2),
    ]


@pytest.mark.parametrize("count", [3, 4])
def test_merge_of_many_sets_equals_pairwise_merges(count):
    sets = _pooled_sets()[:count]
    pooled = merge(*sets)
    pairwise = sets[0]
    for sample in sets[1:]:
        pairwise = merge(pairwise, sample)
    for field in ("samples", "costs", "info"):
        assert list(getattr(pooled, field).items()) == list(getattr(pairwise, field).items())
    assert pooled.timing == pairwise.timing
    assert list(pooled.samples.items()) == [("01", 3), ("11", 1), ("10", 2), ("00", 1)]
    assert list(pooled.info.items()) == [("z", 3), ("x", 1), ("y", 2), ("solver", "a")]
    assert pooled.timing == Timing(2.75, 1.75, 0.5)  # every set's phases, preprocess too


@pytest.mark.parametrize("last, error", [
    (SampleSet.empty(3), DimensionError),
    (SampleSet.from_draws(2, [("11", 5.0)]), ValueError),
], ids=["dimension", "cost"])
def test_merge_checks_every_set(last, error):
    with pytest.raises(error):
        merge(*_pooled_sets()[:2], last)


def test_best_and_expected_cost():
    s = SampleSet.from_draws(2, [("00", 0.0), ("01", -1.0), ("01", -1.0), ("10", -1.0)])
    assert s.best() == ("01", -1.0)  # cost tie broken by bitstring
    assert s.expected_cost() == pytest.approx(-0.75)
