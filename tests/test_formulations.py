import itertools
import math

import numpy as np
import pytest

from optbench import (
    cut_weight,
    gen_erdos_renyi,
    maxcut_qubo,
    tour_length,
    tsp_default_penalties,
    tsp_onehot_qubo,
)
from optbench.formulations import (
    decode_hobo,
    decode_onehot,
    encode_hobo,
    encode_onehot,
    hobo_bits_per_slot,
    hobo_cost,
    hobo_feasible,
    hobo_violations,
    onehot_basis_index,
    onehot_feasible,
)
from optbench.model import index_to_bitstring

from conftest import brute_force_tours


def test_maxcut_qubo_is_negated_cut_on_random_bipartitions():
    rng = np.random.default_rng(0)
    inst = gen_erdos_renyi(10, 0.5, seed=4, weights="uniform")
    poly = maxcut_qubo(inst)
    for _ in range(200):
        x = "".join(str(b) for b in rng.integers(0, 2, 10))
        assert poly.evaluate(x) == pytest.approx(-cut_weight(inst, x), abs=1e-9)


def test_penalty_defaults_follow_distance_scale(unit_square):
    a, b = tsp_default_penalties(unit_square)
    assert b == 1.0
    assert a == pytest.approx(1.0 / (1.0 + unit_square.max_distance()))
    assert b > a * unit_square.max_distance()


def test_tour_length_square(unit_square):
    # perimeter = 4 * sqrt(2); a crossing tour picks up two diameters
    assert tour_length(unit_square, (1, 2, 3)) == pytest.approx(4 * math.sqrt(2))
    assert tour_length(unit_square, (2, 1, 3)) == pytest.approx(4 + 2 * math.sqrt(2))


def test_onehot_qubo_feasible_states_cost_scaled_length(unit_square):
    poly = tsp_onehot_qubo(unit_square)
    a, _ = tsp_default_penalties(unit_square)
    for perm, length in brute_force_tours(unit_square).items():
        x = encode_onehot(perm, 3)
        assert poly.evaluate(x) == pytest.approx(a * length, abs=1e-9)
        assert onehot_feasible(x, 3)


def test_onehot_qubo_penalizes_violations(unit_square):
    poly = tsp_onehot_qubo(unit_square)
    _, b = tsp_default_penalties(unit_square)
    empty = "0" * 9
    # every slot and every location constraint violated once
    assert poly.evaluate(empty) == pytest.approx(2 * 3 * b)
    assert not onehot_feasible(empty, 3)
    repeated = encode_onehot((1, 1, 2), 3)  # location 1 twice, location 3 unused
    a, _ = tsp_default_penalties(unit_square)
    expected = a * tour_length(unit_square, (1, 1, 2)) + b * (1 + 1)
    assert poly.evaluate(repeated) == pytest.approx(expected, abs=1e-9)


def test_onehot_qubo_global_minimum_is_optimal_tour(unit_square):
    poly = tsp_onehot_qubo(unit_square)
    a, _ = tsp_default_penalties(unit_square)
    _, cost = poly.argmin_exhaustive(cap=9)
    best_length = min(brute_force_tours(unit_square).values())
    assert cost == pytest.approx(a * best_length, abs=1e-9)


def test_onehot_decode_encode_roundtrip():
    k = 4
    for perm in itertools.permutations(range(1, k + 1)):
        assert decode_onehot(encode_onehot(perm, k), k) == perm


def test_onehot_decode_rejects_non_onehot_blocks():
    assert decode_onehot("110" + "010" + "001", 3) is None
    assert decode_onehot("000" + "010" + "001", 3) is None


def test_onehot_basis_index_is_the_layout_of_encode_onehot():
    for k in (2, 3, 4):
        sequences = list(itertools.product(range(1, k + 1), repeat=k))
        for seq in sequences:
            assert index_to_bitstring(onehot_basis_index(seq, k), k * k) == encode_onehot(seq, k)
        # slot t's locations on axis k - 1 - t broadcast to every sequence at once,
        # the first slot varying fastest
        slots = [np.arange(1, k + 1).reshape(k, *(1,) * t) for t in range(k)]
        flat = onehot_basis_index(slots, k).reshape(-1)
        assert flat.tolist() == [onehot_basis_index(seq[::-1], k) for seq in sequences]


def test_decoders_read_each_slot_block():
    for k in (2, 3, 4):
        m = hobo_bits_per_slot(k)
        for width, decode in ((k, decode_onehot), (m, decode_hobo)):
            n = k * width
            for index in range(1 << n):
                x = index_to_bitstring(index, n)
                blocks = [x[slot * width:(slot + 1) * width] for slot in range(k)]
                if decode is decode_hobo:
                    expected = tuple(int(block[::-1], 2) for block in blocks)
                elif all(block.count("1") == 1 for block in blocks):
                    expected = tuple(block.index("1") + 1 for block in blocks)
                else:
                    expected = None
                assert decode(x, k) == expected
                assert decode(np.array(list(x), dtype=int), k) == expected


@pytest.mark.parametrize("encode", [encode_onehot, encode_hobo])
@pytest.mark.parametrize("sequence", [(0, 1, 2), (5, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 1)])
def test_tour_encoders_reject_anything_but_k_locations_in_one_to_k(encode, sequence):
    # encode_onehot((0, 1, 2), 3) gave 000100011, with an empty first block, and
    # encode_hobo((5, 1, 2), 3) decoded to (0, 0, 1)
    with pytest.raises(ValueError, match=r"k = 3 locations in 1\.\.3"):
        encode(sequence, 3)


def test_hobo_bits_and_roundtrip():
    assert hobo_bits_per_slot(2) == 1
    assert hobo_bits_per_slot(4) == 2
    assert hobo_bits_per_slot(5) == 3
    k = 5
    for perm in itertools.islice(itertools.permutations(range(1, k + 1)), 20):
        values = decode_hobo(encode_hobo(perm, k), k)
        assert tuple(v + 1 for v in values) == perm


def test_hobo_violation_counting():
    # k = 3, 2 bits per slot: value 3 is out of range and wraps to location 1
    assert hobo_violations((3, 0, 1), 3) == (1, 1)  # slots 0 and 1 collide
    assert hobo_violations((3, 0, 0), 3) == (1, 3)  # all three collide pairwise
    assert hobo_violations((0, 1, 2), 3) == (0, 0)


def test_hobo_power_of_two_has_no_range_violations():
    k = 4
    m = hobo_bits_per_slot(k)
    for index in range(1 << (k * m)):
        x = "".join("1" if (index >> i) & 1 else "0" for i in range(k * m))
        r, _ = hobo_violations(decode_hobo(x, k), k)
        assert r == 0


def test_hobo_cost_matches_decomposition(unit_square):
    a, b = tsp_default_penalties(unit_square)
    x = encode_hobo((1, 2, 3), 3)
    assert hobo_feasible(x, 3)
    assert hobo_cost(unit_square, x) == pytest.approx(
        a * tour_length(unit_square, (1, 2, 3)), abs=1e-9
    )
    # slot value 3 wraps to location 1
    bad = "11" + "00" + "01"  # values (3, 0, 2) -> locations (1, 1, 3)
    r, p = hobo_violations((3, 0, 2), 3)
    assert (r, p) == (1, 1)
    expected = a * tour_length(unit_square, (1, 1, 3)) + b * 2
    assert hobo_cost(unit_square, bad) == pytest.approx(expected, abs=1e-9)


def test_feasible_fraction_counts(unit_square):
    k = 3
    m = hobo_bits_per_slot(k)
    feasible = sum(
        hobo_feasible("".join("1" if (i >> j) & 1 else "0" for j in range(k * m)), k)
        for i in range(1 << (k * m))
    )
    assert feasible == math.factorial(k)
