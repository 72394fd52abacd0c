import math

import numpy as np
import pytest

from optbench import (
    MaxCutInstance,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_circular,
    gen_tsp_planar,
    nn_filter,
    read_edge_list,
    tsp_exhaustive,
)
from optbench.instances import ParseError, write_edge_list

from conftest import reference_erdos_renyi


# ----------------------------------------------------------------------
# Instance invariants
# ----------------------------------------------------------------------

def test_maxcut_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        MaxCutInstance(3, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        MaxCutInstance(3, ((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(ValueError):
        MaxCutInstance(1, ())
    with pytest.raises(ValueError):
        MaxCutInstance(3, ((1, 0, 1.0),))  # must be ordered u < v


# ----------------------------------------------------------------------
# Erdos-Renyi
# ----------------------------------------------------------------------

def test_erdos_renyi_density_one_is_complete():
    inst = gen_erdos_renyi(5, 1.0, seed=0)
    assert inst.num_edges == 10


def test_erdos_renyi_deterministic_per_seed():
    a = gen_erdos_renyi(10, 0.5, seed=123)
    b = gen_erdos_renyi(10, 0.5, seed=123)
    c = gen_erdos_renyi(10, 0.5, seed=124)
    assert a.edges == b.edges
    assert a.edges != c.edges


@pytest.mark.parametrize("weights", ["unit", "uniform"])
@pytest.mark.parametrize("density", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 3, 7, 20, 60])
def test_erdos_renyi_edges_equal_the_pair_list_draw(n, density, weights):
    for seed in range(5):
        inst = gen_erdos_renyi(n, density, seed=seed, weights=weights)
        reference = reference_erdos_renyi(n, density, seed, weights)
        assert inst.edges == reference.edges
        assert all(type(x) is t for edge in inst.edges for x, t in zip(edge, (int, int, float)))


def test_erdos_renyi_edge_count_within_binomial_band():
    # 190 candidate pairs at p = 0.25: mean 47.5, sigma ~ 5.97.
    inst = gen_erdos_renyi(20, 0.25, seed=99)
    sigma = math.sqrt(190 * 0.25 * 0.75)
    assert abs(inst.num_edges - 47.5) <= 4 * sigma


def test_erdos_renyi_density_bounds():
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 1.2, seed=0)


def test_erdos_renyi_uniform_weights():
    inst = gen_erdos_renyi(8, 1.0, seed=5, weights="uniform")
    ws = [w for _, _, w in inst.edges]
    assert all(0.0 <= w < 1.0 for w in ws)
    assert len(set(ws)) > 1


# ----------------------------------------------------------------------
# Regular graphs
# ----------------------------------------------------------------------

def test_regular_four_nodes_is_complete():
    inst = gen_regular(4, 3, seed=0)
    assert sorted((u, v) for u, v, _ in inst.edges) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_regular_degree_histogram():
    for seed in range(5):
        inst = gen_regular(10, 3, seed=seed)
        assert inst.degrees().tolist() == [3] * 10


def test_regular_parity_violation():
    with pytest.raises(ValueError):
        gen_regular(11, 3, seed=0)
    with pytest.raises(ValueError):
        gen_regular(3, 3, seed=0)


def test_regular_deterministic():
    assert gen_regular(12, 3, seed=7).edges == gen_regular(12, 3, seed=7).edges


# ----------------------------------------------------------------------
# TSP generators
# ----------------------------------------------------------------------

def test_circular_sigma_zero_is_regular_polygon():
    inst = gen_tsp_circular(6, 0.0, seed=1)
    side = 2.0 * math.sin(math.pi / 6)
    for i in range(6):
        assert inst.distances[i, (i + 1) % 6] == pytest.approx(side, abs=1e-12)
    # the optimal tour is the perimeter
    result = tsp_exhaustive(inst)
    assert result.optimal_length == pytest.approx(6 * side, abs=1e-9)


def test_circular_square_adjacent_distance():
    inst = gen_tsp_circular(4, 0.0, seed=0)
    assert inst.distances[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_circular_deterministic():
    a = gen_tsp_circular(5, 1.0, seed=42)
    b = gen_tsp_circular(5, 1.0, seed=42)
    assert np.array_equal(a.distances, b.distances)


def test_circular_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_tsp_circular(2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_tsp_circular(5, -0.1, seed=0)


def test_planar_bounds_and_symmetry():
    inst = gen_tsp_planar(8, seed=3)
    assert inst.distances.max() <= math.sqrt(2.0)
    assert np.array_equal(inst.distances, inst.distances.T)
    assert np.all(np.diag(inst.distances) == 0.0)
    again = gen_tsp_planar(8, seed=3)
    assert np.array_equal(inst.distances, again.distances)


@pytest.mark.parametrize("maker", [
    lambda seed: gen_tsp_circular(6, 1.2, seed=seed),
    lambda seed: gen_tsp_planar(6, seed=seed),
])
def test_triangle_inequality(maker):
    inst = maker(17)
    d = inst.distances
    m = inst.num_locations
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


# ----------------------------------------------------------------------
# Nearest-neighbour filter
# ----------------------------------------------------------------------

def test_nn_filter_rejects_regular_polygon():
    inst = gen_tsp_circular(6, 0.0, seed=0)
    result = tsp_exhaustive(inst)
    assert nn_filter(inst, result.optimal_length) is False


def test_nn_filter_accepts_hard_instance():
    # Rejection-sample a 5-location instance on which greedy fails from
    # every start, verified against the exhaustive oracle.
    found = None
    for seed in range(200):
        inst = gen_tsp_circular(5, 1.4, seed=seed)
        result = tsp_exhaustive(inst)
        if nn_filter(inst, result.optimal_length):
            found = (inst, result)
            break
    assert found is not None, "no NN-hard instance within 200 seeds"
    inst, result = found
    from optbench import nearest_neighbor_tsp

    for start in range(5):
        _, greedy_length = nearest_neighbor_tsp(inst, start=start)
        assert greedy_length > result.optimal_length + 1e-9


# ----------------------------------------------------------------------
# Edge-list files
# ----------------------------------------------------------------------

def test_read_edge_list_basic(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2 1.0\n2 3 -1.5\n")
    inst = read_edge_list(path)
    assert inst.num_nodes == 3
    assert inst.edges == ((0, 1, 1.0), (1, 2, -1.5))
    assert inst.metadata["path"] == str(path)


def test_read_edge_list_header_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 3\n1 2 1.0\n2 3 1.0\n")
    with pytest.raises(ParseError):
        read_edge_list(path)


def test_read_edge_list_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        read_edge_list(path)


def test_read_edge_list_index_out_of_range(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n1 4 1.0\n")
    with pytest.raises(ParseError):
        read_edge_list(path)


def test_read_edge_list_malformed_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n1 two 1.0\n")
    with pytest.raises(ParseError):
        read_edge_list(path)


def test_edge_list_roundtrip(tmp_path):
    inst = gen_erdos_renyi(7, 0.6, seed=2, weights="uniform")
    path = tmp_path / "round.txt"
    write_edge_list(inst, path)
    back = read_edge_list(path)
    assert back.num_nodes == inst.num_nodes
    assert back.edges == inst.edges
