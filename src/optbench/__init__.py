"""Benchmarking toolkit for combinatorial optimization solvers.

Builds Max-Cut and travelling-salesperson models in several encodings,
runs classical heuristics and exactly simulated alternating-operator
circuits over them, and scores everything with time-to-solution and
solution-quality figures of merit under a reproducible experiment harness.
"""

from .formulations import (
    cut_weight,
    maxcut_qubo,
    tour_length,
    tsp_default_penalties,
    tsp_onehot_qubo,
)
from .instances import (
    MaxCutInstance,
    TspInstance,
    gen_erdos_renyi,
    gen_regular,
    gen_tsp_circular,
    gen_tsp_planar,
    make_rng,
    read_edge_list,
)
from .metrics import (
    MetricContext,
    approximation_ratio,
    bsf_relative,
    feasibility_ratio,
    fob,
    hit_share,
    pareto_front,
    tsp_combined_error,
    tts,
    tts_layers,
    tts_oh,
    ttt,
)
from .model import (
    BinaryPolynomial,
    DegreeError,
    DimensionError,
    IsingModel,
    SampleSet,
    SizeCapError,
    Timing,
    merge,
)
from .qaoa import (
    CompiledProblem,
    GeneratorParams,
    LayerCountUnavailable,
    LayerLedger,
    OutputDistribution,
    edge_coloring,
    expand_generator,
    layer_ledger,
    qaoa_qubo_simulate,
    qaoa_tsp_simulate,
    train_generator,
)
from .solvers import (
    RelaxationError,
    SaConfig,
    TsConfig,
    goemans_williamson,
    local_search_maxcut,
    nearest_neighbor_tsp,
    nn_filter,
    simulated_annealing,
    tabu_search,
    tsp_exhaustive,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
