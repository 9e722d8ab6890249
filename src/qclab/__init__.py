"""qclab: query algorithms over hidden hypergraphs, at desk scale.

The hidden instance sits behind four oracle endpoints (edge existence and
edge witness queries against disjoint vertex sets, for graphs and for
d-uniform hypergraphs). Algorithms color vertices, sample through the
oracle, solve the small sampled instance exactly, and account for every
query. Exact solvers double as ground truth for the experiment harness.
"""

from .algorithms import (
    AlgorithmConstants,
    AlgorithmResult,
    DEFAULT_CONSTANTS,
    cut,
    cut_decision,
    cut_deterministic,
    hitting_set,
    hs_decision,
    hs_promised,
    log_k,
    matching_promised,
    packing,
    packing_deterministic,
    vc_decision,
    vc_promised,
    vertex_cover,
)
from .coloring import (
    ColorClasses,
    HashColoring,
    PerfectFamily,
    classes,
    perfect_family,
    random_coloring,
    random_colorings,
    verify_perfect,
)
from .harness import (
    ALGORITHMS,
    SweepConfig,
    TrialReport,
    generate_instance,
    run_sweep,
    run_trial,
    verify_instance,
)
from .hypergraph import (
    Hypergraph,
    PlantedTruth,
    gen_gnp,
    gen_planted_cut,
    gen_planted_hitting_set,
    gen_planted_packing,
    load_hypergraph,
    new_hypergraph,
    parse_hypergraph,
    save_hypergraph,
    serialize_hypergraph,
    union,
)
from .oracle import EdgeSelectionPolicy, OracleSession, QueryStats
from .rng import block_integers, derive_seed, rng_from
from .sampler import (
    QuotientInstance,
    SampledSubgraph,
    quotient_existence,
    sample_subhypergraph,
    sample_union,
)
from .solvers import (
    BudgetExceeded,
    DegreeProfile,
    SolverLimits,
    degree_profile,
    has_hitting_set,
    max_matching,
    max_set_packing,
    max_t_cut,
    min_hitting_set,
    min_vertex_cover,
    representative_family,
)
from .sunflowers import (
    CoreReport,
    Sunflower,
    candidate_cores,
    classify_cores,
    erdos_rado_bound,
    find_sunflower,
    sunflower_number,
)

__version__ = "0.1.0"
