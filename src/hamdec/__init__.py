"""Geometric decomposition conditions for step-graphons, constructively.

The package decides, exactly, whether a step-graphon's skeleton graph has
an odd cycle and whether its concentration vector lies in the relative
interior of the edge polytope; builds Hamiltonian decompositions of graphs
sampled from such graphons; and verifies the predictions statistically.
"""

from .construct import (
    BlockCycle,
    ConstructionError,
    HamDecomposition,
    build_balanced_matrix,
    build_decomposition,
    matrix_round,
    peel_cycles,
    round_even,
    split_mass,
)
from .driver import AnalysisReport, MonteCarloReport, Verdict, analyze, montecarlo
from .io import FormatError, dump_graph, dump_graphon, load_graph, load_graphon
from .model import (
    DisconnectedSkeletonError,
    IncidenceMatrix,
    Partition,
    SkeletonGraph,
    StepGraphon,
    concentration,
    connected_components,
    has_odd_cycle,
    incidence,
    saturate,
    skeleton,
    step_graphon,
)
from .polytope import (
    Membership,
    MembershipCertificate,
    extremal_generators,
    hall_violator,
    positive_certificate,
)
from .realize import (
    RealizationOutcome,
    embed_cycles,
    graph_has_decomposition,
    max_bipartite_matching,
    oracle_exists,
    realize,
)
from .refine import (
    RefinementRecord,
    ensure_loopless_odd_cycle,
    pull_certificate,
    push_certificate,
    refine_once,
)
from .sampling import (
    BalancedMatrix,
    SampledGraph,
    count_block_edges,
    empirical_concentration,
    sample_graph,
)

__version__ = "0.1.0"
