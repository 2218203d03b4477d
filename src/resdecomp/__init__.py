"""Effective resistances, low-conductance sweep cuts, and recursive
decomposition of weighted graphs into blocks of bounded resistance diameter.
"""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegeneratePotentialError,
                     DisconnectedGraphError, InfiniteResistanceError)
from .graph import (CutStats, WeightedGraph, build_graph, connected_components,
                    cut_stats, induced_subgraph, scale_weights)
from .generators import (barbell, complete, generate, grid2d, hypercube,
                         random_regular)
from .edgelist import (EdgeListFormatError, format_edgelist, parse_edgelist,
                       read_edgelist, write_edgelist)
from .linalg import (LaplacianSolver, assemble_laplacian, implied_potential_accuracy,
                     required_solver_accuracy, solve_laplacian_many, st_potential)
from .sketch import SketchConfig, approx_reff_from_source, furthest_pair
from .sweep import CutResult, find_sparse_cut
from .decompose import (BlockResistance, DecompositionConfig,
                        DecompositionReport, Partition, VerificationRecord,
                        partition, partition_with_config, prune_low_degree,
                        verify_partition)

__all__ = [
    "ConvergenceError", "DegeneratePotentialError", "DisconnectedGraphError",
    "InfiniteResistanceError",
    "CutStats", "WeightedGraph", "build_graph", "connected_components",
    "cut_stats", "induced_subgraph", "scale_weights",
    "barbell", "complete", "generate", "grid2d", "hypercube", "random_regular",
    "EdgeListFormatError", "format_edgelist", "parse_edgelist",
    "read_edgelist", "write_edgelist",
    "LaplacianSolver", "assemble_laplacian",
    "implied_potential_accuracy", "required_solver_accuracy",
    "solve_laplacian_many", "st_potential",
    "SketchConfig", "approx_reff_from_source", "furthest_pair",
    "CutResult", "find_sparse_cut",
    "BlockResistance", "DecompositionConfig", "DecompositionReport",
    "Partition", "VerificationRecord", "partition", "partition_with_config",
    "prune_low_degree", "verify_partition",
]
