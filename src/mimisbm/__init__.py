"""Mixture of multilayer stochastic block models with one shared node partition.

The model couples V binary graph layers on N shared nodes. Nodes carry a
single partition into K blocks; layers carry a partition into Q components,
each component owning its own block-connectivity table. Inference is
variational Bayes with conjugate Dirichlet/Beta priors, model selection is
done over a (K, Q) grid with integrated-likelihood criteria.
"""

from .core import (
    DomainError,
    FitConfig,
    HardPartition,
    ModelParams,
    MultilayerGraph,
    PriorHyperparams,
    SelfLoopError,
    VariationalState,
    build_graph,
    dyad_layer_count,
    rng_stream,
)
from .generator import (
    GroundTruth,
    LinkMapError,
    SimulationConfig,
    apply_label_switch,
    build_component_alpha,
    generate_dataset,
    sample_partition,
)
from .inference import (
    ConvergenceWarning,
    FitReport,
    compute_elbo,
    fit,
    init_variational,
    m_step,
    vbe_update_nu,
    vbe_update_tau,
)
from .mathfn import digamma, log_gamma
from .metrics import IdentifiabilityReport, ari, check_identifiability, map_assign
from .selection import (
    CRITERIA,
    GridCell,
    SelectionResult,
    grid_search,
    icl_approx,
    icl_exact,
    icl_variational,
    pen,
)

__all__ = [
    "CRITERIA",
    "ConvergenceWarning",
    "DomainError",
    "FitConfig",
    "FitReport",
    "GridCell",
    "GroundTruth",
    "HardPartition",
    "IdentifiabilityReport",
    "LinkMapError",
    "ModelParams",
    "MultilayerGraph",
    "PriorHyperparams",
    "SelectionResult",
    "SelfLoopError",
    "SimulationConfig",
    "VariationalState",
    "apply_label_switch",
    "ari",
    "build_component_alpha",
    "build_graph",
    "check_identifiability",
    "compute_elbo",
    "digamma",
    "dyad_layer_count",
    "fit",
    "generate_dataset",
    "grid_search",
    "icl_approx",
    "icl_exact",
    "icl_variational",
    "init_variational",
    "log_gamma",
    "m_step",
    "map_assign",
    "pen",
    "rng_stream",
    "sample_partition",
    "vbe_update_nu",
    "vbe_update_tau",
]

__version__ = "0.1.0"
