"""Dynamic HMC samplers (NUTS, HMC, MALA, rHMC) with verification tooling."""

from .kernels import (
    ExactPMF,
    KernelConfig,
    TransitionInfo,
    hmc_step,
    make_kernel,
    nuts_exact_pmf,
    nuts_step_iterative,
    nuts_step_recursive,
    nuts_transition_iterative,
    nuts_transition_recursive,
    rhmc_step,
)
from .leapfrog import (
    ContractionViolated,
    GaussianLeapfrogMaps,
    LeapfrogParams,
    NoConvergence,
    TrajectorySolution,
    gaussian_maps,
    leapfrog_iter,
    trajectory_solve,
    tridiag_a,
)
from .orbit import OrbitCache, no_uturns, orbit_select_pmf
from .index_select import WeightTree
from .targets import (
    MassMatrix,
    PhasePoint,
    Target,
    builtin_target,
    hamiltonian,
    momentum_refresh,
)

__version__ = "0.1.0"
