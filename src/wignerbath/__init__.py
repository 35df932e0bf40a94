"""Phase-space evolution of a nonrelativistic particle coupled to a scalar bath.

The package computes time-dependent Wigner functions directly from their
initial values: free streaming plus the three connected second-order
corrections in the particle-bath coupling, with an independent brute-force
oracle for certification.
"""

__version__ = "0.1.0"

from .grids import PhaseSpaceGrid
from .wigner import (
    WignerFunction,
    DensityMatrix,
    wigner_from_density,
    density_from_wigner,
    marginals,
    observables,
)
from .states import InitialStateSpec, make_initial_wigner
from .propagators import (
    ModelParams,
    SpacetimePoint,
    sys_feynman,
    sys_dyson,
    env_wightman,
    env_feynman,
    env_dyson,
)
from .evolution import (
    QuadratureSpec,
    EvolutionResult,
    evolve_zeroth,
    evolve,
)

__all__ = [
    "PhaseSpaceGrid",
    "WignerFunction",
    "DensityMatrix",
    "wigner_from_density",
    "density_from_wigner",
    "marginals",
    "observables",
    "InitialStateSpec",
    "make_initial_wigner",
    "ModelParams",
    "SpacetimePoint",
    "sys_feynman",
    "sys_dyson",
    "env_wightman",
    "env_feynman",
    "env_dyson",
    "QuadratureSpec",
    "EvolutionResult",
    "evolve_zeroth",
    "evolve",
]
