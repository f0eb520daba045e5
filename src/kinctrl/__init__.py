"""kinctrl: multiscale simulation of contact-formation dynamics in epidemics.

Particle (Monte Carlo), mesoscopic (drift-diffusion) and macroscopic
(moment-closed ODE) descriptions of the same contact dynamics, two optimal
control strategies that reshape the contact-distribution tails, and a
config-driven experiment CLI with deterministic CSV outputs.
"""

__version__ = "0.1.0"

from .params import (
    ClosureKind,
    ControlSpec,
    EpidemicParams,
    KineticParams,
    Strategy,
    closure_moment,
    collision_kernel,
    growth_rate_times_x,
    moment_ratio,
)
from .fp import (
    ContactDensity,
    Grid,
    build_operator,
    steady_state_solve,
    uniform_density,
)
from .equilibria import (
    EquilibriumDensity,
    EquilibriumKind,
    TailClassification,
    TailKind,
    controlled_steady_state,
    tail_classify,
)
from .dsmc import (
    ParticleEnsemble,
    dsmc_step,
    run_to_equilibrium,
    sample_noise,
)

__all__ = [
    "__version__",
    "ClosureKind",
    "ControlSpec",
    "EpidemicParams",
    "KineticParams",
    "Strategy",
    "collision_kernel",
    "growth_rate_times_x",
    "moment_ratio",
    "ContactDensity",
    "Grid",
    "build_operator",
    "steady_state_solve",
    "uniform_density",
    "EquilibriumDensity",
    "EquilibriumKind",
    "TailClassification",
    "TailKind",
    "closure_moment",
    "controlled_steady_state",
    "tail_classify",
    "ParticleEnsemble",
    "dsmc_step",
    "run_to_equilibrium",
    "sample_noise",
]
