"""Vacuum energy of a massless scalar field on cones, wedges, and kin.

Closed-form cylinder kernels and the renormalized vacuum stress tensor
for flat space, cones of arbitrary total angle, wedges with reflecting
walls, the infinite-sheeted covering of the punctured plane, and a
periodically identified line, with independent cross checks (image
sums, mode sums, dimensional reduction) wired into an oracle suite.
The production tier (`geometry`, `jets`, `kernels`, `stress`) computes;
the check tier (`checks`, the independent numerics, and `oracles`) checks.
"""

from .errors import (
    ConeVacError,
    ConvergenceError,
    DomainError,
    SingularPointError,
)
from .geometry import (
    BoundaryCondition,
    Cone,
    Coupling,
    Dowker,
    Geometry,
    Minkowski,
    PeriodicLine,
    PointPair,
    UVariable,
    Wedge,
    u_of_pair,
)
from .checks import (
    CartesianSeparation,
    ImageSum,
    tbar_3d,
    tbar_3d_theta_average,
    tbar_cone_via_images,
    tbar_modesum_4d,
    tbar_periodic_line,
    tbar_periodic_line_closed,
)
from .kernels import (
    kernel_expr,
    tbar_cone,
    tbar_dowker,
    tbar_minkowski,
    tbar_wedge,
)
from .oracles import OracleReport, run_oracle_suite
from .stress import (
    ExtrapolatedStress,
    RenormMode,
    StressTensor,
    conservation_residual,
    stress_at,
    stress_from_kernel,
    stress_t0,
    trace,
    zero_point_stress,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "CartesianSeparation",
    "Cone",
    "ConeVacError",
    "ConvergenceError",
    "Coupling",
    "DomainError",
    "Dowker",
    "ExtrapolatedStress",
    "Geometry",
    "ImageSum",
    "Minkowski",
    "OracleReport",
    "PeriodicLine",
    "PointPair",
    "RenormMode",
    "SingularPointError",
    "StressTensor",
    "UVariable",
    "Wedge",
    "__version__",
    "conservation_residual",
    "kernel_expr",
    "run_oracle_suite",
    "stress_at",
    "stress_from_kernel",
    "stress_t0",
    "tbar_3d",
    "tbar_3d_theta_average",
    "tbar_cone",
    "tbar_cone_via_images",
    "tbar_dowker",
    "tbar_minkowski",
    "tbar_modesum_4d",
    "tbar_periodic_line",
    "tbar_periodic_line_closed",
    "tbar_wedge",
    "trace",
    "u_of_pair",
    "zero_point_stress",
]
