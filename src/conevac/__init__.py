"""Vacuum energy of a massless scalar field on cones, wedges, and kin.

Closed-form cylinder kernels and the renormalized vacuum stress tensor
for flat space, cones of arbitrary total angle, wedges with reflecting
walls, and the infinite-sheeted covering of the punctured plane, with
independent cross checks (image sums, mode sums, a periodically
identified line, dimensional reduction) wired into an oracle suite.
The production tier (`geometry`, `jets`, `kernels`, `stress`) computes;
the check tier (`checks`, the independent numerics, and `oracles`) checks.

`import conevac` loads the production tier only.  The check tier's
names (`PeriodicLine`, `u_of_pair`, `tbar_cone_via_images`,
`conservation_residual`, `run_oracle_suite`, ...) and the modules
`conevac.checks` and `conevac.oracles` resolve through the module
`__getattr__`, which imports the check tier on first use.
"""

import importlib

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
    PointPair,
    Wedge,
)
from .kernels import (
    kernel_expr,
    tbar_cone,
    tbar_dowker,
    tbar_minkowski,
    tbar_wedge,
)
from .stress import (
    ExtrapolatedStress,
    RenormMode,
    StressTensor,
    stress_at,
    stress_from_kernel,
    stress_t0,
    trace,
    zero_point_stress,
)

__version__ = "0.1.0"
SUITE_VERSION = 1  # the oracle suite's; figure sidecars record it

_CHECK_TIER = ("checks", "oracles")


def __getattr__(name):
    """A check-tier module, or a name of `__all__` that one defines, imported on first use."""
    if name in _CHECK_TIER:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for module in _CHECK_TIER:
            tier = importlib.import_module(f"{__name__}.{module}")
            if hasattr(tier, name):
                return getattr(tier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
