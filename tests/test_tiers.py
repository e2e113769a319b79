"""The two tiers: production modules import nothing from the check tier.

`geometry`, `jets`, `kernels` and `stress` compute the stress; `checks`
holds the independent numerics that check it and `oracles` the suite
built on them.  These tests read the sources, so they hold whatever a
test run happens to import.
"""

import ast
from pathlib import Path

import pytest

import conevac

SRC = Path(conevac.__file__).parent

# The independent numerics that moved to `checks`, and deleted names that stay
# gone: check- and test-only helpers, and the wedge's own renormalization path.
MOVED = ("ImageSum", "CartesianSeparation", "_lattice_sum", "tbar_cone_via_images",
         "tbar_periodic_line", "tbar_periodic_line_closed", "integrate_gk21", "_dqk21",
         "_bessel_j", "_bessel_k", "_msta2", "_mode_integrals", "tbar_modesum_4d",
         "tbar_3d", "_tbar_3d_many", "tbar_3d_theta_average")
DELETED = ("mode_integral", "QuadratureControls", "cone_expr", "wedge_renormalized_expr",
           "tbar_wedge_renormalized", "_kernel_for", "_check_renorm", "swapped")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _imported_modules(module: str) -> set[str]:
    """The conevac modules that ``module`` imports, by their short names."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                out.update(alias.name for alias in node.names)
            elif node.level == 1:
                out.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("conevac."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("conevac."))
    return out


def _defined(module: str) -> set[str]:
    """Names bound at the top level of ``module`` by a def, a class or an assignment."""
    out = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("module", ["geometry", "jets", "kernels", "stress"])
def test_production_imports_no_check_tier(module):
    assert _imported_modules(module) & {"checks", "oracles", "cli"} == set()


def test_checks_import_only_production_numerics():
    assert _imported_modules("checks") & {"oracles", "stress", "cli"} == set()
    assert "checks" in _imported_modules("oracles")


def test_kernels_define_none_of_the_check_numerics():
    checks = _defined("checks")
    assert set(MOVED) <= checks
    assert _defined("kernels") & checks == set()


def test_check_only_wrappers_are_gone():
    for path in SRC.glob("*.py"):
        # methods too: `PointPair.swapped` was one
        functions = {node.name for node in ast.walk(_tree(path.stem))
                     if isinstance(node, ast.FunctionDef)}
        assert (_defined(path.stem) | functions) & set(DELETED) == set(), path.name
    assert set(DELETED) & set(conevac.__all__) == set()
