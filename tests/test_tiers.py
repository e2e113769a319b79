"""The two tiers: production modules import nothing from the check tier.

`geometry`, `jets`, `kernels` and `stress` compute the stress; `checks`
holds the independent numerics that check it and `oracles` the suite
built on them.  Most of these tests read the sources, so they hold
whatever a test run happens to import; the one about what `import
conevac` and the CLI load runs in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conevac

SRC = Path(conevac.__file__).parent

# The independent numerics and check-only types that moved to `checks`, and
# deleted names that stay gone: check- and test-only helpers, and the wedge's
# own renormalization path.
MOVED = ("ImageSum", "CartesianSeparation", "_lattice_sum", "tbar_cone_via_images",
         "tbar_periodic_line", "tbar_periodic_line_closed", "integrate_gk21", "_dqk21",
         "_bessel_j", "_bessel_k", "_msta2", "_mode_integrals", "tbar_modesum_4d",
         "tbar_3d", "_tbar_3d_many", "tbar_3d_theta_average", "PeriodicLine", "u_of_pair",
         "UVariable")
# Stress instruments that only the oracles and the tests use, which moved
# out of `stress` into the check tier.
ORACLE_HELPERS = ("_stress_points", "conservation_residual")
PRODUCTION = ("geometry", "jets", "kernels", "stress")
DELETED = ("mode_integral", "QuadratureControls", "cone_expr", "wedge_renormalized_expr",
           "tbar_wedge_renormalized", "_kernel_for", "_check_renorm", "swapped",
           "_dowker_term", "_u_over_sinh_float", "_evaluate")


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


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_imports_no_check_tier(module):
    assert _imported_modules(module) & {"checks", "oracles", "cli"} == set()


def test_checks_import_only_production_numerics():
    assert _imported_modules("checks") & {"oracles", "stress", "cli"} == set()
    assert "checks" in _imported_modules("oracles")


def test_production_defines_none_of_the_check_numerics():
    checks = _defined("checks")
    assert set(MOVED) <= checks
    for module in PRODUCTION:
        assert _defined(module) & checks == set(), module


def test_oracle_helpers_live_in_the_check_tier():
    assert set(ORACLE_HELPERS) <= _defined("oracles")
    assert _defined("stress") & set(ORACLE_HELPERS) == set()
    for module in (*PRODUCTION, "cli", "__init__"):
        assert _defined(module) & set(ORACLE_HELPERS) == set(), module


def test_check_only_wrappers_are_gone():
    for path in SRC.glob("*.py"):
        # methods too: `PointPair.swapped` was one
        functions = {node.name for node in ast.walk(_tree(path.stem))
                     if isinstance(node, ast.FunctionDef)}
        assert (_defined(path.stem) | functions) & set(DELETED) == set(), path.name
    assert set(DELETED) & set(conevac.__all__) == set()


def test_every_jet_rule_is_called_by_a_kernel():
    # the jets carry the rules the kernels differentiate, and no others
    rules = {node.name for node in _tree("jets").body if isinstance(node, ast.FunctionDef)
             and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_elementary"
                     for d in node.decorator_list)}
    called = {node.func.attr for node in ast.walk(_tree("kernels"))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "jets"}
    assert rules and rules - called == set()


# Run in a fresh interpreter: which check-tier modules each step has loaded,
# then the package names that do not resolve once the check tier is asked for.
_LOAD_PROBE = """
import json, sys

def tier():
    return sorted({"conevac.checks", "conevac.oracles"} & set(sys.modules))

out, loaded = sys.argv[1], {}
import conevac
loaded["import conevac"] = tier()
from conevac import cli
loaded["import conevac.cli"] = tier()
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = tier()
missing = [name for name in [*conevac.__all__, "checks", "oracles"]
           if not hasattr(conevac, name)]
with open(out, "w") as f:
    json.dump({"loaded": loaded, "missing": missing,
               "oracles": len(conevac.oracles.oracle_names())}, f)
"""


def test_production_commands_load_no_check_tier(tmp_path):
    commands = [
        ["figure", "fig1", "fig5", "--points", "4", "--outdir", str(tmp_path)],
        ["scan", "--geometry", "wedge", "--theta0", "1.5", "--sweep", "r", "--lo", "1",
         "--hi", "2", "--theta", "0.4", "--points", "3"],
        ["eval", "--geometry", "cone", "--theta1", "3", "--r", "1", "--what", "stress-t0"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    report = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-c", _LOAD_PROBE, str(report), json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(report.read_text())
    steps = ["import conevac", "import conevac.cli", "figure", "scan", "eval"]
    assert got["loaded"] == {step: [] for step in steps}
    # every public name still resolves, the check tier's on first use
    assert got["missing"] == []
    assert got["oracles"] > 0


# Which check-tier modules are loaded after each step, in a fresh interpreter.
_LAZY_PROBE = """
import json, sys

def tier():
    return sorted({"conevac.checks", "conevac.oracles"} & set(sys.modules))

steps = []
import conevac
import conevac.cli
steps.append(tier())
residual = conevac.conservation_residual
steps.append(tier())
print(json.dumps({"steps": steps, "module": residual.__module__}))
"""


def test_conservation_residual_loads_the_check_tier_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _LAZY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["steps"] == [[], ["conevac.checks", "conevac.oracles"]]
    assert got["module"] == "conevac.oracles"
