"""The package's public surface and the hygiene of its imports."""
import ast
import re
from pathlib import Path

import usdkit

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "usdkit"

# what the README and the CLI use; internals stay in their submodules
PUBLIC = {
    # errors and tolerances
    "CertificateFailure", "DimensionMismatch",
    "IncompatibleRecord", "InvalidInconclusive", "NoSolutionFound",
    "NonConvergence", "NotHermitian", "NotPSD", "NotProper",
    "NotReconstructible", "PreconditionViolated",
    "UsdKitError", "UsdNumericsWarning", "ToleranceContext", "DEFAULT_TOL",
    # the types the functions below take and return
    "WeightedDensityPair", "UsdMeasurement", "MeasurementClassTag",
    "OptimalityReport", "CertificateZ", "SolverOutcome", "ReductionRecord",
    "OracleConfig", "OracleResult", "UniquenessReport", "ProblemFile",
    "SweepRow", "ProbabilityWindow",
    # solving, sweeping and files
    "dispatch", "sweep", "sweep_bounds", "load_problem", "save_problem",
    "load_measurement", "save_measurement", "rows_to_csv",
    # closed forms and their windows
    "try_single_state_detection", "try_fidelity_form",
    "single_detection_window", "fidelity_window",
    # four-dimensional solver and reductions
    "solve_4d", "reduce_fully", "lift_measurement",
    # checking
    "check_optimality", "build_certificate", "classify",
    "success_probability", "is_proper", "is_usd",
    # oracle
    "oracle_optimize", "uniqueness_probe",
}


def test_all_is_the_public_surface():
    assert len(usdkit.__all__) == len(set(usdkit.__all__)) == 51
    assert set(usdkit.__all__) == PUBLIC
    for name in usdkit.__all__:
        assert getattr(usdkit, name) is not None, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from usdkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC


def _readme_names():
    """Names the README's library-use section imports from the package,
    and the identifiers its "Lower-level entry points" paragraph lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in re.findall(r"^from usdkit import (.+)$", section, re.M):
        names.update(n.strip(" ()") for n in line.split(","))
    paragraph = section.split("Lower-level entry points", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    names.update(n for n in re.findall(r"`([^`]+)`", paragraph)
                 if n.isidentifier())
    return names


def test_readme_entry_points_are_exported():
    names = _readme_names()
    assert {"WeightedDensityPair", "dispatch", "solve_4d"} <= names
    assert names <= set(usdkit.__all__), sorted(names - set(usdkit.__all__))


def test_modules_use_every_name_they_import():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        stale.append(f"{path.name}:{node.lineno} {name}")
    assert not stale, stale


def test_every_name_the_benchmark_tracer_patches_resolves():
    # perfbench/tracer.py wraps these names from outside the program, so a
    # refactor that moves one must fail here, not in a benchmark run; the
    # tracer is read, not imported
    import dataclasses
    import importlib

    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if getattr(target, "id", None) in ("SPANNED", "COUNTED")}
    names = [*tables["SPANNED"], *tables["COUNTED"]]
    assert len(names) == len(tables["SPANNED"]) + 1
    for module, name in names:
        found = getattr(importlib.import_module(module), name, None)
        assert callable(found), (module, name)
    oracle = importlib.import_module("usdkit.oracle")
    assert callable(oracle.FeasibleSet.project)
    assert "iterations" in {f.name
                            for f in dataclasses.fields(oracle.OracleResult)}


def test_every_submodule_all_resolves_without_repeats():
    # a name deleted from a module must leave its __all__ too, or
    # `from usdkit.<module> import *` raises
    import importlib

    modules = [path.stem for path in sorted(SRC.glob("*.py"))
               if path.stem not in ("__init__", "__main__")]
    assert "linalg" in modules
    for stem in modules:
        module = importlib.import_module(f"usdkit.{stem}")
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), stem
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (stem, missing)
