from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import secrecy_sim
from secrecy_sim import analytic, model, special

MODULES = ("analytic", "cli", "diversity", "model", "simulate", "special", "validation")
# pyproject.toml's [project] dependencies; mpmath and hypothesis are test-only
RUNTIME_DEPENDENCIES = {"numpy", "scipy"}


def test_public_names_exist_and_star_import():
    # a name left in __all__ after its definition is deleted breaks `import *`
    for name in MODULES:
        module = importlib.import_module(f"secrecy_sim.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)
        namespace = {}
        exec(f"from secrecy_sim.{name} import *", namespace)
        assert set(module.__all__) <= namespace.keys()
    for gone in ("varphi_rjs", "rjs_integral_oracle", "ojs_integral_oracle", "RngSpec",
                 "scheme_intercept"):
        assert not hasattr(secrecy_sim, gone)
        assert not hasattr(analytic, gone)
    # each input check lives once, in the module that owns the type
    for module, gone in ((model, "validate"), (special, "E1Bounds"), (analytic, "_check_gamma")):
        assert not hasattr(secrecy_sim, gone)
        assert not hasattr(module, gone)


def test_package_imports_only_declared_runtime_dependencies():
    package = Path(secrecy_sim.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                allowed = top in sys.stdlib_module_names or top in RUNTIME_DEPENDENCIES
                assert allowed or top == "secrecy_sim", (path.name, name)


def test_no_module_imports_the_cli():
    # the CLI is the top layer: the library must work without it
    package = Path(secrecy_sim.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "secrecy_sim" if node.level else ""
                module = ".".join(filter(None, [base, node.module]))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert "secrecy_sim.cli" not in names, (path.name, names)


def test_names_the_benchmark_wraps_exist(monkeypatch):
    # perfbench/tracing.py wraps these attributes by name and imports draws_per_trial; a
    # refactor that drops one would pass here and fail only when the benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
