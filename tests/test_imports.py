"""Import hygiene: each CLI run executes only the layers its command touches.

`mcf.cli` registers every layer in sys.modules lazily (importlib.util.LazyLoader),
so a module counts as executed when its sys.modules entry is no longer the lazy
proxy.  Every probe runs in a fresh interpreter, since this test process has
imported the whole package long before.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
PACKAGE = SRC / "mcf"
GOLDEN = Path(__file__).parent / "golden"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# after a probe: the executed mcf modules and whether mpmath was imported
REPORT = """
import importlib.util, json, sys
print(json.dumps({
    "executed": sorted(name for name, mod in sys.modules.items()
                       if name.split(".")[0] == "mcf" and type(mod) is not importlib.util._LazyModule),
    "mpmath": "mpmath" in sys.modules,
}))
"""


def probe(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code + REPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def run_command(argv) -> dict:
    """Probe one in-process CLI run; its own stdout is discarded."""
    return probe(f"""
import contextlib, io, mcf.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        mcf.cli.run({argv!r})
    except SystemExit:
        pass
""")


def layers(*names) -> list[str]:
    return sorted(["mcf", "mcf.cli", "mcf.errors", *(f"mcf.{n}" for n in names)])


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_on_its_own(module):
    assert f"mcf.{module}" in probe(f"import mcf.{module}")["executed"]


def test_help_executes_only_the_cli():
    assert run_command(["--help"]) == {"executed": layers(), "mpmath": False}


def test_expand_executes_the_engine_layers_only(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"],
                                "lo": "1/1", "hi": "2/1"}))
    report = run_command(["expand", "--input", str(path), "--steps", "5"])
    assert report == {
        "executed": layers("engine", "exact_reals", "intervals", "polynomials", "radix",
                           "serialization"),
        "mpmath": False,
    }


PQ2 = str(GOLDEN / "pq_m2.json")
SCHEDULE = ["--schedule", str(GOLDEN / "schedule_m2.json"), "--base", PQ2]
WITHOUT_LOGS = {
    "periodic solve": ["periodic", "solve", "--per-a", "2", "--per-b", "1"],
    "convergents": ["convergents", "--pq", PQ2, "--depth", "10", "--emit", "csv"],
    "verify admissible": ["verify", "admissible", "--pq", PQ2],
    "verify bounds": ["verify", "bounds", "--pq", PQ2],
    "verify growth --M": ["verify", "growth", "--pq", PQ2, "--M", "7"],
    "construct liouville": ["construct", "liouville", "--b-rule", "const:1", "--depth", "5"],
}
WITH_LOGS = {
    "verify growth --d": ["verify", "growth", "--pq", PQ2, "--d", "2"],
    "verify main1": ["verify", "main1", *SCHEDULE, "--d", "2", "--c", "1", "--depth", "30"],
    "verify main2": ["verify", "main2", *SCHEDULE, "--M", "7", "--N", "3", "--depth", "30"],
}


@pytest.mark.parametrize("name", WITHOUT_LOGS)
def test_commands_without_a_logarithm_leave_mpmath_unimported(name):
    assert not run_command(WITHOUT_LOGS[name])["mpmath"]


@pytest.mark.parametrize("name", WITH_LOGS)
def test_commands_with_a_logarithm_import_mpmath(name):
    assert run_command(WITH_LOGS[name])["mpmath"]


def test_importing_the_cli_registers_every_layer_unexecuted():
    # perfbench's tracer reads each layer from sys.modules right after `import mcf.cli`
    report = probe("""
import sys, mcf.cli
missing = [m for m in %r if "mcf." + m not in sys.modules]
assert not missing, missing
""" % [m for m in MODULES if m not in ("cli", "errors")])
    assert report == {"executed": layers(), "mpmath": False}


def test_import_mcf_executes_only_the_errors():
    report = probe("""
import mcf
assert mcf.expand is __import__("mcf.engine").engine.expand
assert {"expand", "NumberField", "verify_liouville", "InputError"} <= set(dir(mcf))
try:
    mcf.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
""")
    assert "mcf.engine" in report["executed"]
    assert probe("import mcf") == {"executed": ["mcf", "mcf.errors"], "mpmath": False}


def _mpmath_imports(path: Path) -> set[str]:
    """module.function (or module, at top level) of every import of mpmath in path."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name.split(".")[0] == "mpmath" for name in names):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_mpmath_is_imported_only_on_the_log_paths():
    importers = set().union(*(_mpmath_imports(p) for p in PACKAGE.glob("*.py")))
    assert importers == {"intervals.iv_enclosure", "transcendence._log_ratio_string"}
