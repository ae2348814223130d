"""Import hygiene: each CLI run executes only the layers its command touches.

`mcf.cli` registers every layer in sys.modules lazily (importlib.util.LazyLoader),
so a module counts as executed when its sys.modules entry is no longer the lazy
proxy.  Every probe runs in a fresh interpreter, since this test process has
imported the whole package long before.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
PACKAGE = SRC / "mcf"
GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# after a probe: the executed mcf modules, and whether mpmath, json, dataclasses and inspect
# were imported (json read before the report's own import of it)
REPORT = """
import sys
imported = {name: name in sys.modules for name in ("mpmath", "json", "dataclasses", "inspect")}
import importlib.util, json
print(json.dumps({
    "executed": sorted(name for name, mod in sys.modules.items()
                       if name.split(".")[0] == "mcf" and type(mod) is not importlib.util._LazyModule),
    **imported,
}))
"""
# each class of `dataclasses` exec-compiles its methods in every process, and the
# module brings `inspect`, `ast`, `dis` and `tokenize` with it: no probe imports either
UNUSED = {"dataclasses": False, "inspect": False}


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


def report_of(executed: list[str], mpmath: bool = False, json: bool = True) -> dict:
    """The report of a probe that executed these mcf modules and imported no dataclasses or inspect."""
    return {"executed": executed, "mpmath": mpmath, "json": json, **UNUSED}


def unused(report: dict) -> dict:
    return {name: report[name] for name in UNUSED}


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_on_its_own(module):
    report = probe(f"import mcf.{module}")
    assert f"mcf.{module}" in report["executed"] and unused(report) == UNUSED


def test_help_executes_only_the_cli():
    # json comes with the first command that reads or writes data
    assert run_command(["--help"]) == report_of(layers(), json=False)


def test_expand_executes_the_engine_layers_only(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"],
                                "lo": "1/1", "hi": "2/1"}))
    report = run_command(["expand", "--input", str(path), "--steps", "5"])
    assert report == report_of(layers("engine", "exact_reals", "intervals", "polynomials", "radix",
                                      "recurrence", "serialization"))


PQ2 = str(GOLDEN / "pq_m2.json")
SCHEDULE = ["--schedule", str(GOLDEN / "schedule_m2.json"), "--base", PQ2]
# the commands that print no logarithm; those that compare a power execute mcf.logs for it
WITHOUT_LOGS = {
    "periodic solve": ["periodic", "solve", "--per-a", "2", "--per-b", "1"],
    "convergents": ["convergents", "--pq", PQ2, "--depth", "10", "--emit", "csv"],
    "verify admissible": ["verify", "admissible", "--pq", PQ2],
    "verify bounds": ["verify", "bounds", "--pq", PQ2],
    "verify growth --M": ["verify", "growth", "--pq", PQ2, "--M", "7"],
    "construct liouville": ["construct", "liouville", "--b-rule", "const:1", "--depth", "5"],
    "construct quasiperiodic": ["construct", "quasiperiodic", *SCHEDULE, "--depth", "30"],
}
# every mcf module each comparing command executes: log_sign's mcf.logs on its layers
COMPARING = {
    "verify bounds": ("convergents", "exact_reals", "intervals", "logs", "radix", "recurrence",
                      "serialization"),
    "verify growth --M": ("convergents", "exact_reals", "intervals", "logs", "polynomials", "radix",
                          "recurrence", "serialization"),
}
WITH_LOGS = {
    "verify growth --d": ["verify", "growth", "--pq", PQ2, "--d", "2"],
    "verify main1": ["verify", "main1", *SCHEDULE, "--d", "2", "--c", "1", "--depth", "30"],
    "verify main2": ["verify", "main2", *SCHEDULE, "--M", "7", "--N", "3", "--depth", "30"],
}
LIOUVILLE_PQ = str(GOLDEN / "out_construct_liouville_m2.txt")
LIGHT = ("intervals", "radix", "recurrence", "serialization")
LIGHT_COMMANDS = {
    "convergents": (["convergents", "--pq", PQ2, "--depth", "10", "--emit", "csv"], LIGHT),
    "verify admissible": (["verify", "admissible", "--pq", PQ2], LIGHT),
    "construct liouville": (["construct", "liouville", "--delta", "3/2", "--b-rule", "const:1",
                             "--depth", "5"], (*LIGHT, "liouville")),
    "verify liouville": (["verify", "liouville", "--pq", LIOUVILLE_PQ, "--delta", "3/2"],
                         (*LIGHT, "liouville", "logs")),
}


@pytest.mark.parametrize("name", LIGHT_COMMANDS)
def test_light_commands_execute_only_the_recurrence_layers(name):
    # no field, engine, convergents or transcendence code: a pq is decoded through
    # serialization's module reference to exact_reals, which stays unexecuted.  verify
    # liouville decides its heads by log_sign, so it adds mcf.logs, a light module too
    argv, modules = LIGHT_COMMANDS[name]
    assert run_command(argv) == report_of(layers(*modules))


@pytest.mark.parametrize("name", COMPARING)
def test_comparing_commands_execute_exactly_their_layers_and_logs(name):
    report = run_command(WITHOUT_LOGS[name])
    assert report == report_of(layers(*COMPARING[name]))


CHECKERS = {
    **{name: WITH_LOGS[name] for name in ("verify growth --d", "verify main1", "verify main2")},
    **{name: WITHOUT_LOGS[name] for name in ("verify bounds", "verify growth --M", "construct quasiperiodic")},
}


@pytest.mark.parametrize("name", CHECKERS)
def test_the_convergent_checkers_execute_no_engine(name):
    # only proximity_check expands, and it imports the engine in its own body
    report = run_command(CHECKERS[name])
    assert "mcf.convergents" in report["executed"] and "mcf.engine" not in report["executed"]
    assert unused(report) == UNUSED


def test_periodic_solve_executes_no_engine():
    # the root is selected by the convergent simplex; nothing is expanded
    report = run_command(WITHOUT_LOGS["periodic solve"])
    assert report == report_of(layers("exact_reals", "intervals", "periodic", "polynomials", "radix",
                                      "recurrence", "serialization"))


@pytest.mark.parametrize("name", WITHOUT_LOGS)
def test_commands_without_a_logarithm_leave_mpmath_unimported(name):
    # and only those that compare a power execute mcf.logs, which the checkers import
    # where they compare or take a log
    report = run_command(WITHOUT_LOGS[name])
    assert not report["mpmath"] and unused(report) == UNUSED
    assert ("mcf.logs" in report["executed"]) == (name in COMPARING)


def test_importing_the_checkers_executes_no_logs():
    # perfbench's library routes import both; mcf.logs is imported where a log is taken
    report = probe("import mcf.convergents, mcf.transcendence")
    assert "mcf.transcendence" in report["executed"] and "mcf.logs" not in report["executed"]


@pytest.mark.parametrize("name", WITH_LOGS)
def test_commands_with_a_logarithm_run_without_mpmath(name):
    # an import of mpmath raises ImportError in this probe; the logarithms are mcf.logs'
    report = probe(f"""
import contextlib, io, sys
sys.modules["mpmath"] = None
import mcf.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert mcf.cli.run({WITH_LOGS[name]!r}) == 0
""")
    assert "mcf.logs" in report["executed"] and unused(report) == UNUSED


def test_importing_the_cli_registers_every_layer_unexecuted():
    # perfbench's tracer reads each layer from sys.modules right after `import mcf.cli`;
    # it wraps nothing in mcf.logs, which is imported where a log is taken (registering
    # it raised the peak RSS of `mcf --help` by about 0.1 MB)
    report = probe("""
import sys, mcf.cli
missing = [m for m in %r if "mcf." + m not in sys.modules]
assert not missing, missing
assert "mcf.logs" not in sys.modules
""" % [m for m in MODULES if m not in ("cli", "errors", "logs")])
    assert report == report_of(layers(), json=False)


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
    assert "mcf.engine" in report["executed"] and unused(report) == UNUSED
    assert probe("import mcf") == report_of(["mcf", "mcf.errors"], json=False)


def test_the_liouville_exports_execute_only_the_light_layers():
    report = probe("""
import mcf
assert mcf.construct_liouville is __import__("mcf.liouville").liouville.construct_liouville
""")
    assert report == report_of(["mcf", "mcf.errors", "mcf.intervals", "mcf.liouville", "mcf.radix",
                                "mcf.recurrence"], json=False)


def _module_level_imports(path: Path) -> set[str]:
    """The modules a file imports when it is executed (not in a function body), mcf's as `.name`."""
    found = set()

    def visit(node):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):  # from .name import ..., or from . import name
            found.update([f".{node.module}"] if node.module else (f".{a.name}" for a in node.names))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(path.read_text()))
    return found


@pytest.mark.parametrize("module", ["recurrence", "liouville"])
def test_the_light_layers_import_only_light_modules(module):
    # the Liouville commands, convergents and verify admissible run on these two: an
    # import of certify, the engine or the checkers here would execute them all again
    light = {".errors", ".radix", ".intervals", ".recurrence"}
    imports = _module_level_imports(PACKAGE / f"{module}.py")
    assert sorted(imports - light - set(sys.stdlib_module_names)) == []


def test_logs_imports_only_the_stdlib_radix_and_intervals():
    # the certified logarithms run on exact rationals alone
    imports = _module_level_imports(PACKAGE / "logs.py")
    assert sorted(imports - {".radix", ".intervals"} - set(sys.stdlib_module_names)) == []


def _scopes(path: Path, hit) -> set[str]:
    """module.function (or module, at top level) of every node in path for which hit(node)."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if hit(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def _imports_mpmath(node) -> bool:
    names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    return any(name.split(".")[0] == "mpmath" for name in names)


def test_no_module_imports_mpmath():
    # mpmath is the tests' oracle only: mcf.logs takes every logarithm in integers
    importers = set().union(*(_scopes(p, _imports_mpmath) for p in PACKAGE.glob("*.py")))
    assert importers == set()


def _calls_root_helper(node) -> bool:
    """A call of polynomials.refine_root or simplest_in_interval, as pol.<name> or <name>."""
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        name = func.attr if func.value.id in ("pol", "polynomials") else None
    else:
        name = func.id if isinstance(func, ast.Name) else None
    return name in ("refine_root", "simplest_in_interval")


def test_roots_are_refined_and_found_rational_only_in_number_field():
    # NumberField refines every root and decides whether it is rational
    callers = set().union(*(_scopes(p, _calls_root_helper) for p in PACKAGE.glob("*.py")))
    assert callers == {"exact_reals.NumberField.__init__", "exact_reals.NumberField.refine_root"}


def test_tracer_targets_absent_from_mcf_are_the_known_five():
    # looked up as Tracer.install() does; these five name code removed earlier, which
    # ROADMAP item 0 retargets, and a removal elsewhere must not add to them.  The two
    # CertifiedPowers methods left with the class, whose comparisons are log_sign's now, and
    # loglog_interval, which nothing in mcf called (it was log_enclosure taken twice)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = set()
    for modname, attrs in tracer.TARGETS.values():
        owner = importlib.import_module(modname)
        for attr in attrs:
            cls_name, _, meth = attr.rpartition(".")
            if meth not in vars(getattr(owner, cls_name, object) if cls_name else owner):
                absent.add(f"{modname}.{attr}")
    assert absent == {"mcf.convergents.tilde_next", "mcf.convergents.aux_stream",
                      "mcf.convergents.tilde_stream", "mcf.serialization.proximity_report_to_json",
                      "mcf.intervals.RationalInterval.outward", "mcf.convergents.CertifiedPowers.cmp_int",
                      "mcf.convergents.CertifiedPowers.tighten", "mcf.convergents.loglog_interval"}



def _mcf_references(path: Path) -> set[str]:
    """The dotted mcf names a file imports, and each attribute chain it reads off one
    of them (as `exact_reals.FieldElement.floor` or `mcf.cli.run`), without running it."""
    def in_mcf(module) -> bool:
        return module is not None and module.split(".")[0] == "mcf"

    tree = ast.parse(path.read_text())
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and in_mcf(node.module):
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if in_mcf(a.name):
                    refs.add(a.name)
                    bound[a.asname or "mcf"] = a.name if a.asname else "mcf"
    refs.update(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *chain]))
    return refs


def _resolves(dotted: str) -> bool:
    """Each step is an attribute of the one before, or a submodule importable under it."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_every_mcf_name_perfbench_uses_resolves():
    # the benchmark's library routes (runner.py) and the vetting tool (vet_pairs.py) name
    # mcf code that no test calls through them; a deletion in mcf must not break them
    refs = set().union(*(_mcf_references(p) for p in PERFBENCH.glob("*.py")))
    assert {"mcf.convergents.approx_witnesses", "mcf.transcendence.roth_scan", "mcf.cli.run",
            "mcf.NumberField", "mcf.exact_reals.FieldElement.floor"} <= refs
    assert sorted(ref for ref in refs if not _resolves(ref)) == []

def test_no_module_touches_the_int_digit_cap():
    # mcf.radix converts numbers of any size under any cap, so no module reads or sets it
    names = ("set_int_max_str_digits", "get_int_max_str_digits")
    offenders = [p.name for p in PACKAGE.glob("*.py") if any(n in p.read_text() for n in names)]
    assert offenders == []


def _raised_names(path: Path) -> set[str]:
    """The names a file raises, as `raise Name(...)`, `raise Name` or `raise mod.Name(...)`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    classes = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
               for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(p) for p in PACKAGE.glob("*.py"))) & set(classes)
    used, todo = set(), list(raised)
    while todo:  # the raised classes and every base above them
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo.extend(b for b in classes[name] if b in classes)
    assert sorted(set(classes) - used) == []


def test_every_exported_error_is_defined_in_errors():
    defined = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    exported = {a.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
                for a in node.names}
    assert exported and sorted(exported - defined) == []
