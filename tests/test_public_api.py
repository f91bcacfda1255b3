"""Every name in harqlink.__all__ must be referenced by a module of the
package other than the one that defines it, and every module-level public
function or class by some module of the package, its own included, or be
listed in ALLOWED with the reason it stays public.  Names only tests use
do not count.  Every name the benchmark tracer wraps must exist, and
importing the CLI loads no scipy module."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import harqlink

README_ENTRY_POINTS = ("McsTable", "CombiningType", "amc_thresholds_exact",
                       "amc_throughput", "fast_throughput", "slow_throughput",
                       "fast_optimize_regions", "slow_optimal_regions",
                       "two_round_bound", "simulate_plain")

ALLOWED = {
    **{name: "library entry point shown in the README" for name in README_ENTRY_POINTS},
    "DinkelbachState": "one outer Dinkelbach iteration, the items of FastOptimizeResult.iterations",
    "FastOptimizeResult": "return type of fast_optimize_regions",
    "SimResult": "return type of the simulate_* engines",
    "vl_schedule": "length assignment of one variable-length block",
    "vl_update": "buffer update of one variable-length block",
}


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


SRC = Path(harqlink.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_public_names_are_used_inside_the_package():
    refs = {p.stem: _referenced_names(p) for p in MODULES}
    unused = []
    for name in harqlink.__all__:
        obj = getattr(harqlink, name)
        if inspect.ismodule(obj) or name in ALLOWED:
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        if not any(name in names for mod, names in refs.items() if mod != home):
            unused.append(name)
    assert not unused, f"public names no other module uses: {unused}"


def test_module_level_definitions_are_used_inside_the_package():
    # __init__ only re-exports, so its imports do not count as a use
    used = set().union(*(_referenced_names(p) for p in MODULES))
    unused = [f"{p.stem}.{node.name}" for p in MODULES
              for node in ast.parse(p.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used and node.name not in ALLOWED]
    assert not unused, f"public definitions no package module uses: {unused}"


def test_allowed_names_are_public():
    assert set(ALLOWED) <= set(harqlink.__all__)


def test_only_coding_evaluates_the_mi_formulas():
    # coding is the only place that evaluates log2(1 + gamma) and its
    # inverse; channel's np.log1p in the inverse-CDF draw is another call
    banned = {"_LN2", "math.log1p", "math.expm1"}
    found = []
    for path in MODULES:
        if path.stem == "coding":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" if node.module == "math" else a.name
                         for a in node.names]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}: {name}" for name in names if name in banned]
    assert not found, f"MI formula copies outside coding: {found}"


def test_tracer_layers_resolve(monkeypatch):
    # perfbench's tracer skips a name the package no longer defines, so its
    # per-layer metrics would silently vanish from the benchmark report
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = []
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"harqlink.{layer.module}")
        owner, _, method = layer.attr.partition(".")
        obj = getattr(module, owner, None)
        if obj is None or (inspect.isclass(obj) and (method or "__init__") not in vars(obj)):
            missing.append(layer.name)
    assert not missing, f"names the tracer wraps but the package lacks: {missing}"


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, since this one has imported scipy for the tests'
    # references; scipy is a test dependency only
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    code = ("import sys, harqlink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
