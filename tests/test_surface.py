"""The library and the CLI are exactly what the program runs.

Every public function and method under src/graphpsd must be reached from a
root: a name the package __init__ exports, cli.main (the console script), or
a call in perfbench/sweep.py (the benchmark's layer sweep).  A function is
reached when a reached function refers to it, by its bare name in its own
module or through an import, or as an attribute of a graphpsd module; a
method is reached when a reached function names it as an attribute of any
object.  The analysis is static and reads only the sources.
"""

import ast
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from graphpsd import cli
from graphpsd.cli import main
from graphpsd.constructors import (
    build_tree_preserver_poly,
    mult_convexity_threshold,
    superadditivity_threshold,
)
from graphpsd.functions import EntrywiseFunction

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphpsd"
SWEEP = ROOT / "perfbench" / "sweep.py"


def _imports(tree, modules):
    """(name -> 'module.attr' for names imported from package modules,
    alias -> module for package modules imported whole)."""
    names, mods = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").removeprefix("graphpsd").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source in modules:
                names[local] = f"{source}.{alias.name}"
            elif not source and alias.name in modules:
                mods[local] = alias.name
    return names, mods


def _references(node, module, defs, names, mods, methods):
    """The functions and methods that code under node refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if f"{module}.{sub.id}" in defs:
                out.add(f"{module}.{sub.id}")
            elif sub.id in names:
                out.add(names[sub.id])
        elif isinstance(sub, ast.Attribute):
            owner = sub.value.id if isinstance(sub.value, ast.Name) else None
            if owner in mods:
                out.add(f"{mods[owner]}.{sub.attr}")
            out |= methods.get(sub.attr, set())
    return out


def surface():
    """(public functions and methods, the reached ones), as 'module.name' and
    'module.Class.method'."""
    files = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    trees = {m: ast.parse(p.read_text()) for m, p in files.items()}
    defs, methods = {}, {}  # qualified name -> node; method name -> qualified names
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = (module, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qual = f"{module}.{node.name}.{item.name}"
                        defs[qual] = (module, item)
                        methods.setdefault(item.name, set()).add(qual)
    scope = {m: _imports(tree, files) for m, tree in trees.items()}

    init_names, _ = _imports(ast.parse((PACKAGE / "__init__.py").read_text()), files)
    roots = {q for q in init_names.values() if q in defs} | {"cli.main"}
    sweep_tree = ast.parse(SWEEP.read_text())
    roots |= _references(sweep_tree, "", defs, *_imports(sweep_tree, files), methods)

    reached, todo = set(), list(roots)
    while todo:
        qual = todo.pop()
        if qual in reached or qual not in defs:
            continue
        reached.add(qual)
        module, node = defs[qual]
        todo += _references(node, module, defs, *scope[module], methods)
    public = {q for q in defs if not q.rsplit(".", 1)[1].startswith("_")}
    return public, reached


def test_every_public_function_is_reached():
    public, reached = surface()
    assert "functions.decide_tree_conditions" in reached  # the analysis follows cli.main
    assert "functions.EntrywiseFunction.value" in reached
    assert sorted(public - reached) == []


REMOVED_FLAGS = [
    ("absmon-test", "1*x^2", "--trials", "5"),
    ("witness", "star 4", "--trials", "5"),
    ("construct", "poly", "--trials", "5"),
    ("witness", "star 4", "--grid", "0.1"),
    ("critical-exponent", "path 4", "2", "--grid", "0.1"),
    ("construct", "poly", "--grid", "0.1"),
    ("star-suite", "--grid", "0.1"),
    ("witness", "star 4", "--range", "4"),
    ("construct", "poly", "--range", "4"),
    ("star-suite", "--range", "4"),
    # flags that these commands read nowhere
    ("absmon-test", "1*x^2", "--tol", "1e-9"),
    ("witness", "star 4", "--tol", "1e-9"),
    ("construct", "poly", "--tol", "1e-9"),
    ("star-suite", "--tol", "1e-9"),
    # no verdict reads a tolerance: the reports print a constant one
    ("preserver-test", "1*x^2, -1*x^1", "--tol", "inf"),
    ("preserver-test", "1*x^2", "--tol", "nan"),
    ("preserver-test", "1*x^2, -1*x^1", "--trials", "50", "--tol", "0.5"),
    ("critical-exponent", "path 5", "0.5", "--tol", "2e-6"),
    ("critical-exponent", "path 5", "0.5", "--tol", "inf"),
    ("critical-exponent", "path 5", "0.5", "--tol", "0"),
    ("absmon-test", "1*x^2", "--seed", "3"),
    ("construct", "poly", "--seed", "3"),
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS)
def test_removed_flags_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]}" in err and "Traceback" not in err


def readme_flag_rows():
    """{subcommand: its flags} from README's | subcommand | flags | table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2  # past the header rule
    rows = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        command, flags = line.strip("|").split(" | ")
        rows[command.strip(" `").split()[0]] = set(re.findall(r"`(-n|--[a-z-]+)`", flags))
    return rows


def test_readme_flags_table_matches_the_parsers():
    # every subcommand's row lists just the flags its parser takes, apart
    # from -h, --out and --format, which every subcommand takes
    parsers = cli._parsers()[1]
    rows = readme_flag_rows()
    assert sorted(rows) == sorted(parsers)
    for name, flags in rows.items():
        options = {s for action in parsers[name]._actions for s in action.option_strings}
        assert flags == options - {"-h", "--help", "--out", "--format"}, name


def reference_tree_preserver_poly(n_neg):
    """The construction written out: exponents 1, 2, then n_neg negatives,
    then two positives; each negative gets half the tighter budget / n_neg."""
    lo, hi = 2.0, float(n_neg + 3)
    nu = superadditivity_threshold(lo, hi, 1.0, 1.0).threshold
    lam = mult_convexity_threshold(1.0, lo, hi, hi + 1.0, 1.0, 1.0, 1.0, 1.0).threshold
    c_mid = -0.5 * min(nu, lam) / n_neg
    terms = [(1.0, 1.0), (1.0, 2.0)]
    terms += [(c_mid, float(k)) for k in range(3, n_neg + 3)]
    terms += [(1.0, hi), (1.0, hi + 1.0)]
    return EntrywiseFunction(tuple(terms))


@pytest.mark.parametrize("n_neg", range(1, 13))
def test_tree_preserver_poly_is_the_entire_block(n_neg):
    assert build_tree_preserver_poly(n_neg) == reference_tree_preserver_poly(n_neg)


def test_cli_import_loads_neither_fractions_nor_decimal():
    # each costs about 1 ms of every start-up; the few paths that need exact
    # rationals or decimals import them where they run, and so does the
    # decision of the tree conditions its integer rules
    code = ("import sys, graphpsd.cli; print(sorted({'fractions', 'decimal', '_decimal', "
            "'_pydecimal', 'graphpsd._exact'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_witness_command_loads_no_numpy_ma():
    # np.unique imports numpy.ma, which no command needs (about 0.25 MB of
    # resident memory in a fresh interpreter); the witness constructors
    # check distinctness without it
    code = ("import contextlib, io, sys, graphpsd.cli\n"
            "before = 'numpy.ma' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = graphpsd.cli.main(['witness', 'star 6'])\n"
            "print(code, before or 'numpy.ma' not in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert out.stdout.split() == ["0", "True"]
