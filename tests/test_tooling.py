"""Checks on the shape of the source tree.  The benchmark's tracer wraps
package functions by name: every name it lists must resolve, or each
traced benchmark run stops with a KeyError.  And src/ keeps only what a
command, the engine or the benchmark reaches."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for mod_name, path in tracer.TRACED:
        owner = importlib.import_module("fdtc." + mod_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        # the tracer reads the attribute off its owner's own namespace
        assert attr in vars(owner), "%s.%s" % (mod_name, path)


SRC = Path(__file__).resolve().parent.parent / "src" / "fdtc"

# public functions that only the tests call, each kept for the open
# ROADMAP item that decides it
HOLDOUTS = {
    "geometric_intersection": "item 5: the gate of curves on every surface",
    "acts_identically": "item 6: classify a monodromy from its word",
    "right_veering_test": "item 6: classify a monodromy from its word",
    "admissible_values": "item 6: classify a monodromy from its word",
    "closed_surface_fdtc_bound": "item 6: classify a monodromy from its word",
    "braid_genus_bounds": "item 6: classify a monodromy from its word",
    "genus_lower_bound": "item 6: classify a monodromy from its word",
}


def _public_definitions(tree):
    """(name, first line, last line) of the module's public top-level
    functions and of the public methods of its top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = node.body
        else:
            members = [node]
        for f in members:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                yield f.name, f.lineno, f.end_lineno


def _named(tree):
    """(name, line) of every name, attribute and import in the module."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif isinstance(n, ast.alias):
            yield n.name, n.lineno


def test_src_keeps_only_what_is_reached():
    """Every public function or method in src/fdtc is named in src/
    outside its own definition, in bench/*.py or in the README: a
    command, the engine or the benchmark reaches it.  What only the
    tests use belongs in tests/, and a holdout that gains a caller
    leaves the list."""
    root = SRC.parent.parent
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    named = [(name, module, line) for module, tree in trees.items()
             for name, line in _named(tree)]
    outside = (root / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((root / "bench").glob("*.py")))
    wrong = []
    for module, tree in trees.items():
        for name, first, last in _public_definitions(tree):
            reached = any(
                n == name and not (m == module and first <= line <= last)
                for n, m, line in named) or re.search(
                    r"\b%s\b" % re.escape(name), outside)
            if bool(reached) == (name in HOLDOUTS):
                wrong.append("%s:%d %s" % (module, first, name))
    assert wrong == []
