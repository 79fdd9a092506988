"""Source hygiene checks on the package modules and the tests."""

import argparse
import ast
import json
import math
import statistics
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "turan_matroids"
# __init__ imports names only to re-export them through __all__
SOURCES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
SOURCES.update({f"tests/{p.name}": p for p in TESTS.glob("*.py")})


def unused_imports(source: str):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = names_read(tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def names_read(tree) -> set:
    """Every bare name that the tree loads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_unused_imports_detected():
    source = "import os\nfrom math import comb, gcd\n\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "comb")]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_unused_imports(name):
    assert unused_imports(SOURCES[name].read_text()) == []


def test_public_names_are_read_by_the_package():
    # a public function or class that only __init__ and the tests reach is
    # dead weight in the package; daisy is exempt as the paper's forbidden
    # hypergraph, which the package detects but never builds
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        read |= names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(defined - read - {"daisy"}) == []


def test_private_names_are_read_by_the_package():
    # a private function or class that nothing outside its own definition
    # reads is dead code, whatever the tests still call it for
    definitions, readers = [], []
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            readers.append((node, names_read(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                definitions.append((path.name, node))
    unread = [
        (module, node.name)
        for module, node in definitions
        if not any(node.name in read for reader, read in readers if reader is not node)
    ]
    assert unread == []


def test_oracles_import_no_private_names():
    # an oracle that imports a fast path's private helper checks it against itself
    tree = ast.parse((TESTS / "oracles.py").read_text())
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "turan_matroids"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_bench_layer_fields_name_public_functions():
    # the benchmark's traced run reads one row per function named in
    # LAYER_FIELDS, and a name the package no longer defines makes it raise
    tree = ast.parse((TESTS.parent / "bench" / "run.py").read_text())
    fields = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "LAYER_FIELDS" for target in node.targets)
    )
    for qualname, _ in ast.literal_eval(fields):
        module, name = qualname.split(".")
        assert not name.startswith("_"), qualname
        defined = {
            node.name
            for node in ast.parse(SOURCES[f"{module}.py"].read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
        assert name in defined, qualname


def test_cli_handlers_resolve_to_cmd_functions(monkeypatch):
    # each subcommand's func looks its cmd_* handler up in cli when called,
    # so a misspelled name would only fail when a user runs that command
    from turan_matroids import cli

    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser
        for action in subs:
            for child in action.choices.values():
                yield from leaves(child)

    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    for name in handlers:
        monkeypatch.setattr(cli, name, lambda args, name=name: name)
    reached = {p.prog: p.get_default("func")(None) for p in leaves(cli.build_parser())}
    assert reached["turan-matroids construct pg"] == "cmd_construct"
    assert reached["turan-matroids cover"] == "cmd_cover"
    assert set(reached.values()) == handlers  # every cmd_* is reached


BENCH_RECORDS = sorted(TESTS.parent.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_is_consistent(path):
    # each committed benchmark record must agree with its own runs
    record = json.loads(path.read_text())
    for key in ("label", "command", "pairs", "parent_revision", "change_revision", "metrics"):
        assert key in record, key
    assert "nproc" in record["machine"]
    pairs = record["pairs"]
    for name, metric in record["metrics"].items():
        for side in ("parent", "change"):
            stats = metric[side]
            runs = stats["runs"]
            assert len(runs) == pairs, (name, side)
            assert math.isclose(stats["median"], statistics.median(runs), rel_tol=1e-3), (name, side)
            assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side)
        if "change_better_pairs" in metric:
            wins = sum(c < p for p, c in zip(metric["parent"]["runs"], metric["change"]["runs"]))
            assert metric["change_better_pairs"] == wins, name
