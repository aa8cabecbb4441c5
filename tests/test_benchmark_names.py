"""The benchmark's tracer (``perfbench/tracer.py``) wraps flagslice functions
by name, so renaming or deleting one breaks the benchmark.  This reads the
tracer's name lists from its source, without importing or running it, and
checks that each name still resolves in its module."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LISTS = ("GAUSSIAN", "GEOMETRY", "ENUMERATORS", "POINT_BUILDERS", "PERMUTATIONS",
         "HOMOLOGY", "CHECK_GROUPS", "COMMANDS")


def tracer_lists() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in LISTS}


def wrapped_names() -> list[tuple[str, str]]:
    """(module, name) for every name the tracer wraps; a method is ``Class.method``."""
    lists = tracer_lists()
    assert set(lists) == set(LISTS)
    names = [(module, name) for module, key in (("gaussian", "GAUSSIAN"),
                                                ("geometry", "GEOMETRY"),
                                                ("permutations", "PERMUTATIONS"),
                                                ("homology", "HOMOLOGY"),
                                                ("cli", "COMMANDS"))
             for name in lists[key]]
    names += [(module, name) for key in ("ENUMERATORS", "POINT_BUILDERS")
              for module, group in lists[key].items() for name in group]
    names += [("checks", name) for group in lists["CHECK_GROUPS"].values() for name in group]
    names += [("cli", name) for name in ("build_parser", "render", "main", "_word_row")]
    return names


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"flagslice.{module}")
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_every_name_the_benchmark_wraps_resolves():
    names = wrapped_names()
    assert len(names) > 40
    assert [f"{module}.{path}" for module, path in names if not resolves(module, path)] == []
    # The tracer wraps ``rank`` in every namespace that holds it, which is one
    # object only while ``geometry`` re-exports ``gaussian``'s.
    from flagslice import gaussian, geometry
    assert geometry.rank is gaussian.rank
