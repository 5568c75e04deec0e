"""Guard on the one owner of every grid rule.

A grid's rules (its nodes, taps, poles, quadrature, curvature rows, pieces of
the linearization, resampling, mean, embedding and starshapedness rule) are
its grid family's, the classes in `geometry._FAMILIES`. Code outside them
reads a family's arrays or calls its rules; it does not branch on a grid's
dimension. The guard parses `geometry`, `flow` and `verify` and fails on any
comparison of a dimension (`dim` or `x.dim`) with 1 or 2, or of the
profile's kit fields `poles` and `cot` with None, outside the family
definitions and the two verify gates on an input's dimension."""

import ast
import os

import pytest

from starflow import geometry

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "starflow")
GRID_DIMS = (1, 2)


def _is_dimension(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dim") or (
        isinstance(node, ast.Attribute) and node.attr == "dim")


def _is_grid_dim(node) -> bool:
    """A literal 1 or 2 (not a bool), or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_grid_dim(item) for item in node.elts)
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in GRID_DIMS)


def _is_profile_field(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("poles", "cot")


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def dimension_branches(path: str, exempt: set) -> list:
    """'line: source' of every comparison of a dimension with 1 or 2, or of a
    kit's poles or cot with None, in the module at path, outside the
    top-level definitions named in exempt."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    skipped = [range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in exempt]
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or any(node.lineno in lines for lines in skipped):
            continue
        operands = [node.left, *node.comparators]
        if (any(map(_is_dimension, operands)) and any(map(_is_grid_dim, operands))
                or any(map(_is_profile_field, operands)) and any(map(_is_none, operands))):
            sites.append((node.lineno, ast.get_source_segment(source, node)))
    return [f"{line}: {text}" for line, text in sorted(sites)]


@pytest.mark.parametrize("module, exempt", [
    ("geometry", {type(family).__name__ for family in geometry._FAMILIES.values()}),
    ("flow", set()),
    ("verify", {"curve_from_radial", "check_prop1_axisym"}),
])
def test_no_branch_on_a_grid_dimension_outside_the_families(module, exempt):
    assert dimension_branches(os.path.join(SRC, f"{module}.py"), exempt) == []


def test_the_guard_sees_a_branch_on_a_dimension(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(g, dim):\n"
                    "    a = 1 if g.dim == 1 else 2\n"
                    "    b = dim in (2, 3)\n"
                    "    c = g.ndim == 1 or dim == True or dim > g.n\n"
                    "    if kit.poles is not None and kit.taps is not None:\n"
                    "        c = kit.cot == 0.0\n"
                    "    return a, b, c\n\n\n"
                    "class Family:\n"
                    "    def size(self, dim):\n"
                    "        return 1 if dim == 2 else 0\n")
    assert dimension_branches(str(path), {"Family"}) == [
        "2: g.dim == 1", "3: dim in (2, 3)", "5: kit.poles is not None"]
    assert len(dimension_branches(str(path), set())) == 4
