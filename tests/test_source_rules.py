"""Rules on the library source itself."""

import ast
import pathlib

import triadeform

SOURCES = sorted(pathlib.Path(triadeform.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so none may carry a correctness check
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []


def test_fraction_slots_are_touched_in_rings_only():
    # rings builds Fractions by setting their private slots, a CPython
    # detail that must stay in one module
    slots = {"_numerator", "_denominator"}
    found = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in slots)
        or (isinstance(node, ast.Constant) and node.value in slots)
    }
    assert found == {"rings.py"}


def test_element_fields_are_read_in_trigroup_only():
    # the structure descriptions and the bridges read elements through the
    # coordinate questions of trigroup.TriangularGroup, so the matrix rows
    # and the normal-form fields stay behind that one module
    fields = {"rows", "xbar", "upper"}
    found = {
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "trigroup.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in fields
    }
    assert found == set()
