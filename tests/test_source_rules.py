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
    # coordinate questions of trigroup.TriangularGroup, so the matrix rows,
    # the normal-form fields and the slots behind them stay behind that one
    # module
    fields = {"rows", "xbar", "upper", "_xbar", "_z", "_cells", "_support", "_keys"}
    found = {
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "trigroup.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in fields
    }
    assert found == set()


def test_ring_classes_are_named_in_rings_only():
    # each ring answers the domain rule, ideal membership and its unit
    # exponents itself, so no other module branches on a ring's class or
    # reads a private name of rings; __init__ may re-export the classes
    classes = {"IntegerRing", "RationalField", "IntegersMod", "QuadraticOrder", "GaussianIntegers"}
    found = set()
    for path in SOURCES:
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    private = node.module == "rings" and alias.name.startswith("_")
                    if private or (alias.name in classes and path.name != "__init__.py"):
                        found.add(f"{path.name}:{node.lineno}: imports {alias.name}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in classes or name == "_trial_factor":
                    found.add(f"{path.name}:{node.lineno}: {name}")
    assert found == set()


def test_one_square_and_multiply_loop():
    # powers in R^x, in E(f) and in the deformed groups all call
    # abgroups.power_by_squaring, the one loop that halves an exponent
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
    ]
    assert found == ["abgroups.py"]


def test_fologic_recurses_only_where_the_parser_bounds_the_depth():
    # the call graph of fologic (calls to module functions, and to methods
    # through self) has cycles only in the parser's descent and in the
    # compiler's connective and quantifier levels, which nest no deeper
    # than the parser lets them; the printer and the term compiler are loops
    path = next(path for path in SOURCES if path.name == "fologic.py")
    calls: dict[str, set[str]] = {}

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name + ".")
            elif isinstance(node, ast.FunctionDef):
                called = calls.setdefault(owner + node.name, set())
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                        called.add(sub.func.id)
                    elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and owner:
                        if isinstance(sub.func.value, ast.Name) and sub.func.value.id == "self":
                            called.add(owner + sub.func.attr)

    visit(ast.parse(path.read_text(), filename=str(path)).body, "")

    def reaches_itself(name):
        seen, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee == name:
                    return True
                if callee in calls and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return False

    cyclic = {name for name in calls if reaches_itself(name)}
    descent = {"formula", "disjunction", "conjunction", "unary", "quantifier", "atom", "term", "factor", "primary"}
    assert {"format_formula", "_Code.term", "_alpha_match"} <= set(calls)
    assert cyclic == {f"_Parser.{name}" for name in descent} | {"_Code.formula", "_Code.quantifier"}
