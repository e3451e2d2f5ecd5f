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


def test_product_memos_are_named_in_finitegroup_only():
    # the naive evaluator reads the product and inverse memos through the
    # getters of FiniteGroup.memo_getters, so the memos' key scheme and
    # their fill rule stay in one module
    memos = {"_memo", "_inv_memo"}
    found = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in memos)
        or (isinstance(node, ast.Name) and node.id in memos)
        or (isinstance(node, ast.Constant) and node.value in memos)
    }
    assert found == {"finitegroup.py"}


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


def test_unit_groups_have_one_form():
    # R^x is a tuple of torsion factors with their generators, read through
    # unit_group(); the greedy scan and the single-factor fields are gone
    gone = {"unit_generators", "_unit_gens", "torsion_generator", "torsion_order"}
    found = {
        f"{path.name}:{node.lineno}: {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (getattr(node, field, None) for field in ("id", "attr", "name", "arg", "value"))
        if isinstance(name, str) and name in gone
    }
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
    descent = {"formula", "unary", "quantifier", "atom", "term", "primary"}
    assert {"format_formula", "_Code.term", "_alpha_match"} <= set(calls)
    assert cyclic == {f"_Parser.{name}" for name in descent} | {"_Code.formula", "_Code.quantifier"}


def _type_values(node) -> set:
    """The strings under a "type" key in the dict displays inside node."""
    return {
        value.value
        for d in ast.walk(node)
        if isinstance(d, ast.Dict)
        for key, value in zip(d.keys, d.values)
        if isinstance(key, ast.Constant) and key.value == "type" and isinstance(value, ast.Constant)
    }


def test_every_document_type_written_is_read():
    # the "type" values that the carrier, backend and psi writers emit are
    # exactly those that carrier_from_json, _backend_from_json and
    # _psi_from_json accept, so every document written reads back
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    classes = {node.name: node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    functions = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}

    def descends(name, root):
        return name == root or any(
            isinstance(base, ast.Name) and base.id in classes and descends(base.id, root)
            for base in classes[name].bases
        )

    def written(root, method):
        return {
            value
            for name, cls in classes.items()
            if descends(name, root)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == method
            for value in _type_values(item)
        }

    def read(reader):
        return {
            node.comparators[0].value
            for node in ast.walk(functions[reader])
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == "kind"
            and isinstance(node.comparators[0], ast.Constant)
        }

    roles = [
        ("AbelianCarrier", "to_json", "carrier_from_json"),
        ("SymCocycle2", "backend_json", "_backend_from_json"),
        ("PsiMap", "to_json", "_psi_from_json"),
    ]
    for root, method, reader in roles:
        assert written(root, method) == read(reader) != set(), root



def _cocycle_backends() -> dict:
    """The classes of cocycles.py that descend from SymCocycle2, by name."""
    path = next(path for path in SOURCES if path.name == "cocycles.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def descends(name):
        return name == "SymCocycle2" or any(
            isinstance(base, ast.Name) and base.id in classes and descends(base.id) for base in classes[name].bases
        )

    backends = {name: cls for name, cls in classes.items() if descends(name)}
    library = {"SymCocycle2", "CarryCocycle", "FunctionTable", "CoboundaryOf", "ProductCocycle", "TransportedCocycle"}
    assert library <= set(backends)
    return backends


def _undeclared(backends: dict, method: str, decorator: str | None = None) -> set:
    """The backends whose own class body does not define method (with the
    decorator, when one is named)."""
    return {
        name
        for name, cls in backends.items()
        if not any(
            isinstance(item, ast.FunctionDef)
            and item.name == method
            and (decorator is None or any(isinstance(d, ast.Name) and d.id == decorator for d in item.decorator_list))
            for item in cls.body
        )
    }


def test_every_cocycle_backend_says_whether_it_is_a_cocycle_by_construction():
    # build_extension and DeformedGroup skip their check on a cocycle by
    # construction, so each backend in cocycles declares the property in
    # its own class body, and none inherits "trusted" by accident
    assert _undeclared(_cocycle_backends(), "is_cocycle_by_construction", "property") == set()


def test_every_cocycle_backend_declares_its_inverse():
    # cocycle_inverse asks the backend, so each one says in its own class
    # body how it inverts, and none inherits the base class's refusal by
    # accident
    assert _undeclared(_cocycle_backends(), "inverse") == set()


def _backend_names() -> set:
    """The names of the concrete backends: SymCocycle2 itself is the type
    that inputs are checked against, not a backend."""
    return set(_cocycle_backends()) - {"SymCocycle2"}


def test_no_isinstance_on_a_backend_outside_its_own_class():
    # a backend answers its own questions (inverse, product, transport,
    # triviality), so no code asks which backend it holds, except a
    # backend's method about an argument of its own class
    backends, found = _backend_names(), set()

    def visit(node, owner, path):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in backends and name != owner:
                    found.add(f"{path.name}:{node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), None, path)
    assert found == set()


def test_backends_are_named_in_cocycles_only():
    # no other module builds, imports or tests for a backend class;
    # __init__ lists their names as strings in its export table
    backends, found = _backend_names(), set()
    for path in SOURCES:
        if path.name == "cocycles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Constant) and path.name != "__init__.py":
                names = {node.value}
            else:
                continue
            found |= {f"{path.name}:{node.lineno}: {name}" for name in names & backends}
    assert found == set()


def test_cocycles_enter_through_one_check():
    # a transport is built in cocycles only, from the AbHoms that
    # transport_cocycle checked, and DeformedGroup decides whether an input
    # is a cocycle through cocycles.check_cocycle, not by a check of its own
    calls, imports = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TransportedCocycle":
                    calls.add(path.name)
            elif isinstance(node, ast.ImportFrom) and path.name == "trigroup.py":
                imports |= {alias.name for alias in node.names}
    assert calls == {"cocycles.py"}
    assert "check_cocycle" in imports and "verify_cocycle" not in imports


def test_cli_imports_only_config_errors_and_report_at_module_level():
    # a command compiles only the submodules its handler imports, so an
    # import at the top of cli.py would bring back the compile cost of
    # the package for every command
    path = next(path for path in SOURCES if path.name == "cli.py")
    todo, found = list(ast.parse(path.read_text(), filename=str(path)).body), set()
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("triadeform"):
            found |= {node.module}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("triadeform")}
    assert found == {"config", "errors", "report"}


def test_sympy_is_named_in_rings_is_prime_only():
    # factoring is trial division everywhere; sympy's isprime answers only
    # the primality question trial division cannot settle
    def names_sympy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] == "sympy" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "sympy"
        return isinstance(node, ast.Name) and node.id == "sympy" or isinstance(node, ast.Constant) and node.value == "sympy"

    found, imports = set(), 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in tree.body
            if path.name == "rings.py" and isinstance(fn, ast.FunctionDef) and fn.name == "_is_prime"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if names_sympy(node):
                imports += id(node) in allowed
                if id(node) not in allowed:
                    found.add(f"{path.name}:{node.lineno}")
    assert imports == 1 and found == set()


def test_no_comparands_for_zero_and_one():
    # every ring returns its own zero and one for 0 and 1, so the normal form
    # tests them by identity and no module keeps a second value to compare
    # against
    names = {"zero_cmp", "one_cmp", "_ones_cmp"}
    found = {
        f"{path.name}:{node.lineno}: {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in names & {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)}
    }
    assert found == set()
