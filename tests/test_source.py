import ast
import inspect
from pathlib import Path
from typing import Iterator

import sturmian
from sturmian import cli, cover, groupoid, invariants, quadratics, words

SOURCES = sorted(Path(sturmian.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must hold under `python -O`, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _imports(node, module: str) -> bool:
    """Whether node is an import statement of the top-level module `module` or of a submodule."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == module for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module


def test_no_dataclasses():
    # the value classes are quadratics._Record subclasses: importing dataclasses
    # would load inspect too, milliseconds on every CLI request
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports(node, "dataclasses")
    ]
    assert SOURCES and not found, found


MATH_NAMES = {"isqrt", "gcd", "floor"}  # exact on integers, and floor on the field's own __floor__


def _is_float(node) -> bool:
    """Whether node brings floating point in: a float or complex constant, a true
    division, a call of float or complex, or a math name outside MATH_NAMES."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) in ("float", "complex")
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "math" and node.attr not in MATH_NAMES
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name not in MATH_NAMES for a in node.names)
    return False


def test_no_floats():
    # every answer is exact: integers, field elements and fractions, never a float
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_float(node)
    ]
    assert SOURCES and not found, found
    planted = {
        # the chain pass's old sentinel for "no chain"
        "end = [s if ok else math.inf for s, ok in enumerate(allowed)] + [math.inf] * max(jumps)": True,
        "x = 0.5": True,
        "x = 1e3": True,
        "x = 2j": True,
        "a / b": True,
        "a /= b": True,
        "float(n)": True,
        "complex(1, 2)": True,
        "math.sqrt(n)": True,
        "from math import inf": True,
        "a // b": False,
        "a //= b": False,
        "x = 1": False,
        "x = '0.5'": False,
        "math.isqrt(n) + math.gcd(a, b) + math.floor(x)": False,
        "from math import gcd, isqrt": False,
        "Fraction(1, 2)": False,
    }
    for source, flagged in planted.items():
        assert any(map(_is_float, ast.walk(ast.parse(source)))) == flagged, source


def _run_at_import(body: list) -> Iterator[ast.AST]:
    """The statements of body that run when the module is imported: all but the
    bodies of functions and of `if TYPE_CHECKING:` blocks, nested ones included."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _run_at_import(stmt.orelse)
            continue
        yield stmt
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(stmt, block, []))


def _imports_fractions_at_import(tree: ast.Module) -> list[int]:
    return [node.lineno for node in _run_at_import(tree.body) if _imports(node, "fractions")]


def test_fractions_only_on_demand():
    # fractions loads decimal, about 2 ms of every CLI request, and only a rational
    # point or result builds a Fraction: the module is imported in the function
    # that needs it, or under TYPE_CHECKING for annotations
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _imports_fractions_at_import(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found
    planted = {
        "from fractions import Fraction": [1],
        "import fractions": [1],
        "import fractions as fr, math": [1],
        "try:\n    from fractions import Fraction\nexcept ImportError:\n    pass": [2],
        "class C:\n    from fractions import Fraction": [2],
        "if TYPE_CHECKING:\n    pass\nelse:\n    import fractions": [4],
        "if TYPE_CHECKING:\n    from fractions import Fraction": [],
        "if typing.TYPE_CHECKING:\n    import fractions": [],
        "def f():\n    from fractions import Fraction": [],
        "import fractionsx": [],
    }
    for source, lines in planted.items():
        assert _imports_fractions_at_import(ast.parse(source)) == lines, source


RECORD_METHODS = {"__eq__", "__hash__", "__repr__", "__setattr__", "_at"}


def _binds(node: ast.ClassDef) -> set[str]:
    """The names a class body binds by def or by plain assignment."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return names


def test_one_record_base():
    # every value class takes equality, hash, repr, immutability and the
    # trusted constructor from quadratics._Record, so no other class body defines them
    found = [
        f"{path.name}:{node.lineno} {node.name}.{name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and (path.name, node.name) != ("quadratics.py", "_Record")
        for name in sorted(RECORD_METHODS & _binds(node))
    ]
    assert SOURCES and found == [], found


def _is_unbounded_cache(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and isinstance(node.value, ast.Name) and node.value.id == "functools"
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache":
        return False
    sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_no_unbounded_caches():
    # lru_cache(maxsize=None) and functools.cache grow for the life of the process
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_unbounded_cache(node)
    ]
    assert SOURCES and not found, found


def test_square_roots_only_in_the_field():
    # every floor of a field value goes through quadratics._floor or
    # quadratics._surd_floor, so math.isqrt is called in quadratics.py alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "quadratics.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "isqrt" or getattr(node.func, "id", None) == "isqrt")
    ]
    assert SOURCES and found == [], found


def _names_a_point(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "alpha"
    return isinstance(node, ast.Attribute) and node.attr in ("alpha", "t")


def test_no_field_arithmetic_on_points():
    # circle points are integer triples, built in sturmian.words, and arcs
    # their cut point tags, built in sturmian.arcs; neither those two nor the
    # cover, the groupoid or the CLI may redo that arithmetic on field elements
    found = sorted(
        {
            f"{path.name}:{node.lineno}"
            for path in SOURCES
            if path.name in ("words.py", "arcs.py", "cover.py", "groupoid.py", "cli.py")
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.BinOp) and (_names_a_point(node.left) or _names_a_point(node.right))
        }
    )
    assert found == [], found


def _callers(name: str) -> set[str]:
    """module:function for each top-level function of src/ that calls `name`, and
    module:<elsewhere> for a module with a call outside them, in a method or at top level."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        found.update(f"{path.name}:{node.name}" for node in functions if _calls(node, name))
        if _calls(tree, name) != sum(_calls(node, name) for node in functions):
            found.add(f"{path.name}:<elsewhere>")
    return found


def test_threads_built_in_one_place():
    # every top is built in cover._tops alone, for every chain of every entry
    # point: the section's is its point's eq_class, a chain's one word of that
    # class's past; the entry points wrap the tops they need in a Thread, and
    # cover.shift_thread maps the grid class of a thread it is given
    entries = ("thread_of", "construct_fibre_element", "fibre")
    assert _callers("eq_class") == {"cover.py:_tops"}
    assert _callers("Thread") == {f"cover.py:{name}" for name in (*entries, "shift_thread")}
    tree = ast.parse(inspect.getsource(cover))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert all(_calls(functions[name], "_tops") for name in entries)
    assert _calls(functions["shift_thread"], "shift_map")


def _trusted_cf_calls(node) -> list[int]:
    return [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", None) == "_at"
        and getattr(n.func.value, "id", None) == "ContinuedFraction"
    ]


def test_trusted_continued_fractions_built_in_one_place():
    # ContinuedFraction._at skips canonicalisation, so only invariants.cf_expand,
    # whose expansion is canonical as built, may call it
    builders, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and (path.name, node.name) == ("invariants.py", "cf_expand")
                and _trusted_cf_calls(node)
            ):
                builders.append(node.name)
                inside.update(_trusted_cf_calls(node))
        found += [f"{path.name}:{line}" for line in _trusted_cf_calls(tree) if line not in inside]
    assert builders == ["cf_expand"] and found == [], found


def _calls_away_from_home(trees: dict, homes: dict) -> list[str]:
    """The calls X._at(...) in a module other than X's home."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_at"
        and homes.get(getattr(node.func.value, "id", None), name) != name
    ]


def test_trusted_constructors_stay_home():
    # X._at skips the checks of X's constructor, so only X's home module may
    # call it: the other layers build points through words' public makers or
    # words._orbit_point, and field values through the field's arithmetic.
    # Every record inherits _at, so every class of the package has its home
    # read from its ClassDef, and a call from elsewhere is caught for each.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    homes = {node.name: name for name, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = _calls_away_from_home(trees, homes)
    assert SOURCES and found == [], found
    planted = {"elsewhere.py": ast.parse("\n".join(f"{cls}._at(())" for cls in homes))}
    assert len(_calls_away_from_home(planted, homes)) == len(homes)


def test_word_length_bound_only_in_words():
    # a str holds at most sys.maxsize letters, and the codings of 0 twice
    # their coded half; words._word alone checks a length against that
    # bound, and every caller reports its ValueError
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "words.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "maxsize"
    ]
    assert SOURCES and found == [], found


def _is_reversal(node) -> bool:
    """Whether node is the slice of s[::-1]."""
    return (
        isinstance(node, ast.Slice)
        and node.lower is node.upper is None
        and node.step is not None
        and ast.unparse(node.step) == "-1"
    )


def test_r_coding_of_zero_built_once():
    # both codings of 0 are mirrored from one coded half, letters 1..n;
    # words._zero_words alone reverses it, for the arcs and the quotient
    tree = ast.parse(inspect.getsource(words))
    found = [node.lineno for node in ast.walk(tree) if _is_reversal(node)]
    assert len(found) == 1, found
    assert any(_is_reversal(node) for node in ast.walk(ast.parse(inspect.getsource(words._zero_words))))


def _stepped_slices(node) -> list[str]:
    return [ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Slice) and n.step is not None]


def test_quadratics_reverses_digits_only_to_test_symmetry():
    # the fold's symmetry test, reversed(w) == w[j:] + w[:j], is the one
    # reversal of a digit tuple; quadratics._period mirrors each walked half by
    # one slice from its axis back, and no other slice in the field or the
    # continued fractions (invariants) has a step
    trees = [ast.parse(inspect.getsource(module)) for module in (quadratics, invariants)]
    functions = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [n for tree in trees for n in ast.walk(tree) if _is_reversal(n)] == [
        n for n in ast.walk(functions["_fold"]) if _is_reversal(n)
    ] != []
    assert sum(len(_stepped_slices(tree)) for tree in trees) == 2
    assert len(_stepped_slices(functions["_fold"])) == len(_stepped_slices(functions["_period"])) == 1


def _calls(node, name: str) -> int:
    """The calls of the function called name under node."""
    return sum(
        isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node)
    )


def test_cover_codes_zero_once_per_entry_point():
    # the cover codes the codings of 0 where a quotient or a fibre begins, once:
    # the classes, and a fibre's death certificates, read the pair they are given
    tree = ast.parse(inspect.getsource(cover))
    callers = {
        node.name: _calls(node, "_zero_words")
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and _calls(node, "_zero_words")
    }
    assert callers == {"quotient": 1, "fibre": 1} and _calls(tree, "_zero_words") == 2, callers


def test_cover_reads_prefixes_and_chains_off_pasts():
    # a class's prefix ends its past word on its point's side, and a chain's top is
    # that class's past word on the chain's side: the cover codes no prefix or window
    # of its own, and _tops builds no chain point to code
    tree = ast.parse(inspect.getsource(cover))
    assert _calls(tree, "code_word") == 0
    (tops,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_tops"]
    assert [_calls(tops, name) for name in ("_orbit_point", "OrbitPoint", "shift")] == [0, 0, 0]


def _recurrences(node) -> int:
    """The steps Q = (D - P*P)/Q of the reduced-cycle recurrence under node."""
    return sum(isinstance(n, ast.Assign) and ast.unparse(n) == "Q = (D - P * P) // Q" for n in ast.walk(node))


def test_one_period_walk():
    # the recurrence steps through quadratics._reduced's preperiod and through
    # quadratics._period's walk of the cycle, a plain function; invariants'
    # cf_expand reads its digits and flow_equivalent its flag, and neither
    # walks the cycle on its own
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    functions = {
        (name, node.name): node for name, tree in trees.items() for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    walkers = {key: _recurrences(node) for key, node in functions.items() if _recurrences(node)}
    assert walkers == {("quadratics.py", "_reduced"): 1, ("quadratics.py", "_period"): 1}, walkers
    assert sum(map(_recurrences, trees.values())) == 2
    for name in ("quadratics.py", "invariants.py"):
        assert not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(trees[name])), name
    assert _calls(functions["invariants.py", "cf_expand"], "_period")
    assert _calls(functions["invariants.py", "flow_equivalent"], "_period")


def test_one_squarefree_split():
    # values compare by their minimal polynomial's key, so construction factors
    # nothing; cf_value alone still splits its tail's discriminant
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    callers = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for _ in range(_calls(node, "_squarefree_split"))
    ]
    assert callers == [("invariants.py", "cf_value")], callers
    assert sum(_calls(tree, "_squarefree_split") for tree in trees.values()) == 1


def _imports_layer(node, layer: str) -> bool:
    """Whether node imports sturmian.<layer>: `from .<layer> import ...`, `from . import <layer>`
    or `import sturmian.<layer>`."""
    if isinstance(node, ast.Import):
        return any(a.name == f"sturmian.{layer}" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = ("." * node.level) + (node.module or "")
    if module in (f".{layer}", f"sturmian.{layer}"):
        return True
    return module in (".", "sturmian") and any(a.name == layer for a in node.names)


def test_groupoid_never_imports_the_cover():
    # `dad` loads quadratics, words, arcs and groupoid alone: the witness and
    # its check read words, so no import of the cover may stand anywhere in
    # groupoid.py, at module level, inside a function or under TYPE_CHECKING
    tree = ast.parse(inspect.getsource(groupoid))
    found = [node.lineno for node in ast.walk(tree) if _imports_layer(node, "cover")]
    assert found == [], found
    planted = ["from .cover import thread_of", "from . import cover", "import sturmian.cover",
               "from sturmian.cover import Thread"]
    assert all(_imports_layer(ast.parse(line).body[0], "cover") for line in planted)


def test_words_never_imports_the_arcs():
    # `omega`, `word`, `language` and `past` load quadratics and words alone:
    # the circle geometry lives in arcs, which imports words, so no import of
    # arcs may stand anywhere in words.py, under TYPE_CHECKING included
    tree = ast.parse(inspect.getsource(words))
    found = [node.lineno for node in ast.walk(tree) if _imports_layer(node, "arcs")]
    assert found == [], found
    planted = ["from .arcs import cylinder_arc", "from . import arcs", "import sturmian.arcs",
               "from sturmian.arcs import Arc"]
    assert all(_imports_layer(ast.parse(line).body[0], "arcs") for line in planted)


USAGE_ERRORS = {"ValueError", "ZeroDivisionError", "UsageError"}


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The exception names an except clause catches; a bare except catches everything."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {ast.unparse(t) for t in types}


def test_cli_catches_only_usage_errors():
    # every handler in the CLI turns a usage error into exit 2, so exit 1 comes
    # only from a printed report, never from a caught exception
    handlers = [n for n in ast.walk(ast.parse(inspect.getsource(cli))) if isinstance(n, ast.ExceptHandler)]
    caught = set().union(*map(_caught, handlers))
    assert handlers and caught <= USAGE_ERRORS, caught
    planted = ["except RuntimeError", "except", "except (ValueError, KeyError) as e"]
    for line in planted:
        (handler,) = ast.parse(f"try:\n    pass\n{line}:\n    pass").body[0].handlers
        assert not _caught(handler) <= USAGE_ERRORS, line


def _printers(trees: dict) -> list[str]:
    """The calls of print, each named by its module and its top-level function."""
    return [
        f"{name}:{getattr(top, 'name', '<module>')}:{node.lineno}"
        for name, tree in trees.items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]


def test_only_cli_main_prints():
    # the runners return their payload, text lines and verdict, and cli.main
    # alone writes them and picks the exit code, so the exit contract has one owner
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    found = _printers(trees)
    assert found and all(p.startswith("cli.py:main:") for p in found), found
    planted = {"cli.py": ast.parse("def _run_word(args):\n    print(args)\nprint()")}
    assert _printers(planted) == ["cli.py:_run_word:2", "cli.py:<module>:3"]
