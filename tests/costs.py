"""The cost ledger, BENCH_costs.json: exact counts that host noise cannot move.

Its section `compile_nodes` has one line per CLI case of
`test_imports.TestModulesLoaded`: the AST nodes of the sturmian modules
that the request loads, the package's `__init__` included.  With bytecode
writing off, every request compiles those modules from source, at about
1 µs per node, so a claim about a command's cold start rests on this count.
The modules of each case are listed here once; TestModulesLoaded checks
them in a fresh interpreter.

Its section `witness_lengths` lists, for each cocycle value set F of
WITNESS_CASES on FIB, the word lengths `dad_witness` codes a word for, in
the order it tries them; the search's cost is about one coded length each.

Its section `kernel_floors` counts, for each op of OPS, the calls of the
kernel floor `quadratics._floor` made from `words` and `arcs`, where every
letter, cut-point comparison and first entry is decided; the `floors`
fixture of test_kernel counts the same calls.  Its section `eq_classes`
counts, for the same ops, the `EqClass` records that `cover` constructs:
a thread costs a few, a quotient one per class.

Its section `source_lines` holds the line count of each `sturmian/*.py`, as
`wc -l` counts them, and their `total`: the size of `src/` that a change
removing code reports.

    PYTHONPATH=src python tests/costs.py            # print the ledger
    PYTHONPATH=src python tests/costs.py --write    # regenerate BENCH_costs.json, print what moved
"""

import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

from sturmian import arcs, cover, groupoid, words
from sturmian.quadratics import parse_quad

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sturmian"
LEDGER = ROOT / "BENCH_costs.json"

FIB = "quad:3,-1,5,2"
CODING = {"quadratics", "words", "cli"}
CIRCLE = {"arcs"}  # cylinder arcs, first landings and recurrence bounds
RATIONAL = {"fractions", "decimal"}  # only a p/q point builds a Fraction
JSON = {"json"}  # only -o json prints with json
DECIDERS = {"quadratics", "invariants", "cli"}

# each CLI case: its argv and the modules it loads, sturmian's and the heavy stdlib ones
CLI_CASES = {
    "omega": (["omega", "--alpha", FIB, "--n", "10"], CODING),
    "word": (["word", "--alpha", FIB, "--t", "1/2", "--n", "20"], CODING | RATIONAL),
    "language": (["language", "--alpha", FIB, "--n", "3", "-o", "json"], CODING | JSON),
    "past": (["past", "--alpha", FIB, "--t", "fwd:2", "--l", "3"], CODING),
    "cover": (["cover", "--alpha", FIB, "--k", "2", "--l", "4"], CODING | CIRCLE | {"cover"}),
    "fibre": (
        ["fibre", "--alpha", FIB, "--point", "omega", "--K", "4", "--L", "10"], CODING | CIRCLE | {"cover"}
    ),
    "fibre-rational": (
        ["fibre", "--alpha", FIB, "--point", "1/2", "--K", "3", "--L", "6"],
        CODING | CIRCLE | {"cover"} | RATIONAL,
    ),
    "dad": (["dad", "--alpha", FIB, "--F", "1,2,3"], CODING | CIRCLE | {"groupoid"}),
    "compare": (["compare", "--alpha", FIB, "--beta", "quad:-1,1,5,2"], DECIDERS),
    "report": (["report", "--alpha", FIB], DECIDERS),
    "usage-error": (["omega", "--alpha", FIB, "--n", "-1"], {"quadratics", "cli"}),
}


# the cocycle value sets whose witness search the ledger follows; (200,) searches 400..432
WITNESS_CASES = [(1,), (1, 2, 3), (11,), (0, 40), (100,), (200,)]


def tried_lengths(alpha, values):
    """dad_witness(alpha, values) and the lengths it codes a word for, in order."""
    lengths, zero_words = [], groupoid._zero_words

    def counted(alpha, m):
        lengths.append(m)
        return zero_words(alpha, m)

    groupoid._zero_words = counted
    try:
        return groupoid.dad_witness(alpha, values), lengths
    finally:
        groupoid._zero_words = zero_words


ALPHA, D1E6 = parse_quad(FIB), parse_quad("quad:-999,1,1000003,2")
OMEGA = words.branch_point(ALPHA)
FWD2 = OMEGA.shift(2)

# each op: the function and its arguments, built here so their counts leave them out
OPS = {
    "fibre(D1E6, omega, 10, 100)": (cover.fibre, D1E6, words.branch_point(D1E6), 10, 100),
    "fibre(FIB, fwd:2, 10, 1000)": (cover.fibre, ALPHA, FWD2, 10, 1000),
    "fibre(FIB, 2/9, 5, 400)": (cover.fibre, ALPHA, words.OrbitPoint(ALPHA, Fraction(2, 9)), 5, 400),
    "fibre(FIB, omega, 10, 10000)": (cover.fibre, ALPHA, OMEGA, 10, 10000),
    "fibre(FIB, omega, 1000, 1000)": (cover.fibre, ALPHA, OMEGA, 1000, 1000),
    "thread_of(FIB, fwd:2, 3, 100)": (cover.thread_of, ALPHA, FWD2, 3, 100),
    "thread_of(FIB, fwd:2, 200, 200)": (cover.thread_of, ALPHA, FWD2, 200, 200),
    "construct_fibre_element(FIB, fwd:2, 0, 3, 100)": (cover.construct_fibre_element, ALPHA, FWD2, "0", 3, 100),
    "eq_class(FIB, fwd:2, (100, 200))": (cover.eq_class, ALPHA, FWD2, (100, 200)),
    "language(FIB, 2000)": (words.language, ALPHA, 2000),
    "quotient(FIB, (2000, 4000))": (cover.quotient, ALPHA, (2000, 4000)),
}
FLOORED = (words, arcs)  # the modules whose calls of the kernel floor are counted


def calls(modules, name: str, f, *args) -> int:
    """The calls of `name`, as bound in each of `modules`, while f(*args) runs."""
    seen, real = [], getattr(modules[0], name)

    def counted(*call_args):
        seen.append(1)
        return real(*call_args)

    for module in modules:
        setattr(module, name, counted)
    try:
        f(*args)
    finally:
        for module in modules:
            setattr(module, name, real)
    return len(seen)


def nodes(module: str) -> int:
    """The AST nodes of sturmian/<module>.py."""
    return sum(1 for _ in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))


def ledger() -> dict:
    counts = {path.stem: nodes(path.stem) for path in PACKAGE.glob("*.py")}
    lines = {path.stem: path.read_text().count("\n") for path in sorted(PACKAGE.glob("*.py"))}
    return {
        "about": "compile_nodes: AST nodes of the sturmian modules that each CLI case loads; "
        "witness_lengths: the lengths dad_witness codes on FIB for each F, in order; "
        "kernel_floors: calls of quadratics._floor from words and arcs per op; "
        "eq_classes: EqClass records cover constructs per op; "
        "source_lines: lines of each sturmian module and their total; "
        "regenerate with PYTHONPATH=src python tests/costs.py --write",
        "compile_nodes": {
            case: sum(counts[m] for m in {"__init__", *loaded} & counts.keys())
            for case, (_, loaded) in CLI_CASES.items()
        },
        "witness_lengths": {
            ",".join(map(str, values)): tried_lengths(ALPHA, values)[1] for values in WITNESS_CASES
        },
        "kernel_floors": {op: calls(FLOORED, "_floor", *call) for op, call in OPS.items()},
        "eq_classes": {op: calls((cover,), "EqClass", *call) for op, call in OPS.items()},
        "source_lines": {**lines, "total": sum(lines.values())},
    }


def _entries(book: dict) -> dict:
    """The ledger's lines, a section's keyed `section.key`."""
    out = {}
    for section, lines in book.items():
        if isinstance(lines, dict):
            out.update((f"{section}.{key}", value) for key, value in lines.items())
        else:
            out[section] = lines
    return out


def changes(before: dict, after: dict) -> list[str]:
    """`key: before -> after` for each line that differs between two ledgers."""
    old, new = _entries(before), _entries(after)
    keys = [*new, *(key for key in old if key not in new)]
    return [
        f"{key}: {old.get(key, 'absent')} -> {new.get(key, 'absent')}" for key in keys if old.get(key) != new.get(key)
    ]


if __name__ == "__main__":
    book = ledger()
    if sys.argv[1:] == ["--write"]:
        before = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
        LEDGER.write_text(json.dumps(book, indent=2) + "\n")
        print("\n".join(changes(before, book)) or "no change")
    else:
        print(json.dumps(book, indent=2))
