"""The cost ledger, BENCH_costs.json: exact counts that host noise cannot move.

Its one section so far, `compile_nodes`, has one line per CLI case of
`test_imports.TestModulesLoaded`: the AST nodes of the sturmian modules
that the request loads, the package's `__init__` included.  With bytecode
writing off, every request compiles those modules from source, at about
1 µs per node, so a claim about a command's cold start rests on this count.
The modules of each case are listed here once; TestModulesLoaded checks
them in a fresh interpreter.

    python tests/costs.py            # print the ledger
    python tests/costs.py --write    # regenerate BENCH_costs.json
"""

import ast
import json
import sys
from pathlib import Path

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


def nodes(module: str) -> int:
    """The AST nodes of sturmian/<module>.py."""
    return sum(1 for _ in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())))


def ledger() -> dict:
    counts = {path.stem: nodes(path.stem) for path in PACKAGE.glob("*.py")}
    return {
        "about": "compile_nodes: AST nodes of the sturmian modules that each CLI case loads; "
        "regenerate with python tests/costs.py --write",
        "compile_nodes": {
            case: sum(counts[m] for m in {"__init__", *loaded} & counts.keys())
            for case, (_, loaded) in CLI_CASES.items()
        },
    }


if __name__ == "__main__":
    text = json.dumps(ledger(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        LEDGER.write_text(text)
    else:
        print(text, end="")
