"""The mutant catalogue: small faults that the tests must catch, kept as data.

Each row names a file of the tree, a text that occurs in it exactly once, the
text that replaces it, and the tests that must fail once it does.

    PYTHONPATH=src python tests/mutants.py

copies the tree into a temporary directory, runs every named test there once
unmutated (they must pass), then, two rows at a time, applies each row to a
fresh copy and runs its tests alone at --hypothesis-seed=1.  It prints one
verdict per row and exits 1 naming every row whose tests all pass.
`test_mutants.py` checks in tier-1 that every row still anchors: a change that
moves the code moves the row.  A new fast path adds its rows here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "BENCH_costs.json", "pyproject.toml")  # what the tests read


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


COVER, SCOPE = "src/sturmian/cover.py", "tests/test_scope.py"

MUTANTS = [
    Mutant(
        "threads keyed on their class at (K, L), below grid",
        COVER,
        '    _key = attrgetter("base.alpha", "grid")',
        "    _key = staticmethod(lambda th: (th.base.alpha, th.class_at(th.K, th.L)))",
        ("tests/test_cover.py::TestThreadIdentity::test_row_identity_matches_full_family",),
    ),
    Mutant(
        "grid projected to (K, K + L - 1)",
        COVER,
        "grid = q_map(top, IndexPair(K, K + L))",
        "grid = q_map(top, IndexPair(K, K + L - 1))",
        ("tests/test_cover.py::TestThreads::test_section_prefix_consistency",),
    ),
    Mutant(
        "shift_thread passes grid without shift_map",
        COVER,
        "shift_map(th.grid))",
        "th.grid)",
        ("tests/test_cover.py::TestThreads::test_shift_of_section",),
    ),
    Mutant(
        "a Thread built in fibre_report",
        COVER,
        "    threads = fibre(alpha, x, K, L)\n",
        "    threads = {Thread(x, K, L, th.grid) for th in fibre(alpha, x, K, L)}\n",
        ("tests/test_source.py::test_threads_built_in_one_place",),
    ),
    Mutant(
        "fibre builds a class with eq_class",
        COVER,
        "    n0 = tops[0].index.k\n",
        "    n0 = eq_class(alpha, x, (max(L, 1), 2 * max(L, 1))).index.k\n",
        ("tests/test_source.py::test_threads_built_in_one_place",),
    ),
    Mutant(
        "a backward point gets both chains",
        COVER,
        '"01" if pos[0] == "forward" else "01"[x.variant == "R"]',
        '"01"',
        (f"{SCOPE}::test_fibre_counts",),
    ),
    Mutant(
        "_zero_words codes one extra letter",
        "src/sturmian/words.py",
        '    c = _word(_letters(alpha, "L", 0, 1, 1), n)\n',
        '    c = _word(_letters(alpha, "L", 0, 1, 1), n + 1)[:n]\n',
        ("tests/test_costs.py::test_ledger_is_current",),
    ),
    Mutant(
        "language drops its last window",
        "src/sturmian/words.py",
        "    words = frozenset(w[i : i + n] for i in range(n + 1))",
        "    words = frozenset(w[i : i + n] for i in range(n))",
        (f"{SCOPE}::test_language_has_n_plus_1_words_and_one_left_special",),
    ),
    Mutant(
        "the surd floor of a negative divisor rounds up",
        "src/sturmian/quadratics.py",
        "(P + s + 1) // Q",
        "(P + s) // Q",
        ("tests/test_quadratics.py::test_floor_within_isqrt_bounds",),
    ),
    Mutant(
        "recurrence_bound one too long",
        "src/sturmian/arcs.py",
        "    return len(mu) - 1 + max(j1, j2)",
        "    return len(mu) + max(j1, j2)",
        ("tests/test_words.py::TestRecurrence::test_gap_oracle_general",),
    ),
    Mutant(
        "dad reports max_chain_U + 1",
        "src/sturmian/groupoid.py",
        '            "max_chain_U": self.max_chain_u,',
        '            "max_chain_U": self.max_chain_u + 1,',
        ("tests/test_cli.py::test_point_commands_match_the_oracles",),
    ),
    Mutant(
        "the witness check flags one shift of mu too many",
        "src/sturmian/groupoid.py",
        "upos |= found if j < w.lbar else 0",
        "upos |= found if j <= w.lbar else 0",
        (f"{SCOPE}::test_dad_witness_and_check",),
    ),
    Mutant(
        "conjugacy forgets 1 - beta",
        "src/sturmian/invariants.py",
        "in ((D, P, Q), (D, P - Q, -Q))",
        "in ((D, P, Q),)",
        (f"{SCOPE}::test_flow_and_conjugacy_classes",),
    ),
    Mutant(
        "_run_language at n + 1",
        "src/sturmian/cli.py",
        '    words = sorted(_blame("n", language, args.alpha, args.n))',
        '    words = sorted(_blame("n", language, args.alpha, args.n + 1))',
        ("tests/test_cli.py::test_point_commands_match_the_oracles",),
    ),
]


def _tree(into: Path) -> Path:
    """A copy of what the tests read, under `into`."""
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(ROOT / name, into / name)
    return into


def _pytest(tree: Path, tests) -> int:
    """The exit code of pytest on `tests` in `tree`: 0 all passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=1", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = _tree(Path(tmp)) / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "unanchored"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(Path(tmp), mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        code = _pytest(_tree(Path(tmp)), sorted({test for mutant in MUTANTS for test in mutant.tests}))
    if code:
        print(f"the named tests do not pass unmutated (pytest exit {code})")
        return 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        verdicts = list(pool.map(verdict, MUTANTS))
    for mutant, said in zip(MUTANTS, verdicts):
        print(f"{said:<12} {mutant.file}: {mutant.name}")
    survivors = [mutant.name for mutant, said in zip(MUTANTS, verdicts) if said != "killed"]
    if survivors:
        print("not killed: " + "; ".join(survivors))
    return int(bool(survivors))


if __name__ == "__main__":
    sys.exit(main())
