"""The package namespace binds its names lazily, and a command loads only its layers."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sturmian
from costs import CLI_CASES

# the public names of the package by home module, kept apart from the
# package's own table so that a name dropped from it or moved fails here
EXPORTS = {
    "quadratics": [
        "BudgetExceededError", "QuadraticIrrational", "RationalValueError", "format_quad", "parse_quad",
    ],
    "words": ["OrbitPoint", "branch_point", "code_word", "language", "past_set", "preimages"],
    "arcs": ["Arc", "cylinder_arc", "recurrence_bound"],
    "cover": [
        "EqClass", "FiniteQuotient", "IndexPair", "Thread", "construct_fibre_element",
        "eq_class", "expected_fibre_size", "fibre", "fibre_report", "index_leq",
        "property_star_witness", "q_map", "quotient", "shift_map", "shift_thread", "thread_of",
    ],
    "groupoid": ["DadWitness", "check_witness", "dad_witness", "degenerate_cover_chain"],
    "invariants": [
        "ContinuedFraction", "InvariantReport", "Moebius", "OrderedGroupDescriptor", "cf_expand",
        "cf_value", "compare_parameters", "conjugate", "flow_equivalent", "parse_cf",
    ],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]
NAMES = [name for _, name in HOMES]

# runs `code` in a fresh interpreter and prints the sturmian modules it loaded, and each
# heavy module when it loaded it and start-up had not: dataclasses and inspect (together
# 6-8 ms of import), fractions with the decimal it imports (about 2 ms) and json (about
# 1.5 ms); the probe prints with repr, so it imports no json of its own
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "json"}
PROBE = f"""
import contextlib, io, sys
heavy = {HEAVY!r} - set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1])
print(repr(sorted(m for m in sys.modules if m.split(".")[0] == "sturmian" or m in heavy)))
"""


def loaded_after(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sturmian.__file__).parent.parent), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("sturmian.") for m in ast.literal_eval(proc.stdout)} - {"sturmian"}


def cli(*argv: str) -> str:
    return f"from sturmian.cli import main\nmain({list(argv)!r})"


class TestModulesLoaded:
    # the CLI cases, with the modules each loads, are the cost ledger's (tests/costs.py):
    # only cover, fibre and dad load arcs, the circle half of the coding
    @pytest.mark.parametrize(
        "code, expected",
        [
            ("import sturmian", set()),
            ("import sturmian\nsturmian.words", {"quadratics", "words"}),
            ("from sturmian import compare_parameters", {"quadratics", "invariants"}),
            # the field alone parses a parameter; continued fractions live with the deciders
            ("from sturmian import parse_quad", {"quadratics"}),
            ("from sturmian import cf_value", {"quadratics", "invariants"}),
            ("from sturmian import cylinder_arc", {"quadratics", "words", "arcs"}),
            *((cli(*argv), loaded) for argv, loaded in CLI_CASES.values()),
        ],
        ids=["import", "words-attr", "from-import", "from-parse-quad", "from-cf-value", "from-cylinder-arc",
             *CLI_CASES],
    )
    def test_only_the_layers_used(self, code, expected):
        assert loaded_after(code) == expected


class TestNamespace:
    def test_export_list(self):
        assert len(NAMES) == len(set(NAMES)) == 44
        assert sorted(sturmian.__all__) == sorted(NAMES)
        assert sturmian.__version__ == "0.1.0"

    @pytest.mark.parametrize("module, name", HOMES)
    def test_resolves_to_home_object(self, module, name):
        home = getattr(importlib.import_module(f"sturmian.{module}"), name)
        assert getattr(sturmian, name) is home
        assert vars(sturmian)[name] is home  # bound once resolved
        scope = {}
        exec(f"from sturmian import {name}", scope)
        assert scope[name] is home

    def test_submodules_are_attributes(self):
        for module in EXPORTS:
            assert getattr(sturmian, module) is importlib.import_module(f"sturmian.{module}")

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sturmian.no_such_name
        with pytest.raises(ImportError):
            exec("from sturmian import no_such_name", {})

    def test_dir_lists_the_exports(self):
        assert set(NAMES) | {"__version__"} <= set(dir(sturmian))

    def test_star_import_binds_every_export(self):
        scope = {}
        exec("from sturmian import *", scope)
        for module, name in HOMES:
            assert scope[name] is getattr(importlib.import_module(f"sturmian.{module}"), name)
