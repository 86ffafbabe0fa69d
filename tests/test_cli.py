import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturmian
from sturmian.cli import _build_parser, main
from sturmian.quadratics import format_quad, parse_quad
from sturmian.words import OrbitPoint, code_word

import reference
from reference import _mod1
from test_invariants import _json
from test_kernel import cf_parameters

FIB = "quad:3,-1,5,2"
LONG_PERIOD = "quad:-316,1,99991,1"  # sqrt(99991) - 316


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOmega:
    def test_fibonacci_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--alpha", FIB, "--n", "10")
        assert code == 0
        assert out.strip() == "0100101001"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--alpha", FIB, "--n", "5", "-o", "json")
        assert json.loads(out) == {"alpha": FIB, "n": 5, "word": "01001"}

    def test_large_radicand_answers(self):
        # sqrt(2^89 - 1) - 24879108095803: no radicand is factored on the way in
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(sturmian.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        script = "import sys\nfrom sturmian.cli import main\nsys.exit(main())"
        alpha = "quad:-24879108095803,1,618970019642690137449562111,1"
        run = subprocess.run(
            [sys.executable, "-c", script, "omega", "--alpha", alpha, "--n", "40"],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert len(run.stdout.strip()) == 40 and set(run.stdout.strip()) <= {"0", "1"}


class TestWordAndPast:
    def test_word_at_rational_point(self, capsys):
        code, out, _ = run_cli(capsys, "word", "--alpha", FIB, "--t", "1/2", "--n", "6")
        assert code == 0 and len(out.strip()) == 6

    def test_point_specs(self, capsys):
        _, omega_out, _ = run_cli(capsys, "word", "--alpha", FIB, "--t", "omega", "--n", "8")
        _, fwd_out, _ = run_cli(capsys, "word", "--alpha", FIB, "--t", "fwd:1", "--n", "7")
        assert omega_out.strip()[1:] == fwd_out.strip()

    def test_past(self, capsys):
        code, out, _ = run_cli(
            capsys, "past", "--alpha", FIB, "--t", "fwd:2", "--l", "3", "-o", "json"
        )
        assert code == 0
        assert json.loads(out)["pasts"] == ["001", "101"]

    def test_same_field_point(self, capsys):
        code, out, _ = run_cli(capsys, "word", "--alpha", FIB, "--t", "quad:1,1,5,4", "--n", "12")
        point = OrbitPoint(parse_quad(FIB), parse_quad("quad:1,1,5,4"))
        assert (code, out) == (0, code_word(point, 12) + "\n")

    def test_foreign_field_point(self, capsys):
        code, out, err = run_cli(capsys, "word", "--alpha", FIB, "--t", "quad:-1,1,2,1", "--n", "4")
        assert (code, out) == (2, "") and err.startswith("error: point: ")
        assert "values live in different quadratic fields" in err

    def test_back_defaults_to_side_l(self, capsys):
        words = [
            run_cli(capsys, "word", "--alpha", FIB, "--t", t, "--n", "6")[1]
            for t in ("back:2", "back:2:L", "back:2:R")
        ]
        assert words[0] == words[1] != words[2]

    def test_negative_rational_point_needs_the_equals_form(self, capsys):
        # -7/3 is 2/3 mod 1; after a space argparse takes "-7/3" for an option
        assert run_cli(capsys, "word", "--alpha", FIB, "--t=-7/3", "--n", "12") == (0, "100100101001\n", "")
        assert run_cli(capsys, "word", "--alpha", FIB, "--t", "2/3", "--n", "12")[:2] == (0, "100100101001\n")
        with pytest.raises(SystemExit) as e:
            main(["word", "--alpha", FIB, "--t", "-7/3", "--n", "12"])
        assert e.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("word", "--t", "0", "--n", "4"),
            ("past", "--t", "0", "--l", "4"),
            ("fibre", "--point", "omega", "--K", "1", "--L", "4"),
        ],
    )
    def test_no_variant_option(self, capsys, argv):
        # back:M:V is the one spelling of a coding side: --t 0 --variant R is --t back:1:R
        with pytest.raises(SystemExit) as e:
            main([*argv, "--alpha", FIB, "--variant", "R"])
        assert e.value.code == 2


@st.composite
def specs_and_points(draw, alpha):
    """(argv for the point, its circle point, its side): a spec of every kind,
    the point worked out from the spec's meaning rather than by the parser."""
    kind = draw(st.sampled_from(["omega", "fwd", "back", "rational"]))
    if kind == "omega":
        spec, t, side = "omega", alpha, "L"
    elif kind == "fwd":
        j = draw(st.integers(0, 12))
        spec, t, side = f"fwd:{j}", _mod1((1 + j) * alpha), "L"
    elif kind == "back":
        m, side = draw(st.integers(1, 12)), draw(st.sampled_from("LR"))
        spec, t = f"back:{m}:{side}", _mod1((1 - m) * alpha)
    else:
        t = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
        spec, t, side = str(t), _mod1(t), "L"
    argv = [f"--t={spec}"] if spec.startswith("-") else ["--t", spec]
    return argv, SimpleNamespace(alpha=alpha, t=t, variant=side)


@settings(max_examples=40, deadline=1000)
@given(
    data=st.data(),
    alpha=st.one_of(
        st.sampled_from([parse_quad(FIB), parse_quad("quad:-1,1,2,1")]),
        cf_parameters(period_digits=st.integers(1, 10)),
    ),
    n=st.integers(0, 12),
    l=st.integers(0, 12),
)
def test_point_commands_match_the_oracles(data, alpha, n, l):
    # omega, word and past run in process against coding by adding alpha to a
    # field element and pasts by walking back along shift preimages
    lit = format_quad(alpha)
    omega = SimpleNamespace(alpha=alpha, t=alpha, variant="L")
    assert _json("omega", "--alpha", lit, "--n", str(n))["word"] == reference.code_word(omega, n)
    point, x = data.draw(specs_and_points(alpha))
    assert _json("word", "--alpha", lit, *point, "--n", str(n))["word"] == reference.code_word(x, n)
    assert _json("past", "--alpha", lit, *point, "--l", str(l))["pasts"] == sorted(reference.past_set(x, l))


class TestLanguage:
    def test_schema(self, capsys):
        code, out, _ = run_cli(capsys, "language", "--alpha", FIB, "--n", "2", "-o", "json")
        assert json.loads(out) == {"alpha": FIB, "n": 2, "words": ["00", "01", "10"]}


class TestCover:
    def test_small_quotient(self, capsys):
        code, out, _ = run_cli(capsys, "cover", "--alpha", FIB, "--k", "0", "--l", "1", "-o", "json")
        assert code == 0
        data = json.loads(out)
        assert data["index"] == [0, 1]
        assert len(data["classes"]) == 3
        assert "seed" not in data

    def test_empty_past_word(self, capsys):
        # at (0, 0) the one class has the empty prefix and the empty past word
        code, out, _ = run_cli(capsys, "cover", "--alpha", FIB, "--k", "0", "--l", "0")
        assert code == 0
        assert out == "index=(0,0) classes=1\n  prefix=- past={-}\n"
        code, out, _ = run_cli(capsys, "cover", "--alpha", FIB, "--k", "0", "--l", "0", "-o", "json")
        assert json.loads(out)["classes"] == [{"prefix": "", "past": [""]}]


class TestFibre:
    def test_branch_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "fibre", "--alpha", FIB, "--point", "omega", "--K", "4", "--L", "10",
            "-o", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3 and data["expected"] == 3 and data["resolved"]

    def test_backward_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "fibre", "--alpha", FIB, "--point", "back:2:L", "--K", "3", "--L", "6",
            "-o", "json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 2

    @pytest.mark.parametrize(
        "alpha", ["quad:-99999,1,9999999967,2", "quad:-9999999,1,99999999999999,2"]
    )
    def test_large_partial_quotients(self, capsys, alpha):
        # [0; 2, 3029, 1, 4, ...] and [0; 2, 9999999, ...]: candidates die
        # thousands to millions of letters deep
        counts = []
        for point in ("omega", "fwd:2", "back:3:R", "1/2"):
            code, out, _ = run_cli(
                capsys, "fibre", "--alpha", alpha, "--point", point, "--K", "10", "--L", "30",
                "-o", "json",
            )
            assert code == 0
            counts.append(json.loads(out)["count"])
        assert counts == [3, 3, 2, 1]

    def test_no_depth_budget(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["fibre", "--alpha", FIB, "--point", "1/2", "--K", "2", "--L", "4", "--max-depth", "6"])
        assert e.value.code == 2


class TestDad:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "dad", "--alpha", FIB, "--F", "1", "-o", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True and data["mu"] == "00" and data["nu"] == "01"
        assert data["degenerate_exceeds_half_window"]

    def test_bad_values(self, capsys):
        code, _, err = run_cli(capsys, "dad", "--alpha", FIB, "--F", "0")
        assert code == 2 and "F" in err

    def test_unparsable_values(self, capsys):
        code, out, err = run_cli(capsys, "dad", "--alpha", FIB, "--F", "1,a")
        assert (code, out, err) == (2, "", "error: F: cannot parse '1,a'\n")

    def test_longer_witness_words_pass(self):
        # no pair of length 22 exists for F = {11}; the search takes 23-letter words, and
        # the run is a process, so a traceback would show on stderr
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(sturmian.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        script = "import sys\nfrom sturmian.cli import main\nsys.exit(main())"
        run = subprocess.run(
            [sys.executable, "-c", script, "dad", "--alpha", FIB, "--F", "11"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert "pass=True" in run.stdout


class TestCompare:
    def test_conjugate_pair_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", FIB, "--beta", "quad:-1,1,5,2", "-o", "json"
        )
        assert code == 0
        assert out.strip() == '{"conjugate":true,"flow_equivalent":true,"k0":"Z+alphaZ","k1":"0"}'

    def test_inequivalent(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", FIB, "--beta", "quad:-1,1,2,1", "-o", "json"
        )
        assert json.loads(out) == {
            "conjugate": False,
            "flow_equivalent": False,
            "k0": "Z+alphaZ",
            "k1": "0",
        }

    def test_long_period_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", LONG_PERIOD, "--beta", "quad:317,-1,99991,1", "-o", "json"
        )
        assert code == 0
        assert json.loads(out)["conjugate"] and json.loads(out)["flow_equivalent"]


class TestReport:
    def test_long_period(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--alpha", LONG_PERIOD, "-o", "json")
        assert code == 0
        assert len(json.loads(out)["flow_class_period"]) == 436


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("language", "--alpha", FIB, "--n", "6"),
            ("cover", "--alpha", FIB, "--k", "1", "--l", "2"),
            ("dad", "--alpha", FIB, "--F", "1,2"),
            ("report", "--alpha", FIB),
        ],
    )
    def test_byte_identical_json(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv, "-o", "json")
        _, out2, _ = run_cli(capsys, *argv, "-o", "json")
        assert out1 == out2


PINNED = json.loads((Path(__file__).parent / "cli_pinned.json").read_text())


class TestPinnedOutput:
    """Stdout, stderr and exit code of the README commands in text and json
    and the benchmark's malformed requests, as captured from `sturmian`
    processes before the runners read the parsed arguments directly."""

    # the " env=None" suffix keeps each case's test id stable; no case sets the environment
    @pytest.mark.parametrize("case", PINNED, ids=[" ".join(c["argv"]) + " env=None" for c in PINNED])
    def test_byte_identical(self, capsys, case):
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])

    def test_covers_every_readme_command(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        commands = [line.split("#")[0].split()[1:] for line in readme.splitlines()
                    if line.startswith("sturmian ")]
        pinned = [c["argv"] for c in PINNED]
        assert len(commands) == 10
        for argv in commands:
            text = [a for a in argv if a not in ("-o", "json")]
            assert text in pinned and text + ["-o", "json"] in pinned


class TestUsageErrors:
    def test_rational_alpha(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--alpha", "quad:1,1,4,2", "--n", "3")
        assert code == 2 and "alpha" in err

    def test_malformed_alpha(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--alpha", "quad:nope", "--n", "3")
        assert code == 2 and "alpha" in err

    def test_alpha_outside_interval(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--alpha", "quad:0,1,5,1", "--n", "3")
        assert code == 2 and "alpha" in err
        code, _, err = run_cli(capsys, "omega", "--alpha", "quad:1,-1,5,2", "--n", "3")
        assert code == 2 and "alpha" in err

    def test_beta_outside_interval(self, capsys):
        for beta in ("quad:0,1,5,1", "quad:1,-1,5,2"):
            code, out, err = run_cli(capsys, "compare", "--alpha", FIB, "--beta", beta)
            assert (code, out) == (2, "") and err == "error: beta: parameter must lie in (0,1)\n"

    def test_zero_denominator_alpha(self, capsys):
        code, out, err = run_cli(capsys, "omega", "--alpha", "quad:3,-1,5,0", "--n", "3")
        assert (code, out) == (2, "") and err == "error: alpha: zero denominator\n"

    def test_zero_denominator_beta(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--alpha", FIB, "--beta", "quad:1,1,5,0")
        assert (code, out) == (2, "") and err == "error: beta: zero denominator\n"

    def test_bad_point(self, capsys):
        code, _, err = run_cli(capsys, "word", "--alpha", FIB, "--t", "x/y", "--n", "3")
        assert code == 2 and "point" in err

    def test_missing_subcommand_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["omega", "--alpha", FIB])
        assert exc.value.code == 2


class TestNumericUsageErrors:
    @pytest.mark.parametrize(
        "field,argv",
        [
            ("n", ("omega", "--n", "-1")),
            ("l", ("past", "--t", "omega", "--l", "-1")),
            ("k", ("cover", "--k", "3", "--l", "1")),
            ("K", ("fibre", "--point", "omega", "--K", "5", "--L", "2")),
            ("L", ("fibre", "--point", "omega", "--K", "0", "--L", "-1")),
            ("point", ("word", "--t", "back:2:X", "--n", "2")),
            ("point", ("fibre", "--point", "back:0:L", "--K", "1", "--L", "3")),
            ("point", ("fibre", "--point", "fwd:-1", "--K", "1", "--L", "3")),
            ("point", ("past", "--t", "back:-2", "--l", "2")),
            ("point", ("word", "--t", "back:0", "--n", "2")),
            ("window", ("dad", "--F", "1", "--window", "0")),
            ("n", ("omega", "--n", "99999999999999999999")),
            ("l", ("past", "--t", "omega", "--l", str(sys.maxsize + 1))),
            ("L", ("fibre", "--point", "omega", "--K", "0", "--L", str(sys.maxsize + 1))),
            ("point", ("word", "--t", "1/", "--n", "3")),
            ("point", ("past", "--t", "/2", "--l", "2")),
            ("window", ("dad", "--F", "1", "--window", str(sys.maxsize + 1))),
            ("F", ("dad", "--F", f"1,{sys.maxsize + 1}")),
            # in range, but the coded word would have more than sys.maxsize letters
            ("n", ("language", "--n", str(sys.maxsize // 2 + 1))),
            ("l", ("cover", "--k", "0", "--l", str(sys.maxsize))),
            ("F", ("dad", "--F", str(sys.maxsize))),
            ("window", ("dad", "--F", "1", "--window", str(sys.maxsize))),
            ("L", ("fibre", "--point", "omega", "--K", "0", "--L", str(sys.maxsize // 2 + 1))),
            # a word longer than the half that the codings of 0 are built from
            ("n", ("omega", "--n", str(sys.maxsize // 2 + 1))),
            ("l", ("past", "--t", "omega", "--l", str(sys.maxsize // 2 + 1))),
            # the chain level (L, 2L) is past the bound, so no coding starts
            *(
                ("L", ("fibre", "--point", p, "--K", "0", "--L", str(sys.maxsize // 4 + 1)))
                for p in ("omega", "fwd:2", "back:2:R", "1/2")
            ),
        ],
    )
    def test_out_of_range_exits_2(self, capsys, field, argv):
        code, out, err = run_cli(capsys, *argv, "--alpha", FIB)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field}: ")
        assert "islice" not in err


class TestOptimizedInterpreter:
    def test_same_output_under_O(self):
        # invariants are explicit exceptions, so stripping asserts changes nothing
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(sturmian.__file__).parent.parent), env.get("PYTHONPATH", "")]
        )
        script = "import sys\nfrom sturmian.cli import main\nsys.exit(main())"
        for argv in (
            ("cover", "--alpha", FIB, "--k", "2", "--l", "4", "-o", "json"),
            ("fibre", "--alpha", FIB, "--point", "back:2:L", "--K", "3", "--L", "6", "--show-threads"),
        ):
            runs = [
                subprocess.run(
                    [sys.executable, *flags, "-c", script, *argv],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                for flags in ((), ("-O",))
            ]
            assert runs[0].returncode == 0 and runs[0].stdout
            assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


# -- the exit-code contract over the README grammar -------------------------

# small parameters, so every window stays short, or as often a malformed
# literal: rational, outside (0, 1), zero denominator, zero radicand, unparsable
parameters = st.one_of(
    st.sampled_from([FIB, "quad:-1,1,5,2", "quad:-1,1,2,1", "quad:2,-1,3,1", "quad:-2,1,7,3"]),
    st.sampled_from(["quad:1,1,4,2", "quad:0,1,5,1", "quad:3,-1,5,0", "quad:1,1,0,2", "quad:nope", "1/3"]),
)
numbers = st.integers(-2, 9).map(str)
point_specs = st.one_of(
    st.sampled_from(["omega", "fwd:", "back:", "back:1:X", "x/y", "1/", "/2", "1/0", "quad:1,1,2,4"]),
    st.builds("fwd:{}".format, numbers),
    st.builds("back:{}".format, numbers),
    st.builds("back:{}:{}".format, numbers, st.sampled_from("LR")),
    st.builds("{}/{}".format, numbers, numbers),
    st.builds("quad:{},{},5,{}".format, numbers, numbers, numbers),
)
cocycle_values = st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v)))
COMMANDS = {
    "word": {"--t": point_specs, "--n": numbers},
    "omega": {"--n": numbers},
    "language": {"--n": numbers},
    "past": {"--t": point_specs, "--l": numbers},
    "cover": {"--k": numbers, "--l": numbers},
    "fibre": {"--point": point_specs, "--K": numbers, "--L": numbers},
    "dad": {"--F": st.one_of(cocycle_values, st.just("1,a")), "--window": st.integers(-1, 300).map(str)},
    "compare": {"--beta": parameters},
    "report": {},
}


@st.composite
def requests(draw):
    """argv for one of the nine commands; an option is sometimes left out."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--alpha", draw(parameters)]
    for option, values in COMMANDS[command].items():
        if draw(st.integers(0, 9)):
            argv += [option, draw(values)]
    if command == "fibre" and draw(st.booleans()):
        argv.append("--show-threads")
    return argv + draw(st.sampled_from([[], ["-o", "json"], ["-o", "text"]]))


class TestExitContract:
    @settings(max_examples=300, deadline=None)
    @given(requests())
    def test_exit_code_and_streams(self, argv):
        # every request exits 0, 1 or 2 and raises nothing else; argparse's
        # own usage errors leave by SystemExit, with a usage line first
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 0 and argv[-2:] == ["-o", "json"]:
            assert out.count("\n") == 1 and isinstance(json.loads(out), dict), argv
        if code == 1:  # a verification failure prints its report and no error
            assert out and err == "", (argv, out, err)
        if code == 2:
            assert out == "" and "error:" in err.splitlines()[-1], (argv, out, err)


# -- the parser of one command ------------------------------------------------


def parse(parser, argv):
    """The parsed options of argv, or argparse's exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


# help and usage lines wrap at the terminal width, which argparse reads from COLUMNS
fixed_width = mock.patch.dict(os.environ, {"COLUMNS": "80"})


class TestOneSubparser:
    """A request registers only the subparser of the command it names, and
    parses, prints and fails exactly as the parser of all nine commands."""

    def full(self):
        return _build_parser([])

    def test_registers_only_the_named_command(self):
        def commands(parser):
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return sorted(sub.choices)

        assert commands(_build_parser(["dad", "--alpha", FIB])) == ["dad"]
        assert commands(self.full()) == commands(_build_parser(["Dad"])) == sorted(COMMANDS)

    @fixed_width
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_same_help_and_usage(self, command):
        argv = [command, "--help"]
        first = parse(_build_parser(argv), argv)
        assert first == parse(self.full(), argv) and first[0] == 0 and first[1].startswith(f"usage: sturmian {command}")
        assert _build_parser(argv).format_usage() == self.full().format_usage()

    @fixed_width
    def test_top_level_help_lists_every_command(self):
        code, out, err = parse(_build_parser(["--help"]), ["--help"])
        assert (code, err) == (0, "") and out == self.full().format_help()
        assert all(f"    {command}" in out for command in COMMANDS)

    @fixed_width
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        requests(),
        requests().map(lambda argv: argv + ["extra"]),  # the top-level parser refuses it, with its usage line
        requests().map(lambda argv: argv + ["--help"]),
        requests().map(lambda argv: argv[1:]),  # an option first
        requests().map(lambda argv: [argv[0].upper(), *argv[1:]]),  # no such command
    ))
    def test_same_answer_as_the_full_parser(self, argv):
        assert parse(_build_parser(argv), argv) == parse(self.full(), argv)
