"""Self-tests of the benchmark: seeded inputs, oracle and span accounting.

Run from the repository root with `python3 -m pytest benchmarks -q`.
"""

import importlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

lib = importlib.import_module("sturmian")
SETTINGS = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDEN = orc.cf_quad((0,), (1,))  # (sqrt 5 - 1)/2


def specs(name, seed, i=0):
    w = wl.WORKLOADS[name]()
    return [op.spec for op in w.pass_inputs(seed, SETTINGS[name], lib, Tracer(), i)]


def test_same_seed_same_inputs():
    for name in wl.WORKLOADS:
        assert specs(name, 7) == specs(name, 7), name
        assert specs(name, 7) != specs(name, 8), name
        assert specs(name, 7, 1) != specs(name, 7, 0), name


def test_run_size_and_tail_depend_on_the_arguments_only():
    s = SETTINGS["deciders"]
    assert run.pass_count(32, False, s) == round(32 / s["pass_s"])
    assert run.pass_count(0.1, True, s) == run.MIN_PASSES + 1
    for n in (15, 96, 864):
        p = run.tail_percentile(n)
        assert n - math.ceil(p / 100 * n) >= run.TAIL_BEYOND > n - math.ceil((p + 1) / 100 * n)


def test_cli_mix_sends_every_variant():
    commands = [" ".join(spec["argv"][:1] + spec["argv"][3:-2]) for spec in specs("cli-mix", 7)]
    s = SETTINGS["cli-mix"]
    assert len(commands) == len(s["commands"]) - 1 + len(s["dad_F"]) + 1  # dad per F, 1 malformed
    assert s["malformed_share"] == f"1 request in {len(commands)}"
    assert [c for c in commands if c.startswith("dad")] == [f"dad --F {F}" for F in s["dad_F"]]
    assert "fibre --point omega --K 3 --L 6" in commands
    kinds = {spec["argv"][4] for i in range(len(s["fibre_points"])) for spec in specs("cli-mix", 7, i)
             if spec["command"] == "fibre" and spec["exit"] == 0}
    assert len(kinds) == len(s["fibre_points"])


def test_benchmark_file_matches_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(wl.WORKLOADS)
    assert all(w["why"] == SETTINGS[w["name"]]["why"] for w in BENCH["workloads"])
    assert set(SETTINGS["known_defects"]) <= set(wl.WORKLOADS)


def test_oracle_rejects_wrong_fibre_count():
    assert orc.check_fibre("omega", 3, True) is None
    assert orc.check_fibre("omega", 2, True) is not None
    assert orc.check_fibre("back", 3, True) is not None
    assert orc.check_fibre("rational", 1, False) is not None


def test_oracle_rejects_flipped_decider_answer():
    assert orc.check_decider(False, True, False, True) is None
    assert orc.check_decider(False, True, False, False) is not None
    assert orc.check_decider(True, True, False, True) is not None


def test_fibre_op_checked_against_point_kind():
    w = wl.FibreSweep()
    op = w.pass_inputs(1, SETTINGS["fibre-sweep"], lib, Tracer(), 0)[0]
    assert op.spec["kind"] == "omega"
    count, resolved = w.run(op, lib, Tracer())
    assert w.check(op, (count, resolved), lib) is None
    assert w.check(op, (2, resolved), lib) is not None


def test_language_oracle_rejects_a_wrong_set():
    words = orc.factors(GOLDEN, 6)
    longer = orc.factors(GOLDEN, 7)
    assert orc.check_language(GOLDEN, 6, words, longer) is None
    wrong = set(words) - {min(words)} | {"1" * 6}
    assert orc.check_language(GOLDEN, 6, wrong, longer) is not None
    assert orc.check_language(GOLDEN, 6, set(words) - {min(words)}, longer) is not None


def test_oracle_codings_agree_with_the_package():
    for pre, per in wl.family(SETTINGS["fibre-sweep"]):
        q = orc.cf_quad(pre, per)
        alpha = lib.QuadraticIrrational(*q.pqdr())
        assert lib.code_word(lib.branch_point(alpha), 200) == orc.characteristic(q, 200)
        for u, v, var in [(Fraction(0), Fraction(-1), "R"), (Fraction(2, 7), Fraction(0), "L")]:
            th = lib.thread_of(alpha, lib.OrbitPoint(alpha, alpha * v + u if v else u, var), 2, 5)
            assert orc.check_thread(q, u, v, var, th) is None


def test_cli_answer_checked_against_the_library():
    w = wl.CliMix()
    ops = w.pass_inputs(3, SETTINGS["cli-mix"], lib, Tracer(), 0)
    op = next(o for o in ops if o.spec["command"] == "omega")
    right = wl.library_answer(lib, op)
    assert w.check(op, json.dumps(right), lib) is None
    flipped = "".join("10"[int(c)] for c in right["word"])
    assert w.check(op, json.dumps({"word": flipped}), lib) is not None


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.enabled = True
    with tr.span("op", op="0/0"):
        tr.call("words.language", sum, range(10))
        tr.call("words.language", sum, range(10))
    own = tr.self_times()
    op, a, b = tr.spans
    assert a[1] == b[1] == op[0]
    assert abs(own[0] - ((op[5] - op[4]) - (a[5] - a[4]) - (b[5] - b[4]))) < 1e-9
    stats = tr.layer_stats()
    assert tr.metric("words.language.calls", 2, stats) == 1


def test_step_budget_depends_on_the_work_only():
    def count(n):
        total = 0
        for k in range(n):
            total += k
        return total

    previous = sys.gettrace()
    assert wl.steps_within(1000, count, 10)
    assert not wl.steps_within(1000, count, 10_000)
    assert sys.gettrace() is previous
    w = wl.Deciders()
    s = SETTINGS["deciders"]
    fits = []
    for _ in range(2):
        ops = w.pass_inputs(5, s, lib, Tracer(), 0)
        w.prepare(ops, lib)
        fits.append([op.objs.get("cf_value_fits") for op in ops])
    assert fits[0] == fits[1]
    assert True in fits[0] and False in fits[0]
