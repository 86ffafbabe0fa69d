"""Seeded inputs, timed operations and answer checks of the four workloads.

Each workload builds the inputs of pass i from (seed, settings, i); every
pass has the same make-up (the same commands, parameter digits, bands and
relations), the seed picking fresh values for it, and each op is a plain
JSON-able spec plus the package objects made from it.  ``run`` performs one
op through the tracer and ``check`` compares its result with the independent
oracle.  The package is passed in as ``lib`` so that set-up can import it
afresh.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle as orc


class ExitCodeError(Exception):
    """A CLI request ended with another exit code than the README documents."""


class StepBudgetError(Exception):
    """A call needs more steps than the budget the workload gives it."""


def steps_within(budget: int, fn, *args) -> bool:
    """Whether fn(*args) ends within `budget` Python trace events (calls and
    lines executed, in every frame it enters).

    The count depends on the inputs and the code only, not on the host's
    speed or load, so which calls are over budget is the same in every run.
    Tracing slows the call several times over, so it is made outside the
    timed interval; fn is stopped once the budget runs out."""
    left = budget

    def step(frame, event, arg):
        nonlocal left
        left -= 1
        if left < 0:
            raise StepBudgetError
        return step

    previous = sys.gettrace()
    sys.settrace(step)
    try:
        fn(*args)
    except StepBudgetError:
        return False
    except Exception:  # an error within the budget is the timed call's to count
        pass
    finally:
        sys.settrace(previous)
    return True


@dataclass
class Op:
    kind: str
    spec: dict
    objs: dict = field(default_factory=dict, repr=False)

    def label(self) -> str:
        """What the op does, for the per-op latencies in the run record."""
        return self.spec.get("command") or self.spec.get("kind") or self.kind


def family(s: dict) -> list[tuple[tuple, tuple]]:
    """Every distinct (preperiod, period) in (0,1) within the digit and length
    bounds, in canonical order."""
    digits = range(1, s["cf_digit_max"] + 1)
    out = set()
    for lp in range(s["preperiod_max"] + 1):
        for pre in itertools.product(digits, repeat=lp):
            for lq in range(1, s["period_max"] + 1):
                for per in itertools.product(digits, repeat=lq):
                    out.add(orc.canonical_cf((0, *pre), per))
    return sorted(out)


def seeded_parameters(rng: random.Random, s: dict) -> list[tuple[tuple, tuple]]:
    """One family parameter per period, the seed choosing among those that
    share it, so every pass mixes all period digits alike."""
    by_period: dict[tuple, list] = {}
    for pre, per in family(s):
        by_period.setdefault(per, []).append((pre, per))
    return [rng.choice(group) for _, group in sorted(by_period.items())]


def make_parameter(lib, tr, pre, per):
    lit = orc.cf_literal(pre, per)
    alpha = tr.call("quadratics.construct", lambda: lib.cf_value(lib.parse_cf(lit)))
    return lit, alpha, orc.cf_quad(pre, per)


def make_point(lib, tr, alpha, u: Fraction, v: Fraction, variant: str):
    """The orbit point u + v*alpha (mod 1) with the given coding variant."""
    return tr.call("quadratics.construct", lambda: lib.OrbitPoint(alpha, alpha * v + u if v else u, variant))


def child_env(src: Path) -> dict:
    """The environment of a subprocess that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def quad_literal(q: orc.Quad) -> str:
    return "quad:" + ",".join(map(str, q.pqdr()))


# -- fibre-sweep -----------------------------------------------------------------


class FibreSweep:
    """One seeded parameter per pass, shared by a fixed mix of points."""

    def pass_inputs(self, seed, s, lib, tr, i):
        """The seed picks the parameter and the points."""
        rng = random.Random(f"fibre-sweep:{seed}:{i}")
        lit, alpha, q = make_parameter(lib, tr, *rng.choice(family(s)))
        K, (lo, hi) = s["K"], s["L"]
        den = rng.randint(2, 9)
        points = [
            ("omega", Fraction(0), Fraction(1), "L"),
            ("fwd", Fraction(0), Fraction(1 + rng.randint(1, K - 1)), "L"),
            ("back", Fraction(0), Fraction(1 - rng.randint(1, K - 1)), "L"),
            ("back", Fraction(0), Fraction(1 - rng.randint(1, K - 1)), "R"),
            ("rational", Fraction(rng.randint(1, den - 1), den), Fraction(0), "L"),
            # v is not an integer, so the point is off the orbit of 0
            ("quadratic", Fraction(rng.randint(0, 4), 5),
             rng.choice((1, -1)) * (rng.randint(0, 2) + Fraction(1, rng.randint(2, 5))), "L"),
        ]
        ops = []
        for j, (kind, u, v, var) in enumerate(points):
            spec = {"alpha": lit, "kind": kind, "u": str(u), "v": str(v), "variant": var,
                    "K": K, "L": lo if j % 2 == 0 else hi}
            x = make_point(lib, tr, alpha, u, v, var)
            ops.append(Op("fibre", spec, {"alpha": alpha, "q": q, "x": x}))
        ops.append(Op("quotient", {"alpha": lit, "index": s["quotient_index"], "lower": s["quotient_lower"]},
                      {"alpha": alpha, "q": q}))
        ops.append(Op("thread", dict(ops[0].spec, L=hi), ops[0].objs))
        return ops

    def run(self, op, lib, tr):
        a, sp = op.objs["alpha"], op.spec
        if op.kind == "fibre":
            rep = tr.call("cover.fibre_report", lib.fibre_report, a, op.objs["x"], sp["K"], sp["L"])
            tr.count("cover.fibre_report.resolved", rep.resolved)
            return rep.count, rep.resolved
        if op.kind == "quotient":
            top = tr.call("cover.quotient", lib.quotient, a, tuple(sp["index"]))
            low = tr.call("cover.quotient", lib.quotient, a, tuple(sp["lower"]))
            tr.count("cover.quotient.classes", len(top) + len(low))
            images = [tr.call("cover.q_map", lib.q_map, c, tuple(sp["lower"])) for c in top.classes]
            return top.classes, low.classes, images
        return tr.call("cover.thread_of", lib.thread_of, a, op.objs["x"], sp["K"], sp["L"])

    def check(self, op, result, lib):
        sp, q = op.spec, op.objs["q"]
        if op.kind == "fibre":
            return orc.check_fibre(sp["kind"], *result)
        if op.kind == "quotient":
            return orc.check_quotient(q, *sp["index"], *result)
        return orc.check_thread(q, Fraction(sp["u"]), Fraction(sp["v"]), sp["variant"], result)


# -- language-witness ------------------------------------------------------------


class LanguageWitness:
    """A fresh parameter for every op; no op shares a parameter with another."""

    def pass_inputs(self, seed, s, lib, tr, i):
        rng = random.Random(f"language-witness:{seed}:{i}")
        ops = []
        for pre, per in seeded_parameters(rng, s):
            lit, alpha, q = make_parameter(lib, tr, pre, per)
            omega = tr.call("quadratics.construct", lib.branch_point, alpha)
            spec = {"alpha": lit, "n_max": s["language_n_max"], "code_word_n": s["code_word_n"],
                    "past_shift": rng.randint(0, s["past_depth"] - 1), "past_depth": s["past_depth"],
                    "F": s["F"]}
            past_x = tr.call("quadratics.construct", omega.shift, spec["past_shift"])
            ops.append(Op("language", spec, {"alpha": alpha, "q": q, "omega": omega, "past_x": past_x}))
        return ops

    def run(self, op, lib, tr):
        a, sp, o = op.objs["alpha"], op.spec, op.objs
        langs = {}
        for n in range(1, sp["n_max"] + 2):
            langs[n] = tr.call("words.language", lib.language, a, n)
            tr.count("words.language.letters", n * len(langs[n]))
        word = tr.call("words.code_word", lib.code_word, o["omega"], sp["code_word_n"])
        tr.count("words.code_word.letters", len(word))
        past = tr.call("words.past_set", lib.past_set, o["past_x"], sp["past_depth"])
        witnesses = []
        for F in sp["F"]:
            w = tr.call("groupoid.dad_witness", lib.dad_witness, a, F)
            window = 2 * w.lbar * max(w.beta_mu, w.beta_nu)
            chk = tr.call("groupoid.check_witness", lib.check_witness, a, w, window)
            tr.count("groupoid.check_witness.letters", window * (window + 1))
            tr.count("groupoid.check_witness.passed", chk.passed)
            deg = tr.call("groupoid.degenerate_cover_chain", lib.degenerate_cover_chain, a, F, window)
            witnesses.append((chk.passed, deg, window))
        return langs, word, past, witnesses

    def check(self, op, result, lib):
        langs, word, past, witnesses = result
        sp, q = op.spec, op.objs["q"]
        for n in range(1, sp["n_max"] + 1):
            bad = orc.check_language(q, n, langs[n], langs[n + 1])
            if bad:
                return bad
        if word != orc.characteristic(q, sp["code_word_n"]):
            return "branch-point word differs from the characteristic word"
        if past != orc.past_words(q, Fraction(0), Fraction(1), "L", sp["past_shift"], sp["past_depth"]):
            return f"past set {sorted(past)} is wrong"
        for w in witnesses:
            bad = orc.check_witness(*w)
            if bad:
                return bad
        return None


# -- deciders --------------------------------------------------------------------


def squarefree_in(rng, lo, hi) -> int:
    while True:
        d = rng.randint(lo + 1, hi)
        if orc.squarefree_part(d)[0] == 1:
            return d


def unit_parameter(rng, d) -> orc.Quad:
    """frac((p + q*sqrt d)/r) for small seeded p, q, r."""
    p, q, r = rng.randint(-3, 3), rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 5)
    return orc.Quad(Fraction(p, r), Fraction(q, r), d).frac()


def flow_partner(rng, x: orc.Quad) -> orc.Quad:
    """frac((a*x + b)/(c*x + e)) for a seeded integer matrix of determinant +-1."""
    a, b, c, e = 1, 0, 0, 1
    for _ in range(rng.randint(1, 3)):
        t = rng.randint(1, 3)
        a, b, c, e = a * t + b, a, c * t + e, c
    return ((x * a + b) * (x * c + e).inverse()).frac()


class Deciders:
    """Pairs whose conjugacy and flow answers are fixed by construction."""

    def pass_inputs(self, seed, s, lib, tr, i):
        """Fresh pairs for every pass, the same count per band and relation.

        The alphas of pass i are drawn from the bands by the pass index
        alone, the same for every seed, and the seed picks their partners
        and the order points: alpha's period length decides most of an op's
        cost, so this keeps the cost of a pass from depending on the seed."""
        self.cf_value_steps = s["cf_value_budget_steps"]
        alphas = random.Random(f"deciders:{i}")
        rng = random.Random(f"deciders:{seed}:{i}")
        return [self._pair(lib, tr, alphas, rng, lo, hi, relation)
                for lo, hi in s["radicand_bands"]
                for relation in ("flow", "conjugate", "neither")
                for _ in range(s["pairs_per_band_and_relation"])]

    def _pair(self, lib, tr, alphas, rng, lo, hi, relation):
        d = squarefree_in(alphas, lo, hi)
        a = unit_parameter(alphas, d)
        if relation == "flow":
            b = flow_partner(rng, a)
            want = (b == a or b == 1 - a, True)
        elif relation == "conjugate":
            b, want = 1 - a, (True, True)
        else:
            d2 = d
            while d2 == d:
                d2 = squarefree_in(rng, lo, hi)
            b, want = unit_parameter(rng, d2), (False, False)
        x, y = (rng.randint(-40, 40), rng.randint(-40, 40)), (rng.randint(-40, 40), rng.randint(-40, 40))
        spec = {"alpha": quad_literal(a), "beta": quad_literal(b), "relation": relation,
                "band": [lo, hi], "want": list(want), "order": [list(x), list(y)]}
        objs = {"q": a, "alpha": tr.call("quadratics.construct", lib.QuadraticIrrational, *a.pqdr()),
                "beta": tr.call("quadratics.construct", lib.QuadraticIrrational, *b.pqdr())}
        objs["group"] = lib.OrderedGroupDescriptor(objs["alpha"])
        return Op("decide", spec, objs)

    def run(self, op, lib, tr):
        """All three parts run even when one fails, so an op's work does not
        shrink with its failures; the first failure then fails the op."""
        o, errors = op.objs, []

        def part(fn):
            try:
                return fn()
            except Exception as e:  # collected and re-raised below
                errors.append(e)

        rep = part(lambda: tr.call("invariants.compare_parameters", lib.compare_parameters,
                                   o["alpha"], o["beta"]))
        back = part(lambda: self._round_trip(lib, tr, op))
        x, y = (tuple(v) for v in op.spec["order"])
        sign = part(lambda: tr.call("invariants.OrderedGroupDescriptor.compare", o["group"].compare, x, y))
        if errors:
            raise errors[0]
        return rep.conjugate, rep.flow_equivalent, back, sign

    def prepare(self, ops, lib):
        """Which ops' cf_value stays within its step budget, decided before
        the pass and outside the timed interval.

        cf_value factors the period's discriminant by trial division, which
        stalls on long periods; a budget of steps rather than of time makes
        the same ops fail in every run."""
        for op in ops:
            try:
                cf = lib.cf_expand(op.objs["alpha"])
            except Exception:  # the timed call fails the same way
                continue
            op.objs["cf_value_fits"] = steps_within(self.cf_value_steps, lib.cf_value, cf)

    def _round_trip(self, lib, tr, op):
        cf = tr.call("quadratics.cf_expand", lib.cf_expand, op.objs["alpha"])
        tr.count("quadratics.cf_expand.digits", len(cf.preperiod) + len(cf.period))
        if not op.objs["cf_value_fits"]:
            raise StepBudgetError(f"cf_value needs more than {self.cf_value_steps} steps")
        back = tr.call("quadratics.cf_value", lib.cf_value, cf)
        return back.p, back.q, back.d, back.r

    def check(self, op, result, lib):
        conj, flow, back, sign = result
        q = op.objs["q"]
        bad = orc.check_decider(*op.spec["want"], conj, flow)
        if bad:
            return bad
        if back != q.pqdr():
            return f"cf_value(cf_expand(x)) = {back}, expected {q.pqdr()}"
        x, y = (tuple(v) for v in op.spec["order"])
        if sign != orc.order(x, y, q):
            return f"order comparison of {x} and {y} gave {sign}"
        return None


# -- cli-mix ---------------------------------------------------------------------

CLI_MAIN = "import sys\nfrom sturmian.cli import main\nsys.exit(main())"


class CliMix:
    """One `sturmian ... -o json` process per request, run one at a time."""

    children = True  # end-to-end CPU and memory are the subprocesses'

    def pass_inputs(self, seed, s, lib, tr, i):
        """One request per command, dad once per F, then one malformed request.

        dad's F values differ most in cost, so every pass sends all of them;
        the fibre point kind and the malformed request take turns by pass
        index.  Request k takes family parameter k mod 9, the same in every
        pass and for every seed; the seed picks the options."""
        rng = random.Random(f"cli-mix:{seed}:{i}")
        self.env = child_env(Path(lib.__file__).parent.parent)
        params = family(s)
        variants = {"fibre": [s["fibre_points"][i % len(s["fibre_points"])]], "dad": s["dad_F"]}
        valid = [(c, v) for c in s["commands"] for v in variants.get(c, [None])]
        alphas = [orc.cf_quad(*params[k % len(params)]) for k in range(len(valid) + 1)]
        ops = [self._request(lib, tr, rng, command, variant, q, params)
               for (command, variant), q in zip(valid, alphas)]
        command, *extra = s["malformed"][i % len(s["malformed"])].split()
        argv = [command, "--alpha", quad_literal(alphas[-1]), *extra, "-o", "json"]
        ops.append(Op("cli", {"command": command, "argv": argv, "exit": 2}))
        return ops

    def _request(self, lib, tr, rng, command, variant, q, params):
        """A valid request; variant is the fibre point kind or the dad F."""
        args = []
        if command in ("omega", "word"):
            args = ["--n", str(rng.randint(20, 400))]
            if command == "word":
                den = rng.randint(2, 9)
                args += ["--t", f"{rng.randint(1, den - 1)}/{den}"]
        elif command == "language":
            args = ["--n", str(rng.randint(4, 24))]
        elif command == "past":
            args = ["--t", f"fwd:{rng.randint(0, 4)}", "--l", str(rng.randint(1, 6))]
        elif command == "cover":
            k = rng.randint(1, 2)
            args = ["--k", str(k), "--l", str(rng.randint(k + 1, 4))]
        elif command == "fibre":
            m = rng.randint(1, 2)
            point = variant.format(m=m, n=m + 3)
            args = ["--point", point, "--K", "3", "--L", "6"]
        elif command == "dad":
            args = ["--F", variant]
        elif command == "compare":
            relation = rng.choice(["flow", "conjugate", "neither"])
            if relation == "flow":
                b = flow_partner(rng, q)
            elif relation == "conjugate":
                b = 1 - q
            else:
                b = q
                while b.d == q.d:
                    b = orc.cf_quad(*rng.choice(params))
            args = ["--beta", quad_literal(b)]
        argv = [command, "--alpha", quad_literal(q), *args, "-o", "json"]
        alpha = tr.call("quadratics.construct", lib.parse_quad, quad_literal(q))
        return Op("cli", {"command": command, "argv": argv, "exit": 0}, {"alpha": alpha})

    def run(self, op, lib, tr):
        name = f"cli.{op.spec['command']}" if op.spec["exit"] == 0 else "cli.usage_error"
        proc = tr.call(name, subprocess.run, [sys.executable, "-c", CLI_MAIN, *op.spec["argv"]],
                       env=self.env, capture_output=True, text=True, timeout=60)
        if proc.returncode != op.spec["exit"]:
            tr.count("cli.exit_mismatch")
            raise ExitCodeError(
                f"{op.spec['command']} exited {proc.returncode}, documented {op.spec['exit']}")
        return proc.stdout

    def check(self, op, result, lib):
        """The JSON answer against the in-process library answer."""
        if op.spec["exit"] != 0:
            return None
        got = json.loads(result.strip().splitlines()[-1])
        want = library_answer(lib, op)
        diff = sorted(k for k in want if got.get(k) != want[k])
        return f"{op.spec['command']} fields {diff} differ from the library" if diff else None


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def library_answer(lib, op) -> dict:
    """The fields a request's JSON must carry, computed in process."""
    argv, alpha = op.spec["argv"], op.objs["alpha"]
    command = op.spec["command"]
    omega = lib.branch_point(alpha)
    if command == "omega":
        return {"word": lib.code_word(omega, int(_opt(argv, "--n")))}
    if command == "word":
        t = lib.OrbitPoint(alpha, Fraction(_opt(argv, "--t")))
        return {"word": lib.code_word(t, int(_opt(argv, "--n")))}
    if command == "language":
        return {"words": sorted(lib.language(alpha, int(_opt(argv, "--n"))))}
    if command == "past":
        x = omega.shift(int(_opt(argv, "--t")[4:]))
        return {"pasts": sorted(lib.past_set(x, int(_opt(argv, "--l"))))}
    if command == "cover":
        q = lib.quotient(alpha, (int(_opt(argv, "--k")), int(_opt(argv, "--l"))))
        classes = sorted(({"prefix": c.prefix, "past": sorted(c.past)} for c in q.classes),
                         key=lambda c: (c["prefix"], c["past"]))
        return {"classes": classes}
    if command == "fibre":
        spec = _opt(argv, "--point")
        if spec == "omega":
            x = omega
        elif spec.startswith("fwd:"):
            x = omega.shift(int(spec[4:]))
        elif spec.startswith("back:"):
            m, var = spec[5:].split(":")
            x = lib.OrbitPoint(alpha, alpha * (1 - int(m)), var)
        else:
            x = lib.OrbitPoint(alpha, Fraction(spec))
        rep = lib.fibre_report(alpha, x, int(_opt(argv, "--K")), int(_opt(argv, "--L")))
        return {"count": rep.count, "expected": rep.expected, "resolved": rep.resolved}
    if command == "dad":
        F = tuple(int(v) for v in _opt(argv, "--F").split(","))
        w = lib.dad_witness(alpha, F)
        window = 2 * w.lbar * max(w.beta_mu, w.beta_nu)
        out = lib.check_witness(alpha, w, window).to_dict()
        out["degenerate_chain"] = lib.degenerate_cover_chain(alpha, F, window)
        return out
    if command == "compare":
        rep = lib.compare_parameters(alpha, lib.parse_quad(_opt(argv, "--beta")))
        return {"conjugate": rep.conjugate, "flow_equivalent": rep.flow_equivalent}
    cf = lib.cf_expand(alpha)
    return {"cf": str(cf), "flow_class_period": list(cf.period)}


WORKLOADS = {
    "fibre-sweep": FibreSweep,
    "language-witness": LanguageWitness,
    "deciders": Deciders,
    "cli-mix": CliMix,
}
