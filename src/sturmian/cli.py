"""Command-line front end producing deterministic text or JSON reports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

# every command parses --alpha; each runner imports the layers it calls
from .quadratics import QuadraticIrrational, cf_expand, check_unit_interval, format_quad, parse_quad

if TYPE_CHECKING:
    from .words import OrbitPoint

COMMANDS = ("word", "language", "omega", "past", "cover", "fibre", "dad", "compare", "report")
OUTPUTS = ("text", "json")


@dataclass(frozen=True)
class RunConfig:
    command: str
    alpha: QuadraticIrrational
    output: str
    options: dict


class UsageError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _parse_alpha(text: str) -> QuadraticIrrational:
    try:
        return check_unit_interval(parse_quad(text))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError("alpha", str(e))


def _parse_point(alpha: QuadraticIrrational, spec: str, variant: str) -> OrbitPoint:
    """Point specs: 'omega', 'fwd:J', 'back:M:L|R', 'quad:p,q,d,r' or 'p/q'."""
    from .words import OrbitPoint, branch_point

    try:
        if spec == "omega":
            return branch_point(alpha)
        if spec.startswith("fwd:"):
            j = int(spec[4:])
            if j < 0:
                raise ValueError("fwd:J needs J >= 0")
            return branch_point(alpha).shift(j)
        if spec.startswith("back:"):
            m, _, var = spec[5:].partition(":")
            m, var = int(m), var or variant
            if m < 1 or var not in ("L", "R"):
                raise ValueError("back:M:V needs M >= 1 and V in L, R")
            return OrbitPoint._at(alpha, 0, 1 - m, 1, var)
        if spec.startswith("quad:"):
            return OrbitPoint(alpha, parse_quad(spec), variant)
        num, _, den = spec.partition("/")
        return OrbitPoint(alpha, Fraction(int(num), int(den) if den else 1), variant)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError("point", f"cannot parse {spec!r}: {e}")


def _emit(cfg: RunConfig, payload: dict, text_lines: list[str]) -> None:
    if cfg.output == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _run_word(cfg: RunConfig) -> int:
    from .words import code_word

    o = cfg.options
    x = _parse_point(cfg.alpha, o["t"], o["variant"])
    w = code_word(x, o["n"])
    _emit(cfg, {"alpha": format_quad(cfg.alpha), "n": o["n"], "word": w}, [w])
    return 0


def _run_omega(cfg: RunConfig) -> int:
    from .words import branch_point, code_word

    w = code_word(branch_point(cfg.alpha), cfg.options["n"])
    _emit(cfg, {"alpha": format_quad(cfg.alpha), "n": cfg.options["n"], "word": w}, [w])
    return 0


def _run_language(cfg: RunConfig) -> int:
    from .words import language

    n = cfg.options["n"]
    words = sorted(language(cfg.alpha, n))
    _emit(cfg, {"alpha": format_quad(cfg.alpha), "n": n, "words": words}, words)
    return 0


def _run_past(cfg: RunConfig) -> int:
    from .words import past_set

    o = cfg.options
    x = _parse_point(cfg.alpha, o["t"], o["variant"])
    words = sorted(past_set(x, o["l"]))
    _emit(cfg, {"alpha": format_quad(cfg.alpha), "l": o["l"], "pasts": words}, words)
    return 0


def _run_cover(cfg: RunConfig) -> int:
    from .cover import quotient

    o = cfg.options
    q = quotient(cfg.alpha, (o["k"], o["l"]))
    classes = sorted(
        ({"prefix": c.prefix, "past": sorted(c.past)} for c in q.classes),
        key=lambda d: (d["prefix"], d["past"]),
    )
    payload = {"index": [o["k"], o["l"]], "classes": classes}
    lines = [f"index=({o['k']},{o['l']}) classes={len(classes)}"]
    for c in classes:
        lines.append(f"  prefix={c['prefix'] or '-'} past={{{','.join(c['past'])}}}")
    _emit(cfg, payload, lines)
    return 0


def _run_fibre(cfg: RunConfig) -> int:
    from .cover import fibre_report

    o = cfg.options
    x = _parse_point(cfg.alpha, o["point"], o["variant"])
    rep = fibre_report(cfg.alpha, x, o["K"], o["L"])
    threads = sorted(rep.threads, key=lambda th: th.table())
    payload = {
        "alpha": format_quad(cfg.alpha),
        "point": o["point"],
        "K": o["K"],
        "L": o["L"],
        "count": rep.count,
        "expected": rep.expected,
        "resolved": rep.resolved,
        "min_K": rep.min_K,
        "min_L": rep.min_L,
    }
    lines = [
        f"fibre over {o['point']} at (K,L)=({o['K']},{o['L']}): count={rep.count} "
        f"expected={rep.expected} resolved={rep.resolved} (bound used: K>={rep.min_K}, L>={rep.min_L})"
    ]
    if o["show_threads"]:
        payload["threads"] = [th.table().splitlines() for th in threads]
        for i, th in enumerate(threads):
            lines.append(f"thread {i}:")
            lines.extend("  " + row for row in th.table().splitlines())
    _emit(cfg, payload, lines)
    return 0 if rep.resolved else 1


def _run_dad(cfg: RunConfig) -> int:
    from .groupoid import check_witness, dad_witness, degenerate_cover_chain

    o = cfg.options
    try:
        w = dad_witness(cfg.alpha, o["F"])
    except ValueError as e:
        raise UsageError("F", str(e))
    window = o["window"]
    if window is None:
        window = 2 * w.lbar * max(w.beta_mu, w.beta_nu)
    try:
        chk = check_witness(cfg.alpha, w, window)
    except ValueError as e:
        raise UsageError("window", str(e))
    degenerate = degenerate_cover_chain(cfg.alpha, o["F"], window)
    payload = chk.to_dict()
    payload["degenerate_chain"] = degenerate
    payload["degenerate_exceeds_half_window"] = degenerate > window // 2
    lines = [
        f"F={list(w.cocycle_values)} mu={w.mu} nu={w.nu} beta_mu={w.beta_mu} beta_nu={w.beta_nu}",
        f"window={window} max_chain_V={chk.max_chain_v} max_chain_U={chk.max_chain_u} "
        f"cocycle_bound={chk.cocycle_bound} pass={chk.passed}",
        f"one-set cover chain={degenerate} (> window/2: {degenerate > window // 2})",
    ]
    _emit(cfg, payload, lines)
    return 0 if chk.passed else 1


def _run_compare(cfg: RunConfig) -> int:
    from .invariants import compare_parameters

    rep = compare_parameters(cfg.alpha, cfg.options["beta"])
    lines = [
        f"conjugate={str(rep.conjugate).lower()}",
        f"flow_equivalent={str(rep.flow_equivalent).lower()}",
        "k0=Z+alphaZ",
        "k1=0",
    ]
    _emit(cfg, rep.to_dict(), lines)
    return 0


def _run_report(cfg: RunConfig) -> int:
    cf = cf_expand(cfg.alpha)
    payload = {
        "alpha": format_quad(cfg.alpha),
        "cf": str(cf),
        "k0": "Z+alphaZ",
        "k1": "0",
        "order_unit": "1",
        "flow_class_period": list(cf.period),
    }
    lines = [
        f"alpha = {format_quad(cfg.alpha)} = {cfg.alpha}",
        f"continued fraction: {cf}",
        f"K0 = Z + alpha*Z (ordered, unit 1); K1 = 0",
        f"flow-equivalence class: period {list(cf.period)} up to rotation",
    ]
    _emit(cfg, payload, lines)
    return 0


_RUNNERS = {
    "word": _run_word,
    "language": _run_language,
    "omega": _run_omega,
    "past": _run_past,
    "cover": _run_cover,
    "fibre": _run_fibre,
    "dad": _run_dad,
    "compare": _run_compare,
    "report": _run_report,
}


def run(cfg: RunConfig) -> int:
    try:
        return _RUNNERS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmian",
        description="Exact computations on Sturmian subshifts, their covers and invariants.",
    )
    default_output = os.environ.get("STURMIAN_OUTPUT", "text")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alpha", required=True, help="parameter, e.g. quad:3,-1,5,2")
        p.add_argument("--output", "-o", choices=OUTPUTS, default=default_output)

    p = sub.add_parser("word", help="coded word of a circle point")
    common(p)
    p.add_argument("--t", required=True, help="point: p/q, quad:..., omega, fwd:J, back:M:V")
    p.add_argument("--variant", choices=("L", "R"), default="L")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("language", help="all admissible words of a length")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("omega", help="prefix of the branch point")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("past", help="past set of a point")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--variant", choices=("L", "R"), default="L")
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("cover", help="finite quotient at an index pair")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = sub.add_parser("fibre", help="fibre of the cover over a point")
    common(p)
    p.add_argument("--point", required=True, help="omega, fwd:J, back:M:V, p/q or quad:...")
    p.add_argument("--variant", choices=("L", "R"), default="L")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--show-threads", action="store_true", help="print level tables per thread")

    p = sub.add_parser("dad", help="two-set chain-bound witness and its verification")
    common(p)
    p.add_argument("--F", required=True, help="comma-separated cocycle values, e.g. 1,2")
    p.add_argument("--window", type=int, default=None)

    p = sub.add_parser("compare", help="conjugacy and flow-equivalence deciders")
    common(p)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("report", help="invariant summary for one parameter")
    common(p)
    return parser


def _check_numeric(args) -> None:
    """Reject out-of-range numeric options before any computation runs."""
    for field in ("n", "l", "L"):
        if getattr(args, field, 0) < 0:
            raise UsageError(field, "must be nonnegative")
    if hasattr(args, "k") and not 0 <= args.k <= args.l:
        raise UsageError("k", f"must lie in 0..l = {args.l}")
    if hasattr(args, "K") and not 0 <= args.K <= args.L:
        raise UsageError("K", f"must lie in 0..L = {args.L}")


def _config_from_args(args) -> RunConfig:
    if args.output not in OUTPUTS:  # a STURMIAN_OUTPUT default skips argparse's check
        raise UsageError("output", f"must be one of {', '.join(OUTPUTS)}, not {args.output!r}")
    alpha = _parse_alpha(args.alpha)
    _check_numeric(args)
    options = {}
    for key in ("t", "variant", "n", "l", "k", "point", "K", "L", "window", "show_threads"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    if args.command == "dad":
        try:
            options["F"] = tuple(int(v) for v in args.F.split(","))
        except ValueError:
            raise UsageError("F", f"cannot parse {args.F!r}")
    if args.command == "compare":
        try:
            options["beta"] = check_unit_interval(parse_quad(args.beta))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError("beta", str(e))
    return RunConfig(args.command, alpha, args.output, options)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
