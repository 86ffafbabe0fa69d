"""Command-line front end producing deterministic text or JSON reports."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional

# every command parses --alpha; each runner imports the layers it calls
from .quadratics import QuadraticIrrational, check_unit_interval, format_quad, parse_quad

if TYPE_CHECKING:
    from .words import OrbitPoint


class UsageError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


def _blame(field: str, f, *args):
    """f(*args), its ValueError or ZeroDivisionError (a quad: literal with r = 0)
    reported as a usage error of the option field."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(field, str(e))


def _parse_point(alpha: QuadraticIrrational, spec: str) -> OrbitPoint:
    """Point specs: 'omega', 'fwd:J', 'back:M:L|R', 'quad:p,q,d,r' or 'p/q'.

    Only back:M:V names a coding side, L if V is left out: an `OrbitPoint` keeps
    its side only at the points -i*alpha, back:(i+1), where the two codings differ."""
    from .words import OrbitPoint, _orbit_point

    try:
        if spec == "omega":
            return _orbit_point(alpha, 1, "L")
        if spec.startswith("fwd:"):
            j = int(spec[4:])
            if j < 0:
                raise ValueError("fwd:J needs J >= 0")
            return _orbit_point(alpha, 1 + j, "L")
        if spec.startswith("back:"):
            m, _, var = spec[5:].partition(":")
            m, var = int(m), var or "L"
            if m < 1 or var not in ("L", "R"):
                raise ValueError("back:M:V needs M >= 1 and V in L, R")
            return _orbit_point(alpha, 1 - m, var)
        if spec.startswith("quad:"):
            return OrbitPoint(alpha, parse_quad(spec))
        from fractions import Fraction

        num, slash, den = spec.partition("/")
        return OrbitPoint(alpha, Fraction(int(num), int(den) if slash else 1))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError("point", f"cannot parse {spec!r}: {e}")


# a runner's answer: the JSON payload, the text lines and whether the report passes its own check
Answer = tuple[dict, list[str], bool]


def _run_word(args: argparse.Namespace) -> Answer:
    from .words import code_word

    w = _blame("n", code_word, _parse_point(args.alpha, args.t), args.n)
    return {"alpha": format_quad(args.alpha), "n": args.n, "word": w}, [w], True


def _run_language(args: argparse.Namespace) -> Answer:
    from .words import language

    words = sorted(_blame("n", language, args.alpha, args.n))
    return {"alpha": format_quad(args.alpha), "n": args.n, "words": words}, words, True


def _run_past(args: argparse.Namespace) -> Answer:
    from .words import past_set

    x = _parse_point(args.alpha, args.t)
    words = sorted(_blame("l", past_set, x, args.l))
    return {"alpha": format_quad(args.alpha), "l": args.l, "pasts": words}, words, True


def _run_cover(args: argparse.Namespace) -> Answer:
    from .cover import quotient

    k, l = args.k, args.l
    q = _blame("l", quotient, args.alpha, (k, l))
    classes = sorted(
        ({"prefix": c.prefix, "past": sorted(c.past)} for c in q.classes),
        key=lambda d: (d["prefix"], d["past"]),
    )
    payload = {"index": [k, l], "classes": classes}
    lines = [f"index=({k},{l}) classes={len(classes)}"]
    for c in classes:
        lines.append(f"  prefix={c['prefix'] or '-'} past={{{','.join(w or '-' for w in c['past'])}}}")
    return payload, lines, True


def _run_fibre(args: argparse.Namespace) -> Answer:
    from .cover import fibre_report

    K, L = args.K, args.L
    x = _parse_point(args.alpha, args.point)
    rep = _blame("L", fibre_report, args.alpha, x, K, L)
    payload = {
        "alpha": format_quad(args.alpha),
        "point": args.point,
        "K": K,
        "L": L,
        "count": rep.count,
        "expected": rep.expected,
        "resolved": rep.resolved,
        "min_K": rep.min_K,
        "min_L": rep.min_L,
    }
    lines = [
        f"fibre over {args.point} at (K,L)=({K},{L}): count={rep.count} "
        f"expected={rep.expected} resolved={rep.resolved} (least resolving: K>={rep.min_K}, L>={rep.min_L})"
    ]
    if args.show_threads:
        tables = sorted(th.table() for th in rep.threads)
        payload["threads"] = tables
        for i, rows in enumerate(tables):
            lines.append(f"thread {i}:")
            lines.extend("  " + row for row in rows)
    return payload, lines, rep.resolved


def _run_dad(args: argparse.Namespace) -> Answer:
    from .groupoid import check_witness, dad_witness, degenerate_cover_chain

    w = _blame("F", dad_witness, args.alpha, args.F)
    window = w.min_window if args.window is None else args.window
    chk = _blame("window", check_witness, args.alpha, w, window)
    degenerate = degenerate_cover_chain(args.alpha, args.F, window)
    payload = chk.to_dict()
    payload["degenerate_chain"] = degenerate
    payload["degenerate_exceeds_half_window"] = degenerate > window // 2
    lines = [
        f"F={list(w.cocycle_values)} mu={w.mu} nu={w.nu} beta_mu={w.beta_mu} beta_nu={w.beta_nu}",
        f"window={window} max_chain_V={chk.max_chain_v} max_chain_U={chk.max_chain_u} "
        f"cocycle_bound={chk.cocycle_bound} pass={chk.passed}",
        f"one-set cover chain={degenerate} (> window/2: {degenerate > window // 2})",
    ]
    return payload, lines, chk.passed


def _run_compare(args: argparse.Namespace) -> Answer:
    from .invariants import compare_parameters

    payload = compare_parameters(args.alpha, args.beta).to_dict()
    lines = [f"{key}={str(v).lower() if isinstance(v, bool) else v}" for key, v in payload.items()]
    return payload, lines, True


def _run_report(args: argparse.Namespace) -> Answer:
    from .invariants import InvariantReport, cf_expand

    cf = cf_expand(args.alpha)
    payload = {
        "alpha": format_quad(args.alpha),
        "cf": str(cf),
        "k0": InvariantReport.k0_description,
        "k1": InvariantReport.k1_description,
        "order_unit": "1",
        "flow_class_period": list(cf.period),
    }
    lines = [
        f"alpha = {format_quad(args.alpha)} = {args.alpha}",
        f"continued fraction: {cf}",
        f"K0 = Z + alpha*Z (ordered, unit 1); K1 = 0",
        f"flow-equivalence class: period {list(cf.period)} up to rotation",
    ]
    return payload, lines, True


_COUNT = {"type": int, "required": True}

# name: (runner, summary, defaults, the options besides --alpha and --output)
_COMMANDS = {
    "word": (_run_word, "coded word of a circle point", {}, {
        "--t": {"required": True, "help": "point: p/q, quad:..., omega, fwd:J, back:M:V"},
        "--n": _COUNT,
    }),
    "language": (_run_language, "all admissible words of a length", {}, {"--n": _COUNT}),
    "omega": (_run_word, "prefix of the branch point", {"t": "omega"}, {"--n": _COUNT}),
    "past": (_run_past, "past set of a point", {}, {"--t": {"required": True}, "--l": _COUNT}),
    "cover": (_run_cover, "finite quotient at an index pair", {}, {"--k": _COUNT, "--l": _COUNT}),
    "fibre": (_run_fibre, "fibre of the cover over a point", {}, {
        "--point": {"required": True, "help": "omega, fwd:J, back:M:V, p/q or quad:..."},
        "--K": _COUNT,
        "--L": _COUNT,
        "--show-threads": {"action": "store_true", "help": "print level tables per thread"},
    }),
    "dad": (_run_dad, "two-set chain-bound witness and its verification", {}, {
        "--F": {"required": True, "help": "comma-separated cocycle values, e.g. 1,2"},
        "--window": {"type": int, "default": None},
    }),
    "compare": (_run_compare, "conjugacy and flow-equivalence deciders", {}, {"--beta": {"required": True}}),
    "report": (_run_report, "invariant summary for one parameter", {}, {}),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv: the subparser of the command argv[0] names, or all
    nine when it names none, for help and for argparse's own errors."""
    parser = argparse.ArgumentParser(
        prog="sturmian",
        description="Exact computations on Sturmian subshifts, their covers and invariants.",
    )
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # one subparser's usage line names all nine commands, as the full parser's choices do;
    # the full parser sets no metavar, so its errors still name the argument "command"
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        run, summary, defaults, options = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, **defaults)
        p.add_argument("--alpha", required=True, help="parameter, e.g. quad:3,-1,5,2")
        p.add_argument("--output", "-o", choices=("text", "json"), default="text")
        for option, settings in options.items():
            p.add_argument(option, **settings)
    return parser


def _parse_args(args: argparse.Namespace) -> None:
    """Check the options, numeric ranges before any computation runs, and
    replace alpha, F and beta by their parsed values."""
    for field in ("alpha", "beta"):  # only compare has --beta
        if hasattr(args, field):
            quad = _blame(field, parse_quad, getattr(args, field))
            setattr(args, field, _blame(field, check_unit_interval, quad))
    if args.command == "dad":
        try:
            args.F = tuple(int(v) for v in args.F.split(","))
        except ValueError:
            raise UsageError("F", f"cannot parse {args.F!r}")
    for field in ("n", "l", "L"):
        if getattr(args, field, 0) < 0:
            raise UsageError(field, "must be nonnegative")
    if hasattr(args, "k") and not 0 <= args.k <= args.l:
        raise UsageError("k", f"must lie in 0..l = {args.l}")
    if hasattr(args, "K") and not 0 <= args.K <= args.L:
        raise UsageError("K", f"must lie in 0..L = {args.L}")


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command: its JSON payload or text lines on stdout and exit 0,
    or 1 for a report that fails its own check; a usage error prints one
    line on stderr and exits 2.  The one place the CLI prints."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        _parse_args(args)
        payload, lines, verified = args.run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.output == "json":
        import json  # about 1.5 ms that text requests, the default, do not pay

        lines = [json.dumps(payload, sort_keys=True, separators=(",", ":"))]
    for line in lines:
        print(line)
    return 0 if verified else 1


if __name__ == "__main__":
    sys.exit(main())
