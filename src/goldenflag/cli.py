"""Command-line interface.

Subcommands: build, verify, eval, ratio, list.  Exit codes: 0 success,
1 failed checks or any error, 2 usage errors, 3 precision-limited
outcomes (Undecided verification results or exhausted refinement).

``eval`` prints correctly rounded digits (round-half-even), never
truncations; quoting leading digits of an expansion is a different
operation than rounding and can disagree in the last place.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .constructions import (
    BUILTIN_NAMES,
    FlagLayout,
    VerificationReport,
    build_flag,
    verify_angle_configuration,  # noqa: F401  (bound here by the layer tracer in bench/)
    verify_layout_identities,
)
from .errors import GoldenFlagError, PrecisionExhausted
from .exactnum import as_rational, decimal_str
from .exactnum.decimalfmt import MAX_PRECISION_BITS
from .flagspec import lower_expr, lower_source, parse_expression
from .render import RenderOptions, json_emit, svg_emit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _positive_rational(text: str):
    try:
        value = as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_in_range(minimum: int, maximum: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text!r}")
        return value

    return parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldenflag",
        description=(
            "Exact-arithmetic golden-ratio flag constructions: build and "
            "verify builtin designs or .flag spec files, and evaluate "
            "constructible expressions to certified decimals."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="build a flag and write SVG or JSON output"
    )
    build.add_argument("flag", help="builtin name or path to a .flag file")
    build.add_argument("--out", required=True, help="output file path")
    build.add_argument(
        "--scale",
        type=_positive_rational,
        default=as_rational(1),
        help="output units per canvas unit (exact rational, e.g. 300 or 12/5)",
    )
    build.add_argument(
        "--width",
        type=_positive_rational,
        default=None,
        help="scale so the emitted width equals this exact rational "
        "(overrides --scale; e.g. 2.4 for a physical width)",
    )
    build.add_argument(
        "--digits", type=_int_in_range(3), default=12, help="significant digits"
    )
    build.add_argument(
        "--format",
        choices=("svg", "json"),
        default=None,
        help="output format; default inferred from --out suffix, else svg",
    )

    verify = commands.add_parser(
        "verify", help="run every stated identity check for a flag"
    )
    verify.add_argument("flag", help="builtin name or path to a .flag file")

    evaluate = commands.add_parser(
        "eval", help="evaluate an expression to certified decimal digits"
    )
    evaluate.add_argument("expr", help="expression, e.g. 'sqrt(10-2*sqrt(5))/(1+sqrt(5))'")
    evaluate.add_argument(
        "--digits",
        type=_int_in_range(1),
        default=12,
        help="significant digits, printed round-half-even (never truncated)",
    )
    evaluate.add_argument(
        "--precision-bits",
        type=_int_in_range(1, MAX_PRECISION_BITS),
        default=128,
        help=f"starting working precision in bits, 1 to {MAX_PRECISION_BITS}; "
        "refinement beyond is automatic when rounding certification needs it",
    )

    ratio = commands.add_parser("ratio", help="print a flag's width-height ratio")
    ratio.add_argument("name", help="builtin name or path to a .flag file")
    ratio.add_argument("--digits", type=_int_in_range(1), default=6)

    commands.add_parser("list", help="print builtin flag names")
    return parser


def _load_layout(name_or_path: str) -> FlagLayout:
    if name_or_path.endswith(".flag"):
        return lower_source(Path(name_or_path).read_text(encoding="utf-8"))
    return build_flag(name_or_path)


def _print_report(report: VerificationReport, out) -> None:
    width = max(len(check.status.label) for check in report.checks)
    for check in report.checks:
        line = f"{check.status.label:<{width}}  {check.name}"
        if check.detail:
            line += f"  [{check.detail}]"
        print(line, file=out)


def _cmd_build(args, out) -> int:
    layout = _load_layout(args.flag)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out.endswith(".json") else "svg"
    options = RenderOptions(
        scale=args.scale, digits=args.digits, target_width=args.width
    )
    emit = json_emit if fmt == "json" else svg_emit
    payload = emit(layout, options)
    Path(args.out).write_bytes(payload)
    print(f"{layout.provenance}: wrote {fmt} to {args.out} ({len(payload)} bytes)", file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    layout = _load_layout(args.flag)
    report = verify_layout_identities(layout)
    _print_report(report, out)
    total = len(report.checks)
    if report.all_ok:
        print(f"{layout.provenance}: {total} checks passed", file=out)
        return EXIT_OK
    failed = sum(not check.status.ok for check in report.checks)
    print(f"{layout.provenance}: {failed} of {total} checks failed", file=out)
    if report.any_undecided and not report.any_disproved:
        return EXIT_UNDECIDED
    return EXIT_ERROR


def _cmd_eval(args, out) -> int:
    expr = lower_expr(parse_expression(args.expr), {}, "eval expression")
    print(decimal_str(expr, args.digits, min_bits=args.precision_bits), file=out)
    return EXIT_OK


def _cmd_ratio(args, out) -> int:
    layout = _load_layout(args.name)
    print(decimal_str(layout.width_height_ratio(), args.digits), file=out)
    return EXIT_OK


def _cmd_list(args, out) -> int:
    for name in BUILTIN_NAMES:
        print(name, file=out)
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "ratio": _cmd_ratio,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except PrecisionExhausted as exc:
        print(f"goldenflag: precision exhausted: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (GoldenFlagError, OSError) as exc:
        print(f"goldenflag: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # no input may end in a traceback
        print(f"goldenflag: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
