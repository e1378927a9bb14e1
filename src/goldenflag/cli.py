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
    Check,
    FlagLayout,
    build_flag,
    verify_angle_configuration,  # noqa: F401  (bound here by the layer tracer in bench/)
    verify_layout_identities,
)
from .errors import GoldenFlagError, PrecisionExhausted
from .exactnum import Verdict, as_rational, decimal_str, enclosure_memo
from .exactnum.decimalfmt import MAX_DIGITS
from .flagspec import lower_expr, lower_source, parse_expression
from .render import RenderOptions, json_emit, svg_emit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 3


def _positive_rational(text: str):
    try:
        value = as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _int_in_range(minimum: int, maximum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        if value > maximum:
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
        "--digits", type=_int_in_range(3, MAX_DIGITS), default=12, help="significant digits"
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
        type=_int_in_range(1, MAX_DIGITS),
        default=12,
        help="significant digits, printed round-half-even (never truncated)",
    )

    ratio = commands.add_parser("ratio", help="print a flag's width-height ratio")
    ratio.add_argument("name", help="builtin name or path to a .flag file")
    ratio.add_argument("--digits", type=_int_in_range(1, MAX_DIGITS), default=6)

    commands.add_parser("list", help="print builtin flag names")
    return parser


def _load_layout(name_or_path: str) -> FlagLayout:
    if not name_or_path.lower().endswith(".flag"):
        return build_flag(name_or_path)
    data = Path(name_or_path).read_bytes()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GoldenFlagError(f"{name_or_path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    return lower_source(source.removeprefix("\ufeff"))  # a byte order mark, as some editors write


def _print_report(checks: tuple[Check, ...], out) -> None:
    width = max(len(check.status.value) for check in checks)
    for check in checks:
        line = f"{check.status.value:<{width}}  {check.name}"
        if check.detail:
            line += f"  [{check.detail}]"
        print(line, file=out)


def _cmd_build(args, out) -> int:
    layout = _load_layout(args.flag)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out.lower().endswith(".json") else "svg"
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
    checks = verify_layout_identities(layout)
    _print_report(checks, out)
    failed = [check.status for check in checks if not check.status.ok]
    if not failed:
        print(f"{layout.provenance}: {len(checks)} checks passed", file=out)
        return EXIT_OK
    print(f"{layout.provenance}: {len(failed)} of {len(checks)} checks failed", file=out)
    # a check that is not ok is disproved or undecided
    return EXIT_UNDECIDED if all(status is Verdict.UNDECIDED for status in failed) else EXIT_ERROR


def _cmd_eval(args, out) -> int:
    expr = lower_expr(parse_expression(args.expr), {}, "eval expression")
    print(decimal_str(expr, args.digits), file=out)
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
        args = parser.parse_args(argv)  # an option's type may raise PrecisionExhausted
        with enclosure_memo():  # one command is one request scope
            return _COMMANDS[args.command](args, sys.stdout)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
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
