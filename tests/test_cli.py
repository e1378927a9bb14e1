"""CLI behavior: outputs, exit codes, and file emission."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import goldenflag
from goldenflag.cli import main
from goldenflag.constructions import BUILTIN_NAMES, build_flag
from goldenflag.exactnum import div, lit
from goldenflag.exactnum import interval as iv
from goldenflag.exactnum.decimalfmt import start_bits
from goldenflag.exactnum.expr import interval_algebra
from goldenflag.render import json_emit, svg_emit

from conftest import FOUR_RADICALS, THREE_RADICALS


OUT_OF_CANVAS = 'flag "oob" { canvas 3 x 2; region a blue rect 0 0 4 2; }'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal_reference(compute, digits: int) -> str:
    """``compute(Decimal)`` in stdlib decimal arithmetic at ``digits + 50``
    digits, rounded half-even to ``digits`` significant digits and
    printed as ``eval`` prints, with trailing zeros trimmed."""
    with localcontext() as ctx:
        ctx.prec = digits + 50
        value = compute(Decimal)
        ctx.prec, ctx.rounding = digits, ROUND_HALF_EVEN
        text = format(+value, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


def let_chain_spec(depth: int) -> str:
    """Two regions split at a width bound through ``depth`` lets; the
    second region's right edge is then a DAG ``depth`` levels deep."""
    lets = "".join(f"let w{i} = w{i - 1} + phi - phi;\n" for i in range(1, depth + 1))
    return (
        f'flag "chain" {{ canvas 3 x 2; let w0 = 1;\n{lets}'
        f"region a blue rect 0 0 w{depth} 2; region b red rect w{depth} 0 3 - w{depth} 2; }}"
    )


def claims_spec(name: str, body: str = "") -> str:
    """One full-canvas blue region, no star, and the given statements."""
    return f'flag "{name}" {{ canvas 2 x 1; region all blue rect 0 0 2 1; {body} }}'


UNDECIDABLE = f"let a = {FOUR_RADICALS};"
SPEC_OPENING = 'flag "x" { canvas 1 x 1;'  # the opening of a spec, up to column 25

# 1/tan(36), the width of a tan(36) field of height 1
TAN36_WIDTH = "(1 + sqrt(5))/sqrt(10 - 2*sqrt(5))"


# sqrt(2) + sqrt(3) == sqrt(5 + 2*sqrt(6)), with three independent radicands
ZERO_BEYOND_THE_TOWER = "sqrt(2)+sqrt(3)-sqrt(5+2*sqrt(6))"

TEN_TO_700 = "1" + "0" * 700

# a star whose diameter is about 1.4 * 10**-1400: its circumradius and the
# shown value are tiny irrational numbers
TINY_STAR = claims_spec("tiny", (
    "let e = sqrt(2)/Z/Z; star white at diagonal_intersection of all diameter e;"
    'check "tiny" 0 < e < 1 show e;'
).replace("Z", TEN_TO_700))

BIG_NUMBER = "1" * 5000  # past the interpreter's 4300-digit int conversion limit


class TestList:
    def test_builtin_names(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert out.splitlines() == [
            "chile-1818",
            "chile-current",
            "togo",
            "nepal-ratio",
        ]

    def test_the_module_runs_as_a_program(self):
        # console_main and the __main__ guard, in a fresh interpreter
        src = str(Path(goldenflag.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "goldenflag.cli", "list"], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout.split(), done.stderr) == (
            0, ["chile-1818", "chile-current", "togo", "nepal-ratio"], ""
        )


class TestRatio:
    def test_independence_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio", "chile-1818")
        assert code == 0
        assert out.strip() == "1.80171"

    def test_current_ratio_trims(self, capsys):
        code, out, _ = run(capsys, "ratio", "chile-current")
        assert code == 0
        assert out.strip() == "1.5"

    def test_zero_digits_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "ratio", "chile-1818", "--digits", "0")
        assert (code, out) == (2, "")
        assert "--digits: must be at least 1" in err

    def test_nepal_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio", "nepal-ratio", "--digits", "6")
        assert code == 0
        assert out.strip() == "0.820338"

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "ratio", "atlantis")
        assert code == 1
        assert "atlantis" in err

    def test_missing_spec_file_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ratio", "missing.flag")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: [Errno 2] No such file or directory: 'missing.flag'\n"


class TestEval:
    def test_rounded_three_digits_of_the_tangent(self, capsys):
        code, out, _ = run(
            capsys, "eval", "sqrt(10-2*sqrt(5))/(1+sqrt(5))", "--digits", "3"
        )
        assert code == 0
        assert out.strip() == "0.727"  # round-half-even, not a truncation

    def test_default_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "phi")
        assert code == 0
        assert out.strip() == "1.61803398875"

    def test_exact_rational_arithmetic(self, capsys):
        code, out, _ = run(capsys, "eval", "1/3 + 1/6", "--digits", "6")
        assert code == 0
        assert out.strip() == "0.5"

    def test_parse_error_exits_one_with_position(self, capsys):
        code, _, err = run(capsys, "eval", "1 + ")
        assert code == 1
        assert "1:5" in err

    def test_unbound_identifier(self, capsys):
        code, _, err = run(capsys, "eval", "2*width")
        assert code == 1
        assert "width" in err

    def test_certification_failure(self, capsys):
        code, _, err = run(capsys, "eval", "sqrt(0-1)")
        assert code == 1
        assert "negative" in err

    def test_zero_digits_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "sqrt(2)", "--digits", "0")
        assert code == 2
        assert err.startswith("usage:")
        assert "--digits: must be at least 1" in err

    def test_oversized_literal_is_a_positioned_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", f"2 + {BIG_NUMBER}")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: 1:5: expected a shorter number, found a 5000-digit number\n"

    @pytest.mark.parametrize(
        "opening, closing", [("(", ")"), ("sqrt(", ")"), ("-", "")], ids=["paren", "sqrt", "minus"]
    )
    def test_nesting_is_limited_to_200_levels(self, capsys, opening, closing):
        def nested(levels: int) -> str:
            return opening * levels + "1" + closing * levels

        assert run(capsys, "eval", "--", nested(200)) == (0, "1\n", "")
        code, out, err = run(capsys, "eval", "--", nested(201))
        assert (code, out) == (1, "")
        column = 1 + 200 * len(opening)  # the 201st opening
        assert err == f"goldenflag: error: 1:{column}: expected a shallower expression, found nesting too deep\n"

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("²", "1:1: unbound name '²'"),
            ("١٢+1", "1:1: illegal character '١'"),
            ("2²", "1:2: malformed number near '2²'"),
        ],
        ids=["superscript", "arabic-indic", "digit-then-superscript"],
    )
    def test_numbers_are_ascii_digits_only(self, capsys, expr, message):
        assert run(capsys, "eval", "--", expr) == (1, "", f"goldenflag: error: {message}\n")

    @pytest.mark.parametrize("expr", ["phi", "2"])
    def test_digits_past_the_limit_end_in_one_error_line(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--digits", "4400")
        assert (code, out) == (2, "")
        assert err.startswith("usage: goldenflag eval")
        assert err.endswith("\ngoldenflag eval: error: argument --digits: must be at most 4300, got '4400'\n")

    @pytest.mark.parametrize(
        "argv", [["ratio", "chile-1818"], ["build", "chile-1818", "--out", "flag.svg"]], ids=["ratio", "build"]
    )
    def test_digits_past_the_limit_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--digits", "4301")
        assert (code, out) == (2, "")
        assert err.endswith(f"goldenflag {argv[0]}: error: argument --digits: must be at most 4300, got '4301'\n")

    def test_digits_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "phi", "--digits", "4300")
        assert code == 0
        assert out.startswith("1.6180339887498948482")
        assert len(out.strip()) == 4301

    # the shape of the bench's 3000-digit radicals; a 3000-digit eval
    # encloses it at 9,998 bits, where each end of a product, quotient
    # and root is thousands of bits wide and the two differ by a few units
    @pytest.mark.parametrize(
        "expr, compute",
        [
            (
                "sqrt(3 + sqrt(sqrt(26 + 4*sqrt(sqrt(16 + 5*sqrt(15)))))) * sqrt(7) + 8/phi",
                lambda D: (3 + (26 + 4 * (16 + 5 * D(15).sqrt()).sqrt().sqrt()).sqrt().sqrt()).sqrt() * D(7).sqrt()
                + 8 / ((1 + D(5).sqrt()) / 2),
            ),
            (
                "(2 + sqrt(3)) / (sqrt(11 - sqrt(7)) - sqrt(2))",
                lambda D: (2 + D(3).sqrt()) / ((11 - D(7).sqrt()).sqrt() - D(2).sqrt()),
            ),
        ],
        ids=["nested-radical", "radical-divisor"],
    )
    def test_3000_digits_match_a_decimal_reference(self, capsys, expr, compute):
        assert run(capsys, "eval", expr, "--digits", "3000") == (0, decimal_reference(compute, 3000) + "\n", "")

    def test_exact_value_with_thousands_of_digits(self, capsys):
        code, out, _ = run(capsys, "eval", f"{'9' * 3000} * {'9' * 3000}", "--digits", "3")
        assert code == 0
        assert out.strip() == "1" + "0" * 6000

    # Z is 10**700: both values are 5 * 10**-1400.  The first is a literal,
    # rounded exactly; the enclosures of the second contain zero until the
    # doubling schedule reaches its magnitude, once certified_sign proves
    # it nonzero
    @pytest.mark.parametrize("expr", ["5/Z/Z", "sqrt(5)*sqrt(5)/Z/Z"])
    def test_a_tiny_exact_rational_is_rounded_exactly(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr.replace("Z", TEN_TO_700), "--digits", "3")
        assert (code, out, err) == (0, "0." + "0" * 1399 + "5\n", "")

    # 10**-21000 is past every enclosure the separation ceiling allows, and
    # an all-rational expression folds to a literal that is rounded exactly
    @pytest.mark.parametrize(
        "numerator,digits,point,tail",
        [("1", "1", "0.", "1"), ("1", "3", "0.", "1"), ("1", "12", "0.", "1"), ("-7", "3", "-0.", "7")],
    )
    def test_a_rational_below_the_separation_ceiling_is_rounded_exactly(
        self, capsys, numerator, digits, point, tail
    ):
        expr = numerator + "/Z" * 30
        code, out, err = run(capsys, "eval", "--digits", digits, "--", expr.replace("Z", TEN_TO_700))
        assert (code, out, err) == (0, point + "0" * 20999 + tail + "\n", "")

    # the working precision follows the value's magnitude, so irrational
    # values this small print too; an expression that starts with "-"
    # goes after "--"
    @pytest.mark.parametrize(
        "expr,digits,point,zeros,tail",
        [
            ("sqrt(2)/Z/Z", "3", "0.", 1399, "141"),
            ("sqrt(2)/Z/Z", "12", "0.", 1399, "141421356237"),
            ("-phi/Z/Z", "3", "-0.", 1399, "162"),
            ("sqrt(2)/Z/Z/Z", "3", "0.", 2099, "141"),
            # proved nonzero by an enclosure that excludes zero, which the
            # rendering then refines to the value's magnitude
            (ZERO_BEYOND_THE_TOWER + " + 1/Z/Z", "12", "0.", 1399, "1"),
            (ZERO_BEYOND_THE_TOWER + " + 1/Z/Z/1" + "0" * 135, "12", "0.", 1534, "1"),
        ],
        ids=["sqrt2-3", "sqrt2-12", "minus-phi-3", "sqrt2-Z3-3", "zero-plus-1e-1400-12", "zero-plus-1e-1535-12"],
    )
    def test_a_tiny_value_prints_its_digits(self, capsys, expr, digits, point, zeros, tail):
        code, out, err = run(capsys, "eval", "--digits", digits, "--", expr.replace("Z", TEN_TO_700))
        assert (code, out, err) == (0, point + "0" * zeros + tail + "\n", "")

    # the doubling starts at the digits' precision, so a value at the edge
    # of the work budget can print at one digit count and not at another:
    # the enclosures of sqrt(2) / Z**41 hold zero until its magnitude,
    # about 2**-95000, which the doubling from 232 bits (60 digits)
    # reaches within the budget and the one from 72 bits (12) does not
    @pytest.mark.parametrize("digits", ["12", "60"])
    def test_a_value_at_the_budget_edge_prints_at_some_digit_counts(self, capsys, digits):
        code, out, err = run(capsys, "eval", "--digits", digits, "--", "sqrt(2)" + ("/" + TEN_TO_700) * 41)
        if digits == "12":
            assert (code, out) == (3, "")
            assert err.startswith("goldenflag: precision exhausted: refinement spent ")
        else:
            reference = decimal_reference(lambda D: D(2).sqrt() / D(10) ** 28700, 60)
            assert (code, out, err) == (0, reference + "\n", "")

    @pytest.mark.parametrize("sign,expected", [("+", "0.124"), ("-", "0.123")])
    def test_a_value_beside_a_tie_rounds_to_its_side(self, capsys, sign, expected):
        # 0.1235 +- 10**-1400: only refinement far past the first enclosure
        # would separate the value from the tie; it folds to a literal, which
        # is rounded exactly
        code, out, err = run(capsys, "eval", f"1235/10000 {sign} 1/Z/Z".replace("Z", TEN_TO_700), "--digits", "3")
        assert (code, out, err) == (0, expected + "\n", "")

    def test_an_exact_zero_beyond_the_tower_prints_zero(self, capsys):
        code, out, err = run(capsys, "eval", ZERO_BEYOND_THE_TOWER)
        assert (code, out, err) == (0, "0\n", "")

    def test_dividing_by_an_exact_zero_beyond_the_tower(self, capsys):
        code, out, err = run(capsys, "eval", f"1/({ZERO_BEYOND_THE_TOWER})")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: in eval expression: divisor is certified zero\n"

    # for a sum of four depth-3 radicals a, the sign of a - a/3*3 runs out
    # of the work budget: a side condition that needs it is exhausted
    # refinement, not an error
    @pytest.mark.parametrize("template", ["1/(A - A/3*3)", "sqrt(A/3*3 - A)", "1/(A - A/3*3) +"])
    def test_a_side_condition_past_the_work_budget_exits_three(self, capsys, template):
        code, out, err = run(capsys, "eval", template.replace("A", f"({FOUR_RADICALS})"))
        assert (code, out) == (3, "")
        assert err.startswith("goldenflag: precision exhausted: in eval expression: refinement spent ")
        assert err.endswith(" word operations\n")

    # the part that parsed runs before a parse error is reported, as in
    # a spec
    @pytest.mark.parametrize("expr, err", [
        ("b + ", "1:1: unbound name 'b'"),
        ("1/(phi*phi - phi - 1) + ", "in eval expression: divisor is certified zero"),
        ("sqrt(0-1) + 1.", "in eval expression: square root of a certified-negative value"),
        ("1 + ) extra", "1:5: expected expression, found symbol ')'"),
    ], ids=["unbound-name-then-syntax", "certification-then-syntax", "certification-then-malformed-number",
            "syntax-then-trailing"])
    def test_the_first_error_in_source_order_is_reported(self, capsys, expr, err):
        assert run(capsys, "eval", expr) == (1, "", f"goldenflag: error: {err}\n")

    def test_there_is_no_canvas_outside_a_spec(self, capsys):
        code, out, err = run(capsys, "eval", "canvas.width + 1")
        assert (code, out, err) == (1, "", "goldenflag: error: 1:1: there is no canvas outside a flag spec\n")

    @pytest.mark.parametrize("tie,digits,expected", [
        ("1/8", "2", "0.12"), ("5/2", "1", "2"), ("99.95", "3", "100"), ("-5/2", "1", "-2"),
    ])
    def test_an_exact_tie_beyond_the_tower_rounds_half_even(self, capsys, tie, digits, expected):
        expr = f"sqrt(2)*sqrt(3) - sqrt(6) + {tie}"
        code, out, err = run(capsys, "eval", expr, "--digits", digits)
        assert (code, out, err) == (0, expected + "\n", "")


class TestVerify:
    def test_current_flag_three_passing_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "chile-current")
        assert code == 0
        assert "3 checks passed" in out

    def test_independence_flag_includes_angle_configuration(self, capsys):
        code, out, _ = run(capsys, "verify", "chile-1818")
        assert code == 0
        assert "13 checks passed" in out
        assert "tan(72)" in out

    def test_spec_file_with_builtin_provenance(self, capsys, tmp_path, spec_sources):
        path = tmp_path / "own.flag"
        path.write_text(spec_sources["togo"])
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "golden mean" in out

    @pytest.mark.parametrize("command", [["verify"], ["build", "--out", "empty.svg"]])
    def test_a_spec_without_regions_is_one_error_line(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.flag").write_text('flag "empty" { canvas 2 x 1; }\n')
        code, out, err = run(capsys, command[0], "empty.flag", *command[1:])
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: 1:1: flag 'empty' declares no region\n"
        assert not (tmp_path / "empty.svg").exists()

    @pytest.mark.parametrize("name", ["chile-current", "togo", "chile-1818"])
    def test_a_builtin_name_selects_no_claims(self, name, capsys, tmp_path):
        # the spec states no check, so it gets the structural report
        # whatever it is called
        path = tmp_path / "impostor.flag"
        path.write_text(claims_spec(name))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert out == (
            "Pass  regions tile the canvas exactly\n"
            "Pass  star centers lie inside regions\n"
            "Pass  canvas ratio evaluates  [ratio = 2]\n"
            f"{name}: 3 checks passed\n"
        )

    def verify_claims(self, capsys, tmp_path, body: str):
        path = tmp_path / "claims.flag"
        path.write_text(claims_spec("claims", body))
        return run(capsys, "verify", str(path))

    def test_claims_print_in_source_order(self, capsys, tmp_path):
        code, out, err = self.verify_claims(capsys, tmp_path, (
            "let ratio = canvas.width/canvas.height;"
            'check "ratio is two" ratio == 2 show ratio;'
            'check "ratio is between" 1 < ratio <= all.width == 2 "a chain";'
        ))
        assert (code, err) == (0, "")
        assert out == (
            "ProvedEqual  ratio is two  [ratio = 2]\n"
            "Pass         ratio is between  [a chain]\n"
            "claims: 2 checks passed\n"
        )

    def test_a_tiny_shown_value_prints_its_digits(self, capsys, tmp_path):
        path = tmp_path / "tiny.flag"
        path.write_text(TINY_STAR)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert out == "Pass  tiny  [e = 0." + "0" * 1399 + "141421]\ntiny: 1 checks passed\n"

    def test_false_equality_is_proved_unequal(self, capsys, tmp_path):
        code, out, err = self.verify_claims(
            capsys, tmp_path, 'check "square" canvas.width == canvas.height;'
        )
        assert (code, err) == (1, "")
        assert out == "ProvedUnequal  square\nclaims: 1 of 1 checks failed\n"

    def test_false_inequality_fails(self, capsys, tmp_path):
        code, out, err = self.verify_claims(
            capsys, tmp_path, 'check "portrait" 0 < canvas.width < canvas.height;'
        )
        assert (code, err) == (1, "")
        assert out == "Fail  portrait\nclaims: 1 of 1 checks failed\n"

    def test_strict_and_weak_inequalities_at_equality(self, capsys, tmp_path):
        # phi*phi - phi is 1 exactly, written differently
        code, out, _ = self.verify_claims(capsys, tmp_path, (
            'check "weak" phi*phi - phi <= 1; check "strict" phi*phi - phi < 1;'
            'check "equal" 1 <= phi*phi - phi <= 1;'
        ))
        assert code == 1
        assert out == (
            "Pass  weak\n"
            "Fail  strict\n"
            "Pass  equal\n"
            "claims: 1 of 3 checks failed\n"
        )

    def test_a_claim_past_the_refinement_cap_is_undecided(self, capsys, tmp_path):
        code, out, _ = self.verify_claims(capsys, tmp_path, (
            f'{UNDECIDABLE} check "a" a == a/3*3; check "in order" 0 < a/3*3 <= a;'
        ))
        assert code == 3
        assert out == (
            "Undecided  a\n"
            "Undecided  in order\n"
            "claims: 2 of 2 checks failed\n"
        )

    def test_undecidable_claims_on_one_value_share_its_enclosures(self, capsys, tmp_path):
        # one command is one enclosure memo scope, so the claims enclose a
        # once per working precision; each is still charged the whole work
        # budget, so each verdict is the one it gets alone
        claims = [f'check "k{k}" a/{k}*{k} == a;' for k in range(3, 23)]
        start = time.perf_counter()
        code, out, err = self.verify_claims(capsys, tmp_path, UNDECIDABLE + "".join(claims))
        assert time.perf_counter() - start < 4
        assert (code, err) == (3, "")
        *lines, summary = out.splitlines()
        assert summary == "claims: 20 of 20 checks failed"
        assert lines == [f"Undecided  k{k}" for k in range(3, 23)]
        for claim, line in zip(claims, lines):
            code, out, _ = self.verify_claims(capsys, tmp_path, UNDECIDABLE + claim)
            assert (code, out.splitlines()[0]) == (3, line)

    def test_a_double_negation_past_the_work_budget_is_proved(self, capsys, tmp_path):
        # -(-a) is the node a itself, so the claim needs no refinement
        code, out, err = self.verify_claims(capsys, tmp_path, f'{UNDECIDABLE} check "dn" -(-a) == a;')
        assert (code, err) == (0, "")
        assert out == "ProvedEqual  dn\nclaims: 1 checks passed\n"

    def test_a_claim_within_the_work_budget_is_proved(self, capsys, tmp_path):
        code, out, err = self.verify_claims(capsys, tmp_path, f'let a = {THREE_RADICALS}; check "a" a == a/3*3;')
        assert (code, err) == (0, "")
        assert out == "ProvedEqual  a\nclaims: 1 checks passed\n"

    def test_a_region_width_past_the_work_budget_exits_three(self, capsys, tmp_path):
        path = tmp_path / "width.flag"
        path.write_text(f'flag "w" {{ canvas 2 x 1; {UNDECIDABLE} let w = a - a/3*3; region all blue rect 0 0 w 1; }}')
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        # the region's right edge w and the canvas's left edge 0 are equal
        assert err.startswith(
            "goldenflag: precision exhausted: in x cut lines of canvas and region 'all': refinement spent "
        )
        assert err.endswith(" word operations\n")

    @pytest.mark.parametrize("body, owner, spent", [
        # the right edge w + (2 - w) of region r and the canvas's 2 are
        # equal, which the work budget cannot prove
        (
            "let w = 1 + a - a/3*3; region l blue rect 0 0 w 1; region r red rect w 0 2 - w 1;",
            "x cut lines of canvas and region 'r'", 81089800,
        ),
        # the one region may contain the center, which the budget cannot decide
        (
            "let z = a - a/3*3; region all blue rect 0 0 2 1; star white at z 1/2 diameter 1/4;",
            "star white", 74099300,
        ),
        # the circumradius z/2 is zero, whose sign the budget cannot decide
        (
            "let z = a - a/3*3; region all blue rect 0 0 2 1; star white at 1 1/2 diameter z;",
            "star white", 75497400,
        ),
    ], ids=["cut-line", "star", "star-circumradius"])
    def test_a_layout_past_the_work_budget_exits_three(self, capsys, tmp_path, body, owner, spent):
        path = tmp_path / "layout.flag"
        path.write_text(f'flag "l" {{ canvas 2 x 1; {UNDECIDABLE} {body} }}')
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        # the whole of stderr: a star whose 64-bit box meets the canvas's
        # edge spends what the four signs spend
        assert err == f"goldenflag: precision exhausted: in {owner}: refinement spent {spent} of 268435456 word operations\n"

    # a shown binding whose digits run out of budget leaves its check
    # Undecided, and the report still prints
    SHOWN_PAST_THE_BUDGET = 'Undecided  c  [z: precision exhausted: refinement spent '

    def test_a_shown_binding_past_the_work_budget_names_its_check(self, capsys, tmp_path):
        code, out, err = self.verify_claims(
            capsys, tmp_path, f'{UNDECIDABLE} let z = a - a/3*3; check "c" 1 < 2 show z;'
        )
        assert (code, err) == (3, "")
        shown, summary = out.splitlines()
        assert shown.startswith(self.SHOWN_PAST_THE_BUDGET)
        assert shown.endswith(" word operations]")
        assert summary == "claims: 1 of 1 checks failed"

    def test_a_canvas_ratio_past_the_work_budget_leaves_the_structural_report(self, capsys, tmp_path):
        # the ratio is exactly 1.000005, a rounding tie at six digits, and
        # the tie's sign is past the work budget
        path = tmp_path / "tie.flag"
        path.write_text(
            f'flag "r" {{ canvas 1.000005 + ({FOUR_RADICALS}) - ({FOUR_RADICALS})/3*3 x 1;'
            " region all blue rect 0 0 canvas.width 1; }"
        )
        assert run(capsys, "verify", str(path)) == (3, (
            "Pass       regions tile the canvas exactly\n"
            "Pass       star centers lie inside regions\n"
            "Undecided  canvas ratio evaluates  [ratio: precision exhausted: "
            "refinement spent 78293600 of 268435456 word operations]\n"
            "r: 1 of 3 checks failed\n"
        ), "")

    def test_a_shown_binding_past_the_work_budget_keeps_the_other_checks(self, capsys, tmp_path):
        code, out, err = self.verify_claims(capsys, tmp_path, (
            f'{UNDECIDABLE} let z = a - a/3*3;'
            'check "first" 1 < 2; check "c" 1 < 2 show z; check "last" 2 < 1;'
        ))
        assert (code, err) == (1, "")
        first, shown, last, summary = out.splitlines()
        assert first == "Pass       first"
        assert shown.startswith(self.SHOWN_PAST_THE_BUDGET)
        assert shown.endswith(" word operations]")
        assert last == "Fail       last"
        assert summary == "claims: 2 of 3 checks failed"

    # a spec is lowered as it parses: the first error in source order,
    # a lexical one too, is the one reported
    @pytest.mark.parametrize("source, code, err", [
        (
            f"{SPEC_OPENING} let q = 1/(phi*phi - phi - 1); region r red rect 0 0 1 1; oops }}",
            1, "goldenflag: error: in let 'q': divisor is certified zero\n",
        ),
        (
            f"{SPEC_OPENING} region r red rect 0 0 1 1; let a0 = 10;"
            + "".join(f" let a{i} = a{i - 1}*a{i - 1};" for i in range(1, 26)) + " oops }",
            3,
            "goldenflag: precision exhausted: in let 'a19': "
            "an exact literal of up to 1741649 bits is past the work budget\n",
        ),
        (f"{SPEC_OPENING} let q = mystery; }}", 1, "goldenflag: error: 1:34: unbound name 'mystery'\n"),
        (
            f"{SPEC_OPENING} region r red rect 0 0 1 1; let r = ; }}",
            1, "goldenflag: error: 1:53: duplicate binding 'r'\n",
        ),
        (
            f"{SPEC_OPENING} @ let q = 1/(phi*phi - phi - 1); region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: 1:26: illegal character '@'\n",
        ),
        (
            f"{SPEC_OPENING} let q = 1/(phi*phi - phi - 1); region r red rect 0 0 1 1; @ }}",
            1, "goldenflag: error: in let 'q': divisor is certified zero\n",
        ),
        # within one expression too: the part that parsed runs before the
        # parse error is reported
        (
            f"{SPEC_OPENING} let a = b + ; region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: 1:34: unbound name 'b'\n",
        ),
        (
            f"{SPEC_OPENING} let a = sqrt(0-1) + ; region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: in let 'a': square root of a certified-negative value\n",
        ),
        (
            f"{SPEC_OPENING} let a = sqrt(0-1) + 1.; region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: in let 'a': square root of a certified-negative value\n",
        ),
        (
            f"{SPEC_OPENING} let a = q.width + ; region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: 1:34: 'q' is not a previously declared region\n",
        ),
        (
            f"{SPEC_OPENING} let a = ; region r red rect 0 0 1 1; }}",
            1, "goldenflag: error: 1:34: expected expression, found symbol ';'\n",
        ),
    ], ids=[
        "side-condition", "work-budget", "unbound-name", "duplicate-binding", "lexical-first",
        "certification-then-lexical", "unbound-name-then-syntax", "certification-then-syntax",
        "certification-then-malformed-number", "undeclared-region-then-syntax", "empty-expression",
    ])
    def test_the_first_error_in_source_order_is_reported(self, capsys, tmp_path, source, code, err):
        path = tmp_path / "order.flag"
        path.write_text(source)
        assert run(capsys, "verify", str(path)) == (code, "", err)

    @pytest.mark.parametrize("canvas, body, tail", [
        # z is zero, so the star is on the diagonals' crossing, which the
        # work budget neither proves nor disproves
        (
            f"{TAN36_WIDTH} x 1",
            f"{UNDECIDABLE} let z = a - a/3*3; star white at canvas.width/2 + z 1/2 diameter 1/4;",
            ["Undecided    star centered on the diagonal crossing", "diagonals: 1 of 8 checks failed"],
        ),
        # the field is in the tan(36) proportion, which the work budget
        # does not decide: that check is the whole report
        (
            f"{TAN36_WIDTH} + ({FOUR_RADICALS}) - ({FOUR_RADICALS})/3*3 x 1",
            "",
            ["Undecided  rising diagonal tangent equals tan(36)", "diagonals: 1 of 1 checks failed"],
        ),
    ], ids=["star-on-crossing", "proportion"])
    def test_an_undecided_angle_configuration_exits_three(self, capsys, tmp_path, canvas, body, tail):
        path = tmp_path / "diagonals.flag"
        path.write_text(
            f'flag "diagonals" {{ canvas {canvas}; {body}'
            " region blue_field blue rect 0 0 canvas.width 1; check diagonals of blue_field; }"
        )
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out.splitlines()[-2:] == tail
        assert err == ""

    def test_a_star_beside_an_undecidable_region_is_placed(self, capsys, tmp_path):
        # the center's x is 1 + (a - a/3*3): neither a1 nor a2 is decided,
        # and b certainly contains it
        path = tmp_path / "beside.flag"
        path.write_text(
            f'flag "beside" {{ canvas 2 x 1; {UNDECIDABLE} let z = a - a/3*3;'
            " region a1 blue rect 0 0 1 1/2; region a2 red rect 1 0 1 1/2;"
            " region b white rect 0 1/2 2 1/2; star green at 1 + z 3/4 diameter 1/10; }"
        )
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert "beside: 3 checks passed" in out

    def test_a_star_on_an_undecidable_cut_line_is_placed(self, capsys, tmp_path):
        # the center's x is 1 + (a - a/3*3), on the cut line between l and
        # r or too close to it for the budget: either region holds it, and
        # the canvas does certainly
        path = tmp_path / "cut-star.flag"
        path.write_text(
            f'flag "cut-star" {{ canvas 2 x 1; {UNDECIDABLE} let z = a - a/3*3;'
            " region l blue rect 0 0 1 1; region r red rect 1 0 1 1; star white at 1 + z 1/2 diameter 1/4; }"
        )
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert "cut-star: 3 checks passed" in out

    def test_a_disproved_claim_outranks_an_undecided_one(self, capsys, tmp_path):
        code, out, _ = self.verify_claims(capsys, tmp_path, (
            f'{UNDECIDABLE} check "a" a == a/3*3; check "b" 1 == 2;'
            'check "fails, then undecided" 2 < 1 < a/3*3 <= a;'
            'check "undecided, then fails" a/3*3 <= a < 0;'
        ))
        assert code == 1
        assert out == (
            "Undecided      a\n"
            "ProvedUnequal  b\n"
            "Fail           fails, then undecided\n"
            "Fail           undecided, then fails\n"
            "claims: 4 of 4 checks failed\n"
        )

    def test_build_and_ratio_prove_no_claims(self, capsys, tmp_path):
        path = tmp_path / "false.flag"
        path.write_text(claims_spec("false", 'check "false" 1 == 2;'))
        assert run(capsys, "build", str(path), "--out", str(tmp_path / "f.svg"))[0] == 0
        assert run(capsys, "ratio", str(path)) == (0, "2\n", "")

    def test_diagonals_of_a_region_outside_the_proportion_is_one_failed_check(self, capsys, tmp_path):
        assert self.verify_claims(capsys, tmp_path, "check diagonals of all;") == (
            1,
            "ProvedUnequal  rising diagonal tangent equals tan(36)\nclaims: 1 of 1 checks failed\n",
            "",
        )

    def test_a_region_outside_the_proportion_leaves_the_other_claims_reported(self, capsys, tmp_path):
        assert self.verify_claims(
            capsys, tmp_path, 'check "before" 1 < 2; check diagonals of all; check "after" 2 < 1;'
        ) == (
            1,
            "Pass           before\n"
            "ProvedUnequal  rising diagonal tangent equals tan(36)\n"
            "Fail           after\n"
            "claims: 2 of 3 checks failed\n",
            "",
        )

    def test_spec_file_with_custom_provenance(self, capsys, tmp_path):
        path = tmp_path / "plain.flag"
        path.write_text(
            'flag "plain" { canvas 2 x 1; region all red rect 0 0 2 1; }'
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "tile" in out

    def test_a_leading_byte_order_mark_is_ignored(self, capsys, tmp_path, spec_sources):
        # as some editors write UTF-8
        plain, marked = tmp_path / "plain.flag", tmp_path / "marked.flag"
        plain.write_text(spec_sources["chile-1818"], encoding="utf-8")
        marked.write_text(spec_sources["chile-1818"], encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, "verify", str(plain))
        assert expected[0] == 0
        assert run(capsys, "verify", str(marked)) == expected

    @pytest.mark.parametrize("data, offset, reason", [
        (b"\xff\xfe", 0, "invalid start byte"),
        # the offset counts the byte order mark
        (b"\xef\xbb\xbfflag \xe2\x82", 8, "unexpected end of data"),
    ], ids=["utf-16-mark", "cut-after-a-mark"])
    def test_a_spec_that_is_not_utf8_is_one_error_line(self, capsys, tmp_path, data, offset, reason):
        path = tmp_path / "bad.flag"
        path.write_bytes(data)
        assert run(capsys, "verify", str(path)) == (
            1, "", f"goldenflag: error: {path}: not UTF-8 text: {reason} at byte offset {offset}\n"
        )

    def test_the_spec_suffix_is_matched_in_any_case(self, capsys, tmp_path, spec_sources):
        lower, upper = tmp_path / "up.flag", tmp_path / "UP.FLAG"
        lower.write_text(spec_sources["chile-1818"], encoding="utf-8")
        upper.write_text(spec_sources["chile-1818"], encoding="utf-8")
        expected = run(capsys, "verify", str(lower))
        assert expected[0] == 0
        assert run(capsys, "verify", str(upper)) == expected

    @pytest.mark.parametrize("source, position", [
        ("\ufeff" + claims_spec("twice"), "1:1"),
        (claims_spec("inside").replace("{ ", "{ \ufeff"), "1:17"),
    ], ids=["second-at-start", "inside"])
    def test_a_byte_order_mark_after_the_first_is_an_illegal_character(
        self, capsys, tmp_path, source, position
    ):
        path = tmp_path / "marks.flag"
        path.write_text(source, encoding="utf-8-sig")
        assert run(capsys, "verify", str(path)) == (
            1, "", f"goldenflag: error: {position}: illegal character '\\ufeff'\n"
        )

    @pytest.mark.parametrize("body, message", [
        ("canvas 0 x 1; region r red rect 0 0 1 1;", "canvas: width is not certified positive"),
        # exactly zero, which only the exact field decides
        ("canvas 1 x 1; region r red rect 0 0 phi*phi - phi - 1 1;", "region 'r': width is not certified positive"),
        (
            "canvas 1 x 1; region r red rect 0 0 1 1; star white at 1/2 1/2 diameter 0;",
            "star white: diameter is not certified positive",
        ),
    ], ids=["canvas-width", "region-width", "star-diameter"])
    def test_a_nonpositive_size_is_one_error_line(self, capsys, tmp_path, body, message):
        path = tmp_path / "size.flag"
        path.write_text(f'flag "size" {{ {body} }}')
        assert run(capsys, "verify", str(path)) == (1, "", f"goldenflag: error: {message}\n")

    def test_region_outside_the_canvas_fails(self, capsys, tmp_path):
        path = tmp_path / "oob.flag"
        path.write_text(OUT_OF_CANVAS)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err == "goldenflag: error: region 'a' extends outside the canvas\n"

    def test_the_canvas_has_no_size_inside_its_own_declaration(self, capsys, tmp_path):
        path = tmp_path / "canvas.flag"
        path.write_text('flag "c" { canvas canvas.width x 1; region r red rect 0 0 1 1; }')
        err = "goldenflag: error: 1:19: the canvas has no size inside its own declaration\n"
        assert run(capsys, "verify", str(path)) == (1, "", err)

    def test_spec_file_parse_error_is_positioned(self, capsys, tmp_path):
        path = tmp_path / "broken.flag"
        path.write_text('flag "broken" { canvas 1 x 1 }')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "1:30" in err

    def test_oversized_literal_in_a_spec_file(self, capsys, tmp_path):
        path = tmp_path / "big.flag"
        path.write_text(f'flag "big" {{\n  canvas {BIG_NUMBER} x 2;\n}}\n')
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: 2:10: expected a shorter number, found a 5000-digit number\n"

    def test_deep_let_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.flag"
        path.write_text(let_chain_spec(1500))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert "chain: 3 checks passed" in out


class TestBuild:
    def test_one_build_encloses_sqrt5_once_per_working_precision(self, capsys, tmp_path, monkeypatch):
        # side conditions, star containment, cut lines and the render all
        # share sqrt(5) through phi and the spec's lets
        enclosed = Counter()
        sqrt = iv.sqrt

        def counting(x, w):
            if x == (5 << w, 5 << w):
                enclosed[w] += 1
            return sqrt(x, w)

        monkeypatch.setattr(iv, "sqrt", counting)
        interval_algebra.cache_clear()  # the algebras bind iv.sqrt when built
        spec = tmp_path / "field.flag"
        spec.write_text(
            'flag "field" { canvas 3 x 2; let g = phi/16; let r = sqrt(5)/22;'
            " region left blue rect 0 0 1 + g 2; region right red rect 1 + g 0 2 - g 2;"
            " star white at 1/2 + 3*g 1/2 + 2*r diameter phi/20;"
            " star white at 2 + r 1 + g diameter sqrt(5)/30; }"
        )
        try:
            code, _, err = run(capsys, "build", str(spec), "--out", str(tmp_path / "field.json"))
        finally:
            interval_algebra.cache_clear()
        assert (code, err) == (0, "")
        assert set(enclosed) >= {64, start_bits(12)}  # certification, and the render at 12 digits
        assert set(enclosed.values()) == {1}

    def test_svg_with_viewbox(self, capsys, tmp_path):
        out_path = tmp_path / "current.svg"
        code, out, _ = run(
            capsys, "build", "chile-current", "--out", str(out_path), "--scale", "300"
        )
        assert code == 0
        assert "wrote svg" in out
        assert 'viewBox="0 0 900 600"' in out_path.read_text()

    def test_format_inferred_from_suffix(self, capsys, tmp_path):
        out_path = tmp_path / "togo.json"
        code, out, _ = run(
            capsys, "build", "togo", "--out", str(out_path), "--digits", "6"
        )
        assert code == 0
        assert "wrote json" in out
        doc = json.loads(out_path.read_text())
        assert doc["canvas"]["width"] == "1.61803"

    def test_the_json_suffix_is_matched_in_any_case(self, capsys, tmp_path):
        lower, upper = tmp_path / "x.json", tmp_path / "X.JSON"
        assert run(capsys, "build", "chile-1818", "--out", str(lower))[0] == 0
        code, out, err = run(capsys, "build", "chile-1818", "--out", str(upper))
        assert (code, err) == (0, "")
        assert upper.read_bytes() == lower.read_bytes()
        assert out == f"chile-1818: wrote json to {upper} ({lower.stat().st_size} bytes)\n"

    def test_format_overrides_the_suffix(self, capsys, tmp_path):
        by_suffix, by_format = tmp_path / "current.json", tmp_path / "current.svg"
        assert run(capsys, "build", "chile-current", "--out", str(by_suffix))[0] == 0
        code, out, err = run(capsys, "build", "chile-current", "--out", str(by_format), "--format", "json")
        assert (code, err) == (0, "")
        assert by_format.read_bytes() == by_suffix.read_bytes()
        assert out == f"chile-current: wrote json to {by_format} ({by_suffix.stat().st_size} bytes)\n"
        svg = tmp_path / "svg.json"
        assert run(capsys, "build", "chile-current", "--out", str(svg), "--format", "svg")[0] == 0
        assert run(capsys, "build", "chile-current", "--out", str(by_format))[0] == 0
        assert svg.read_bytes() == by_format.read_bytes()
        assert svg.read_bytes().startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg ')

    def test_physical_width(self, capsys, tmp_path):
        out_path = tmp_path / "big.svg"
        code, _, _ = run(
            capsys,
            "build",
            "chile-1818",
            "--out",
            str(out_path),
            "--width",
            "2.4",
            "--digits",
            "6",
        )
        assert code == 0
        assert 'width="2.4"' in out_path.read_text()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_a_width_is_the_scale_width_over_the_canvas_width(self, capsys, tmp_path, name):
        layout = build_flag(name)
        scale = div(lit(Fraction("2.4")), layout.width)
        for emit, suffix in ((svg_emit, "svg"), (json_emit, "json")):
            out_path = tmp_path / f"{name}.{suffix}"
            code, _, err = run(capsys, "build", name, "--out", str(out_path), "--width", "2.4", "--digits", "6")
            assert (code, err) == (0, "")
            assert out_path.read_bytes() == emit(layout, scale, 6)

    def test_a_scale_and_a_width_together_are_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "x.svg"
        code, out, err = run(capsys, "build", "togo", "--out", str(out_path), "--scale", "2", "--width", "3")
        assert (code, out) == (2, "")
        assert err.startswith("usage: goldenflag build ")
        assert err.endswith("goldenflag build: error: argument --width: not allowed with argument --scale\n")
        assert not out_path.exists()

    def test_a_tiny_star_renders(self, capsys, tmp_path):
        src = tmp_path / "tiny.flag"
        src.write_text(TINY_STAR)
        out_path = tmp_path / "tiny.json"
        code, _, err = run(capsys, "build", str(src), "--out", str(out_path), "--digits", "3")
        assert (code, err) == (0, "")
        star = json.loads(out_path.read_text())["stars"][0]
        assert star["circumradius"] == "0." + "0" * 1400 + "707"
        assert star["center"] == ["1", "0.5"]

    # a 12 x 12 grid of stars at phi-dependent centers, one per cell, as
    # SVG and JSON at 60 and 12 digits: the hashes these files had before
    # a star's spokes shared their products
    STAR_GRID = "".join(
        ['flag "stars" { canvas 12*phi x 12;\n']
        + [
            f"region c{i}_{j} red rect {i}*phi {j} phi 1;"
            f" star white at ({i} + 1/2)*phi {j} + phi/4 diameter phi/({j} + 3);\n"
            for i in range(12) for j in range(12)
        ]
        + ["}\n"]
    )

    @pytest.mark.parametrize("name, digest", [
        ("stars60.svg", "8817ef00da2e3ee40cf29362598426349047640bb801d02dc59916f74e50c191"),
        ("stars60.json", "285be7da1956902e6d2707492fc0452d2c82feb905876ea980b644dc054eabff"),
        ("stars12.svg", "840841b28934d93541ddbed9a4324bd0fdf8fb8a564df3bff066052aaf55c5de"),
        ("stars12.json", "301ea62b14935ec91290a36c8861f46721626c6204394d946904c4e2a24331e7"),
    ])
    def test_a_grid_of_stars_keeps_its_bytes(self, capsys, tmp_path, name, digest):
        src = tmp_path / "stars.flag"
        src.write_text(self.STAR_GRID)
        out_path = tmp_path / name
        code, _, err = run(capsys, "build", str(src), "--out", str(out_path), "--digits", name[5:7])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # Fraction(str) takes underscores from Python 3.11, blanks around "/"
    # from 3.12 and any Unicode digit on every version; a size takes only
    # the ASCII forms that every supported version takes
    @pytest.mark.parametrize(
        "option, value",
        [("--scale", "abc"), ("--width", "1/0")]
        + [
            (option, value)
            for value in ("1_000", "1_0.5", "1e1_0", "3/ 2", "3 /2", "3 / 2", "١٢", "1٢", "3/2e5", "0x10", "inf", "½", ".", "e5")
            for option in ("--scale", "--width")
        ],
    )
    def test_a_size_that_is_not_a_rational_is_a_usage_error(self, capsys, tmp_path, option, value):
        code, out, err = run(capsys, "build", "togo", "--out", str(tmp_path / "togo.svg"), option, value)
        assert (code, out) == (2, "")
        assert err.endswith(f"goldenflag build: error: argument {option}: not an exact rational literal: {value!r}\n")
        assert not (tmp_path / "togo.svg").exists()

    @pytest.mark.parametrize(
        "option, value", [("--scale", "1e99999999"), ("--width", "1e-99999999"), ("--width", "1e400000")]
    )
    def test_a_size_past_the_work_budget_exits_three_at_once(self, capsys, tmp_path, option, value):
        out_path = tmp_path / "togo.svg"
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "togo", "--out", str(out_path), option, value)
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("goldenflag: precision exhausted: an exact literal of up to ")
        assert err.count("\n") == 1
        assert not out_path.exists()

    # chile-current is 3 x 2: the SVG is 3 * scale wide, or the width asked for
    @pytest.mark.parametrize(
        "value, scaled, width",
        [
            ("3", "9", "3"),
            ("+3", "9", "3"),
            ("3/2", "4.5", "1.5"),
            (" 3/2\n", "4.5", "1.5"),
            ("1.5", "4.5", "1.5"),
            ("2.", "6", "2"),
            (".5", "1.5", "0.5"),
            ("15e-1", "4.5", "1.5"),
            ("0.5E+1", "15", "5"),
            ("\t1000 ", "3000", "1000"),
            ("1e300", "3" + "0" * 300, "1" + "0" * 300),
        ],
    )
    def test_the_size_forms_every_python_accepts(self, capsys, tmp_path, value, scaled, width):
        for option, expected in (("--scale", scaled), ("--width", width)):
            out_path = tmp_path / "c.svg"
            code, _, err = run(capsys, "build", "chile-current", "--out", str(out_path), option, value)
            assert (code, err) == (0, "")
            assert f' width="{expected}" ' in out_path.read_text()

    def test_building_a_spec_file(self, capsys, tmp_path, spec_sources):
        src = tmp_path / "nepal.flag"
        src.write_text(spec_sources["nepal-ratio"])
        out_path = tmp_path / "nepal.svg"
        code, out, _ = run(capsys, "build", str(src), "--out", str(out_path))
        assert code == 0
        assert out_path.exists()

    def test_region_outside_the_canvas_fails(self, capsys, tmp_path):
        src = tmp_path / "oob.flag"
        src.write_text(OUT_OF_CANVAS)
        out_path = tmp_path / "oob.svg"
        code, out, err = run(capsys, "build", str(src), "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err == "goldenflag: error: region 'a' extends outside the canvas\n"
        assert not out_path.exists()

    def test_out_path_that_is_a_directory_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "chile-1818", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"goldenflag: error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_missing_out_flag_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "build", "togo")
        assert code == 2

    def test_negative_scale_is_a_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "togo", "--out", str(tmp_path / "t.svg"), "--scale", "-2"
        )
        assert code == 2

    @pytest.mark.parametrize("digits", ["0", "2", "many"])
    def test_digits_below_three_is_a_usage_error(self, capsys, tmp_path, digits):
        out_path = tmp_path / "t.svg"
        code, _, err = run(capsys, "build", "chile-1818", "--out", str(out_path), "--digits", digits)
        assert code == 2
        assert err.startswith("usage:")
        assert not out_path.exists()

    def test_deep_let_chain(self, capsys, tmp_path):
        src = tmp_path / "chain.flag"
        src.write_text(let_chain_spec(1500))
        out_path = tmp_path / "chain.json"
        code, _, err = run(capsys, "build", str(src), "--out", str(out_path))
        assert (code, err) == (0, "")
        vertices = json.loads(out_path.read_text())["regions"][1]["vertices"]
        assert vertices[0] == ["1", "2"] and vertices[2] == ["3", "0"]


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_option_rejected(self, capsys):
        assert run(capsys, "list", "--frob")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unexpected_exception_is_one_error_line(self, capsys, monkeypatch):
        def broken(name):
            raise RuntimeError("boom")

        monkeypatch.setattr("goldenflag.cli.build_flag", broken)
        code, out, err = run(capsys, "ratio", "togo")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: RuntimeError: boom\n"


def modules_added_by_import(*flags: str) -> list[str]:
    """The modules that ``import goldenflag.cli`` adds in a fresh
    interpreter started with ``flags``; only the modules the import adds
    count, not those the interpreter's site already loaded."""
    code = (
        "import sys; before = set(sys.modules); import goldenflag.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(goldenflag.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = done.stdout.split()
    assert "goldenflag.render" in added
    return added


def among(modules: list[str], *packages: str) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


class TestStartup:
    def test_import_pulls_in_no_network_stack(self):
        # xml.sax.saxutils would bring in urllib.request and with it
        # http.client, email, ssl and socket
        unwanted = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")
        assert among(modules_added_by_import(), *unwanted) == []

    def test_import_without_site_loads_no_package_resources(self):
        # importlib.resources, with tempfile behind it, is for build_flag
        # alone; a site may preload it, so the interpreter runs without one
        assert among(modules_added_by_import("-S"), "importlib.resources", "tempfile") == []
