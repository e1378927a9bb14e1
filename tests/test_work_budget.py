"""Every request ends: refinement spends from one work budget, so an
undecidable question exits 3 in bounded time, and whether a value prints
does not depend on the digits asked for."""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.cli import main
from goldenflag.errors import PrecisionExhausted
from goldenflag.exactnum import Div, Literal, Mul, lit, mul
from goldenflag.exactnum.expr import WORK_BUDGET, eval_interval

TEN_TO_700 = "1" + "0" * 700

# 40 nested radicals, and a zero written with them that no separation
# bound within the budget can prove
NESTED = "sqrt(3 + " * 40 + "3" + ")" * 40
NESTED_ZERO = f"{NESTED} - {NESTED}*3/3"

# sqrt(2) + sqrt(3) - sqrt(5 + 2*sqrt(6)) is an exact zero beyond the tower
ZERO_PLUS_TINY = "sqrt(2)+sqrt(3)-sqrt(5+2*sqrt(6)) + 1/Z/Z".replace("Z", TEN_TO_700)

WALL_SECONDS = 20  # per request, generous for a slow host


def run(*argv: str) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def test_an_undecidable_zero_exits_three_alike_at_every_digits():
    lines = set()
    for digits in ("1", "3", "12", "4300"):
        code, out, err, seconds = run("eval", "--digits", digits, "--", NESTED_ZERO)
        assert (code, out) == (3, "")
        assert seconds < 10
        lines.add(err)
    (line,) = lines
    assert line.startswith("goldenflag: precision exhausted: refinement spent ")
    assert line.count("\n") == 1


def test_a_tiny_value_beyond_the_tower_prints_alike_at_any_digits():
    for digits in ("3", "12"):
        code, out, err, _ = run("eval", "--digits", digits, "--", ZERO_PLUS_TINY)
        assert (code, out, err) == (0, "0." + "0" * 1399 + "1\n", "")


def test_a_let_chain_of_exact_squares_exits_three_at_the_first_literal_past_the_budget():
    # a{i} = 10**(2**i): a19 would have about 1.7 million bits
    lets = "\n".join(f"  let a{i} = a{i - 1}*a{i - 1};" for i in range(1, 26))
    spec = f'flag "squares" {{\n  canvas 1 x 1; region r red rect 0 0 1 1;\n  let a0 = 10;\n{lets}\n}}\n'
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "squares.flag"
        path.write_text(spec)
        code, out, err, seconds = run("verify", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("goldenflag: precision exhausted: in let 'a19': ")
    assert seconds < 5


def test_a_let_chain_squaring_a_radical_exits_three_at_its_first_enclosure():
    # a{i} = 10**(2**(i-1)) is no literal, so nothing folds it: its first
    # enclosure refuses the product past the width a literal may reach
    lets = "\n".join(f"  let a{i} = a{i - 1}*a{i - 1};" for i in range(1, 24))
    spec = (
        f'flag "big" {{\n  canvas 1 x 1; region r red rect 0 0 1 1;\n  let a0 = sqrt(10);\n{lets}\n'
        '  check "big" 0 < a23;\n}\n'
    )
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "big.flag"
        path.write_text(spec)
        code, out, err, seconds = run("verify", str(path))
    assert (code, out, err) == (3, "Undecided  big\nbig: 1 of 1 checks failed\n", "")
    assert seconds < 2


@pytest.mark.parametrize("use, owner", [
    ("region q red rect 1 0 a23 1;", "x cut lines of region 'q'"),
    ("star white at a23 1/2 diameter 1/4;", "star white"),
])
def test_a_layout_value_past_the_budget_at_its_first_enclosure_names_its_owner(use, owner):
    lets = "\n".join(f"  let a{i} = a{i - 1}*a{i - 1};" for i in range(1, 24))
    spec = f'flag "big" {{\n  canvas 1 x 1; region r red rect 0 0 1 1;\n  let a0 = sqrt(10);\n{lets}\n  {use}\n}}\n'
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "big.flag"
        path.write_text(spec)
        code, out, err, seconds = run("verify", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"goldenflag: precision exhausted: in {owner}: an enclosure of up to ")
    assert err.endswith(" bits is past the work budget\n")
    assert seconds < 2


def test_an_enclosure_refuses_a_product_or_quotient_a_literal_could_not_be():
    # the widest integer one operation's charge covers: (bits // 64)**2
    # within the work budget
    widest = 64 * isqrt(WORK_BUDGET) + 63
    big = Literal(Fraction(1 << (widest - 70)))
    small = Literal(Fraction(1, 1 << 10))
    for x in (Mul(big, Literal(Fraction(1 << 10))), Div(big, small)):
        with pytest.raises(PrecisionExhausted, match="^an enclosure of up to 10486"):
            eval_interval(x, 64)
    assert eval_interval(Mul(big, Literal(Fraction(1 << 3))), 64)[0] == 1 << (widest - 3)
    with pytest.raises(PrecisionExhausted, match="^an exact literal of up to"):
        mul(big, lit(1 << 70))


# expressions: small literals, phi, radicals nested up to 40 deep, a tiny
# literal; sums, differences, products, quotients and square roots of them
LEAVES = st.sampled_from([
    "0", "1", "2", "1/3", "phi", "sqrt(2)", "1/" + TEN_TO_700, NESTED,
    "sqrt(7 + 2*sqrt(11 + 3*sqrt(5 + sqrt(2))))",
    "sqrt(3 + sqrt(13 + 2*sqrt(6 + 4*sqrt(3))))",
    "sqrt(9 + 5*sqrt(2 + sqrt(17 + sqrt(7))))",
])
EXPRESSIONS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda e: f"sqrt({e})"),
        st.tuples(st.integers(1, 9), children).map(lambda t: f"sqrt({t[0]} + sqrt({t[1]}))"),
    ),
    max_leaves=8,
)
# an expression e used several times over, as one shared node; most are
# exact zeros that only a separation bound proves, or side conditions on one
SHARED = st.sampled_from([
    "{e}",
    "{e} - {e}*3/3",
    "1/({e} - {e}*3/3)",
    "sqrt({e}*3/3 - {e})",
    "({e} - {e}*3/3)*{e} + 1/{e}",
])
DIGITS = st.one_of(st.sampled_from([1, 3, 12, 300, 4300]), st.integers(1, 4300))


def assert_ends_cleanly(result: tuple[int, str, str, float]) -> None:
    code, _, err, seconds = result
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err
    assert seconds < WALL_SECONDS


@settings(max_examples=25, deadline=None)
@given(EXPRESSIONS, SHARED, DIGITS)
def test_eval_ends_with_a_documented_exit_code(expr, template, digits):
    assert_ends_cleanly(run("eval", "--digits", str(digits), "--", template.replace("{e}", f"({expr})")))


@settings(max_examples=15, deadline=None)
@given(EXPRESSIONS, st.integers(1, 120), st.sampled_from(["verify", "ratio"]), DIGITS)
def test_a_spec_with_a_deep_let_chain_ends_with_a_documented_exit_code(expr, depth, command, digits):
    # v{depth} is 1 after depth additions of expr - expr, one shared node
    lets = "".join(f"let v{i} = v{i - 1} + {expr} - {expr};" for i in range(1, depth + 1))
    spec = (
        f'flag "chain" {{ canvas 2 x 1; let v0 = 1; {lets}'
        f"region a blue rect 0 0 v{depth} 1; region b red rect v{depth} 0 2 - v{depth} 1;"
        f'check "one" v{depth} == 1 show v{depth}; }}'
    )
    options = ["--digits", str(digits)] if command == "ratio" else []
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "chain.flag"
        path.write_text(spec)
        assert_ends_cleanly(run(command, str(path), *options))
