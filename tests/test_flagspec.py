"""The flag-spec language: tokens, grammar, and lowering semantics."""

from __future__ import annotations

from fractions import Fraction

import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.constructions import Claim, ColorRole, Diagonals, build_flag
from goldenflag.errors import (
    CertificationError,
    FlagSpecError,
    LexError,
    ParseError,
    SemanticError,
)
from goldenflag.exactnum import PHI_EXPR, Literal, Verdict, compare_values, div, lit, mul, sub
from goldenflag.exactnum.identity import RELATIONS
from goldenflag.flagspec import (
    TokenKind,
    lower_expr,
    lower_source,
    parse_expression,
    tokenize,
)
from goldenflag.geometry import Point


def lexical_error(source: str):
    """The ERROR token that ends the token stream of ``source``."""
    last = tokenize(source)[-1]
    assert last.kind is TokenKind.ERROR
    return last


MINIMAL = """
flag "minimal" {
  canvas 2 x 1;
  region field red rect 0 0 2 1;
}
"""


class TestTokenize:
    def test_single_keyword(self):
        tokens = tokenize("phi")
        assert [t.kind for t in tokens] == [TokenKind.KEYWORD, TokenKind.EOF]
        assert tokens[0].lexeme == "phi"

    def test_token_count_of_a_radical_expression(self):
        tokens = tokenize("sqrt(10 - 2*sqrt(5))")
        assert tokens[-1].kind is TokenKind.EOF
        assert len(tokens) - 1 == 11  # content tokens before the EOF

    def test_malformed_number_position(self):
        error = lexical_error("1/0x")
        assert (error.line, error.col) == (1, 4)
        assert error.lexeme == "malformed number near '0x'"

    def test_trailing_dot_is_malformed(self):
        error = lexical_error("region r red rect 1. 0 1 1;")
        assert error.lexeme == "malformed number: expected digits after '.'"

    def test_positions_strictly_increase(self):
        tokens = tokenize('flag "x" {\n  canvas 1 x 1;\n}')
        positions = [(t.line, t.col) for t in tokens]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_comments_and_whitespace_are_skipped(self):
        tokens = tokenize("# nothing here\n  phi # more\n")
        assert [t.kind for t in tokens] == [TokenKind.KEYWORD, TokenKind.EOF]
        assert tokens[0].line == 2

    def test_string_token(self):
        tokens = tokenize('"hello flag"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].lexeme == "hello flag"

    def test_unterminated_string(self):
        assert lexical_error('"oops').lexeme == "unterminated string"

    def test_illegal_character(self):
        error = lexical_error("canvas 1 @ 1;")
        assert error.col == 10
        assert error.lexeme == "illegal character '@'"

    def test_the_parser_raises_the_error_token_as_a_lex_error(self):
        with pytest.raises(LexError, match="^1:6: malformed number near '0x'$") as excinfo:
            lower_expr(parse_expression("1 / 0x"), {})
        assert (excinfo.value.line, excinfo.value.col) == (1, 6)
        # the tokens before it parse first, so an earlier parse error wins
        with pytest.raises(ParseError, match="^1:4: expected expression, found symbol '\\*'$"):
            lower_expr(parse_expression("1 +* @"), {})

    def test_decimal_numbers(self):
        tokens = tokenize("2.4")
        assert tokens[0].kind is TokenKind.NUMBER
        assert Fraction(tokens[0].lexeme) == Fraction(12, 5)

    def test_relations_and_attribute_dots(self):
        tokens = tokenize("0.5<=a.width<b==c=1")
        assert [t.lexeme for t in tokens[:-1]] == [
            "0.5", "<=", "a", ".", "width", "<", "b", "==", "c", "=", "1"
        ]
        assert [t.col for t in tokens[:-1]] == [1, 4, 6, 7, 8, 13, 14, 15, 17, 18, 19]

    # half the characters are drawn from the ones that end or start a token
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(string.ascii_letters + string.digits) | st.sampled_from('{}();=+-*/.<"# \t\n²١é')))
    def test_a_token_or_an_error_at_a_character_of_the_source(self, source):
        lines = source.split("\n")

        def offset(line: int, col: int) -> int:
            return sum(len(text) + 1 for text in lines[: line - 1]) + col - 1

        tokens = tokenize(source)
        *content, last = tokens
        if last.kind is TokenKind.ERROR:
            assert 1 <= last.line <= len(lines)
            assert 1 <= last.col <= len(lines[last.line - 1])
            # the scan stops where no token starts, and says so there
            at = source[offset(last.line, last.col)]
            if last.lexeme.startswith("illegal character"):
                assert last.lexeme == f"illegal character {at!r}"
            elif last.lexeme == "unterminated string":
                assert at == '"'
            else:
                assert last.lexeme.startswith("malformed number")
        else:
            assert last.kind is TokenKind.EOF
            content = tokens
        positions = [(t.line, t.col) for t in tokens]
        assert all(a < b for a, b in zip(positions, positions[1:]))
        end = 0
        for token in content:
            text = f'"{token.lexeme}"' if token.kind is TokenKind.STRING else token.lexeme
            start = offset(token.line, token.col)
            assert source[start : start + len(text)] == text
            # no character between two tokens is skipped unless it is blank
            # or in a comment
            assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", source[end:start])
            end = start + len(text)
        if last.kind is TokenKind.EOF:
            assert offset(last.line, last.col) == len(source)


# positive operands, so no drawn expression fails a side condition
_OPERANDS = ("1", "7", "2.5", "phi", "b")  # b is bound to 2


def _nested(children):
    return (
        st.tuples(children, st.sampled_from("+*/"), children).map(lambda t: [*t[0], t[1], *t[2]])
        | children.map(lambda t: ["sqrt", "(", *t, ")"])
        | children.map(lambda t: ["(", *t, ")"])
    )


_POSITIVE = st.recursive(st.sampled_from(_OPERANDS).map(lambda operand: [operand]), _nested, max_leaves=8)
# the tokens of a drawn expression; a difference only at the top, where nothing divides by it or roots it
EXPRESSIONS = st.tuples(_POSITIVE, st.none() | _POSITIVE).map(lambda t: t[0] if t[1] is None else [*t[0], "-", *t[1]])


def laid_out(tokens: list[str], gaps: list[str]):
    """The source of ``tokens``, each followed by its gap, and the
    (line, col) of each token and of the end of input."""
    line, col, positions = 1, 1, []
    for token, gap in zip(tokens, gaps):
        positions.append((line, col))
        line, col = (line + 1, 1) if gap == "\n" else (line, col + len(token) + len(gap))
    positions.append((line, col))
    return "".join(token + gap for token, gap in zip(tokens, gaps)), positions


class TestParse:
    def test_minimal_spec(self):
        layout = lower_source(MINIMAL)
        assert layout.provenance == "minimal"
        assert len(layout.regions) == 1
        assert layout.stars == ()

    def test_shipped_independence_file(self, spec_sources):
        layout = lower_source(spec_sources["chile-1818"])
        assert len(layout.regions) == 3
        assert len(layout.stars) == 1
        assert [type(c) for c in layout.claims] == [Claim] * 5 + [Diagonals]
        # the shown binding is the let of the same name
        assert layout.claims[2].shown == ("ratio", layout.width_height_ratio())

    def test_missing_region_height_is_a_positioned_error(self):
        source = 'flag "x" { canvas 1 x 1; region a red rect 0 0 1 ; }'
        with pytest.raises(ParseError) as excinfo:
            lower_source(source)
        assert "expected expression, found" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_missing_canvas_separator(self):
        with pytest.raises(ParseError) as excinfo:
            lower_source('flag "x" { canvas 1 1; }')
        assert "expected 'x' between canvas width and height, found" in str(excinfo.value)

    @pytest.mark.parametrize("statement", ["region r purple rect 0 0 1 1;", "star purple at 1/2 1/2 diameter 1/4;"])
    def test_a_color_is_one_of_the_five_roles(self, statement):
        assert [tokenize(role.value)[0].kind for role in ColorRole] == [TokenKind.KEYWORD] * 5
        with pytest.raises(ParseError) as excinfo:
            lower_source(f'flag "x" {{ canvas 1 x 1; {statement} }}')
        assert "expected color (red, white, blue, green, yellow), found " in str(excinfo.value)

    def test_unknown_declaration(self):
        with pytest.raises(ParseError) as excinfo:
            lower_source('flag "x" { canvas 1 x 1; circle red; }')
        assert "expected 'let', 'region', 'star'" in str(excinfo.value)

    def test_check_chain_with_a_shown_binding(self):
        source = (
            'flag "x" { canvas 2 x 1; let r = canvas.width/canvas.height; '
            'region f red rect 0 0 2 1; check "between" 1 < r <= f.width == 2 show r; }'
        )
        check = lower_source(source).claims[-1]
        assert isinstance(check, Claim)
        assert check.name == "between"
        assert check.relations == ("<", "<=", "==")
        assert check.terms == (lit(1), lit(2), lit(2), lit(2))
        assert (check.detail, check.shown) == ("", ("r", lit(2)))

    def test_check_with_a_verbatim_detail_and_diagonals(self):
        source = (
            'flag "x" { canvas 2 x 1; region f red rect 0 0 2 1; '
            'check "wide" 1 < 2 "two wins"; check diagonals of f; }'
        )
        wide, diagonals = lower_source(source).claims[-2:]
        assert wide.detail == "two wins" and wide.shown is None
        assert diagonals == Diagonals("f")

    def test_check_needs_a_relation(self):
        source = 'flag "x" { canvas 1 x 1; check "lonely" 1; }'
        with pytest.raises(ParseError) as excinfo:
            lower_source(source)
        assert "expected '==', '<', or '<=', found" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.col) == (1, source.index("1; }") + 2)

    def test_a_check_chains_exactly_the_relations_the_verifier_decides(self):
        chain = " ".join(f"{relation} {k}" for k, relation in enumerate(RELATIONS, 1))
        source = f'flag "x" {{ canvas 1 x 1; region f red rect 0 0 1 1; check "all" 0 {chain}; }}'
        assert lower_source(source).claims[-1].relations == tuple(RELATIONS)
        with pytest.raises(ParseError) as excinfo:
            lower_source(source.replace("== 1", "= 1"))
        assert "expected '==', '<', or '<=', found " in str(excinfo.value)

    def test_canvas_is_only_an_attribute_owner(self):
        with pytest.raises(ParseError) as excinfo:
            lower_expr(parse_expression("canvas + 1"), {})
        assert excinfo.value.col == 8

    @settings(max_examples=300, deadline=None)
    @given(
        st.text("0", max_size=4),
        st.text(string.digits, min_size=1, max_size=30),
        st.none() | st.tuples(st.text(string.digits, min_size=1, max_size=30), st.text("0", max_size=4)),
    )
    def test_a_number_is_the_fraction_of_its_lexeme(self, zeros, whole, fraction):
        lexeme = zeros + whole if fraction is None else zeros + whole + "." + "".join(fraction)
        assert lower_expr(parse_expression(lexeme), {}) is lit(Fraction(lexeme))

    def test_each_part_of_a_number_is_within_the_digit_limit_on_its_own(self):
        # 6000 digits in all, but 3000 on each side of the point, as
        # Fraction(lexeme) converts them
        lexeme = "1" * 3000 + "." + "1" * 3000
        assert lower_expr(parse_expression(lexeme), {}) is lit(Fraction(lexeme))
        with pytest.raises(ParseError) as excinfo:
            lower_expr(parse_expression("1" * 5000), {})
        assert str(excinfo.value) == "1:1: expected a shorter number, found a 5000-digit number"

    def test_deep_nesting_yields_an_error_not_a_crash(self):
        depth = 5000
        source = "(" * depth + "1" + ")" * depth
        with pytest.raises(ParseError):
            lower_expr(parse_expression(source), {})

    def test_expression_entry_point_rejects_trailing_tokens(self):
        with pytest.raises(ParseError):
            lower_expr(parse_expression("1 + 2 extra"), {})

    @pytest.mark.parametrize("source, error, col", [
        ("b + ", ParseError, 5),
        ("b + 1.", LexError, 6),
        ("b + ) extra", ParseError, 5),
        ("b extra )", ParseError, 3),
    ], ids=["parse", "lexical", "parse-then-trailing", "trailing"])
    def test_an_expression_program_ends_in_its_first_error(self, source, error, col):
        # the name before the error resolves first
        with pytest.raises(SemanticError, match="^1:1: unbound name 'b'$"):
            lower_expr(parse_expression(source), {})
        # bound, it lets the parse reach the error
        with pytest.raises(error) as excinfo:
            lower_expr(parse_expression(source), {"b": lit(1)})
        assert type(excinfo.value) is error and (excinfo.value.line, excinfo.value.col) == (1, col)

    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS, st.sampled_from(["@", "1.", ";", "dangling"]), st.data())
    def test_the_first_of_an_unbound_name_and_a_syntax_error_is_raised(self, tokens, error, data):
        tokens = list(tokens)
        operands = [i for i, token in enumerate(tokens) if token in _OPERANDS]
        tokens[data.draw(st.sampled_from(operands))] = "mystery"
        if error == "dangling":
            # an operator before a ')' or the end: the token after it is the error
            ends = [i for i, token in enumerate(tokens) if token == ")"] + [len(tokens)]
            at = data.draw(st.sampled_from(ends))
            tokens.insert(at, data.draw(st.sampled_from("+-*/")))
            expected, error_at, shift = ParseError, at + 1, 0
        else:
            at = data.draw(st.integers(0, len(tokens)))
            tokens.insert(at, error)
            # a number that ends in '.' is malformed at its dot
            expected, error_at, shift = (ParseError if error == ";" else LexError), at, max(error.find("."), 0)
        gaps = data.draw(st.lists(st.sampled_from([" ", "  ", "\n"]), min_size=len(tokens), max_size=len(tokens)))
        source, positions = laid_out(tokens, gaps)
        line, col = positions[error_at]
        position = (line, col + shift)
        name_at = positions[tokens.index("mystery")]
        if name_at < position:
            expected, position = SemanticError, name_at
        with pytest.raises(FlagSpecError) as excinfo:
            lower_expr(parse_expression(source), {"b": lit(2)})
        assert (type(excinfo.value), excinfo.value.line, excinfo.value.col) == (expected, *position)

    def test_expression_precedence(self):
        value = lower_expr(parse_expression("1 + 2*3"), {})
        assert value == lit(7)

    def test_unary_minus_binds_tighter_than_multiplication(self):
        assert lower_expr(parse_expression("-2*3"), {}) == lit(-6)
        assert lower_expr(parse_expression("2--3"), {}) == lit(5)


class TestLowerExpressions:
    def test_phi_lowers_to_the_golden_mean_expression(self):
        assert lower_expr(parse_expression("phi"), {}) is PHI_EXPR

    def test_fractions_and_decimals_are_exact(self):
        assert lower_expr(parse_expression("1/5"), {}) == lit(Fraction(1, 5))
        assert lower_expr(parse_expression("0.2"), {}) == lit(Fraction(1, 5))
        assert lower_expr(parse_expression("2.4"), {}) == lit(Fraction(12, 5))

    def test_tangent_expression_lowers_to_the_exact_dag(self):
        from goldenflag.geometry import TAN36

        value = lower_expr(parse_expression("sqrt(10-2*sqrt(5))/(1+sqrt(5))"), {})
        assert value == TAN36

    def test_negative_radicand_is_a_certification_error(self):
        with pytest.raises(CertificationError):
            lower_expr(parse_expression("sqrt(0-1)"), {})

    def test_division_by_zero_is_a_certification_error(self):
        with pytest.raises(CertificationError):
            lower_expr(parse_expression("1/(phi*phi - phi - 1)"), {})

    def test_unbound_name_is_positioned(self):
        with pytest.raises(SemanticError) as excinfo:
            lower_expr(parse_expression("2 * mystery"), {})
        assert excinfo.value.col == 5

    def test_long_operator_chains_lower(self):
        # left-associative chains as deep as the term count; only
        # parenthesised nesting is bounded by the parser
        assert lower_expr(parse_expression("+".join(["1"] * 5000)), {}) == lit(5000)
        chain = lower_expr(parse_expression("-".join(["phi"] * 5000)), {})
        assert compare_values(chain, mul(lit(-4998), PHI_EXPR)) is Verdict.PROVED_EQUAL

    def test_operands_lower_left_to_right(self):
        with pytest.raises(SemanticError) as excinfo:
            lower_expr(parse_expression("first / second"), {})
        assert excinfo.value.col == 1


class TestLowerLayouts:
    def test_minimal_layout(self):
        layout = lower_source(MINIMAL)
        assert layout.provenance == "minimal"
        assert len(layout.regions) == 1
        assert layout.regions[0].color is ColorRole.RED

    def test_bounds_and_star_centres_are_the_spec_coordinates(self):
        source = """
        flag "two-bands" {
          canvas 1 x 2*phi;
          region top    blue rect 0 0 1 phi;
          region bottom red  rect 0 phi 1 phi;
          star white at 1/2 phi/2 diameter 1/2;
        }
        """
        layout = lower_source(source)
        top, bottom = layout.regions
        # screen y grows downward from the top-left corner, as written
        assert top.bounds[0::2] == (lit(0), lit(0))
        assert bottom.bounds[2] is PHI_EXPR
        assert layout.stars[0].pentagram.center == Point(lit(Fraction(1, 2)), div(PHI_EXPR, lit(2)))

    def test_zero_width_region_is_a_certification_error(self):
        source = """
        flag "degenerate" {
          canvas 1 x 1;
          let w = phi*phi;
          region r red rect 0 0 (w - phi - 1) 1;
        }
        """
        with pytest.raises(CertificationError):
            lower_source(source)

    def test_duplicate_binding(self):
        source = 'flag "x" { canvas 1 x 1; let a = 1; let a = 2; region r red rect 0 0 1 1; }'
        with pytest.raises(SemanticError) as excinfo:
            lower_source(source)
        assert "duplicate" in str(excinfo.value)

    def test_star_over_unknown_region(self):
        source = 'flag "x" { canvas 1 x 1; region r red rect 0 0 1 1; star white at diagonal_intersection of ghost diameter 1/2; }'
        with pytest.raises(SemanticError) as excinfo:
            lower_source(source)
        assert "ghost" in str(excinfo.value)

    def test_star_diagonal_center(self):
        source = """
        flag "centered" {
          canvas 2 x 1;
          region field blue rect 0 0 2 1;
          star white at diagonal_intersection of field diameter 1/2;
        }
        """
        layout = lower_source(source)
        center = layout.stars[0].pentagram.center
        assert compare_values(center.x, lit(1)) is Verdict.PROVED_EQUAL
        assert compare_values(center.y, lit(Fraction(1, 2))) is Verdict.PROVED_EQUAL

    def test_gappy_user_layout_is_rejected(self):
        source = 'flag "gap" { canvas 2 x 1; region r red rect 0 0 1 1; }'
        from goldenflag.errors import LayoutError

        with pytest.raises(LayoutError):
            lower_source(source)

    def test_region_spilling_past_the_canvas_is_rejected(self):
        source = 'flag "oob" { canvas 3 x 2; region a blue rect 0 0 4 2; }'
        from goldenflag.errors import LayoutError

        with pytest.raises(LayoutError, match="region extends outside the canvas"):
            lower_source(source)

    def test_a_spec_without_regions_is_positioned(self):
        with pytest.raises(SemanticError) as excinfo:
            lower_source('\n  flag "empty" { canvas 2 x 1; let w = 1; }')
        error = excinfo.value
        assert (error.line, error.col) == (2, 3)
        assert str(error) == "2:3: flag 'empty' declares no region"


CLAIMS_PREFIX = 'flag "claims" { canvas 2 x 1; region all red rect 0 0 2 1; '


def lowered_claims(body: str):
    return lower_source(f"{CLAIMS_PREFIX}{body} }}").claims


def semantic_error(body: str, at: str) -> SemanticError:
    """The error lowering ``body`` raises, checked to point at the first
    occurrence of ``at`` in it."""
    with pytest.raises(SemanticError) as excinfo:
        lowered_claims(body)
    error = excinfo.value
    assert (error.line, error.col) == (1, len(CLAIMS_PREFIX) + body.index(at) + 1)
    return error


class TestLowerChecks:
    def test_attributes_are_the_verifier_nodes(self):
        layout = lower_source(
            'flag "sizes" { canvas 3 x 2*phi; region a red rect 0 0 1 2*phi; '
            "region b blue rect 1 0 2 2*phi; check \"c\" a.height/b.width == canvas.width/canvas.height; }"
        )
        x0, x1, y0, y1 = layout.regions[0].bounds
        (claim,) = layout.claims
        lhs, rhs = claim.terms
        assert lhs is div(sub(y1, y0), sub(layout.regions[1].bounds[1], layout.regions[1].bounds[0]))
        assert rhs is layout.width_height_ratio()

    def test_claims_keep_source_order(self):
        claims = lowered_claims('check "b" 1 == 1; check diagonals of all; check "a" 1 < 2 "d";')
        assert [type(c) for c in claims] == [Claim, Diagonals, Claim]
        assert claims[2] == Claim("a", (lit(1), lit(2)), ("<",), "d")

    def test_shown_binding_is_its_let_value(self):
        (claim,) = lowered_claims('let r = all.width; check "r" r == 2 show r;')
        assert claim.shown == ("r", lit(2))

    def test_unbound_region_in_a_check_is_positioned(self):
        error = semantic_error('check "c" nowhere.width == 1;', at="nowhere")
        assert "'nowhere' is not a previously declared region" in str(error)

    def test_unknown_attribute_is_positioned(self):
        error = semantic_error('check "c" all.depth == 1;', at="depth")
        assert "unknown attribute 'depth'" in str(error)

    def test_check_before_its_region_is_positioned(self):
        source = """flag "early" {
  canvas 2 x 1;
  check "too soon" late.height == 1;
  region late red rect 0 0 2 1;
}"""
        with pytest.raises(SemanticError) as excinfo:
            lower_source(source)
        assert (excinfo.value.line, excinfo.value.col) == (3, 20)

    def test_diagonals_of_an_unknown_region_is_positioned(self):
        error = semantic_error("check diagonals of ghost;", at="ghost")
        assert "'ghost' is not a previously declared region" in str(error)

    def test_shown_name_must_be_bound(self):
        error = semantic_error('check "c" 1 == 1 show nothing;', at="nothing")
        assert "unbound name 'nothing'" in str(error)

    def test_canvas_size_is_unknown_inside_its_declaration(self):
        with pytest.raises(SemanticError) as excinfo:
            lower_source('flag "x" { canvas 2 x canvas.width; region r red rect 0 0 2 2; }')
        assert excinfo.value.col == 23


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["chile-1818", "chile-current", "togo", "nepal-ratio"])
    def test_shipped_files_match_builtins_coordinatewise(self, name, layouts, spec_sources):
        # a builtin is its lowered spec, node for node: expressions are
        # interned, so layout equality is identity of every coordinate
        assert lower_source(spec_sources[name]) == layouts[name]

    def test_lowered_independence_flag_verifies_like_the_builtin(self, spec_sources):
        from goldenflag.constructions import verify_layout_identities

        lowered = lower_source(spec_sources["chile-1818"])
        checks = verify_layout_identities(lowered)
        assert checks == verify_layout_identities(build_flag("chile-1818"))
        assert len(checks) == 13
        assert all(check.status.ok for check in checks)
