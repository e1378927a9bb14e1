"""CLI behavior: outputs, exit codes, and file emission."""

from __future__ import annotations

import json

import pytest

from goldenflag.cli import main


OUT_OF_CANVAS = 'flag "oob" { canvas 3 x 2; region a blue rect 0 0 4 2; }'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


# a sum of three depth-3 radicals: the separation bound for a - a/3*3
# asks for more bits than the refinement cap
UNDECIDABLE = (
    "let a = sqrt(7 + 2*sqrt(11 + 3*sqrt(5 + sqrt(2))))"
    " + sqrt(3 + sqrt(13 + 2*sqrt(6 + 4*sqrt(3))))"
    " + sqrt(9 + 5*sqrt(2 + sqrt(17 + sqrt(7))));"
)


# sqrt(2) + sqrt(3) == sqrt(5 + 2*sqrt(6)), with three independent radicands
ZERO_BEYOND_THE_TOWER = "sqrt(2)+sqrt(3)-sqrt(5+2*sqrt(6))"

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

    @pytest.mark.parametrize("expr", ["phi", "2"])
    def test_digits_past_the_limit_end_in_one_error_line(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "--digits", "4400")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: ValueError: digits must be at most 4300, got 4400\n"

    def test_digits_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "phi", "--digits", "4300")
        assert code == 0
        assert out.startswith("1.6180339887498948482")
        assert len(out.strip()) == 4301

    def test_exact_value_with_thousands_of_digits(self, capsys):
        code, out, _ = run(capsys, "eval", f"{'9' * 3000} * {'9' * 3000}", "--digits", "3")
        assert code == 0
        assert out.strip() == "1" + "0" * 6000

    # Z is 10**700: both values are 5 * 10**-1400, far below every enclosure
    # width on the refinement schedule, so only the exact path rounds them
    @pytest.mark.parametrize("expr", ["5/Z/Z", "sqrt(5)*sqrt(5)/Z/Z"])
    def test_a_tiny_exact_rational_is_rounded_exactly(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr.replace("Z", "1" + "0" * 700), "--digits", "3")
        assert (code, out, err) == (0, "0." + "0" * 1399 + "5\n", "")

    @pytest.mark.parametrize("bits", ["0", "-5", "17233"])
    def test_precision_bits_out_of_range_is_a_usage_error(self, capsys, bits):
        code, out, err = run(capsys, "eval", "phi", f"--precision-bits={bits}")
        assert (code, out) == (2, "")
        assert err.startswith("usage:")
        assert err.count("error:") == 1
        assert "--precision-bits: must be at" in err

    def test_precision_bits_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "phi", "--precision-bits", "17232")
        assert (code, out) == (0, "1.61803398875\n")

    def test_an_exact_zero_beyond_the_tower_prints_zero(self, capsys):
        code, out, err = run(capsys, "eval", ZERO_BEYOND_THE_TOWER)
        assert (code, out, err) == (0, "0\n", "")

    def test_dividing_by_an_exact_zero_beyond_the_tower(self, capsys):
        code, out, err = run(capsys, "eval", f"1/({ZERO_BEYOND_THE_TOWER})")
        assert (code, out) == (1, "")
        assert err == "goldenflag: error: in eval expression: divisor is certified zero\n"

    @pytest.mark.parametrize("tie,digits,expected", [("1/8", "2", "0.12"), ("5/2", "1", "2")])
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

    def test_diagonals_of_a_square_region_is_one_error_line(self, capsys, tmp_path):
        code, out, err = self.verify_claims(capsys, tmp_path, "check diagonals of all;")
        assert (code, out) == (1, "")
        assert err == (
            "goldenflag: error: region 'all' is not in the tan(36) height/width proportion\n"
        )

    def test_spec_file_with_custom_provenance(self, capsys, tmp_path):
        path = tmp_path / "plain.flag"
        path.write_text(
            'flag "plain" { canvas 2 x 1; region all red rect 0 0 2 1; }'
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "tile" in out

    def test_region_outside_the_canvas_fails(self, capsys, tmp_path):
        path = tmp_path / "oob.flag"
        path.write_text(OUT_OF_CANVAS)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err == "goldenflag: error: region extends outside the canvas\n"

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
        assert err == "goldenflag: error: region extends outside the canvas\n"
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
