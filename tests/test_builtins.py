"""The builtins are the shipped specs, and they print and render the
pinned bytes.

``bench/pins.json`` holds the SHA-256 of every builtin output of the
benchmark (``bench/gen.py``): the payload of each build, and the stdout
of ``verify`` and ``ratio``.  These tests read it and never edit it.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from pathlib import Path

import pytest

from goldenflag.cli import main as cli_main
from goldenflag.constructions import BUILTIN_NAMES
from goldenflag.exactnum import expr

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"

# the benchmark's build variants: pin id suffix, extra arguments, output suffix
VARIANTS = {
    "svg300": (["--scale", "300"], "svg"),
    "json60": (["--digits", "60"], "json"),
    "width2.4": (["--width", "2.4"], "svg"),
}


def payload_sha256(name: str, variant: str, directory: Path) -> str:
    extra, suffix = VARIANTS[variant]
    out = directory / f"{name}-{variant}.{suffix}"
    assert cli_main(["build", name, "--out", str(out), *extra]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def pin(request_id: str) -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))[request_id]


def pinned_payload(name: str, variant: str) -> str:
    return pin(f"{name}/build-{variant}")["payload"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_build_bytes_match_the_pins(name, variant, tmp_path, capsys):
    assert payload_sha256(name, variant, tmp_path) == pinned_payload(name, variant)


@pytest.mark.parametrize("command", ["verify", "ratio"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stdout_matches_the_pins(name, command, capsys):
    assert cli_main([command, name]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == pin(f"{name}/{command}")["stdout"]


def test_shipped_specs_are_the_builtin_names():
    specs = importlib.resources.files("goldenflag") / "specs"
    shipped = {entry.name.removesuffix(".flag") for entry in specs.iterdir() if entry.name.endswith(".flag")}
    assert shipped == set(BUILTIN_NAMES)


# A star centred at 1 + 1/200000000000 + z, where z is a zero beyond the
# exact tower: its x coordinate is a rounding tie at 12 digits that no
# certified sign can settle, so the build passes every check and exits 3
# while rendering.
UNDECIDABLE_TIE = """
flag "tie" {
  canvas 2 x 1;
  let a = sqrt(7 + 2*sqrt(11 + 3*sqrt(5 + sqrt(2)))) + sqrt(3 + sqrt(13 + 2*sqrt(6 + 4*sqrt(3))))
        + sqrt(9 + 5*sqrt(2 + sqrt(17 + sqrt(7)))) + sqrt(8 + 3*sqrt(19 + sqrt(6 + 2*sqrt(11))));
  let z = a - a/3*3;
  region all blue rect 0 0 2 1;
  star white at 1 + 1/200000000000 + z 1/2 diameter 1/4;
}
"""


def test_a_render_that_exits_three_leaves_no_memo_behind(tmp_path, capsys):
    spec = tmp_path / "tie.flag"
    spec.write_text(UNDECIDABLE_TIE, encoding="utf-8")
    assert cli_main(["verify", str(spec)]) == 0
    assert cli_main(["build", str(spec), "--out", str(tmp_path / "tie.svg")]) == 3
    assert "precision exhausted" in capsys.readouterr().err
    assert expr._memo.get() is None
    for name in BUILTIN_NAMES:
        for variant in VARIANTS:
            assert payload_sha256(name, variant, tmp_path) == pinned_payload(name, variant)
