"""The builtins are the shipped specs, and they render the pinned bytes.

``bench/pins.json`` holds the SHA-256 of every builtin build output of
the benchmark (``bench/gen.py``); these tests read it and never edit it.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from pathlib import Path

import pytest

from goldenflag.cli import main as cli_main
from goldenflag.constructions import BUILTIN_NAMES

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


def pinned_payload(name: str, variant: str) -> str:
    return json.loads(PINS.read_text(encoding="utf-8"))[f"{name}/build-{variant}"]["payload"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_build_bytes_match_the_pins(name, variant, tmp_path, capsys):
    assert payload_sha256(name, variant, tmp_path) == pinned_payload(name, variant)


def test_shipped_specs_are_the_builtin_names():
    specs = importlib.resources.files("goldenflag") / "specs"
    shipped = {entry.name.removesuffix(".flag") for entry in specs.iterdir() if entry.name.endswith(".flag")}
    assert shipped == set(BUILTIN_NAMES)
