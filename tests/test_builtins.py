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
