"""The benchmark's layer tracer (``bench/tracer.py``, imported read-only)
still finds every module attribute that it binds, reaches the identity
verifier through them, and leaves each attribute as it found it."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

import goldenflag.cli as cli  # noqa: E402

# the modules whose attributes Tracer.install rebinds
TRACED = (
    "cli",
    "render",
    "geometry",
    "constructions",
    "flagspec.parser",
    "flagspec.lower",
    "exactnum.expr",
    "exactnum.identity",
    "exactnum.decimalfmt",
)


def test_a_traced_verify_reaches_the_identity_verifier_and_restores_every_binding(capsys):
    modules = [sys.modules[f"goldenflag.{name}"] for name in TRACED]
    before = [dict(vars(module)) for module in modules]
    create = vars(cli.FlagLayout)["create"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "chile-1818"]) == 0
    finally:
        tracer.uninstall()
    assert "13 checks passed" in capsys.readouterr().out
    for name, module, attributes in zip(TRACED, modules, before):
        after = vars(module)
        assert after.keys() == attributes.keys(), name
        changed = [attr for attr, value in attributes.items() if after[attr] is not value]
        assert not changed, (name, changed)
    assert vars(cli.FlagLayout)["create"] is create
    assert tracer.counters["exactnum.identity.compare_values.calls"] > 0
    assert tracer.counters["exactnum.identity.verify_identity.calls"] > 0
