"""Rewrite ``bench/pins.json``: SHA-256 of the stdout and output file of
every ``builtins`` request at the current checkout.

The pins make the benchmark's builtin outputs a byte-identity gate.  Run
this only when a change alters output bytes on purpose, from the root
of a checkout::

    python3 bench/pin_builtins.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gen
import oracle
from run import BENCH, run_worker


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "pin"
    try:
        requests, _ = gen.generate("builtins", 0, work)
        results = run_worker(root, work, requests, 0, False, work / "spans.jsonl.gz")
        pins = {}
        for request in sorted(requests, key=lambda r: r.rid):
            record = results["first"][request.rid]
            payload = Path(request.out).read_bytes() if request.out else b""
            pins[request.rid] = {
                "stdout": oracle.digest(oracle.normalized_stdout(record["stdout"], request.out).encode()),
                "payload": oracle.digest(payload) if payload else None,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
