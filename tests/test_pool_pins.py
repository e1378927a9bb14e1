"""Every request of the benchmark's four pools, at seeds 7, 8 and 901,
pinned to one SHA-256 of its output record: exit code, stdout, stderr,
payload SHA-256 and verdict.

The requests are built by ``bench/gen.py`` and run in process by
``bench/worker.py``'s ``Runner``, both imported read-only.  The work
directory in stdout reads ``<work>``, so the pins hold in any checkout
and on every Python.  Run as a script, this module prints the digests
as ``tests/pool_pins.json`` holds them::

    PYTHONPATH=src python tests/test_pool_pins.py > tests/pool_pins.json

Re-pin only in a change that means to alter output bytes, and name each
re-pinned request in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

import goldenflag.cli as cli  # noqa: E402
from goldenflag.exactnum import identity  # noqa: E402

PINS = Path(__file__).resolve().parent / "pool_pins.json"
SEEDS = (7, 8, 901)


def pool_digests(work: Path) -> dict[str, str]:
    """``<workload> <seed> <rid>`` -> SHA-256 of the request's record,
    for every request of every pool at every seed, with the files of
    each pool written under ``work``."""
    runner = worker.Runner(cli, identity)
    digests = {}
    for workload in sorted(gen.POOLS):
        for seed in SEEDS:
            pool = work / f"{workload}-{seed}"
            requests, _ = gen.generate(workload, seed, pool)
            for request in requests:
                _, record = runner.execute(request.to_json())
                key = f"{workload} {seed} {request.rid}"
                assert "traceback" not in record, f"{key}:\n{record['traceback']}"
                record["stdout"] = record["stdout"].replace(str(pool), "<work>")
                digests[key] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    return digests


def test_every_pool_request_keeps_its_bytes(tmp_path):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    got = pool_digests(tmp_path)
    assert len(got) == 282
    changed = sorted(key for key in pins.keys() | got.keys() if pins.get(key) != got.get(key))
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(pool_digests(Path(scratch)), indent=1, sort_keys=True))
