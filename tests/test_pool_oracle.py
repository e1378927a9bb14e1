"""The benchmark's four pools at seeds that hypothesis draws, each request
checked by the independent oracle.

The requests are built by ``bench/gen.py``, run in process by
``bench/worker.py``'s ``Runner`` and checked by ``bench/run.py``'s
``check_request``, all three imported read-only.  The oracle recomputes
every printed decimal, star vertices included, with stdlib ``decimal``
and shares no code with the program.  A value it cannot settle at its
guard digits is skipped, not failed; each example reports its skipped
count as a hypothesis event (``--hypothesis-show-statistics``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

import goldenflag.cli as cli  # noqa: E402
from goldenflag.exactnum import identity  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(gen.POOLS))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_pool_request_passes_the_oracle(workload, seed):
    runner = worker.Runner(cli, identity)
    problems, skipped = {}, 0
    with tempfile.TemporaryDirectory() as work:
        requests, spec_list = gen.generate(workload, seed, Path(work))
        specs = {spec.name: spec for spec in spec_list}
        for request in requests:
            _, record = runner.execute(request.to_json())
            found, skip = run.check_request(request, record, specs, PINS)
            skipped += skip
            if found:
                problems[request.rid] = found
    event(f"oracle values skipped: {skipped}")
    assert not problems, problems
