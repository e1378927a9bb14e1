"""Tests of the benchmark itself; run from the root of a checkout with
``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def _snapshot(workload: str, seed: int, work: Path) -> tuple[str, dict[str, bytes]]:
    requests, _ = gen.generate(workload, seed, work)
    listing = json.dumps([r.to_json() for r in requests]).replace(str(work), "<work>")
    return listing, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.POOLS))
def test_generators_are_byte_deterministic_per_seed(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    again = _snapshot(workload, 7, tmp_path / "b")
    other = _snapshot(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_generated_text_keeps_the_tree_shape():
    tree = gen.div(gen.sub(gen.num(3), gen.sub(gen.PHI, gen.num(1))), gen.mul(gen.num(gen.Fraction(2, 3)), gen.PHI))
    assert gen.text(tree) == "(3 - (phi - 1)) / (2/3 * phi)"


def _run_twice(workload: str, tmp_path: Path, trace: bool) -> list[dict]:
    results = []
    for name in ("one", "two"):
        work = tmp_path / name
        requests, _ = gen.generate(workload, 3, work)
        got = run.run_worker(ROOT, work, requests, 0, trace, work / "spans.jsonl.gz")
        for record in got["first"].values():
            record["stdout"] = record["stdout"].replace(str(work), "<work>")
        results.append(got)
    return results


@pytest.mark.parametrize("workload", ["builtins", "radicals"])
def test_two_untraced_runs_give_identical_outputs_and_counters(workload, tmp_path):
    one, two = _run_twice(workload, tmp_path, trace=False)
    assert one["first"] == two["first"]
    assert one["mismatches"] == two["mismatches"] == [0] * len(one["mismatches"])
    assert [len(s) for s in one["samples_s"]] == [len(s) for s in two["samples_s"]]


def test_two_traced_runs_give_identical_counters(tmp_path):
    one, two = _run_twice("radicals", tmp_path, trace=True)
    counts = {k for k in one["per_layer"] if not k.endswith(("_s", ".s", "overhead_share"))}
    assert counts
    assert {k: one["per_layer"][k] for k in counts} == {k: two["per_layer"][k] for k in counts}
    assert one["per_layer"]["exactnum.expr.eval_interval.max_bits"] > 1000


def test_oracle_rejects_a_wrong_digit(tmp_path):
    requests, specs = gen.generate("starfield", 4, tmp_path)
    request = next(r for r in requests if r.check["format"] == "svg")
    spec = next(s for s in specs if s.name == request.check["spec"])
    results = run.run_worker(ROOT, tmp_path, [request], 0, False, tmp_path / "spans.jsonl.gz")
    record = results["first"][request.rid]
    assert run.check_request(request, record, {spec.name: spec}, {}) == ([], 0)
    payload = Path(request.out).read_bytes()
    marker = payload.index(b'points="') + len(b'points="')
    digit = payload[marker : marker + 1]
    wrong = b"1" if digit != b"1" else b"2"
    problems, _ = oracle.check_layout(
        spec, "svg", request.check["digits"], request.check["scale"], payload[:marker] + wrong + payload[marker + 1 :]
    )
    assert problems


def test_tail_steps_down_when_samples_are_few():
    values = sorted(float(i) for i in range(1, 31))
    p, value, beyond = run.tail(values, "builtins")
    assert (p, beyond) == (67.0, 10)
    values = sorted(float(i) for i in range(1, 401))
    p, value, beyond = run.tail(values, "builtins")
    assert p == 95.0 and beyond >= 10
