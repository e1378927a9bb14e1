"""goldenflag benchmark: one seeded workload, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload stripes --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``builtins``  - the four builtin designs through ``build`` (svg at
  scale 300, json at 60 digits, ``--width 2.4``), ``verify`` and ``ratio``;
* ``stripes``   - specs of 12-22 stripes with golden-ratio widths plus
  two of 37 and 40 with rational widths: tiling;
* ``starfield`` - one region and 20-60 stars: rendering and evaluation;
* ``radicals``  - nested radicals at 60-3000 digits and identity pairs.

The generated inputs are written before timing starts; a child process
(``worker.py``) runs them in a closed loop with one client, and this
process checks every output against ``oracle.py`` and the pinned
builtin hashes (``pins.json``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced rounds with ``--trace 1``.  The line before it is run metadata.
An unsound identity verdict aborts the run with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import oracle

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# Request latencies and import times are scaled to the speed at which
# the worker's probe loops take this long together (their median on a 2-vCPU Intel Xeon
# under Python 3.11 was about 470 us); the unscaled wall-clock figures
# are in the metadata.
NOMINAL_PROBE_S = 500e-6
# Tail percentile per workload: the highest step of the ladder that keeps
# at least ten samples beyond it in a run of 25 s on two cores.  Fixed per
# workload so that runs compare the same percentile; a run with fewer
# samples steps down the ladder and says so in its metadata.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 67.0, 50.0)
TAIL_PERCENTILE = {"builtins": 95.0, "stripes": 75.0, "starfield": 67.0, "radicals": 99.0}

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "decided_share": "share",
    "setup_s": "s",
}


class Abort(Exception):
    """The run cannot produce a trustworthy result."""


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = p / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list[float], workload: str) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail."""
    ladder = [p for p in TAIL_LADDER if p <= TAIL_PERCENTILE[workload]]
    for p in ladder:
        value = percentile(sorted_values, p)
        beyond = sum(1 for v in sorted_values if v > value)
        if beyond >= 10:
            return p, value, beyond
    p = ladder[-1]
    value = percentile(sorted_values, p)
    return p, value, sum(1 for v in sorted_values if v > value)


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(import time of ``goldenflag.cli``, probe time around it) in fresh
    interpreters, in s."""
    # Nothing but sys and time is imported before the timed import, so the
    # stdlib modules goldenflag.cli pulls in are paid for inside it.  The
    # integer probe loop (SpeedProbe._integers, inlined) runs on both sides;
    # the Fraction loop needs an import and runs only after.
    code = (
        "import sys, time\n"
        "def integers():\n"
        "    start = time.perf_counter()\n"
        "    acc = 0\n"
        "    for i in range(3000):\n"
        "        acc += (i * i) % 7\n"
        "    return time.perf_counter() - start\n"
        "before = sorted(integers() for _ in range(3))[1]\n"
        "start = time.perf_counter()\n"
        "import goldenflag.cli\n"
        "elapsed = time.perf_counter() - start\n"
        "after = sorted(integers() for _ in range(3))[1]\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from worker import SpeedProbe\n"
        "fractions = sorted(SpeedProbe._fractions() for _ in range(3))[1]\n"
        "print(repr(elapsed), repr((before + after) / 2 + fractions))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise Abort(f"importing goldenflag.cli failed:\n{done.stderr}")
        elapsed, probe = done.stdout.split()
        samples.append((float(elapsed), float(probe)))
    return samples


def run_worker(root: Path, work: Path, requests: list[gen.Request], seconds: float, trace: bool, spans: Path) -> dict:
    manifest = {
        "src": str(root / "src"),
        "seconds": seconds,
        "trace": trace,
        "requests": [r.to_json() for r in requests],
        "results": str(work / "results.json"),
        "spans": str(spans),
    }
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(path)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise Abort(f"worker did not finish within {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise Abort(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads((work / "results.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# correctness


def check_request(request: gen.Request, record: dict, specs: dict, pins: dict) -> tuple[list[str], int]:
    """Problems with one request's output, and oracle values skipped.

    Raises :class:`Abort` on an unsound identity verdict.
    """
    if "traceback" in record:
        return [f"traceback: {record['traceback'].strip().splitlines()[-1]}"], 0
    if record["stderr"]:
        return [f"stderr: {record['stderr'].strip()[:200]}"], 0
    if request.kind == "identity":
        verdict = record["verdict"]
        equal = request.check["equal"]
        if (equal and verdict == "ProvedUnequal") or (not equal and verdict == "ProvedEqual"):
            raise Abort(f"unsound verdict {verdict} on {request.rid}: {request.lhs} vs {request.rhs}")
        return [], 0
    if record["exit"] != 0:
        return [f"exit code {record['exit']}"], 0
    payload = Path(request.out).read_bytes() if request.out else b""
    if request.rid.startswith(gen.BUILTIN_NAMES):
        pin = pins.get(request.rid)
        problems = oracle.readme_facts(request.rid, record["stdout"], payload)
        got = {
            "stdout": oracle.digest(oracle.normalized_stdout(record["stdout"], request.out).encode()),
            "payload": oracle.digest(payload) if payload else None,
        }
        if pin != got:
            problems.append(f"output differs from the pinned seed-commit hashes: {got} != {pin}")
        return problems, 0
    if "tree" in request.check:
        try:
            return oracle.check_eval(request.check["tree"], request.check["digits"], record["stdout"]), 0
        except oracle.Inconclusive:
            return [], 1
    spec = specs[request.check["spec"]]
    fmt = request.check["format"]
    summary = f"{spec.name}: wrote {fmt} to {request.out} ({len(payload)} bytes)\n"
    problems = [] if record["stdout"] == summary else [f"summary line {record['stdout']!r}"]
    try:
        found, skipped = oracle.check_layout(spec, fmt, request.check["digits"], request.check["scale"], payload)
    except (ValueError, KeyError, TypeError) as exc:  # not the documented SVG/JSON shape
        return problems + [f"unreadable {fmt} output: {exc!r}"], 0
    return problems + found, skipped


def questions(request: gen.Request, record: dict) -> tuple[int, int]:
    """(certification questions asked, answered with a proof) by a request.

    ``verify`` asks one per printed check, an identity pair one and
    ``eval`` none, so that on ``radicals`` the share is identity pairs
    decided over all pairs; any other command asks whether its input
    certifies, which exit code 3 (precision-limited) leaves undecided.
    """
    if request.kind == "identity":
        return 1, int(record.get("verdict") != "Undecided")
    if request.argv[0] == "eval":
        return 0, 0
    if request.argv[0] == "verify":
        statuses = [line.split()[0] for line in record["stdout"].splitlines()[:-1] if line]
        return len(statuses), sum(1 for s in statuses if s != "Undecided")
    return 1, int(record.get("exit") != 3)


# ---------------------------------------------------------------------------
# metadata


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, to identify a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "goldenflag").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    work_root = root / ".bench_work"
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    try:
        requests, spec_list = gen.generate(workload, seed, work)
        specs = {spec.name: spec for spec in spec_list}
        setup = [] if trace else measure_setup(root)
        spans = work_root / f"spans-{workload}-{seed}.jsonl.gz"
        results = run_worker(root, work, requests, seconds, trace, spans)
        pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))

        attempted = failed = asked = decided = skipped = 0
        problems: dict[str, list[str]] = {}
        for i, request in enumerate(requests):
            record = results["first"][request.rid]
            runs = len(results["samples_s"][i])
            found, skip = check_request(request, record, specs, pins)
            skipped += skip
            # a wrong first output fails every run; otherwise the repeats that differ
            failed += runs if found else results["mismatches"][i]
            if results["mismatches"][i]:
                found.append(f"{results['mismatches'][i]} repeats differ from the first output")
            if found:
                problems[request.rid] = found
            attempted += runs
            q, d = questions(request, record)
            asked += q * runs
            decided += d * runs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # latencies at nominal machine speed (see SpeedProbe in worker.py)
    scaled = [
        [latency * NOMINAL_PROBE_S / probe for latency, probe in zip(samples, probes)]
        for samples, probes in zip(results["samples_s"], results["probe_s"])
    ]
    flat = sorted(x for row in scaled for x in row)
    raw = sorted(x for row in results["samples_s"] for x in row)
    p, tail_value, beyond = tail(flat, workload)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
        "pool_requests": len(requests),
        "rounds": results["rounds"],
        "samples": len(flat),
        "elapsed_s": results["elapsed_s"],
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "failed_share": failed / attempted,
        "oracle_values_skipped": skipped,
        "setup_samples_s": [elapsed for elapsed, _ in setup],
        "setup_probe_s": [probe for _, probe in setup],
        "nominal_probe_s": NOMINAL_PROBE_S,
        "probe_median_s": statistics.median(x for row in results["probe_s"] for x in row),
        "wall_clock": {
            "throughput_rps": len(raw) / results["elapsed_s"],
            "latency_p50_ms": 1000 * statistics.median(raw),
            "latency_tail_ms": 1000 * percentile(raw, p),
        },
        "cold_first_round_ms": {rid: round(1000 * t, 3) for rid, t in results["cold_latency_s"].items()},
        "request_p50_ms": {r.rid: round(1000 * statistics.median(row), 3) for r, row in zip(requests, scaled)},
        "problems": problems,
    }
    if trace:
        meta["phase_split_s"] = results["phase_split_s"]
        meta["spans_file"] = str(spans.relative_to(root))
        meta["spans_written"] = results["spans_written"]
        metrics = dict(sorted(results["per_layer"].items()))
        # rounds alternate untraced (even) and traced (odd)
        pairs = len(scaled[0]) // 2
        metrics["trace.overhead_share"] = statistics.median(
            sum(row[2 * k + 1] for row in scaled) / sum(row[2 * k] for row in scaled) - 1 for k in range(pairs)
        )
    else:
        metrics = {
            "throughput_rps": len(flat) / sum(flat),
            "latency_p50_ms": 1000 * statistics.median(flat),
            "latency_tail_ms": 1000 * tail_value,
            "peak_rss_mb": results["peak_rss_kb"] / 1024,
            "ok_share": (attempted - failed) / attempted,
            "decided_share": decided / asked,
            "setup_s": statistics.median(elapsed * NOMINAL_PROBE_S / probe for elapsed, probe in setup),
        }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return meta, summary


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "per_call")):
        return "share" if name.endswith("_share") else "count"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "goldenflag" / "cli.py").is_file():
        print("bench: run from the root of a goldenflag checkout (src/goldenflag/cli.py not found)", file=sys.stderr)
        return 2
    try:
        meta, summary = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except Abort as exc:
        print(f"bench: aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
