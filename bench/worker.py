"""Benchmark worker: runs one workload's request pool in a closed loop.

Started by ``run.py`` as a child process with the path of a manifest
(JSON) that lists the generated requests.  One client, no threads: the
next request starts when the previous one has returned.  The first round
is a warm-up that records each request's output and cold latency; timed
rounds follow until the requested seconds have passed, and every repeat
must reproduce the warm-up output byte for byte.

With tracing on, timed rounds alternate untraced and traced (even and
odd round numbers); the traced rounds give the per-layer metrics and
each pair of rounds the tracing overhead.  Results go to the manifest's
``results`` path.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter


class Runner:
    def __init__(self, cli, identity) -> None:
        self.cli = cli
        self.identity = identity
        self.tracer = None

    def execute(self, request: dict) -> tuple[float, dict]:
        """Run one request; returns (latency in s, output record)."""
        if self.tracer is not None:
            self.tracer.request = request["rid"]
        stdout, stderr = io.StringIO(), io.StringIO()
        record: dict = {}
        start = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if request["kind"] == "cli":
                    record["exit"] = self.cli.main(request["argv"])
                else:
                    lower, parse = self.cli.lower_expr, self.cli.parse_expression
                    lhs = lower(parse(request["lhs"]), {}, "lhs")
                    rhs = lower(parse(request["rhs"]), {}, "rhs")
                    record["verdict"] = self.identity.verify_identity(lhs, rhs).value
        except Exception:  # a traceback is a failed request, not a dead run
            record["traceback"] = traceback.format_exc()
        latency = perf_counter() - start
        record["stdout"] = stdout.getvalue()
        record["stderr"] = stderr.getvalue()
        if request.get("out") and Path(request["out"]).exists():
            record["payload_sha256"] = hashlib.sha256(Path(request["out"]).read_bytes()).hexdigest()
        return latency, record


class SpeedProbe:
    """Samples the machine's current speed during a run.

    Shared hosts switch between fast and slow phases that last seconds,
    which moves every wall-clock time by up to half.  At most every
    ``EVERY_S`` the probe times two fixed loops (median of three runs
    each): one of plain integer arithmetic, one of ``Fraction`` and dict
    work.  The two react differently to a phase change and their sum
    tracks the program's own slowdown better than either alone, so each
    request can be scaled by the speed measured just before and just
    after it.
    """

    EVERY_S = 0.05

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    @staticmethod
    def _integers() -> float:
        start = perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * i) % 7
        return perf_counter() - start

    @staticmethod
    def _fractions() -> float:
        start = perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 60):
            acc += Fraction(i, i + 2)
            seen[i] = (acc.numerator * 3) % 1000003
        return perf_counter() - start

    def take(self) -> None:
        loops = (self._integers, self._fractions)
        self.values.append(sum(sorted(loop() for _ in range(3))[1] for loop in loops))
        self.times.append(perf_counter())

    def maybe(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= self.EVERY_S:
            self.take()

    def around(self, start: float, end: float) -> float:
        """Mean probe time of the last probe before ``start`` and the first
        after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        return (self.values[before] + self.values[after]) / 2


def _digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main(manifest_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    sys.path.insert(0, manifest["src"])
    import goldenflag.cli as cli
    from goldenflag.exactnum import identity

    requests = manifest["requests"]
    runner = Runner(cli, identity)

    first, cold, expected = {}, {}, []
    for request in requests:
        latency, record = runner.execute(request)
        first[request["rid"]] = record
        cold[request["rid"]] = latency
        expected.append(_digest(record))

    speed = SpeedProbe()
    timed: list[list[tuple[float, float]]] = [[] for _ in requests]  # (start, latency)
    mismatches = [0] * len(requests)

    def run_round() -> None:
        for i, request in enumerate(requests):
            speed.maybe()
            began = perf_counter()
            latency, record = runner.execute(request)
            timed[i].append((began, latency))
            if _digest(record) != expected[i]:
                mismatches[i] += 1

    seconds = manifest["seconds"]
    result: dict = {"first": first, "cold_latency_s": cold}
    start = perf_counter()
    if not manifest["trace"]:
        rounds = 0
        while True:
            run_round()
            rounds += 1
            if perf_counter() - start >= seconds:
                break
        result["rounds"] = rounds
    else:
        from tracer import Tracer

        per_round: list[dict] = []
        phases = []
        while True:
            run_round()
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                run_round()
            finally:
                runner.tracer = None
                tracer.uninstall()
            per_round.append(tracer.metrics())
            phases.append(tracer.phase_split())
            if perf_counter() - start >= seconds:
                break
            tracer.spans.clear()
        result["rounds"] = 2 * len(per_round)
        result["per_layer"] = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
        result["phase_split_s"] = {
            key: statistics.median(p.get(key, 0.0) for p in phases) for key in sorted({k for p in phases for k in p})
        }
        tracer.write(manifest["spans"])
        result["spans_written"] = len(tracer.spans)
    result["elapsed_s"] = perf_counter() - start
    speed.take()
    result["samples_s"] = [[latency for _, latency in t] for t in timed]
    result["probe_s"] = [[speed.around(began, began + latency) for began, latency in t] for t in timed]
    result["mismatches"] = mismatches
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(manifest["results"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
