"""One-off scaling report for tiling: N horizontal stripes, golden-ratio
widths against rational widths.  Not a gated workload.

For N in 8, 16, 32 and 64 it lowers (parse, certify, tiling check) and
renders a spec of N stripes of width ``2*phi`` or ``3/2``, in one
process, taking the fastest of ``REPEATS`` untraced runs, then makes
one traced run for the layer split.  Two spellings of the golden-ratio
width are measured because their cost differs: ``let w = 2*phi;`` with
offsets ``i*w`` (one shared width node) and ``2*phi`` written out at
every offset.  Run from the root of a checkout::

    python3 bench/scaling.py > bench/scaling-report.json
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

import goldenflag.cli  # noqa: E402,F401  (the tracer wraps its attributes)
from goldenflag.flagspec import lower_source  # noqa: E402
from goldenflag.render import RenderOptions, svg_emit  # noqa: E402

from tracer import Tracer  # noqa: E402

WIDTHS = {"phi": "2*phi", "rational": "3/2"}
SIZES = (8, 16, 32, 64)
REPEATS = 2


def stripes(n: int, width: str, shared: bool) -> str:
    lines = [f'flag "stripes-{n}" {{', f"  canvas 3 x {n}*({width});"]
    if shared:
        lines.append(f"  let w = {width};")
    w = "w" if shared else f"({width})"
    for i in range(n):
        offset = f"{i}*{w}" if i else "0"
        lines.append(f"  region s{i} red rect 0 {offset} 3 {w};")
    return "\n".join(lines + ["}"]) + "\n"


def measure(source: str) -> dict:
    lower_s, render_s = [], []
    for _ in range(REPEATS):
        start = perf_counter()
        layout = lower_source(source)
        lower_s.append(perf_counter() - start)
        start = perf_counter()
        svg_emit(layout, RenderOptions(scale=300))
        render_s.append(perf_counter() - start)
    tracer = Tracer()
    tracer.install()
    try:
        svg_emit(lower_source(source), RenderOptions(scale=300))
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    return {
        "lower_s": min(lower_s),
        "render_s": min(render_s),
        "traced_phase_self_s": {k: round(v, 6) for k, v in sorted(tracer.phase_split().items())},
        "compare_values_calls": layer["exactnum.identity.compare_values.calls"],
        "certified_sign_calls": layer["exactnum.expr.certified_sign.calls"],
        "certified_sign_s": round(layer["exactnum.expr.certified_sign.s"], 6),
        "compare_values_s": round(layer["exactnum.identity.compare_values.s"], 6),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    rows = []
    for n in SIZES:
        for form, width in WIDTHS.items():
            spellings = (("shared let", True), ("inline", False)) if form == "phi" else (("shared let", True),)
            for spelling, shared in spellings:
                row = {"n": n, "width": width, "spelling": spelling}
                row.update(measure(stripes(n, width, shared)))
                rows.append(row)
                print(json.dumps(row), file=sys.stderr, flush=True)
    report = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "rows": rows,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
