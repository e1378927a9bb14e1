"""Outside-in tracer: timing wrappers bound over the module attributes
that callers look up.

The program is not changed.  Because every module imports the names it
calls (``from .exactnum import certified_sign``), one function is reached
through several module attributes; the tracer rebinds each of them, and
the binding a call went through names the calling layer.  Spans (parent
id, name, start, end, request) are kept in memory and written out when
the run ends.  ``exactnum.golden``, ``exactnum.rational`` and
``exactnum.interval`` get no wrappers: a wrapper per arithmetic operation
would cost more than the operation, so their time shows inside the
``eval_interval``, ``certified_sign`` and ``compare_values`` spans.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> bucket of per-layer metrics; one entry per wrapped name
SPAN_METRICS = {
    "flagspec.lexer.tokenize": "flagspec.lexer.tokenize_s",
    "flagspec.parser.parse": "flagspec.parser.parse_s",
    "flagspec.lower": "flagspec.lower.self_s",
    "constructions.FlagLayout.create": "constructions.FlagLayout.create_s",
    "constructions.cut_lines": "constructions.cut_lines_s",
    "constructions.build_flag": "constructions.build_flag_s",
    "constructions.verify_layout_identities": "constructions.verify_layout_identities_s",
    "constructions.verify_angle_configuration": "constructions.verify_angle_configuration_s",
    "exactnum.identity.compare_values": "exactnum.identity.compare_values.s",
    "exactnum.identity.verify_identity": "exactnum.identity.verify_identity.s",
    "exactnum.expr.certified_sign": "exactnum.expr.certified_sign.s",
    "exactnum.expr.eval_interval": "exactnum.expr.eval_interval.s",
    "exactnum.decimalfmt.decimal_str": "exactnum.decimalfmt.decimal_str.s",
    "render.svg_emit": "render.svg_emit_s",
    "render.json_emit": "render.json_emit_s",
    "geometry.pentagram_vertices": "geometry.pentagram_vertices_s",
    "cli.main": "cli.main.self_s",
}

# layers whose module attribute ``certified_sign`` is rebound
CALLERS = ("expr", "constructions", "geometry", "identity")

# Phases for the layer split: a span's self time is charged to the
# innermost phase span around it (itself included).
PHASES = {
    "flagspec.lexer.tokenize": "frontend",
    "flagspec.parser.parse": "frontend",
    "flagspec.lower": "frontend",
    "constructions.build_flag": "build",
    "constructions.FlagLayout.create": "tiling",
    "render.svg_emit": "render",
    "render.json_emit": "render",
    "constructions.verify_layout_identities": "verify",
    "constructions.verify_angle_configuration": "verify",
    "exactnum.identity.verify_identity": "verify",
}


def dag_nodes(root, expr_type) -> int:
    """Distinct nodes reachable from ``root``, by an explicit-stack walk
    (the program's own walkers recurse and overflow on deep chains)."""
    seen: set[int] = set()
    stack = [root]
    fields: dict[type, tuple[str, ...]] = {}
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node)
        names = fields.get(kind)
        if names is None:
            names = fields[kind] = tuple(f.name for f in dataclasses.fields(node))
        for name in names:
            child = getattr(node, name)
            if isinstance(child, expr_type):
                stack.append(child)
    return len(seen)


class Tracer:
    """Spans and counters for one traced pass; ``install`` rebinds the
    module attributes and ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (parent, name, start, end, request)
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = ""
        self.excluded = 0.0  # tracer bookkeeping time removed from spans
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            excluded = tracer.excluded
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                if after is not None:
                    after(args, None, exc)
                raise
            else:
                end = perf_counter()
                if after is not None:
                    after(args, result, None)
            finally:
                tracer.stack.pop()
                end -= tracer.excluded - excluded
                tracer.spans[sid] = (parent, name, start, end, tracer.request)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn, predicate=None):
        """Count calls, or with ``predicate`` the results it accepts."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            if predicate is None:
                counters[name] += 1
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            if predicate(result):
                counters[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        m = {name: sys.modules[f"goldenflag.{name}"] for name in (
            "cli", "render", "geometry", "constructions", "flagspec.parser", "flagspec.lower",
            "exactnum.expr", "exactnum.identity", "exactnum.decimalfmt",
        )}
        c = self.counters
        expr_type = m["exactnum.expr"].Expr
        straddles = m["exactnum.expr"].iv.StraddlesZero

        def wrap_all(owners, attr, name, after=None):
            for owner in owners:
                self._patch(owner, attr, self._span(name, getattr(owner, attr), after))

        # front end
        wrap_all([m["flagspec.parser"]], "tokenize", "flagspec.lexer.tokenize")
        wrap_all([m["flagspec.parser"]], "parse", "flagspec.parser.parse")
        wrap_all([m["cli"]], "parse_expression", "flagspec.parser.parse")
        wrap_all([m["flagspec.lower"]], "lower", "flagspec.lower")
        wrap_all([m["flagspec.lower"], m["cli"]], "lower_expr", "flagspec.lower")

        # constructions and tiling
        layout = m["constructions"].FlagLayout
        original_create = layout.__dict__["create"].__func__
        self._patches.append((layout, "create", layout.__dict__["create"]))
        layout.create = staticmethod(self._span("constructions.FlagLayout.create", original_create))

        def after_cut_lines(args, result, exc):
            c["constructions.cut_lines.values"] += len(args[0])

        wrap_all([m["constructions"]], "_certified_distinct_sorted", "constructions.cut_lines", after_cut_lines)
        wrap_all([m["cli"]], "build_flag", "constructions.build_flag")
        wrap_all([m["cli"]], "verify_layout_identities", "constructions.verify_layout_identities")
        wrap_all([m["cli"]], "verify_angle_configuration", "constructions.verify_angle_configuration")

        # identity verifier
        def after_compare(args, result, exc):
            c["exactnum.identity.compare_values.calls"] += 1
            if result is not None:
                key = {"ProvedEqual": "equal", "ProvedUnequal": "unequal"}.get(result.value, "undecided")
                c[f"exactnum.identity.compare_values.{key}"] += 1

        wrap_all([m["constructions"], m["geometry"], m["exactnum.identity"]], "compare_values",
                 "exactnum.identity.compare_values", after_compare)

        def after_verify(args, result, exc):
            c["exactnum.identity.verify_identity.calls"] += 1

        wrap_all([m["constructions"], m["exactnum.identity"]], "verify_identity",
                 "exactnum.identity.verify_identity", after_verify)
        for owner in (m["exactnum.identity"], m["constructions"]):
            self._patch(owner, "square_of", self._counter("exactnum.identity.square_of.calls", owner.square_of))

        # certified signs, split by the layer that asked
        def sign_wrapper(span, caller):
            def wrapper(*args, **kwargs):
                decided = c["exactnum.expr.exact_sign.decided"]
                try:
                    return span(*args, **kwargs)
                finally:
                    c["exactnum.expr.certified_sign.calls"] += 1
                    c[f"exactnum.expr.certified_sign.from_{caller}.calls"] += 1
                    c["exactnum.expr.certified_sign.exact"] += c["exactnum.expr.exact_sign.decided"] - decided

            return wrapper

        self._patch(m["exactnum.expr"], "exact_sign", self._counter(
            "exactnum.expr.exact_sign.decided", m["exactnum.expr"].exact_sign, lambda r: r is not None))
        owners = {
            "expr": m["exactnum.expr"],
            "constructions": m["constructions"],
            "geometry": m["geometry"],
            "identity": m["exactnum.identity"],
        }
        for caller, owner in owners.items():
            span = self._span(f"exactnum.expr.certified_sign@{caller}", owner.certified_sign)
            self._patch(owner, "certified_sign", sign_wrapper(span, caller))

        # interval kernel
        def eval_wrapper(fn):
            span = self._span("exactnum.expr.eval_interval", fn)

            def wrapper(x, working_bits):
                mark = perf_counter()
                c["exactnum.dag.nodes"] += dag_nodes(x, expr_type)
                self.excluded += perf_counter() - mark
                c["exactnum.expr.eval_interval.calls"] += 1
                c["exactnum.expr.eval_interval.max_bits"] = max(c["exactnum.expr.eval_interval.max_bits"], working_bits)
                try:
                    return span(x, working_bits)
                except straddles:
                    c["exactnum.expr.eval_interval.straddles"] += 1
                    raise

            return wrapper

        for owner in (m["exactnum.expr"], m["exactnum.identity"]):
            self._patch(owner, "eval_interval", eval_wrapper(owner.eval_interval))
        fmt = m["exactnum.decimalfmt"]
        self._patch(fmt, "eval_interval", self._counter("exactnum.decimalfmt.attempts", eval_wrapper(fmt.eval_interval)))
        self._patch(fmt, "exact_rational", self._counter(
            "exactnum.decimalfmt.exact", fmt.exact_rational, lambda r: r is not None))

        # decimal rendering and emitters
        def decimal_wrapper(owner, coords: bool):
            span = self._span("exactnum.decimalfmt.decimal_str", owner.decimal_str)

            def wrapper(*args, **kwargs):
                exact, attempts = c["exactnum.decimalfmt.exact"], c["exactnum.decimalfmt.attempts"]
                try:
                    return span(*args, **kwargs)
                finally:
                    c["exactnum.decimalfmt.decimal_str.calls"] += 1
                    c["exactnum.decimalfmt.decimal_str.exact"] += c["exactnum.decimalfmt.exact"] - exact
                    c["exactnum.decimalfmt.decimal_str.attempts"] += c["exactnum.decimalfmt.attempts"] - attempts
                    if coords:
                        c["render.coords"] += 1

            return wrapper

        for owner in (m["render"], m["constructions"], m["cli"]):
            self._patch(owner, "decimal_str", decimal_wrapper(owner, owner is m["render"]))

        def after_emit(args, result, exc):
            if result is not None:
                c["render.bytes"] += len(result)

        wrap_all([m["cli"]], "svg_emit", "render.svg_emit", after_emit)
        wrap_all([m["cli"]], "json_emit", "render.json_emit", after_emit)
        wrap_all([m["render"]], "pentagram_vertices", "geometry.pentagram_vertices")
        wrap_all([m["cli"]], "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def _self(self) -> list[float]:
        """Self time of each span: its duration minus its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for (_, name, _, _, _), seconds in zip(self.spans, self._self()):
            totals[name] += seconds
        return totals

    def phase_split(self) -> dict[str, float]:
        """Self time by phase (see ``PHASES``); spans outside every phase
        count as ``eval`` when under ``decimal_str`` and ``other`` else."""
        phase_of: list[str] = []
        split: dict[str, float] = defaultdict(float)
        for (parent, name, _, _, _), seconds in zip(self.spans, self._self()):
            inherited = phase_of[parent] if parent >= 0 else "other"
            if name in PHASES:
                phase = PHASES[name]
            elif inherited == "other" and name == "exactnum.decimalfmt.decimal_str":
                phase = "eval"
            else:
                phase = inherited
            phase_of.append(phase)
            split[phase] += seconds
        return dict(split)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (times are self times in s)."""
        totals = self.self_times()
        out: dict[str, float] = {metric: 0.0 for metric in SPAN_METRICS.values()}
        c = self.counters
        for caller in CALLERS:
            out[f"exactnum.expr.certified_sign.from_{caller}.s"] = 0.0
            out[f"exactnum.expr.certified_sign.from_{caller}.calls"] = c[f"exactnum.expr.certified_sign.from_{caller}.calls"]
        for name, seconds in totals.items():
            base, _, caller = name.partition("@")
            if base in SPAN_METRICS:
                out[SPAN_METRICS[base]] += seconds
            if caller:
                out[f"exactnum.expr.certified_sign.from_{caller}.s"] += seconds
        for key in (
            "constructions.cut_lines.values",
            "exactnum.identity.compare_values.calls",
            "exactnum.identity.compare_values.equal",
            "exactnum.identity.compare_values.unequal",
            "exactnum.identity.compare_values.undecided",
            "exactnum.identity.verify_identity.calls",
            "exactnum.identity.square_of.calls",
            "exactnum.expr.certified_sign.calls",
            "exactnum.decimalfmt.decimal_str.calls",
            "exactnum.expr.eval_interval.calls",
            "exactnum.expr.eval_interval.straddles",
            "exactnum.expr.eval_interval.max_bits",
            "exactnum.dag.nodes",
            "render.bytes",
            "render.coords",
        ):
            out[key] = c[key]
        signs = c["exactnum.expr.certified_sign.calls"]
        out["exactnum.expr.certified_sign.exact_share"] = c["exactnum.expr.certified_sign.exact"] / signs if signs else 0.0
        calls = c["exactnum.decimalfmt.decimal_str.calls"]
        out["exactnum.decimalfmt.decimal_str.exact_share"] = c["exactnum.decimalfmt.decimal_str.exact"] / calls if calls else 0.0
        out["exactnum.decimalfmt.decimal_str.attempts_per_call"] = (
            c["exactnum.decimalfmt.decimal_str.attempts"] / calls if calls else 0.0
        )
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, name, start, end, request."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (parent, name, start, end, request) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, round(start, 9), round(end, 9), request]) + "\n")
