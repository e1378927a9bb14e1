"""Correctness oracle that shares no code with the program under test.

Values are recomputed from the generator's expression trees with the
standard library's ``decimal`` module at two precisions well above the
printed digits; trigonometry comes from Taylor series, not from the
pentagon closed forms the program uses.  A printed decimal is accepted
only if it equals the round-half-even rendering that both precisions
agree on.  Values too close to a rounding tie for that to be conclusive
are reported as skipped, never as correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext

GUARD_DIGITS = (30, 60)


class Inconclusive(Exception):
    """The oracle cannot certify this rounding at its precisions."""


# ---------------------------------------------------------------------------
# decimal evaluation of generator trees


def evaluate(e: tuple, env: dict[str, Decimal]) -> Decimal:
    """Value of a generator tree in the current decimal context."""
    kind = e[0]
    if kind == "num":
        return Decimal(e[1].numerator) / Decimal(e[1].denominator)
    if kind == "phi":
        return (1 + Decimal(5).sqrt()) / 2
    if kind == "ref":
        return env[e[1]]
    if kind == "sqrt":
        value = evaluate(e[1], env)
        if value < 0:
            raise ValueError("generator produced a negative radicand")
        return value.sqrt()
    lhs, rhs = evaluate(e[1], env), evaluate(e[2], env)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "*":
        return lhs * rhs
    return lhs / rhs


def _pi() -> Decimal:
    """pi in the current context (the series recipe from the decimal
    module's documentation)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series for cos and sin in the current context, |x| <= pi."""
    with localcontext() as ctx:
        ctx.prec += 8
        eps = Decimal(10) ** (-ctx.prec)
        cos = sin = Decimal(0)
        term = Decimal(1)  # x**k / k!
        k = 0
        while k < 2 or abs(term) > eps:
            r = k % 4
            if r == 0:
                cos += term
            elif r == 1:
                sin += term
            elif r == 2:
                cos -= term
            else:
                sin -= term
            k += 1
            term = term * x / k
    return +cos, +sin


def star_unit_vectors() -> list[tuple[Decimal, Decimal, bool]]:
    """Boundary directions of a point-up {5/2} star, counterclockwise from
    the top: (cos, sin, outer) at 90 + 36*j degrees."""
    pi = _pi()
    vectors = []
    for j in range(10):
        degrees = (90 + 36 * j + 180) % 360 - 180
        c, s = _cos_sin(pi * degrees / 180)
        vectors.append((c, s, j % 2 == 0))
    return vectors


# ---------------------------------------------------------------------------
# certified rounding in the program's output format


def plain(value: Decimal) -> str:
    """Plain decimal notation with trailing fractional zeros trimmed."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def _round_at(value: Decimal, digits: int, guard: int) -> str:
    """Round half-even to ``digits`` significant digits; ``value`` carries
    about ``guard`` more digits, so a value closer to a tie than half of
    those is inconclusive."""
    if value != 0:
        with localcontext() as ctx:
            ctx.prec = digits + guard
            scaled = abs(value).scaleb(digits - 1 - value.adjusted())
            frac = scaled - scaled.to_integral_value(rounding=ROUND_FLOOR)
            if abs(frac - Decimal("0.5")) < Decimal(10) ** (-(guard // 2)):
                raise Inconclusive(f"{value} is within {guard // 2} digits of a tie")
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return plain(+value)


def certified_digits(compute, digits: int) -> str:
    """Round-half-even rendering of ``compute()`` to ``digits`` significant
    digits, agreed on by two working precisions."""
    results = []
    for guard in GUARD_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits + guard
            value = compute()
        results.append(_round_at(value, digits, guard))
    if results[0] != results[1]:
        raise Inconclusive(f"precisions disagree: {results}")
    return results[1]


# ---------------------------------------------------------------------------
# layout coordinates for generated specs


def spec_coordinates(spec, scale_text: str) -> dict:
    """Every emitted number of a generated spec, in emission order, as
    decimals in the current context: canvas, ratio, region corners and
    star centres, radii and vertices (screen orientation, scaled)."""
    scale = Decimal(scale_text)
    env: dict[str, Decimal] = {}
    for name, e in spec.lets:
        env[name] = evaluate(e, env)
    width = evaluate(spec.canvas[0], env)
    height = evaluate(spec.canvas[1], env)
    regions = []
    for _, _, x, y, w, h in spec.regions:
        x0, y0 = evaluate(x, env), evaluate(y, env)
        x1, y1 = x0 + evaluate(w, env), y0 + evaluate(h, env)
        regions.append([(x0 * scale, y1 * scale), (x1 * scale, y1 * scale), (x1 * scale, y0 * scale), (x0 * scale, y0 * scale)])
    stars = []
    units = star_unit_vectors() if spec.stars else []
    phi2 = ((1 + Decimal(5).sqrt()) / 2) ** 2
    for _, cx, cy, diameter in spec.stars:
        x, y = evaluate(cx, env), evaluate(cy, env)
        radius = evaluate(diameter, env) / 2
        vertices = []
        for c, s, outer in units:
            r = radius if outer else radius / phi2
            vertices.append(((x + r * c) * scale, (y - r * s) * scale))
        stars.append({"center": (x * scale, y * scale), "radius": radius * scale, "vertices": vertices})
    return {
        "width": width * scale,
        "height": height * scale,
        "ratio": width / height,
        "regions": regions,
        "stars": stars,
    }


def _flatten(coords: dict, fmt: str) -> list[tuple[str, Decimal]]:
    items = [("canvas width", coords["width"]), ("canvas height", coords["height"])]
    if fmt == "json":
        items.append(("ratio", coords["ratio"]))
    for i, corners in enumerate(coords["regions"]):
        for k, (x, y) in enumerate(corners):
            items += [(f"region {i} corner {k} x", x), (f"region {i} corner {k} y", y)]
    for i, star in enumerate(coords["stars"]):
        if fmt == "json":
            items += [(f"star {i} centre x", star["center"][0]), (f"star {i} centre y", star["center"][1])]
            items.append((f"star {i} circumradius", star["radius"]))
        for k, (x, y) in enumerate(star["vertices"]):
            items += [(f"star {i} vertex {k} x", x), (f"star {i} vertex {k} y", y)]
    return items


_POLYGON = re.compile(r'<polygon points="([^"]*)"')
_SIZE = re.compile(r'<svg [^>]*width="([^"]*)" height="([^"]*)" viewBox="0 0 ([^ "]*) ([^"]*)"')


def emitted_numbers(payload: bytes, fmt: str) -> list[str]:
    """The decimal strings of an SVG or JSON payload in emission order."""
    text = payload.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        found = [doc["canvas"]["width"], doc["canvas"]["height"], doc["ratio"]]
        for region in doc["regions"]:
            found += [c for vertex in region["vertices"] for c in vertex]
        for star in doc["stars"]:
            found += star["center"] + [star["circumradius"]]
            found += [c for vertex in star["vertices"] for c in vertex]
        return found
    size = _SIZE.search(text)
    if size is None or size.group(1, 2) != size.group(3, 4):
        raise ValueError("svg header does not carry matching size and viewBox")
    found = [size.group(1), size.group(2)]
    for points in _POLYGON.findall(text):
        found += [c for pair in points.split(" ") for c in pair.split(",")]
    return found


def check_layout(spec, fmt: str, digits: int, scale: str, payload: bytes) -> tuple[list[str], int]:
    """Compare every emitted number with the oracle.

    Returns (mismatch descriptions, number of values skipped as
    inconclusive).
    """
    got = emitted_numbers(payload, fmt)
    renderings = []
    for guard in GUARD_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits + guard
            items = _flatten(spec_coordinates(spec, scale), fmt)
        row = []
        for _, value in items:
            try:
                row.append(_round_at(value, digits, guard))
            except Inconclusive:
                row.append(None)
        renderings.append(row)
    if len(got) != len(items):
        return [f"{len(got)} numbers emitted, {len(items)} expected"], 0
    problems, skipped = [], 0
    for (label, _), value, a, b in zip(items, got, *renderings):
        if a is None or a != b:
            skipped += 1
        elif value != b:
            problems.append(f"{label}: got {value}, expected {b}")
    return problems, skipped


def check_eval(tree: tuple, digits: int, stdout: str) -> list[str]:
    expected = certified_digits(lambda: evaluate(tree, {}), digits)
    if stdout != expected + "\n":
        return [f"eval printed {stdout.strip()[:40]}..., expected {expected[:40]}..."]
    return []


# ---------------------------------------------------------------------------
# builtins: README facts and hashes pinned from the seed commit


def normalized_stdout(stdout: str, out: str | None) -> str:
    return stdout.replace(out, "<out>") if out else stdout


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_facts(rid: str, stdout: str, payload: bytes) -> list[str]:
    """Facts the README states about the builtin designs."""
    problems = []
    name, command = rid.split("/")
    text = payload.decode("utf-8") if payload else ""
    if command == "ratio" and name == "chile-1818" and stdout != "1.80171\n":
        problems.append(f"chile-1818 ratio printed {stdout!r}, README says 1.80171")
    if command == "ratio" and name == "nepal-ratio" and not stdout.startswith("0.820"):
        problems.append(f"nepal-ratio ratio printed {stdout!r}, README says 0.820...")
    if command == "build-svg300" and name == "chile-current" and 'viewBox="0 0 900 600"' not in text:
        problems.append('chile-current at scale 300 lacks viewBox="0 0 900 600"')
    if command == "build-width2.4" and ' width="2.4" ' not in text:
        problems.append(f"{name} built with --width 2.4 does not have width 2.4")
    if command == "verify" and not stdout.endswith("checks passed\n"):
        problems.append(f"{name} verify did not pass every check")
    return problems
