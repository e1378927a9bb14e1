"""Seeded input generators for the benchmark workloads.

Stdlib only and independent of ``goldenflag``: every expression is built
here as a small tuple tree, printed as spec-language text for the
program, and kept as a tree so that ``oracle.py`` can evaluate it with
``decimal`` on its own.  The same seed gives byte-identical inputs.

Each workload is a *pool*: one round of requests whose structure (sizes,
orientations, offset styles, verdict kinds, digit counts) is fixed by
the workload, while the seed picks the concrete numbers, forms and the
request order.  Stratifying the pool this way keeps the cost of a round
steady across seeds, so the seed varies the inputs without varying what
the run measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BUILTIN_NAMES = ("chile-1818", "chile-current", "togo", "nepal-ratio")

# ---------------------------------------------------------------------------
# expression trees: ("num", Fraction) | ("phi",) | ("ref", name)
#                 | ("sqrt", e) | (op, lhs, rhs) for op in + - * /


def num(value) -> tuple:
    return ("num", Fraction(value))


PHI = ("phi",)


def sqrt(e: tuple) -> tuple:
    return ("sqrt", e)


def ref(name: str) -> tuple:
    return ("ref", name)


def add(a, b):
    return ("+", a, b)


def sub(a, b):
    return ("-", a, b)


def mul(a, b):
    return ("*", a, b)


def div(a, b):
    return ("/", a, b)


def total(terms: list[tuple]) -> tuple:
    """Left-nested sum, printed without parentheses."""
    acc = terms[0]
    for term in terms[1:]:
        acc = add(acc, term)
    return acc


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(e: tuple) -> int:
    if e[0] in _PREC:
        return _PREC[e[0]]
    if e[0] == "num" and e[1].denominator != 1:
        return 2  # printed as a quotient
    return 3


def text(e: tuple) -> str:
    """Spec-language text that parses back to exactly this tree shape."""
    kind = e[0]
    if kind == "num":
        q = e[1]
        if q < 0:
            raise ValueError("generators emit nonnegative literals only")
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if kind == "phi":
        return "phi"
    if kind == "ref":
        return e[1]
    if kind == "sqrt":
        return f"sqrt({text(e[1])})"
    p = _PREC[kind]
    lhs, rhs = text(e[1]), text(e[2])
    if _prec(e[1]) < p:
        lhs = f"({lhs})"
    if _prec(e[2]) <= p:  # right operand of a left-associative operator
        rhs = f"({rhs})"
    return f"{lhs} {kind} {rhs}"


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    """One request of a pool.

    ``kind`` is ``cli`` (argv for ``goldenflag.cli.main``) or
    ``identity`` (two expression texts for ``verify_identity``).
    ``check`` holds what the oracle needs; it never reaches the program.
    """

    rid: str
    kind: str
    argv: list[str] = field(default_factory=list)
    out: str | None = None
    lhs: str | None = None
    rhs: str | None = None
    check: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rid": self.rid,
            "kind": self.kind,
            "argv": self.argv,
            "out": self.out,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class Spec:
    """A generated ``.flag`` file with the trees the oracle evaluates."""

    name: str
    canvas: tuple[tuple, tuple]
    lets: list[tuple[str, tuple]]
    regions: list[tuple[str, str, tuple, tuple, tuple, tuple]]
    stars: list[tuple[str, tuple, tuple, tuple]]

    def source(self) -> str:
        lines = [f'flag "{self.name}" {{', f"  canvas {text(self.canvas[0])} x {text(self.canvas[1])};"]
        for name, e in self.lets:
            lines.append(f"  let {name} = {text(e)};")
        for name, color, x, y, w, h in self.regions:
            lines.append(f"  region {name} {color} rect {text(x)} {text(y)} {text(w)} {text(h)};")
        for color, cx, cy, diameter in self.stars:
            lines.append(f"  star {color} at {text(cx)} {text(cy)} diameter {text(diameter)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builtins: the README's CLI traffic on the four shipped designs


def builtins_pool(seed: int, work: Path) -> tuple[list[Request], list[Spec]]:
    requests = []
    for name in BUILTIN_NAMES:
        for variant, extra, suffix in (
            ("svg300", ["--scale", "300"], "svg"),
            ("json60", ["--digits", "60"], "json"),
            ("width2.4", ["--width", "2.4"], "svg"),
        ):
            out = str(work / f"{name}-{variant}.{suffix}")
            requests.append(
                Request(f"{name}/build-{variant}", "cli", ["build", name, "--out", out, *extra], out)
            )
        requests.append(Request(f"{name}/verify", "cli", ["verify", name]))
        requests.append(Request(f"{name}/ratio", "cli", ["ratio", name]))
    random.Random(seed).shuffle(requests)
    return requests, []


# ---------------------------------------------------------------------------
# stripes: many equal and unequal cut lines, so tiling dominates

# Golden-ratio width forms.  Equal values written differently
# (1/phi == phi - 1, phi == (1+sqrt(5))/2) make cut-line deduplication
# see both verdicts.
WIDTH_FORMS = {
    "phi": PHI,
    "1/phi": div(num(1), PHI),
    "phi-1": sub(PHI, num(1)),
    "2phi": mul(num(2), PHI),
    "(1+sqrt5)/2": div(add(num(1), sqrt(num(5))), num(2)),
    "sqrt5/2": div(sqrt(num(5)), num(2)),
    "sqrt5": sqrt(num(5)),
    "3-phi": sub(num(3), PHI),
    "2/phi": div(num(2), PHI),
}
_RATIONALS = (Fraction(1, 2), Fraction(3, 4), Fraction(2, 3), Fraction(5, 4), Fraction(4, 3), Fraction(5, 3))
_COLORS = ("red", "white", "blue", "green", "yellow")

# One round of the stripes pool: (N, vertical, offset style, width forms,
# dimension across the stripes), where "q" stands for a seeded rational.
# Chain specs give a quarter of their stripes a rational width and share
# the rest among their forms.  The cost-setting structure is fixed; the
# seed picks the rationals, the stripe order, colours and scale.  Small N
# is denser so that a round stays near 4 s on two cores while still
# reaching 40 stripes.
STRIPES_SLOTS = (
    (12, True, "chain", ("phi", "1/phi", "sqrt5/2"), "q"),
    (12, False, "chain", ("phi-1", "2phi", "sqrt5"), "q"),
    (15, True, "chain", ("(1+sqrt5)/2", "2/phi", "3-phi"), "q"),
    (14, False, "product", ("1/phi",), "q"),
    (15, True, "product", ("sqrt5",), "phi"),
    (17, False, "product", ("2phi",), "q"),
    (18, True, "product", ("phi-1",), "q"),
    (22, True, "product", ("phi",), "q"),
    (37, False, "product", ("q",), "q"),
    (40, True, "product", ("q",), "2phi"),
)


def _form(rng: random.Random, name: str) -> tuple:
    return num(rng.choice(_RATIONALS) * 3) if name == "q" else WIDTH_FORMS[name]


def stripes_spec(rng: random.Random, index: int, slot) -> Spec:
    n, vertical, style, forms, across_form = slot
    across = _form(rng, across_form)
    if style == "product":
        w = _form(rng, forms[0])
        lets = [("w", w)]
        widths = [ref("w")] * n
        offsets = [num(0)] + [mul(num(i), ref("w")) for i in range(1, n)]
        length = mul(num(n), w)
    else:
        palette = [WIDTH_FORMS[name] for name in forms] + [num(rng.choice(_RATIONALS))]
        lets = [(f"w{k}", e) for k, e in enumerate(palette)]
        rational = round(n / 4)
        picks = [len(forms)] * rational + [i % len(forms) for i in range(n - rational)]
        rng.shuffle(picks)
        widths = [ref(f"w{k}") for k in picks]
        offsets = [num(0)]
        for i in range(1, n):
            lets.append((f"o{i}", add(offsets[-1], widths[i - 1])))
            offsets.append(ref(f"o{i}"))
        length = total([palette[k] for k in picks])
    colors = [rng.choice(_COLORS) for _ in range(n)]
    regions = []
    for i in range(n):
        if vertical:
            regions.append((f"s{i}", colors[i], offsets[i], num(0), widths[i], across))
        else:
            regions.append((f"s{i}", colors[i], num(0), offsets[i], across, widths[i]))
    canvas = (length, across) if vertical else (across, length)
    return Spec(f"stripes-{index}", canvas, lets, regions, [])


def stripes_pool(seed: int, work: Path) -> tuple[list[Request], list[Spec]]:
    rng = random.Random(seed)
    requests, specs = [], []
    for index, slot in enumerate(STRIPES_SLOTS):
        spec = stripes_spec(rng, index, slot)
        specs.append(spec)
        path = work / f"{spec.name}.flag"
        out = str(work / f"{spec.name}.svg")
        scale = rng.choice(("300", "120", "250"))
        requests.append(
            Request(
                f"{spec.name}/svg",
                "cli",
                ["build", str(path), "--out", out, "--scale", scale],
                out,
                check={"spec": spec.name, "format": "svg", "digits": 12, "scale": scale},
            )
        )
    rng.shuffle(requests)
    return requests, specs


# ---------------------------------------------------------------------------
# starfield: one rational region, many stars at phi-dependent centres

# One request per spec: (stars, format, digits).  Every format and digit
# count appears; small specs are denser so that a round stays near 4 s
# on two cores while still reaching 60 stars.
STARFIELD_SLOTS = (
    (20, "svg", 12),
    (20, "json", 60),
    (21, "json", 12),
    (22, "svg", 60),
    (24, "svg", 12),
    (26, "json", 12),
    (28, "json", 60),
    (60, "svg", 60),
)

# Centre steps near 0.1, each a shared phi-dependent subterm, and star
# diameters; every spec uses each in turn, in a seeded order.
_STEPS = (("g", div(PHI, num(16))), ("h", div(num(1), mul(num(6), PHI))), ("r", div(sqrt(num(5)), num(22))))
_DIAMETERS = (num(Fraction(1, 10)), div(PHI, num(20)), div(num(1), mul(num(8), PHI)), div(sqrt(num(5)), num(30)))


def _inside(rng: random.Random, extent: Fraction, step: str) -> tuple:
    """``a + j*step`` for a step within 0.01 of 1/10 and a rational ``a``
    chosen so the value lies well inside (0, extent)."""
    j = rng.randint(1, 6)
    target = Fraction(rng.randint(15, 85), 100) * extent
    a = Fraction(round((target - Fraction(j, 10)) * 100), 100)
    term = mul(num(j), ref(step))
    return add(num(a), term) if a >= 0 else sub(term, num(-a))


def _cycled(rng: random.Random, items, n: int) -> list:
    picks = [items[i % len(items)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def starfield_spec(rng: random.Random, index: int, slot) -> Spec:
    n = slot[0]
    width = num(rng.choice((3, Fraction(5, 2), 4)))
    height = num(rng.choice((2, Fraction(5, 3), Fraction(9, 4))))
    steps = [name for name, _ in _STEPS]
    stars = []
    for sx, sy, diameter in zip(_cycled(rng, steps, n), _cycled(rng, steps, n), _cycled(rng, _DIAMETERS, n)):
        cx = _inside(rng, width[1], sx)
        cy = _inside(rng, height[1], sy)
        stars.append((rng.choice(_COLORS), cx, cy, diameter))
    regions = [("field", rng.choice(("blue", "red", "green")), num(0), num(0), width, height)]
    return Spec(f"starfield-{index}", (width, height), list(_STEPS), regions, stars)


def starfield_pool(seed: int, work: Path) -> tuple[list[Request], list[Spec]]:
    rng = random.Random(seed)
    requests, specs = [], []
    for index, slot in enumerate(STARFIELD_SLOTS):
        spec = starfield_spec(rng, index, slot)
        specs.append(spec)
        path = work / f"{spec.name}.flag"
        scale = rng.choice(("100", "120", "250"))
        _, fmt, digits = slot
        out = str(work / f"{spec.name}.{fmt}")
        requests.append(
            Request(
                f"{spec.name}/{fmt}{digits}",
                "cli",
                ["build", str(path), "--out", out, "--scale", scale, "--digits", str(digits)],
                out,
                check={"spec": spec.name, "format": fmt, "digits": digits, "scale": scale},
            )
        )
    rng.shuffle(requests)
    return requests, specs


# ---------------------------------------------------------------------------
# radicals: nested-radical evaluation and identity pairs, no spec files

_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


def _nested_radical(rng: random.Random, depth: int, shape: int) -> tuple:
    """A positive radical nested ``depth`` levels, in one of three shapes."""
    e = num(rng.choice(_SQUAREFREE))
    for _ in range(depth):
        e = sqrt(add(num(rng.randint(1, 30)), mul(num(rng.randint(1, 5)), sqrt(e))))
    if shape == 0:
        return e
    other = sqrt(num(rng.choice(_SQUAREFREE)))
    if shape == 1:
        return div(add(e, PHI), add(num(rng.randint(1, 9)), other))
    return add(mul(e, other), div(num(rng.randint(1, 9)), PHI))


def _identity_pair(rng: random.Random, kind: str) -> tuple[tuple, tuple]:
    """Two expressions equal by construction, of a given proof shape."""
    if kind == "sum_of_roots":  # outside one quadratic tower: Undecided today
        # squarefree, distinct and prime to 5, so neither a*b nor a*b/5 is a
        # square and no root falls into the a + b*sqrt5 field
        a, b = rng.sample([q for q in _SQUAREFREE if q % 5], 2)
        lhs = add(sqrt(num(a)), sqrt(num(b)))
        rhs = sqrt(add(num(a + b), mul(num(2), sqrt(num(a * b)))))
        return lhs, rhs
    if kind == "golden":  # the a + b*sqrt5 field: k*phi^2 = k*phi + k
        k = rng.randint(2, 9)
        return mul(num(k), mul(PHI, PHI)), add(mul(num(k), PHI), num(k))
    if kind == "conjugate":  # one quadratic extension: (a + b sqrt r)(a - b sqrt r)
        r = rng.choice(_SQUAREFREE)
        b = rng.randint(1, 4)
        a = b * (int(r**0.5) + 1) + rng.randint(1, 5)
        root = mul(num(b), sqrt(num(r)))
        return mul(add(num(a), root), sub(num(a), root)), num(a * a - b * b * r)
    if kind == "denest":  # sqrt((s + t sqrt r)^2) written expanded
        r = rng.choice(_SQUAREFREE)
        s, t = rng.randint(1, 6), rng.randint(1, 4)
        lhs = sqrt(add(num(s * s + t * t * r), mul(num(2 * s * t), sqrt(num(r)))))
        return lhs, add(num(s), mul(num(t), sqrt(num(r))))
    raise ValueError(kind)


# One round: evaluations at each digit count (depth and shape fixed per
# slot, numbers seeded), and every identity kind as equal pairs and as
# pairs perturbed by a multiple of 10**-20 (unequal).  Each slot appears
# REPEATS times with fresh numbers, so that the seed's numbers average
# out of the round's latency distribution.
EVAL_SLOTS = ((60, 2, 0), (60, 3, 1), (600, 2, 2), (600, 3, 0), (3000, 2, 1), (3000, 3, 2))
IDENTITY_KINDS = ("sum_of_roots", "golden", "conjugate", "denest")
PERTURBATION_DIGITS = 20
REPEATS = 4


def radicals_pool(seed: int, work: Path) -> tuple[list[Request], list[Spec]]:
    rng = random.Random(seed)
    requests = []
    for k in range(REPEATS):
        for digits, depth, shape in EVAL_SLOTS:
            e = _nested_radical(rng, depth, shape)
            requests.append(
                Request(
                    f"eval-{digits}-{depth}-{shape}-{k}",
                    "cli",
                    ["eval", text(e), "--digits", str(digits)],
                    check={"tree": e, "digits": digits},
                )
            )
        for kind in IDENTITY_KINDS:
            for equal in (True, False):
                lhs, rhs = _identity_pair(rng, kind)
                if not equal:
                    rhs = add(rhs, num(Fraction(rng.randint(1, 9), 10**PERTURBATION_DIGITS)))
                requests.append(
                    Request(
                        f"identity-{kind}-{'eq' if equal else 'ne'}-{k}",
                        "identity",
                        lhs=text(lhs),
                        rhs=text(rhs),
                        check={"equal": equal, "lhs": lhs, "rhs": rhs},
                    )
                )
    rng.shuffle(requests)
    return requests, []


POOLS = {
    "builtins": builtins_pool,
    "stripes": stripes_pool,
    "starfield": starfield_pool,
    "radicals": radicals_pool,
}


def generate(workload: str, seed: int, work: Path) -> tuple[list[Request], list[Spec]]:
    """Write the workload's ``.flag`` files under ``work`` and return the
    request pool plus the specs (for the oracle)."""
    work.mkdir(parents=True, exist_ok=True)
    requests, specs = POOLS[workload](seed, work)
    for spec in specs:
        (work / f"{spec.name}.flag").write_text(spec.source(), encoding="utf-8")
    return requests, specs
