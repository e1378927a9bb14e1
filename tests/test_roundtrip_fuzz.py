"""Front-end totality under mutation fuzzing: tokenizing, parsing and
lowering end in a layout or a package error."""

from __future__ import annotations

import random
import string
import time

import pytest

from goldenflag.constructions import FlagLayout
from goldenflag.errors import FlagSpecError, GoldenFlagError
from goldenflag.flagspec import lower_source

_MUTATION_ALPHABET = string.ascii_letters + string.digits + ' \n\t(){};=+-*/."#_@$%\\'


def _mutate(source: str, rng: random.Random) -> str:
    text = source
    for _ in range(rng.randint(1, 4)):
        if not text:
            text = rng.choice(_MUTATION_ALPHABET)
            continue
        op = rng.randrange(6)
        pos = rng.randrange(len(text))
        if op == 0:  # replace one character
            text = text[:pos] + rng.choice(_MUTATION_ALPHABET) + text[pos + 1 :]
        elif op == 1:  # insert one character
            text = text[:pos] + rng.choice(_MUTATION_ALPHABET) + text[pos:]
        elif op == 2:  # delete a slice
            end = min(len(text), pos + rng.randint(1, 12))
            text = text[:pos] + text[end:]
        elif op == 3:  # duplicate a slice
            end = min(len(text), pos + rng.randint(1, 12))
            text = text[:pos] + text[pos:end] + text[pos:]
        elif op == 4:  # truncate
            text = text[:pos]
        else:  # swap two characters
            other = rng.randrange(len(text))
            chars = list(text)
            chars[pos], chars[other] = chars[other], chars[pos]
            text = "".join(chars)
    return text


def _assert_total(source: str) -> None:
    """lower_source either builds a layout or raises a package error, a
    language error with a position; any other exception fails."""
    try:
        result = lower_source(source)
    except GoldenFlagError as exc:
        if isinstance(exc, FlagSpecError):
            assert exc.line >= 1
            assert exc.col >= 1
        return
    assert isinstance(result, FlagLayout)


class TestFuzz:
    def test_thousand_mutated_sources_parse_or_fail_with_position(self, spec_sources):
        rng = random.Random(20260811)
        originals = list(spec_sources.values())
        slowest = 0.0
        for index in range(1000):
            source = _mutate(originals[index % len(originals)], rng)
            started = time.monotonic()
            _assert_total(source)
            slowest = max(slowest, time.monotonic() - started)
        assert slowest < 5.0

    def test_random_garbage_is_also_total(self):
        rng = random.Random(7)
        for _ in range(200):
            garbage = "".join(
                rng.choice(_MUTATION_ALPHABET) for _ in range(rng.randrange(0, 120))
            )
            _assert_total(garbage)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "flag",
            'flag "x"',
            'flag "x" {',
            "(" * 4000,
            '"' ,
            "#only a comment",
        ],
        ids=["empty", "bare", "no-brace", "unclosed", "paren-bomb", "quote", "comment"],
    )
    def test_degenerate_inputs(self, source):
        _assert_total(source)
