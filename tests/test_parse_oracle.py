"""The term-pattern parser against the tokenizer and recursive descent.

The oracle is the parser parse_element used to be: a regex tokenizer
and a recursive descent over term ((+|-) term)*.  On seeded strings
over an alphabet that reaches every branch of both (digits, the
operators, whitespace, a non-ASCII digit, stray characters, an
exponent past the limit and a zero denominator), the two must accept
and reject the same strings and give the same values, over one field
of each kind.  The one difference is deliberate: a term that names g
over a field without a generator is rejected even as g^0, which the
oracle let through because it skipped the generator at exponent 0.
"""

import random
import re
from fractions import Fraction

from discarr import Cyclotomic, Galois, Prime, Quadratic, Rational
from discarr.exactfield import FieldDescriptor, FieldElement, ParseError, embed, parse_element

_TOKEN_RE = re.compile(r"\s*(\d+|[g+\-*/^])")


def _tokenize(s: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {s[pos:].strip()[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def oracle_parse(s: str, fd: FieldDescriptor) -> FieldElement:
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty element", 0)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_number() -> tuple[Fraction, int]:
        tok, pos = take()
        if not tok.isdigit():
            raise ParseError("expected a number", pos)
        value = Fraction(int(tok))
        if peek() == "/":
            take()
            tok2, pos2 = take() if idx < len(tokens) else (None, pos)
            if tok2 is None or not tok2.isdigit():
                raise ParseError("expected denominator", pos2)
            if int(tok2) == 0:
                raise ParseError("zero denominator", pos2)
            value /= int(tok2)
        return value, pos

    def parse_gpower() -> int:
        tok, pos = take()
        assert tok == "g"
        if peek() == "^":
            take()
            if idx >= len(tokens) or not tokens[idx][0].isdigit():
                raise ParseError("expected exponent", tokens[idx - 1][1])
            etok, _ = take()
            return int(etok)
        return 1

    result = fd.zero()
    first = True
    while idx < len(tokens):
        sign = 1
        if peek() in ("+", "-"):
            tok, pos = take()
            sign = -1 if tok == "-" else 1
        elif not first:
            raise ParseError("expected + or - between terms", tokens[idx][1])
        first = False
        if peek() is None:
            raise ParseError("dangling sign", tokens[idx - 1][1])
        if peek() == "g":
            power = parse_gpower()
            coeff = Fraction(1)
        else:
            coeff, pos = parse_number()
            power = 0
            if peek() == "*":
                take()
                if peek() != "g":
                    raise ParseError("expected g after *", tokens[idx - 1][1])
                power = parse_gpower()
        if power > 10**6:
            raise ParseError("exponent too large", 0)
        if fd.characteristic() == 0:
            term = embed(sign * coeff, fd)
        else:
            if coeff.denominator != 1:
                raise ParseError("fractional coefficient in finite field", 0)
            term = fd.from_int(sign * coeff.numerator)
        if power:
            term = term * (fd.generator() ** power)
        result = result + term
    return result


# _DIGIT draws one of "0".."9", so a long digit run, and with it an
# exponent near the 10^6 limit, stays rare; the weights favour the
# characters of well-formed terms so that several thousand strings parse
_DIGIT = object()
ALPHABET = (_DIGIT, "g", "+", "-", "*", "/", "^", " ", "\t", "٣", "@", "x",
            "g^1000001", "/0")
WEIGHTS = (6, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
NO_GENERATOR = (Rational(), Prime(7))
FIELDS = NO_GENERATOR + (Quadratic(-3), Cyclotomic(8), Galois(2, (1, 1, 1)),
                         Galois(3, (1, 0, 1)))


def _outcome(parse, text, fd):
    try:
        return parse(text, fd)
    except ParseError as exc:
        assert type(exc.position) is int
        return ParseError


def _text(rng: random.Random) -> str:
    items = rng.choices(ALPHABET, WEIGHTS, k=rng.randint(0, 14))
    return "".join(str(rng.randrange(10)) if c is _DIGIT else c for c in items)


def test_term_pattern_matches_recursive_descent():
    rng = random.Random(15)
    accepted = 0
    for _ in range(20000):
        text = _text(rng)
        for fd in FIELDS:
            got = _outcome(parse_element, text, fd)
            if fd in NO_GENERATOR and "g" in text:
                # every g in an accepted string names g in some term
                assert got is ParseError, (text, fd)
                continue
            want = _outcome(oracle_parse, text, fd)
            assert (got is ParseError) == (want is ParseError), (text, fd, got, want)
            if want is not ParseError:
                assert got == want, (text, fd)
                accepted += 1
    assert accepted > 5000
