r"""Expression grammar for elements, plus the presentation file format.

Grammar:

    expr       := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := atom ('^' signed-int)?
    atom       := rational | name | 'inv' '(' genproduct ')' | '(' expr ')'
    genproduct := '1' | name ('*' name)*
    rational   := int ('/' int)?

Names resolve, in order, to a generator, a coefficient parameter, or the
base-ring element `s` (cyclotomic bases only).  `inv` needs an algebra
context that can invert a generator.  `NCPoly.render` output parses
back to the same polynomial; replay reads it with its own smaller reader.

Parsing is one `findall` of a master regex, after one `search` that refuses
the first stray character, and a recursive-descent parser that evaluates as
it reads and reports the first error met left to right, at a token index that
`parse_expr` turns into a character position only when it raises.

Input budgets keep hostile text from crashing or exhausting the process.
`_Parser.multiply` forms every product, a power's squares and the one-letter
inverses of `inv(word)` among them, and `ncpoly.MAX_TERMS` bounds its
factors' scalar term counts (every Laurent term of every coefficient) as it
bounds every sum.  `MAX_NESTING` bounds parentheses, `ncpoly.MAX_DEGREE` the
word length of every term built, `coeffring.MAX_DIGITS` integer literals and
every scalar a product or sum makes, and `coeffring.EXPONENT_LIMIT` every
parameter exponent that a power or product makes.  Each refusal is a
`ParseError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from .coeffring import MAX_DIGITS, BaseRing, LaurentPoly, ParamRing, monomial_inverse, too_long
from .errors import ExponentRangeError, ParseError, PresentationError
from .ncpoly import MAX_DEGREE, MAX_TERMS, Alphabet, NCPoly, add_terms

#: deepest parenthesis nesting accepted, well inside Python's recursion limit
MAX_NESTING = 100

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^/()]")

#: a stray character: the exact complement of whitespace and _TOKEN's classes
_STRAY = re.compile(r"[^\s\dA-Za-z_+\-*^/()]")


def tokenize(text: str) -> list:
    """The tokens of `text` as strings, closed by an empty end token."""
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"stray character {stray.group()!r}", stray.start())
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _integer(text: str, pos: int) -> int:
    if len(text) > MAX_DIGITS:
        raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", pos)
    return int(text)


def _bounded(terms: dict, pos: int) -> dict:
    """`terms`, refused if a numerator or denominator in it has over MAX_DIGITS digits."""
    if any(map(too_long, terms.values())):
        raise ParseError(f"scalar exceeds {MAX_DIGITS} digits", pos)
    return terms


class _Parser:
    """Plain recursive descent over a token list that evaluates as it reads:
    a sum adds its terms and a product multiplies its factors, left to
    right.  Each rule takes the index of its first token and returns the
    term map of the text it read, the token its errors report (the first
    token of a sum or product, the caret of a power, for parentheses that of
    the expression inside) and the index after it.  Every product goes
    through `multiply`, which refuses one that passes a budget at the token
    it is given: the factor being multiplied in, a power's caret or `inv`.
    Its errors carry a token index."""

    __slots__ = ("tokens", "depth", "alphabet", "ring", "inv_resolver", "gens", "one")

    def __init__(self, tokens: list, alphabet: Alphabet, ring: ParamRing, inv_resolver):
        self.tokens = tokens
        self.depth = 0
        self.alphabet = alphabet
        self.ring = ring
        self.inv_resolver = inv_resolver
        self.gens = {name: i for i, name in enumerate(alphabet.symbols)}
        self.one = ring.one()

    def expect(self, at: int, op: str) -> int:
        if self.tokens[at] != op:
            raise ParseError(f"expected {op!r}", at)
        return at + 1

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self, at: int):
        tokens = self.tokens
        start = at
        negate = tokens[at] == "-"
        if negate or tokens[at] == "+":
            at += 1
        value, pos, at = self.term(at)
        op = tokens[at]
        if not negate and op != "+" and op != "-":
            return value, pos, at
        out: dict = {}
        while True:
            add_terms(out, [(w, -c) for w, c in value.items()] if negate else value.items())
            if len(out) > MAX_TERMS:
                raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
            if op != "+" and op != "-":
                break
            negate = op == "-"
            value, pos, at = self.term(at + 1)
            op = tokens[at]
        return _bounded(out, start), start, at

    # term := factor ('*' factor)*
    def term(self, at: int):
        start = at
        value, pos, at = self.factor(at)
        if self.tokens[at] != "*":
            return value, pos, at
        while self.tokens[at] == "*":
            right, pos, at = self.factor(at + 1)
            value = self.multiply(value, right, pos)
        return value, start, at

    # factor := atom ('^' signed-int)?
    def factor(self, at: int):
        tokens = self.tokens
        pos, text = at, tokens[at]
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            value, pos, at = self.expr(at + 1)
            self.depth -= 1
            at = self.expect(at, ")")
        elif text.isdecimal():
            c, at = self.number(at)
            value = {(): c} if c else {}
        elif not text.isidentifier():
            raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
        elif text == "inv" and tokens[at + 1] == "(":
            value, at = self.inverse(at + 2, pos)
        else:
            i = self.gens.get(text)
            value = {(): self.constant(text, pos)} if i is None else {(i,): self.one}
            at += 1
        if tokens[at] != "^":
            return value, pos, at
        exponent, caret, at = self.exponent(at)
        return self.power(value, exponent, caret), caret, at

    def number(self, at: int):
        """rational := int ('/' int)?, as a constant and the index after it."""
        tokens = self.tokens
        value = _integer(tokens[at], at)
        if tokens[at + 1] != "/":
            return self.ring.scalar(value), at + 1
        at += 2
        if not tokens[at].isdecimal():
            raise ParseError("expected a denominator", at)
        den = _integer(tokens[at], at)
        if den == 0:
            raise ParseError("zero denominator", at)
        return self.ring.scalar(Fraction(value, den)), at + 1

    def exponent(self, at: int):
        """The signed integer after the caret at `at`, the caret's index, the next index."""
        tokens = self.tokens
        caret = at
        at += 1
        sign = 1
        if tokens[at] == "-":
            sign = -1
            at += 1
        if not tokens[at].isdecimal():
            raise ParseError("expected an integer exponent", at)
        return sign * _integer(tokens[at], at), caret, at + 1

    def inverse(self, at: int, pos: int):
        """genproduct := '1' | name ('*' name)*, read from just after `inv(`
        through ')': the inverse's term map and the index after it.  Errors
        but syntax ones report `pos`, that of `inv`."""
        if self.inv_resolver is None:
            raise ParseError("inv() needs an algebra context", pos)
        tokens, gens = self.tokens, self.gens
        word = []
        if tokens[at] == "1":
            at += 1
        else:
            while True:
                text = tokens[at]
                if not text.isidentifier():
                    raise ParseError("expected a generator name", at)
                i = gens.get(text)
                if i is None:
                    raise ParseError(f"inv() takes generators only, got {text!r}", pos)
                word.append(i)
                at += 1
                if tokens[at] != "*":
                    break
                at += 1
        if len(word) > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", pos)
        at = self.expect(at, ")")
        value = {(): self.one}
        for g in reversed(word):
            value = self.multiply(value, self.inv_resolver((g,)).terms, pos)
        return value, at

    def constant(self, name: str, pos: int) -> LaurentPoly:
        ring = self.ring
        if name in ring.params:
            return ring.param(name)
        if name == "s" and ring.base.n is not None:
            return ring.scalar(ring.base.generator())
        raise ParseError(f"unknown symbol {name!r}", pos)

    def power(self, value: dict, exponent: int, pos: int) -> dict:
        """`value ** exponent` by square and multiply through `multiply`, once the
        word degree is checked.  Only a unit scalar takes a negative exponent."""
        if exponent < 0:
            if len(value) != 1 or () not in value or not value[()].is_unit():
                raise ParseError("negative powers apply to unit scalars only", pos)
            try:
                value, exponent = {(): monomial_inverse(value[()])}, -exponent
            except ExponentRangeError as exc:
                raise ParseError(str(exc), pos) from None
        if value and max(map(len, value)) * exponent > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", pos)
        result, square = {(): self.one}, value
        while True:
            if exponent & 1:
                result = self.multiply(result, square, pos)
            exponent >>= 1
            if not exponent:
                return result
            square = self.multiply(square, square, pos)

    def multiply(self, left: dict, right: dict, pos: int) -> dict:
        """The product of two term maps, refused at `pos` past a budget; a
        factor's scalar term count counts every Laurent term of every coefficient."""
        if sum(len(c.terms) for c in left.values()) * sum(
            len(c.terms) for c in right.values()
        ) > MAX_TERMS:
            raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
        if left and right and max(map(len, left)) + max(map(len, right)) > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", pos)
        alphabet, ring = self.alphabet, self.ring
        try:
            out = (NCPoly(alphabet, ring, left) * NCPoly(alphabet, ring, right)).terms
        except ExponentRangeError as exc:
            raise ParseError(str(exc), pos) from None
        return _bounded(out, pos)


def parse_expr(
    text: str,
    alphabet: Alphabet,
    ring: ParamRing,
    inv_resolver: Optional[Callable] = None,
) -> NCPoly:
    """The (unreduced) element of the free algebra that `text` denotes."""
    tokens = tokenize(text)
    try:
        terms, _, at = _Parser(tokens, alphabet, ring, inv_resolver).expr(0)
        if tokens[at]:
            raise ParseError(f"trailing input {tokens[at]!r}", at)
    except ParseError as exc:  # scan again up to the token it names; past the end, len(text)
        m = next(islice(_TOKEN.finditer(text), exc.pos, None), None)
        raise ParseError(exc.message, len(text) if m is None else m.start()) from None
    return NCPoly(alphabet, ring, terms)


# -- presentation files --------------------------------------------------------


@dataclass(frozen=True)
class PresentationSpec:
    """Parsed form of a presentation file; semantic checks happen when an
    algebra is built from it."""

    name: str
    base: BaseRing
    params: tuple  # of (name, invertible)
    generators: tuple
    rules: tuple  # of (lhs_text, rhs_text)
    order: tuple | None


def _split_list(text: str, gap: str = r"\s+") -> list:
    """Comma-separated entries, or without a comma those between `gap` matches."""
    parts = text.split(",") if "," in text else re.split(gap, text)
    return [part.strip() for part in parts if part.strip()]


def load_presentation(text: str) -> PresentationSpec:
    """Parse the three-section presentation format.

    Sections: [algebra] with keys name, base (optional), params,
    generators; [rules] with one `word = expression` line per rule;
    [order] (optional) with key permutation.  Unknown sections or keys
    are rejected so typos fail loudly.
    """
    sections: dict[str, list] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise PresentationError(f"duplicate section [{current}] (line {lineno})")
            sections[current] = []
            continue
        if current is None:
            raise PresentationError(f"content before any section (line {lineno})")
        if "=" not in line:
            raise PresentationError(f"expected key = value (line {lineno})")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip(), lineno))

    unknown = set(sections) - {"algebra", "rules", "order"}
    if unknown:
        raise PresentationError(f"unknown sections: {', '.join(sorted(unknown))}")
    if "algebra" not in sections:
        raise PresentationError("missing [algebra] section")
    if "rules" not in sections:
        raise PresentationError("missing [rules] section")

    fields = {}
    for key, value, lineno in sections["algebra"]:
        if key not in ("name", "base", "params", "generators"):
            raise PresentationError(f"unknown [algebra] key {key!r} (line {lineno})")
        if key in fields:
            raise PresentationError(f"duplicate [algebra] key {key!r} (line {lineno})")
        fields[key] = value
    for key in ("name", "params", "generators"):
        if key not in fields:
            raise PresentationError(f"missing [algebra] key {key!r}")

    try:
        base = BaseRing.from_description(fields.get("base", "rationals"))
    except ValueError as exc:
        raise PresentationError(str(exc)) from None

    params = []
    for entry in _split_list(fields["params"], r"\s+(?!inv\b)"):  # `Q inv` is one entry
        words = entry.split()
        if len(words) == 1:
            params.append((words[0], False))
        elif len(words) == 2 and words[1] == "inv":
            params.append((words[0], True))
        else:
            raise PresentationError(f"bad parameter entry {entry!r}")

    generators = tuple(_split_list(fields["generators"]))
    rules = tuple((key, value) for key, value, _ in sections["rules"])
    if not rules:
        raise PresentationError("empty [rules] section")

    order = None
    if "order" in sections:
        entries = sections["order"]
        if len(entries) != 1 or entries[0][0] != "permutation":
            raise PresentationError("[order] takes exactly one key, permutation")
        order = tuple(_split_list(entries[0][1]))

    return PresentationSpec(
        name=fields["name"],
        base=base,
        params=tuple(params),
        generators=generators,
        rules=rules,
        order=order,
    )
