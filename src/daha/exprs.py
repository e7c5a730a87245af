"""Expression grammar for elements, plus the presentation file format.

Grammar:

    expr       := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := atom ('^' signed-int)?
    atom       := rational | name | 'inv' '(' genproduct ')' | '(' expr ')'
    genproduct := '1' | name ('*' name)*
    rational   := int ('/' int)?

Names resolve, in order, to a generator, a coefficient parameter, or
the base-ring element `s` (cyclotomic bases only).  `inv` needs an
algebra context that can invert generator products; canonical renders
never contain it, so certificate replay can parse with no context.

The renderer and the parser are inverse enough for round trips:
rendering a parsed AST and reparsing yields a structurally equal AST,
and `NCPoly.render` output parses back to the same polynomial.

Parsing runs in three stages, each built for the large renders that
certificate replay reads back.  `tokenize` runs one master regex over
the text; the gaps between matches are whitespace, a catch-all group
catches stray characters, and each token is a plain `(kind, text, pos)`
tuple whose kind is "int", "name", "end" or the operator character
itself.  The recursive-descent parser indexes that list directly and
builds slotted AST nodes.  Evaluation works on term maps
{word: coefficient} rather than `NCPoly` objects, looks names up in
tables built once per `ast_to_ncpoly` call (generator name -> letter,
parameter or `s` and its powers -> `LaurentPoly`), and folds the
letters and single-term factors of a product straight into one word
and one coefficient; only factors with several terms are multiplied
out.

Input budgets keep hostile text from crashing or exhausting the
process: `MAX_NESTING` bounds parentheses, `MAX_TERMS` every product
and every sum, `MAX_DEGREE` the word length of every term built, and
`MAX_DIGITS` integer literals and every scalar a power, product or sum
makes.  Each refusal is a `ParseError`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .coeffring import BaseRing, LaurentPoly, ParamRing, monomial_inverse
from .errors import ParseError, PresentationError
from .ncpoly import Alphabet, NCPoly, add_terms

#: deepest parenthesis nesting accepted, well inside Python's recursion limit
MAX_NESTING = 100

#: largest product of two factors' term counts that evaluation multiplies out,
#: and most terms a sum may reach; about ten times the product of term counts
#: met in parsing x*y*z*x*y*z*x written out in x, y and z
MAX_TERMS = 250_000

#: longest word any term may reach during evaluation; far above the degrees
#: completion works at, and a certificate's render is never longer than its input
MAX_DEGREE = 1000

#: most decimal digits of an integer literal or of a scalar that `^`, a product or
#: a sum makes: Python's default limit on int/str conversion, so they still render
MAX_DIGITS = 4300

#: the smallest integer with more than MAX_DIGITS digits
_TOO_LONG = 10**MAX_DIGITS

_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/()])|(?P<stray>\S)"
)


def tokenize(text: str) -> list:
    """The tokens of `text` as (kind, text, pos) tuples, closed by an
    ("end", "", len(text)) token."""
    out = []
    append = out.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group()
        if kind == "op":
            kind = tok
        elif kind == "stray":
            raise ParseError(f"stray character {tok!r}", m.start())
        append((kind, tok, m.start()))
    append(("end", "", len(text)))
    return out


def _integer(text: str, pos: int) -> int:
    if len(text) > MAX_DIGITS:
        raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", pos)
    return int(text)


# -- AST -----------------------------------------------------------------


@dataclass(slots=True)
class Node:
    pos: int = field(compare=False)


@dataclass(slots=True)
class Num(Node):
    value: int | Fraction


@dataclass(slots=True)
class Sym(Node):
    name: str


@dataclass(slots=True)
class Inv(Node):
    names: tuple


@dataclass(slots=True)
class Pow(Node):  # pos is that of the caret
    base: Node
    exponent: int


@dataclass(slots=True)
class Prod(Node):
    factors: tuple


@dataclass(slots=True)
class Sum(Node):
    terms: tuple  # of (sign, node) with sign in {+1, -1}


class _Parser:
    """Recursive descent over a token list: each rule takes the index of
    its first token and returns its node and the index after it."""

    __slots__ = ("tokens", "depth")

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.depth = 0

    def expect(self, at: int, op: str) -> int:
        kind, _, pos = self.tokens[at]
        if kind != op:
            raise ParseError(f"expected {op!r}", pos)
        return at + 1

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self, at: int):
        tokens = self.tokens
        kind, _, start = tokens[at]
        sign = 1
        if kind == "+" or kind == "-":
            sign = -1 if kind == "-" else 1
            at += 1
        node, at = self.term(at)
        kind = tokens[at][0]
        if sign == 1 and kind != "+" and kind != "-":
            return node, at
        terms = [(sign, node)]
        while kind == "+" or kind == "-":
            node, at = self.term(at + 1)
            terms.append((-1 if kind == "-" else 1, node))
            kind = tokens[at][0]
        return Sum(start, tuple(terms)), at

    def term(self, at: int):
        tokens = self.tokens
        start = tokens[at][2]
        node, at = self.factor(at)
        if tokens[at][0] != "*":
            return node, at
        factors = [node]
        while tokens[at][0] == "*":
            node, at = self.factor(at + 1)
            factors.append(node)
        return Prod(start, tuple(factors)), at

    def factor(self, at: int):
        tokens = self.tokens
        kind, text, pos = tokens[at]
        if kind == "name" and (text != "inv" or tokens[at + 1][0] != "("):
            node = Sym(pos, text)
            at += 1
        else:
            node, at = self.atom(at)
        if tokens[at][0] != "^":
            return node, at
        caret = tokens[at][2]
        at += 1
        sign = 1
        if tokens[at][0] == "-":
            sign = -1
            at += 1
        kind, text, pos = tokens[at]
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        return Pow(caret, node, sign * _integer(text, pos)), at + 1

    def atom(self, at: int):
        """Every atom but a plain name, which `factor` reads itself."""
        tokens = self.tokens
        kind, text, pos = tokens[at]
        if kind == "int":
            value = _integer(text, pos)
            if tokens[at + 1][0] != "/":
                return Num(pos, value), at + 1
            kind, text, den_pos = tokens[at + 2]
            if kind != "int":
                raise ParseError("expected a denominator", den_pos)
            den = _integer(text, den_pos)
            if den == 0:
                raise ParseError("zero denominator", den_pos)
            return Num(pos, Fraction(value, den)), at + 3
        if kind == "name":  # inv(
            names, at = self.genproduct(at + 2)
            return Inv(pos, names), self.expect(at, ")")
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            node, at = self.expr(at + 1)
            self.depth -= 1
            return node, self.expect(at, ")")
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def genproduct(self, at: int):
        tokens = self.tokens
        kind, text, pos = tokens[at]
        if kind == "int" and text == "1":
            return (), at + 1
        names = []
        while True:
            kind, text, pos = tokens[at]
            if kind != "name":
                raise ParseError("expected a generator name", pos)
            names.append(text)
            if tokens[at + 1][0] != "*":
                return tuple(names), at + 1
            at += 2


def parse_ast(text: str) -> Node:
    tokens = tokenize(text)
    node, at = _Parser(tokens).expr(0)
    kind, rest, pos = tokens[at]
    if kind != "end":
        raise ParseError(f"trailing input {rest!r}", pos)
    return node


# -- rendering --------------------------------------------------------------


def render_ast(node: Node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Inv):
        return "inv(" + ("*".join(node.names) or "1") + ")"
    if isinstance(node, Pow):
        base = render_ast(node.base)
        if isinstance(node.base, (Sum, Prod)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Prod):
        parts = []
        for factor in node.factors:
            text = render_ast(factor)
            if isinstance(factor, Sum):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(node, Sum):
        sign, first = node.terms[0]
        first_text = render_ast(first)
        if isinstance(first, Sum):
            first_text = f"({first_text})"
        out = ("-" if sign < 0 else "") + first_text
        for sign, term in node.terms[1:]:
            text = render_ast(term)
            if isinstance(term, Sum):
                text = f"({text})"
            out += (" - " if sign < 0 else " + ") + text
        return out
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation --------------------------------------------------------------


def _digits_per_power(c: LaurentPoly) -> float:
    """A bound, per unit of exponent, on the decimal digits of every
    numerator and denominator in a power of `c`: log10 of the number of
    its nonzero rational components plus the sum of their
    log10(max(|numerator|, denominator)).  It is 0 for a root of unity."""
    parts = []
    for x in c.terms.values():
        if isinstance(x, tuple):
            parts.extend(q for q in x if q)
        else:
            parts.append(x)
    return math.log10(len(parts)) + sum(
        math.log10(max(abs(q.numerator), q.denominator)) for q in parts
    )


def _bounded(c: LaurentPoly, pos: int) -> LaurentPoly:
    """`c`, refused if a numerator or denominator in it has more than MAX_DIGITS
    digits; comparing with _TOO_LONG costs no render."""
    for x in c.terms.values():
        for q in x if isinstance(x, tuple) else (x,):
            if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
                raise ParseError(f"scalar exceeds {MAX_DIGITS} digits", pos)
    return c


class _Evaluator:
    """Evaluates AST nodes of one algebra to term maps {word: coefficient},
    with that algebra's symbol tables built once."""

    def __init__(self, alphabet: Alphabet, ring: ParamRing, inv_resolver):
        self.ring = ring
        self.inv_resolver = inv_resolver
        self.gens = {name: i for i, name in enumerate(alphabet.symbols)}
        self.consts: dict = {}  # name or (name, exponent) -> LaurentPoly
        self.one = ring.one()

    def value(self, node: Node) -> dict:
        t = type(node)
        if t is Prod:
            return self.product(node)
        if t is Sum:
            return self.sum(node)
        if t is Sym:
            i = self.gens.get(node.name)
            if i is not None:
                return {(i,): self.one}
            return {(): self.constant(node.name, node.pos)}
        if t is Num:
            c = self.ring.scalar(node.value)
            return {(): c} if c else {}
        if t is Pow:
            return self.power(node)
        if t is Inv:
            return self.inverse(node)
        raise TypeError(f"not an AST node: {node!r}")

    def constant(self, name: str, pos: int) -> LaurentPoly:
        c = self.consts.get(name)
        if c is None:
            ring = self.ring
            if name in ring.params:
                c = ring.param(name)
            elif name == "s" and ring.base.kind == "cyclotomic":
                c = ring.scalar(ring.base.generator())
            else:
                raise ParseError(f"unknown symbol {name!r}", pos)
            self.consts[name] = c
        return c

    def product(self, node: Prod) -> dict:
        # letters and single-term factors fold into one word and coefficient,
        # which join the next factor with several terms before it multiplies
        gens, one = self.gens, self.one
        word, coeff, head = [], None, None
        for factor in node.factors:
            t = type(factor)
            if t is Sym:
                i = gens.get(factor.name)
                if i is not None:
                    word.append(i)
                    continue
                c = self.constant(factor.name, factor.pos)
            elif t is Num:
                c = self.ring.scalar(factor.value)
            else:
                value = self.value(factor)
                if len(value) != 1:
                    if word or coeff is not None:
                        prefix = {tuple(word): one if coeff is None else coeff}
                        value = self.multiply(prefix, value, factor.pos)
                        word, coeff = [], None
                    head = value if head is None else self.multiply(head, value, factor.pos)
                    continue
                ((w, c),) = value.items()
                word.extend(w)
                if len(word) > MAX_DEGREE:
                    raise ParseError(f"word degree exceeds {MAX_DEGREE}", factor.pos)
                if c is one:
                    continue
            if coeff is None:
                coeff = c
            elif t is Sym or t is Pow and type(factor.base) is Sym:
                coeff = coeff * c  # a parameter or `s`, or a power of one, grows no digits
            else:
                coeff = _bounded(coeff * c, factor.pos)
        if head is None or word or coeff is not None:
            if len(word) > MAX_DEGREE:
                raise ParseError(f"word degree exceeds {MAX_DEGREE}", node.pos)
            if coeff is None:
                coeff = one
            tail = {tuple(word): coeff} if coeff else {}
            head = tail if head is None else self.multiply(head, tail, node.pos)
        return head

    def sum(self, node: Sum) -> dict:
        out: dict = {}
        for sign, term in node.terms:
            value = self.value(term).items()
            add_terms(out, value if sign > 0 else [(w, -c) for w, c in value])
            if len(out) > MAX_TERMS:
                raise ParseError(f"expansion exceeds {MAX_TERMS} terms", term.pos)
        for c in out.values():
            _bounded(c, node.pos)
        return out

    def power(self, node: Pow) -> dict:
        base, exponent, pos = node.base, node.exponent, node.pos
        if type(base) is Sym and base.name not in self.gens:
            key = (base.name, exponent)
            c = self.consts.get(key)
            if c is None:
                c = self.constant(base.name, base.pos)
                c = self.consts[key] = self.scalar_power(c, exponent, pos)
            return {(): c}
        value = self.value(base)
        if len(value) == 1 and () in value:
            return {(): self.scalar_power(value[()], exponent, pos)}
        if exponent < 0:
            raise ParseError("negative powers apply to unit scalars only", pos)
        if not value:
            return {} if exponent else {(): self.one}
        if max(map(len, value)) * exponent > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", pos)
        if len(value) == 1:
            ((w, c),) = value.items()
            return {w * exponent: self.scalar_power(c, exponent, pos)}
        out = {(): self.one}
        for _ in range(exponent):
            out = self.multiply(out, value, pos)
        return out

    def scalar_power(self, c: LaurentPoly, exponent: int, pos: int) -> LaurentPoly:
        """`c ** exponent` within the digit and term budgets."""
        if exponent < 0:
            if not c.is_unit():
                raise ParseError("negative powers apply to unit scalars only", pos)
            c, exponent = monomial_inverse(c), -exponent
        if c is self.one:
            return c
        digits = _digits_per_power(c)
        if digits and exponent >= MAX_DIGITS / digits:
            raise ParseError(f"power exceeds {MAX_DIGITS} digits", pos)
        if len(c.terms) == 1:
            return c ** exponent
        result, square = self.one, c
        while True:
            if exponent & 1:
                if len(result.terms) * len(square.terms) > MAX_TERMS:
                    raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
                result = result * square
            exponent >>= 1
            if not exponent:
                return result
            if len(square.terms) ** 2 > MAX_TERMS:
                raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
            square = square * square

    def multiply(self, left: dict, right: dict, pos: int) -> dict:
        if len(left) * len(right) > MAX_TERMS:
            raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
        if left and right and max(map(len, left)) + max(map(len, right)) > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", pos)
        out: dict = {}
        add_terms(out, [(w1 + w2, c1 * c2) for w1, c1 in left.items() for w2, c2 in right.items()])
        for c in out.values():
            _bounded(c, pos)
        return out

    def inverse(self, node: Inv) -> dict:
        if self.inv_resolver is None:
            raise ParseError("inv() needs an algebra context", node.pos)
        gens = self.gens
        for name in node.names:
            if name not in gens:
                raise ParseError(f"inv() takes generators only, got {name!r}", node.pos)
        if len(node.names) > MAX_DEGREE:
            raise ParseError(f"word degree exceeds {MAX_DEGREE}", node.pos)
        return self.inv_resolver(tuple(gens[name] for name in node.names)).terms


def ast_to_ncpoly(
    node: Node,
    alphabet: Alphabet,
    ring: ParamRing,
    inv_resolver: Optional[Callable] = None,
) -> NCPoly:
    """Evaluate an AST to an (unreduced) element of the free algebra."""
    return NCPoly(alphabet, ring, _Evaluator(alphabet, ring, inv_resolver).value(node))


def parse_expr(
    text: str,
    alphabet: Alphabet,
    ring: ParamRing,
    inv_resolver: Optional[Callable] = None,
) -> NCPoly:
    return ast_to_ncpoly(parse_ast(text), alphabet, ring, inv_resolver)


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


def _split_list(text: str) -> list:
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
    else:
        parts = text.split()
    return [part for part in parts if part]


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
    for entry in _split_list(fields["params"]):
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
