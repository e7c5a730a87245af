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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .coeffring import BaseRing, LaurentPoly, ParamRing, monomial_inverse
from .errors import ParseError, PresentationError
from .ncpoly import Alphabet, NCPoly, add_terms

_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/()])"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


def tokenize(text: str) -> list:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}", pos)
        kind = m.lastgroup
        out.append(Token(kind, m.group(kind), pos))
        pos = m.end()
    out.append(Token("end", "", n))
    return out


# -- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: Fraction


@dataclass(frozen=True)
class Sym(Node):
    name: str


@dataclass(frozen=True)
class Inv(Node):
    names: tuple


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int


@dataclass(frozen=True)
class Prod(Node):
    factors: tuple


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple  # of (sign, node) with sign in {+1, -1}


#: deepest parenthesis nesting accepted, well inside Python's recursion limit
MAX_NESTING = 100

#: largest product of two factors' term counts that evaluation multiplies out;
#: about ten times that of x*y*z*x*y*z*x written out in x, y and z
MAX_TERMS = 250_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.at = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.at]

    def take(self) -> Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.take()

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self) -> Node:
        start = self.peek().pos
        sign = 1
        if self.peek().kind == "op" and self.peek().text in "+-":
            sign = -1 if self.take().text == "-" else 1
        terms = [(sign, self.term())]
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = -1 if self.take().text == "-" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(start, tuple(terms))

    def term(self) -> Node:
        start = self.peek().pos
        factors = [self.factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(start, tuple(factors))

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.take()
                sign = -1
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("expected an integer exponent", tok.pos)
            self.take()
            node = Pow(node.pos, node, sign * int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            value = Fraction(int(tok.text))
            if self.peek().kind == "op" and self.peek().text == "/":
                self.take()
                den = self.peek()
                if den.kind != "int":
                    raise ParseError("expected a denominator", den.pos)
                self.take()
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                value /= int(den.text)
            return Num(tok.pos, value)
        if tok.kind == "name":
            self.take()
            if tok.text == "inv" and self.peek().kind == "op" and self.peek().text == "(":
                self.take()
                names = self.genproduct()
                self.expect_op(")")
                return Inv(tok.pos, names)
            return Sym(tok.pos, tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def genproduct(self) -> tuple:
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.take()
            return ()
        names = []
        while True:
            tok = self.peek()
            if tok.kind != "name":
                raise ParseError("expected a generator name", tok.pos)
            self.take()
            names.append(tok.text)
            if self.peek().kind == "op" and self.peek().text == "*":
                self.take()
                continue
            return tuple(names)


def parse_ast(text: str) -> Node:
    parser = _Parser(text)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
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


def ast_to_ncpoly(
    node: Node,
    alphabet: Alphabet,
    ring: ParamRing,
    inv_resolver: Optional[Callable] = None,
) -> NCPoly:
    """Evaluate an AST to an (unreduced) element of the free algebra."""

    def scalar(coeff) -> NCPoly:
        return NCPoly.monomial(alphabet, ring, (), coeff)

    def product(left: NCPoly, right: NCPoly, pos: int) -> NCPoly:
        if len(left.terms) * len(right.terms) > MAX_TERMS:
            raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)
        return left * right

    def resolve(name: str, pos: int) -> NCPoly:
        if name in alphabet.symbols:
            return NCPoly.monomial(alphabet, ring, (alphabet.index(name),))
        if name in ring.params:
            return scalar(ring.param(name))
        if name == "s" and ring.base.kind == "cyclotomic":
            return scalar(ring.scalar(ring.base.generator()))
        raise ParseError(f"unknown symbol {name!r}", pos)

    def walk(node: Node) -> NCPoly:
        if isinstance(node, Num):
            return scalar(ring.scalar(node.value))
        if isinstance(node, Sym):
            return resolve(node.name, node.pos)
        if isinstance(node, Inv):
            if inv_resolver is None:
                raise ParseError("inv() needs an algebra context", node.pos)
            for name in node.names:
                if name not in alphabet.symbols:
                    raise ParseError(
                        f"inv() takes generators only, got {name!r}", node.pos
                    )
            return inv_resolver(alphabet.word(*node.names))
        if isinstance(node, Pow):
            base, exponent = walk(node.base), node.exponent
            if exponent >= 0:
                if len(base.terms) != 1:
                    power = scalar(ring.one())
                    for _ in range(exponent):
                        power = product(power, base, node.pos)
                    return power
                ((w, c),) = base.terms.items()
                return NCPoly.monomial(alphabet, ring, w * exponent, c ** exponent)
            if set(base.support()) != {()} or not base.terms[()].is_unit():
                raise ParseError("negative powers apply to unit scalars only", node.pos)
            return scalar(monomial_inverse(base.terms[()]) ** -exponent)
        if isinstance(node, Prod):
            # letters and single-term factors fold into one word and coefficient,
            # which join the next factor with several terms before it multiplies
            head, word, coeff = None, [], ring.one()
            for factor in node.factors:
                if isinstance(factor, Sym) and factor.name in alphabet.symbols:
                    word.append(alphabet.index(factor.name))
                    continue
                value = walk(factor)
                if len(value.terms) == 1:
                    ((w, c),) = value.terms.items()
                    word.extend(w)
                    coeff = coeff * c
                    continue
                if word or not coeff.is_one():
                    prefix = NCPoly.monomial(alphabet, ring, word, coeff)
                    value = product(prefix, value, factor.pos)
                    word, coeff = [], ring.one()
                head = value if head is None else product(head, value, factor.pos)
            if head is None or word or not coeff.is_one():
                tail = NCPoly.monomial(alphabet, ring, word, coeff)
                head = tail if head is None else product(head, tail, node.pos)
            return head
        if isinstance(node, Sum):
            out: dict = {}
            for sign, term in node.terms:
                value = walk(term).terms.items()
                add_terms(out, value if sign > 0 else ((w, -c) for w, c in value))
            return NCPoly(alphabet, ring, out)
        raise TypeError(f"not an AST node: {node!r}")

    return walk(node)


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
