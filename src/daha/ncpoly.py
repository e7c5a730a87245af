"""Noncommutative polynomials over a free monoid.

Words are plain tuples of generator indices into an :class:`Alphabet`;
tuples hash natively, which is all the interning we need for fast term
maps.  An :class:`NCPoly` maps words to Laurent-polynomial coefficients
and is kept canonical (no zero coefficients), so equality is structural.

Every product of term maps runs through one kernel, :func:`add_product`,
which adds `coeff * pre * R * suf` straight into a working term map whose
values are the caller's `LaurentPoly` coefficients, never written, or
`{key: scalar}` dicts the kernel owns: the first write to a word copies its
coefficient.  `NCPoly.__mul__` and `scale`, the parser's products, the
semilinear maps and every rewrite step call it; sums use :func:`add_terms`.

Term orders are degree-lexicographic: total degree first, then the
letter-by-letter comparison under a configurable precedence permutation
of the alphabet.  Degree dominance is what makes every quadratic-to-
linear rule admissible regardless of the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .coeffring import OUT_OF_RANGE, LaurentPoly, ParamRing
from .errors import (
    AlphabetMismatchError,
    ExponentRangeError,
    IncompatibleRingError,
    ZeroPolynomialError,
)

Word = tuple  # tuple[int, ...]; indices into an Alphabet

#: most terms a sum of input may reach, and largest product of two factors' scalar
#: term counts (every Laurent term of every coefficient) that parsing multiplies out;
#: ten times x*y*z*x*y*z*x written out in x, y and z (20 821 words and scalar terms)
MAX_TERMS = 250_000

#: longest word a term of input may reach; far above the degrees completion works at
MAX_DEGREE = 1000


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names for a free algebra."""

    symbols: tuple
    _index: dict = field(init=False, repr=False, compare=False)  # name -> position

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("generator names must be distinct")
        for name in self.symbols:
            if not name.isidentifier():
                raise ValueError(f"bad generator name {name!r}")
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.symbols)})

    def __len__(self):
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> Word:
        return tuple(self.index(n) for n in names)

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        symbols = self.symbols
        return "*".join([symbols[g] for g in w])

    def parse_word(self, text: str) -> Word:
        text = text.strip()
        if text == "1":
            return ()
        try:
            return tuple([self._index[part.strip()] for part in text.split("*")])
        except KeyError as exc:
            raise ValueError(f"unknown generator {exc.args[0]!r}") from None


class TermOrder:
    """Degree-lexicographic word order seeded by an alphabet permutation.

    The permutation lists generator names from lowest to highest
    precedence-rank position, defaulting to the alphabet's own order.
    """

    __slots__ = ("alphabet", "precedence", "_rank")

    def __init__(self, alphabet: Alphabet, precedence: Sequence[str] | None = None):
        if precedence is None:
            precedence = alphabet.symbols
        precedence = tuple(precedence)
        if sorted(precedence) != sorted(alphabet.symbols):
            raise ValueError("precedence must permute the alphabet")
        self.alphabet = alphabet
        self.precedence = precedence
        rank = [0] * len(alphabet)
        for pos, name in enumerate(precedence):
            rank[alphabet.index(name)] = pos
        self._rank = tuple(rank)

    def key(self, w: Word):
        """Sort key: comparing keys compares words under the order."""
        return (len(w), tuple(self._rank[g] for g in w))

    def compare(self, u: Word, v: Word) -> int:
        ku, kv = self.key(u), self.key(v)
        return (ku > kv) - (ku < kv)

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.alphabet == other.alphabet
            and self.precedence == other.precedence
        )

    def __hash__(self):
        return hash((self.alphabet, self.precedence))

    def __repr__(self):
        return f"TermOrder({' < '.join(self.precedence)})"


def add_terms(terms: dict, pairs) -> None:
    """Add the (word, coefficient) pairs into the term map `terms` in
    place, keeping it free of zero coefficients."""
    get = terms.get
    for w, c in pairs:
        old = get(w)
        if old is None:
            if c:
                terms[w] = c
        else:
            s = old + c
            if s:
                terms[w] = s
            else:
                del terms[w]


def add_product(terms: dict, coeff, pre: Word, rhs: "NCPoly", suf: Word = ()) -> list:
    """The one product kernel: add `coeff * pre * rhs * suf` into the term map
    `terms` in place.  `coeff` and each value of `terms` is a `LaurentPoly`,
    only read, or a `{key: scalar}` dict this kernel made; the first write to
    a word holding a `LaurentPoly` copies its terms into such a dict
    (copy-on-write).  Keeps `terms` free of zero coefficients; returns the
    words that were not in `terms` before.  An exponent out of range raises
    :class:`ExponentRangeError` and leaves `terms` unusable."""
    bias, guard = rhs.ring.bias, rhs.ring.guard
    source = [(k - bias, x) for k, x in (coeff.terms if type(coeff) is LaurentPoly else coeff).items()]
    inserted = []
    for w, c in rhs.terms.items():
        new_word = pre + w + suf
        target = terms.get(new_word)
        if target is None:
            target = terms[new_word] = {}
            inserted.append(new_word)
        elif type(target) is LaurentPoly:
            target = terms[new_word] = dict(target.terms)
        get = target.get
        pairs = c.terms.items()
        for k1, x1 in source:
            for k2, x2 in pairs:
                key = k1 + k2
                if key & guard:
                    raise ExponentRangeError(OUT_OF_RANGE)
                x = x1 * x2  # nonzero: the base rings are fields
                old = get(key)
                s = x if old is None else old + x
                if s:
                    target[key] = s
                else:
                    del target[key]
        if not target:
            del terms[new_word]
    return inserted


def as_ncpoly(alphabet: Alphabet, ring: ParamRing, terms: dict) -> "NCPoly":
    """An `add_product` term map as an element, in place: each dict value becomes a `LaurentPoly`."""
    for w, c in terms.items():
        if type(c) is not LaurentPoly:
            terms[w] = LaurentPoly(ring, c)
    return NCPoly(alphabet, ring, terms)


class NCPoly:
    """A finite sum of words with Laurent-polynomial coefficients.

    Instances are treated as immutable; arithmetic returns new objects.
    Scalar multiplication accepts ints, Fractions and LaurentPolys, all
    of which commute with every word.
    """

    __slots__ = ("alphabet", "ring", "terms")

    def __init__(self, alphabet: Alphabet, ring: ParamRing, terms: dict):
        self.alphabet = alphabet
        self.ring = ring
        self.terms = terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, ring: ParamRing) -> "NCPoly":
        return cls(alphabet, ring, {})

    @classmethod
    def monomial(cls, alphabet, ring, word: Word, coeff=None) -> "NCPoly":
        if coeff is None:
            coeff = ring.one()
        elif isinstance(coeff, (int, Fraction)):
            coeff = ring.scalar(coeff)
        if coeff.is_zero():
            return cls.zero(alphabet, ring)
        return cls(alphabet, ring, {tuple(word): coeff})

    @classmethod
    def from_terms(cls, alphabet, ring, terms: Mapping) -> "NCPoly":
        out = {}
        n = len(alphabet)
        for word, coeff in terms.items():
            word = tuple(word)
            if any(not (0 <= g < n) for g in word):
                raise AlphabetMismatchError(f"bad letter in word {word!r}")
            if isinstance(coeff, (int, Fraction)):
                coeff = ring.scalar(coeff)
            if not coeff.is_zero():
                out[word] = coeff
        return cls(alphabet, ring, out)

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Maximal word length in the support; 0 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=0)

    def support(self):
        return self.terms.keys()

    def leading_term(self, order: TermOrder):
        """The (word, coefficient) pair maximal under the order."""
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        w = max(self.terms, key=order.key)
        return w, self.terms[w]

    def _require_compatible(self, other: "NCPoly"):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatchError("operands use different alphabets")
        if self.ring is not other.ring and self.ring != other.ring:
            raise IncompatibleRingError("operands use different coefficient rings")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = NCPoly.monomial(self.alphabet, self.ring, (), self._scalar(other))
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_compatible(other)
        out = dict(self.terms)
        add_terms(out, other.terms.items())
        return NCPoly(self.alphabet, self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.alphabet, self.ring, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, LaurentPoly, NCPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scalar(self, value) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            if value.ring is not self.ring and value.ring != self.ring:
                raise IncompatibleRingError("scalar lives over a different ring")
            return value
        return self.ring.scalar(value)

    def scale(self, value) -> "NCPoly":
        return NCPoly.monomial(self.alphabet, self.ring, (), self._scalar(value)) * self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_compatible(other)
        out = {}
        for w, c in self.terms.items():
            add_product(out, c, w, other)
        return as_ncpoly(self.alphabet, self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, parseable by the expression grammar.

        Words are sorted descending by degree then alphabet position;
        this fixed convention (independent of any rewrite order) is what
        certificate hashes are computed over.
        """
        if not self.terms:
            return "0"
        pieces = []
        for w in sorted(self.terms, key=lambda w: (len(w), w), reverse=True):
            c = self.terms[w]
            negative = (
                len(c.terms) == 1
                and self.ring.base.is_negative(next(iter(c.terms.values())))
            )
            if negative:
                c = -c
            coeff_txt = c.render(as_factor=True)
            if not w:
                body = coeff_txt
            elif coeff_txt == "1":
                body = self.alphabet.render_word(w)
            else:
                if " " in coeff_txt and coeff_txt[0] != "(":
                    coeff_txt = f"({coeff_txt})"  # a lone mixed constant like 1 + s
                body = coeff_txt + "*" + self.alphabet.render_word(w)
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"NCPoly({self.render()})"


#: 64-bit FNV-1a parameters
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> str:
    """64-bit FNV-1a of the UTF-8 bytes, as 16 lowercase hex digits.  Four bytes a
    round, masked once: the low 64 bits of `*` and `^` need only those of their operands."""
    data = text.encode("utf-8")
    h, prime, cut = _FNV_OFFSET, _FNV_PRIME, len(data) & ~3
    for a, b, c, d in zip(*[iter(data[:cut])] * 4):
        h = (((((h ^ a) * prime ^ b) * prime ^ c) * prime ^ d) * prime) & 0xFFFFFFFFFFFFFFFF
    for byte in data[cut:]:
        h = ((h ^ byte) * prime) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"
