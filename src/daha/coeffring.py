"""Exact commutative coefficient arithmetic.

Scalars for the whole package: arbitrary-precision rationals, small
cyclotomic quotients for root-of-unity specializations, and sparse
multivariate Laurent polynomials in named central parameters.  Every
operation is exact; nothing in this package touches floating point.

Scalars carry their own arithmetic, so :class:`LaurentPoly` runs one
loop of Python operators for every base ring.  A rational scalar is an
`int` when it is whole and a `Fraction` otherwise: only real division
(`BaseRing.inv`, `monomial_inverse`, `divide_exact`, a parsed `a/b`)
makes a `Fraction`, and a whole `Fraction` left behind by arithmetic
compares, hashes and renders like its `int`.  The degree-one cyclotomic
quotients are Q, so their scalars are rationals too; a scalar of
Q[s]/(s^2 + 1) is a :class:`Cyclo`, a pair of such rationals whose
operators are those of the quotient ring.

A :class:`ParamRing` fixes a base ring together with an ordered list of
parameter symbols, each flagged invertible or plain.  Negative exponents
are only ever carried by invertible symbols, so ring elements stay
honest Laurent polynomials.

A term's exponent vector is one `int` key, packed and unpacked only by
this module.  Each parameter has a `SLOT_BITS`-wide slot, the first
parameter the highest, holding its exponent plus `EXPONENT_LIMIT` (the
ring's `bias` holds that offset in every slot).  Exponents run from
-EXPONENT_LIMIT to EXPONENT_LIMIT - 1, so each slot of a valid key is
nonnegative with its top (guard) bit clear; hence integer order on keys
is lexicographic order on the vectors, the order `render` sorts terms
in.  `k1 + k2 - bias` adds two vectors and `2*bias - k` negates one; a
slot that leaves the range sets its guard bit (one that goes negative
borrows, and sets it too), so one `&` with the ring's `guard` checks a
result, and an exponent out of range raises :class:`ExponentRangeError`,
never wraps.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from .errors import (
    ExactDivisionError,
    ExponentRangeError,
    IncompatibleRingError,
    NotAUnitError,
    UnitViolationError,
)

#: bits per slot of an exponent key, the top one the guard; 32 lets `unpack` use `struct`
SLOT_BITS = 32

#: exponents run from -EXPONENT_LIMIT to EXPONENT_LIMIT - 1 (a slot holds e + EXPONENT_LIMIT)
EXPONENT_LIMIT = 1 << (SLOT_BITS - 2)

OUT_OF_RANGE = f"parameter exponent outside {-EXPONENT_LIMIT}..{EXPONENT_LIMIT - 1}"

#: most decimal digits of an integer input writes, or of a numerator or denominator
#: its arithmetic makes: Python's default limit on int/str conversion, so all render
MAX_DIGITS = 4300

#: the smallest integer with more than MAX_DIGITS digits
_TOO_LONG = 10**MAX_DIGITS


def _rational(q) -> Union[int, Fraction]:
    """`q` as an exact rational scalar: an `int` when whole, else a `Fraction`."""
    if type(q) is not int:
        q = Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


class Cyclo(tuple):
    """An element a + b*s of Q[s]/(s^2 + 1): the pair (a, b) of rationals,
    with the quotient's `+`, `-` and `*`.  Equal to the plain tuple."""

    __slots__ = ()

    def __add__(self, other):
        return Cyclo(map(add, self, other))

    def __sub__(self, other):
        return Cyclo(map(sub, self, other))

    def __neg__(self):
        return Cyclo(map(neg, self))

    def __mul__(self, other):
        (a0, a1), (b0, b1) = self, other
        return Cyclo((a0 * b0 - a1 * b1, a0 * b1 + a1 * b0))

    __rmul__ = __mul__  # never tuple repetition

    def __bool__(self):
        return any(self)


Scalar = Union[int, Fraction, Cyclo]


class BaseRing:
    """The rationals (`n` is None), or Q[s] modulo the n-th cyclotomic
    polynomial for n in {1, 2, 4}; all of them are fields.

    Q[s]/(s - 1) and Q[s]/(s + 1) are Q with s = 1 and s = -1, so their
    elements are rationals, as over the rationals: an `int` when whole and
    a `Fraction` otherwise.  Over n = 4, where s^2 = -1, an element is a
    :class:`Cyclo` pair of such rationals.  Elements do their own
    arithmetic, and `n` is read only off the arithmetic path.
    """

    __slots__ = ("n",)

    def __init__(self, n: int | None = None):
        if n is not None and (type(n) is not int or n not in (1, 2, 4)):  # True == 1
            raise ValueError("only cyclotomic(1), (2) and (4) are supported")
        self.n = n

    @staticmethod
    def rationals() -> "BaseRing":
        return BaseRing()

    @staticmethod
    def cyclotomic(n: int) -> "BaseRing":
        return BaseRing(n)

    def __eq__(self, other):
        return isinstance(other, BaseRing) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"BaseRing({self.describe()})"

    def describe(self) -> str:
        return "rationals" if self.n is None else f"cyclotomic({self.n})"

    @staticmethod
    def from_description(text: str) -> "BaseRing":
        text = text.strip()
        if text == "rationals":
            return BaseRing.rationals()
        if text.startswith("cyclotomic(") and text.endswith(")"):
            return BaseRing.cyclotomic(int(text[len("cyclotomic(") : -1]))
        raise ValueError(f"unknown base ring {text!r}")

    # -- elements ---------------------------------------------------------

    def one(self) -> Scalar:
        return self.from_fraction(1)

    def from_fraction(self, q) -> Scalar:
        q = _rational(q)
        return Cyclo((q, 0)) if self.n == 4 else q

    def element(self, value) -> Scalar:
        """An int or Fraction, or over cyclotomic(4) a coefficient pair, as
        an element of this ring."""
        if isinstance(value, tuple) and self.n == 4:
            return Cyclo(map(_rational, value))
        return self.from_fraction(value)

    def generator(self) -> Scalar:
        """The residue of s.  Undefined over the plain rationals."""
        if self.n is None:
            raise ValueError("the rationals have no distinguished generator")
        return {1: 1, 2: -1, 4: Cyclo((0, 1))}[self.n]

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise NotAUnitError("zero is not invertible")
        if self.n != 4:
            return _rational(Fraction(1, a))
        norm = a[0] * a[0] + a[1] * a[1]
        return Cyclo(_rational(Fraction(x, norm)) for x in (a[0], -a[1]))

    def coerce(self, source: "BaseRing", a: Scalar) -> Scalar:
        """Map an element of `source` into this ring, if there is a
        canonical embedding (identity, or rationals into a quotient)."""
        if source is self or source == self:
            return a
        if source.n is None:
            return self.from_fraction(a)
        raise IncompatibleRingError(f"no embedding of {source.describe()} into {self.describe()}")

    # -- rendering helpers --------------------------------------------------

    def is_negative(self, a: Scalar) -> bool:
        """True when the element is a pure negative quantity whose sign can
        be pulled out of a rendered term (mixed a + b*s elements are not)."""
        if self.n != 4:
            return a < 0
        if a[1] == 0:
            return a[0] < 0
        return a[0] == 0 and a[1] < 0

    def render(self, a: Scalar, as_factor: bool = False) -> str:
        """Canonical text form.  With `as_factor` the result is safe to
        embed next to `*`; mixed cyclotomic elements get parentheses."""
        if self.n != 4:
            return str(a)
        a0, a1 = a
        if a1 == 0:
            return str(a0)
        if a0 == 0:
            if a1 == 1:
                return "s"
            if a1 == -1:
                return "-s"
            return f"{a1}*s"
        s_part = "s" if abs(a1) == 1 else f"{abs(a1)}*s"
        joined = f"{a0} + {s_part}" if a1 > 0 else f"{a0} - {s_part}"
        return f"({joined})" if as_factor else joined


RATIONALS = BaseRing.rationals()


class ParamRing:
    """A Laurent polynomial ring: base ring plus ordered named parameters.

    `invertible` marks which symbols may carry negative exponents.  Two
    rings are compatible only when base, names, order and flags all agree.
    It fixes the layout of exponent keys (see the module docstring): `bias`
    is the key of the zero vector, `guard` has the guard bit of each slot set.
    """

    __slots__ = ("base", "params", "invertible", "_index", "bias", "guard", "_codec")

    def __init__(self, base: BaseRing, params: Sequence[tuple[str, bool]]):
        names = tuple(name for name, _ in params)
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be distinct")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"bad parameter name {name!r}")
        self.base = base
        self.params = names
        self.invertible = tuple(bool(flag) for _, flag in params)
        self._index = {name: i for i, name in enumerate(names)}
        self.bias = sum(EXPONENT_LIMIT << SLOT_BITS * i for i in range(len(names)))
        self.guard = self.bias << 1
        self._codec = struct.Struct(f">{len(names)}i")

    def __eq__(self, other):
        return isinstance(other, ParamRing) and (self.base, self.params, self.invertible) == (
            other.base, other.params, other.invertible
        )

    def __hash__(self):
        return hash((self.base, self.params, self.invertible))

    def __repr__(self):
        parts = [name + (" inv" if flag else "") for name, flag in zip(self.params, self.invertible)]
        return f"ParamRing({self.base.describe()}; {', '.join(parts)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown parameter {name!r}") from None

    def is_invertible(self, name: str) -> bool:
        return self.invertible[self.index(name)]

    def _check(self, i: int, e: int):
        if e < 0 and not self.invertible[i]:
            raise NotAUnitError(f"negative exponent on plain symbol {self.params[i]!r}")
        if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT:
            raise ExponentRangeError(OUT_OF_RANGE)

    def pack(self, exps: Sequence[int]) -> int:
        """The key of an exponent vector, checked for length, sign and range."""
        if len(exps) != len(self.params):
            raise IncompatibleRingError("exponent vector has the wrong length")
        key = 0
        for i, e in enumerate(exps):
            self._check(i, e)
            key = (key << SLOT_BITS) + e + EXPONENT_LIMIT
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a key.  Adding `bias` makes each slot e + 2^31,
        with no carry; flipping the guard bits then leaves e in two's complement."""
        codec = self._codec
        return codec.unpack(((key + self.bias) ^ self.guard).to_bytes(codec.size, "big"))

    # -- constructors -------------------------------------------------------

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.scalar(1)

    def scalar(self, value) -> "LaurentPoly":
        """Lift a base element (or int / Fraction) to a constant."""
        value = self.base.element(value)
        if not value:
            return LaurentPoly(self, {})
        return LaurentPoly(self, {self.bias: value})

    def param(self, name: str, power: int = 1) -> "LaurentPoly":
        i = self.index(name)
        self._check(i, power)
        shift = SLOT_BITS * (len(self.params) - 1 - i)
        return LaurentPoly(self, {self.bias + (power << shift): self.base.one()})


class LaurentPoly:
    """A sparse Laurent polynomial over a :class:`ParamRing`.

    The term map, from exponent key to nonzero coefficient, is canonical:
    no explicit zero coefficients are stored, so structural equality is
    ring equality plus term-map equality.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ParamRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_unit(self) -> bool:
        """Units are single terms supported on invertible symbols only
        (base coefficients are field elements, hence always invertible)."""
        if len(self.terms) != 1:
            return False
        exps = self.ring.unpack(next(iter(self.terms)))
        return all(e == 0 or flag for e, flag in zip(exps, self.ring.invertible))

    def symbols(self) -> set[str]:
        """The parameters with a nonzero exponent in some term."""
        params, unpack = self.ring.params, self.ring.unpack
        return {name for key in self.terms for name, e in zip(params, unpack(key)) if e}

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise IncompatibleRingError(
                    f"mixed coefficient rings: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for exps, c in other.terms.items():
            old = get(exps)
            s = c if old is None else old + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return LaurentPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {exps: -c for exps, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bias, guard = self.ring.bias, self.ring.guard
        out: dict[int, Scalar] = {}
        get = out.get
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            k1 -= bias
            for k2, c2 in right:
                key = k1 + k2
                if key & guard:
                    raise ExponentRangeError(OUT_OF_RANGE)
                c = c1 * c2  # nonzero: the base rings are fields
                old = get(key)
                s = c if old is None else old + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            return monomial_inverse(self) ** (-power)
        result, square = self.ring.one(), self
        while power:
            if power & 1:
                result = result * square
            power >>= 1
            if power:
                square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        same_ring = self.ring is other.ring or self.ring == other.ring
        return same_ring and self.terms == other.terms

    __hash__ = None  # mutable dict payload; never used as a mapping key

    # -- rendering ------------------------------------------------------------

    def render(self, as_factor: bool = False) -> str:
        """Canonical text form, parseable by the expression grammar.

        Terms are sorted by descending exponent vector; `as_factor` wraps
        multi-term results in parentheses so they can sit next to `*`.
        """
        if not self.terms:
            return "0"
        base, params, unpack = self.ring.base, self.ring.params, self.ring.unpack
        pieces = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            negative = base.is_negative(c)
            if negative:
                c = -c
            syms = []
            for name, e in zip(params, unpack(key)):
                if e:
                    syms.append(name if e == 1 else f"{name}^{e}")
            coeff_txt = base.render(c, as_factor=bool(syms))
            if syms and coeff_txt == "1":
                body = "*".join(syms)
            elif syms:
                body = coeff_txt + "*" + "*".join(syms)
            else:
                body = coeff_txt
            pieces.append(("-" if negative else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            # a mixed cyclotomic constant such as -1 + s keeps its own sign
            text += f" {sign} ({body})" if body.startswith("-") else f" {sign} {body}"
        if as_factor and (len(pieces) > 1 or text.startswith("-")):
            return f"({text})"
        return text

    def __repr__(self):
        return f"LaurentPoly({self.render()})"


def monomial_inverse(p: LaurentPoly) -> LaurentPoly:
    """Invert a unit monomial: negate exponents, invert the coefficient.

    Raises :class:`NotAUnitError` for anything that is not a single term
    supported on invertible symbols.
    """
    if not p.is_unit():
        raise NotAUnitError("only a single term in invertible symbols can be inverted")
    ((key, c),) = p.terms.items()
    ring = p.ring
    key = 2 * ring.bias - key
    if key & ring.guard:
        raise ExponentRangeError(OUT_OF_RANGE)
    return LaurentPoly(ring, {key: ring.base.inv(c)})


def too_long(c: LaurentPoly) -> bool:
    """Whether a numerator or denominator in `c` has more than MAX_DIGITS digits."""
    for x in c.terms.values():
        for q in x if isinstance(x, tuple) else (x,):
            if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
                return True
    return False


def permute_params(p: LaurentPoly, sources: Sequence[int], memo: dict) -> LaurentPoly:
    """`p` with the exponent of parameter `sources[j]` moved to parameter j,
    for a permutation that keeps each parameter's flag, so that no image
    leaves the range.  `memo` maps the keys met by earlier calls with the
    same `sources` to their images, and gains the keys of `p`."""
    ring = p.ring
    out = {}
    for key, c in p.terms.items():
        moved = memo.get(key)
        if moved is None:
            exps = ring.unpack(key)
            moved = memo[key] = ring.pack([exps[i] for i in sources])
        out[moved] = c
    return LaurentPoly(ring, out)


def specialize(
    p: LaurentPoly,
    assignment: Mapping[str, LaurentPoly],
    target: ParamRing,
) -> LaurentPoly:
    """Apply the ring homomorphism sending assigned symbols to the given
    target values and every remaining symbol to the target symbol of the
    same name.  The base ring may extend (rationals into a cyclotomic
    quotient); invertible symbols must land on units of the target.
    """
    source = p.ring
    values: dict[str, LaurentPoly] = {}
    for name, value in assignment.items():
        if value.ring is not target and value.ring != target:
            raise IncompatibleRingError(f"assigned value for {name!r} lives in the wrong ring")
        if source.is_invertible(name) and not value.is_unit():
            raise UnitViolationError(f"invertible symbol {name!r} must map to a unit")
        values[name] = value
    for name, flag in zip(source.params, source.invertible):
        if name not in values:
            values[name] = target.param(name)  # raises if the target lacks it
            if flag and not target.is_invertible(name):
                raise UnitViolationError(f"retained symbol {name!r} is plain in the target")

    result = target.zero()
    for key, c in p.terms.items():
        term = target.scalar(target.base.coerce(source.base, c))
        for name, e in zip(source.params, source.unpack(key)):
            if e:
                term = term * values[name] ** e
        result = result + term
    return result


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring; raises :class:`ExactDivisionError`
    when `d` does not divide `p`, :class:`ExponentRangeError` when the quotient
    leaves the exponent range.  Long division by the leading key of `d` (key
    order is lex order, a group order), so each quotient key is `top - lead +
    bias`.  An exact quotient's exponents lie between `min_p - min_d` and
    `max_p - max_d`; a term outside that box proves a remainder, and the
    finite box ends the loop."""
    if p.ring is not d.ring and p.ring != d.ring:
        raise IncompatibleRingError("division across different rings")
    if d.is_zero():
        raise ExactDivisionError("division by zero")
    ring = p.ring
    bias, guard, unpack, element = ring.bias, ring.guard, ring.unpack, ring.base.element
    box = [
        (min(pe) - min(de), max(pe) - max(de))
        for pe, de in zip(zip(*map(unpack, p.terms)), zip(*map(unpack, d.terms)))
    ]
    lead = max(d.terms)
    lead_inv = ring.base.inv(d.terms[lead])
    rem = dict(p.terms)
    quotient: dict[int, Scalar] = {}
    while rem:
        top = max(rem)
        qk = top - lead + bias
        if qk & guard:
            raise ExponentRangeError(OUT_OF_RANGE)
        if not all(lo <= e <= hi for (lo, hi), e in zip(box, unpack(qk))):
            raise ExactDivisionError("remainder is nonzero")
        qc = quotient[qk] = element(rem[top] * lead_inv)
        qk -= bias
        for dk, dc in d.terms.items():
            key = qk + dk  # inside the exponent box of p, so in range
            c = qc * dc
            old = rem.get(key)
            s = -c if old is None else old - c
            if s:
                rem[key] = s
            else:
                del rem[key]
    if any(lo < 0 and not flag for (lo, _), flag in zip(box, ring.invertible)):
        # exact in the Laurent extension, whose quotient reaches lo, but not in this ring
        raise ExactDivisionError("quotient leaves the ring")
    return LaurentPoly(ring, quotient)
