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
compares, hashes and renders like its `int`.  A cyclotomic scalar is a
:class:`Cyclo`, a tuple of such rationals whose operators are those of
the quotient ring.

A :class:`ParamRing` fixes a base ring together with an ordered list of
parameter symbols, each flagged invertible or plain.  Negative exponents
are only ever carried by invertible symbols, so ring elements stay
honest Laurent polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping, Sequence, Union

from .errors import (
    ExactDivisionError,
    IncompatibleRingError,
    NotAUnitError,
    UnitViolationError,
)

#: supported cyclotomic indices and the degree of the minimal polynomial
_CYCLO_DEGREE = {1: 1, 2: 1, 4: 2}

#: residue of the distinguished generator s in the degree-one quotients
_CYCLO_S_VALUE = {1: 1, 2: -1}


def _rational(q) -> Union[int, Fraction]:
    """`q` as an exact rational scalar: an `int` when whole, else a `Fraction`."""
    if type(q) is not int:
        q = Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


class Cyclo(tuple):
    """An element of Q[s] modulo a cyclotomic polynomial: the rational
    coefficients of 1, s, ... below its degree, with the quotient's
    `+`, `-` and `*` (s^2 = -1 at length 2).  Equal to the plain tuple."""

    __slots__ = ()

    def __add__(self, other):
        return Cyclo(map(add, self, other))

    def __sub__(self, other):
        return Cyclo(map(sub, self, other))

    def __neg__(self):
        return Cyclo(map(neg, self))

    def __mul__(self, other):
        if len(self) == 1:
            return Cyclo((self[0] * other[0],))
        (a0, a1), (b0, b1) = self, other
        return Cyclo((a0 * b0 - a1 * b1, a0 * b1 + a1 * b0))

    __rmul__ = __mul__  # never tuple repetition

    def __bool__(self):
        return any(self)


Scalar = Union[int, Fraction, Cyclo]


class BaseRing:
    """The rationals, or Q[s] modulo the n-th cyclotomic polynomial.

    Only n in {1, 2, 4} is supported; all three quotients are fields.
    Rational elements are `int` when whole and `Fraction` otherwise;
    cyclotomic elements are :class:`Cyclo` tuples of such rationals,
    listing coefficients of 1, s, ... below the degree of the minimal
    polynomial (length 1 for n in {1, 2}, length 2 for n = 4, where
    s^2 = -1).  Elements do their own arithmetic, and `kind` is read only
    off the arithmetic path.
    """

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int | None = None):
        if kind == "rationals":
            if n is not None:
                raise ValueError("rationals take no index")
        elif kind == "cyclotomic":
            if n not in _CYCLO_DEGREE:
                raise ValueError("only cyclotomic(1), (2) and (4) are supported")
        else:
            raise ValueError(f"unknown base ring kind {kind!r}")
        self.kind = kind
        self.n = n

    @staticmethod
    def rationals() -> "BaseRing":
        return BaseRing("rationals")

    @staticmethod
    def cyclotomic(n: int) -> "BaseRing":
        return BaseRing("cyclotomic", n)

    def __eq__(self, other):
        return (
            isinstance(other, BaseRing)
            and self.kind == other.kind
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"BaseRing({self.describe()})"

    def describe(self) -> str:
        return "rationals" if self.kind == "rationals" else f"cyclotomic({self.n})"

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
        if self.kind == "rationals":
            return q
        return Cyclo((q,) + (0,) * (_CYCLO_DEGREE[self.n] - 1))

    def element(self, value) -> Scalar:
        """An int, Fraction or coefficient tuple as an element of this ring."""
        if isinstance(value, tuple):
            return Cyclo(map(_rational, value))
        return self.from_fraction(value)

    def generator(self) -> Scalar:
        """The residue of s.  Undefined over the plain rationals."""
        if self.kind == "rationals":
            raise ValueError("the rationals have no distinguished generator")
        if self.n in _CYCLO_S_VALUE:
            return Cyclo((_CYCLO_S_VALUE[self.n],))
        return Cyclo((0, 1))

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise NotAUnitError("zero is not invertible")
        if self.kind == "rationals":
            return _rational(Fraction(1, a))
        if len(a) == 1:
            return Cyclo((_rational(Fraction(1, a[0])),))
        norm = a[0] * a[0] + a[1] * a[1]
        return Cyclo(_rational(Fraction(x, norm)) for x in (a[0], -a[1]))

    def coerce(self, source: "BaseRing", a: Scalar) -> Scalar:
        """Map an element of `source` into this ring, if there is a
        canonical embedding (identity, or rationals into a quotient)."""
        if source is self or source == self:
            return a
        if source.kind == "rationals":
            return self.from_fraction(a)
        raise IncompatibleRingError(
            f"no embedding of {source.describe()} into {self.describe()}"
        )

    # -- rendering helpers --------------------------------------------------

    def is_negative(self, a: Scalar) -> bool:
        """True when the element is a pure negative quantity whose sign can
        be pulled out of a rendered term (mixed a + b*s elements are not)."""
        if self.kind == "rationals":
            return a < 0
        if len(a) == 1 or a[1] == 0:
            return a[0] < 0
        return a[0] == 0 and a[1] < 0

    def render(self, a: Scalar, as_factor: bool = False) -> str:
        """Canonical text form.  With `as_factor` the result is safe to
        embed next to `*`; mixed cyclotomic elements get parentheses."""
        if self.kind == "rationals":
            return str(a)
        if _CYCLO_DEGREE[self.n] == 1:
            return str(a[0])
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
    """

    __slots__ = ("base", "params", "invertible", "_index")

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

    def __eq__(self, other):
        return (
            isinstance(other, ParamRing)
            and self.base == other.base
            and self.params == other.params
            and self.invertible == other.invertible
        )

    def __hash__(self):
        return hash((self.base, self.params, self.invertible))

    def __repr__(self):
        parts = [
            name + (" inv" if flag else "")
            for name, flag in zip(self.params, self.invertible)
        ]
        return f"ParamRing({self.base.describe()}; {', '.join(parts)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown parameter {name!r}") from None

    def is_invertible(self, name: str) -> bool:
        return self.invertible[self.index(name)]

    def _check_exponents(self, exps: tuple[int, ...]):
        if len(exps) != len(self.params):
            raise IncompatibleRingError("exponent vector has the wrong length")
        for i, e in enumerate(exps):
            if e < 0 and not self.invertible[i]:
                raise NotAUnitError(
                    f"negative exponent on plain symbol {self.params[i]!r}"
                )

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
        return LaurentPoly(self, {(0,) * len(self.params): value})

    def param(self, name: str, power: int = 1) -> "LaurentPoly":
        i = self.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(self.params)))
        self._check_exponents(exps)
        return LaurentPoly(self, {exps: self.base.one()})

    def poly(self, terms: Mapping[tuple[int, ...], object]) -> "LaurentPoly":
        """Build from an exponent-vector map, validating and dropping zeros."""
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            self._check_exponents(exps)
            coeff = self.base.element(coeff)
            if coeff:
                out[exps] = coeff
        return LaurentPoly(self, out)


class LaurentPoly:
    """A sparse Laurent polynomial over a :class:`ParamRing`.

    The term map is canonical: no explicit zero coefficients are stored,
    so structural equality is ring equality plus term-map equality.
    Instances are treated as immutable.
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
        exps = next(iter(self.terms))
        return all(
            e == 0 or self.ring.invertible[i] for i, e in enumerate(exps)
        )

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
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exps = tuple(map(add, e1, e2))
                c = c1 * c2  # nonzero: the base rings are fields
                old = get(exps)
                s = c if old is None else old + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            return monomial_inverse(self) ** (-power)
        result = self.ring.one()
        square = self
        e = power
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
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
        base = self.ring.base
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            negative = base.is_negative(c)
            if negative:
                c = -c
            syms = []
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.ring.params[i]
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
    if len(p.terms) != 1:
        raise NotAUnitError("only single-term monomials can be inverted")
    exps, c = next(iter(p.terms.items()))
    for i, e in enumerate(exps):
        if e != 0 and not p.ring.invertible[i]:
            raise NotAUnitError(
                f"symbol {p.ring.params[i]!r} is not invertible"
            )
    return LaurentPoly(p.ring, {tuple(map(neg, exps)): p.ring.base.inv(c)})


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
    inverses: dict[str, LaurentPoly] = {}
    for name, value in assignment.items():
        i = source.index(name)
        if value.ring is not target and value.ring != target:
            raise IncompatibleRingError(
                f"assigned value for {name!r} lives in the wrong ring"
            )
        if source.invertible[i]:
            if not value.is_unit():
                raise UnitViolationError(
                    f"invertible symbol {name!r} must map to a unit"
                )
            inverses[name] = monomial_inverse(value)
        values[name] = value
    retained: dict[str, int] = {}
    for i, name in enumerate(source.params):
        if name in values:
            continue
        j = target.index(name)  # raises for symbols the target lacks
        if source.invertible[i] and not target.invertible[j]:
            raise UnitViolationError(
                f"retained symbol {name!r} loses invertibility in the target"
            )
        retained[name] = j

    result = target.zero()
    for exps, c in p.terms.items():
        term = target.scalar(target.base.coerce(source.base, c))
        mono = [0] * len(target.params)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = source.params[i]
            if name in values:
                factor = values[name] if e > 0 else inverses[name]
                term = term * factor ** abs(e)
            else:
                mono[retained[name]] += e
        if any(mono):
            term = term * LaurentPoly(target, {tuple(mono): target.base.one()})
        result = result + term
    return result


def divide_exact(p: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring; raises
    :class:`ExactDivisionError` when `d` does not divide `p`.

    Exponents are shifted to be nonnegative, then ordinary sparse
    multivariate division by the single divisor runs under graded-lex.
    """
    if p.ring is not d.ring and p.ring != d.ring:
        raise IncompatibleRingError("division across different rings")
    if d.is_zero():
        raise ExactDivisionError("division by zero")
    ring = p.ring
    # full per-coordinate minimum, so the shifted poly has a zero exponent
    # in every coordinate; monomial shifts are units in the Laurent ring,
    # hence exactness is unaffected
    sp = tuple(map(min, zip(*p.terms)))
    sd = tuple(map(min, zip(*d.terms)))
    rem = {tuple(map(sub, exps, sp)): c for exps, c in p.terms.items()}
    den = {tuple(map(sub, exps, sd)): c for exps, c in d.terms.items()}

    def grlex(e):
        return (sum(e), e)

    lead = max(den, key=grlex)
    lead_inv = ring.base.inv(den[lead])
    quotient: dict[tuple[int, ...], Scalar] = {}
    while rem:
        e = max(rem, key=grlex)
        qe = tuple(map(sub, e, lead))
        if min(qe, default=0) < 0:
            raise ExactDivisionError("remainder is nonzero")
        qc = rem[e] * lead_inv
        quotient[qe] = qc
        for de, dc in den.items():
            key = tuple(map(add, qe, de))
            c = qc * dc
            old = rem.get(key)
            s = -c if old is None else old - c
            if s:
                rem[key] = s
            else:
                del rem[key]
    unshift = tuple(map(sub, sp, sd))
    try:
        return ring.poly(
            {tuple(map(add, exps, unshift)): c for exps, c in quotient.items()}
        )
    except NotAUnitError:
        # exact in the Laurent extension but not in this ring
        raise ExactDivisionError("quotient leaves the ring") from None
