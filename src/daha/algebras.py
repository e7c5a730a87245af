"""Shipped algebra presentations and the structure maps between them.

Three presets, written in the presentation file format and built by the
same loader as a presentation file:

* ``H_generic`` — the five-parameter double affine Hecke algebra of
  type (C1v, C1): Hecke quadratics for T0, T1, V0, V1 plus the product
  relation V0*T0*V1*T1 = q^-1.
* ``UDAHA_model`` — the universal variant, with the central traces
  cT0, cT1, cV0, cV1 adjoined as free (plain) parameters and the
  central product inverse Q adjoined invertibly.  It surjects onto
  H_generic by cTi -> ki+ki^-1, cVi -> li+li^-1, Q -> q, so identities
  proved here transfer.
* ``CentralPair`` — two generators u, v whose traces cu, cv are
  central; the minimal setting in which uv + (uv)^-1 = vu + (vu)^-1.

On top of the presets: inverse elimination (t^-1 = (t+t^-1) - t), the
elements x, y, z, semilinear endomorphisms (generator images plus a
permutation of the coefficient parameters), the braid-flavoured maps
on the four generators, parameter specialization, and extraction of
the Askey-Wilson-shaped form of the cyclic x, y, z relations.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .coeffring import (
    LaurentPoly,
    ParamRing,
    divide_exact,
    monomial_inverse,
    permute_params,
    specialize,
)
from .errors import (
    DahaError,
    ExtractionError,
    ParseError,
    PresentationError,
    UnsupportedPresetError,
)
from .exprs import PresentationSpec, load_presentation, parse_expr
from .ncpoly import Alphabet, NCPoly, TermOrder, Word, add_product, as_ncpoly
from .rewrite import EqualityVerdict, RewriteSystem

class AlgebraPresentation:
    """A named algebra: parameters, generators, axioms, rewrite system.

    The axiom list is immutable once built and survives completion
    untouched, even when inter-reduction retires the corresponding
    active rules; map verification and trace lookups go through it.
    """

    def __init__(
        self,
        name: str,
        ring: ParamRing,
        alphabet: Alphabet,
        order: Optional[TermOrder] = None,
    ):
        self.name = name
        self.ring = ring
        self.alphabet = alphabet
        self.system = RewriteSystem(alphabet, ring, order, name=name)
        self.axioms: list = []  # (lhs word, rhs NCPoly), in declaration order
        self._traces: dict = {}
        self.braid_maps: dict = {}  # the B3 syllable maps, filled by the braid module

    def __repr__(self):
        return f"AlgebraPresentation({self.name}, {len(self.axioms)} axioms)"

    # -- construction ------------------------------------------------------

    def add_axiom(self, lhs: Word, rhs: NCPoly):
        self.system.add_rule(lhs, rhs)
        self.axioms.append((tuple(lhs), rhs))

    # -- element builders -----------------------------------------------------

    def gen(self, name: str) -> NCPoly:
        return NCPoly.monomial(self.alphabet, self.ring, (self.alphabet.index(name),))

    def one(self) -> NCPoly:
        return NCPoly.monomial(self.alphabet, self.ring, ())

    def zero(self) -> NCPoly:
        return NCPoly.zero(self.alphabet, self.ring)

    def scalar(self, value) -> NCPoly:
        """Lift an int, Fraction or coefficient to a degree-0 element."""
        return NCPoly.monomial(self.alphabet, self.ring, (), value)

    def param(self, name: str, power: int = 1) -> LaurentPoly:
        return self.ring.param(name, power)

    def parse(self, text: str) -> NCPoly:
        return parse_expr(text, self.alphabet, self.ring, self.inv_word)

    # -- inverses via the quadratic axioms ---------------------------------------

    def trace(self, gen_name: str) -> LaurentPoly:
        """The central trace t of a generator, read off its quadratic
        axiom g*g -> t*g - 1."""
        if gen_name in self._traces:
            return self._traces[gen_name]
        g = self.alphabet.index(gen_name)
        for lhs, rhs in self.axioms:
            if lhs != (g, g):
                continue
            coeff = rhs.terms.get((g,))
            constant = rhs.terms.get(())
            if (
                coeff is not None
                and constant == self.ring.scalar(-1)
                and len(rhs.terms) == 2
            ):
                self._traces[gen_name] = coeff
                return coeff
            raise UnsupportedPresetError(
                f"the quadratic axiom for {gen_name} is not of trace form"
            )
        raise UnsupportedPresetError(f"no quadratic axiom for {gen_name}")

    def inv_word(self, word: Word) -> NCPoly:
        """Inverse of a product of generators: reversed product of the
        per-generator inverses (trace - g)."""
        out = self.one()
        for g in reversed(tuple(word)):
            name = self.alphabet.symbols[g]
            factor = self.scalar(self.trace(name)) - self.gen(name)
            out = out * factor
        return out

    # -- verification passthroughs ------------------------------------------------

    def complete(self, degree: int):
        return self.system.complete_to_degree(degree)

    def nf(self, p: NCPoly) -> NCPoly:
        return self.system.nf(p)

    def check_equal(self, p, r=None) -> EqualityVerdict:
        return self.system.check_equal(p, r)


# -- presets ---------------------------------------------------------------


#: the shipped presets, written in the presentation file format
PRESET_TEXTS = {
    "H_generic": """
        [algebra]
        name = H_generic
        params = k0 inv, k1 inv, l0 inv, l1 inv, q inv
        generators = T0, T1, V0, V1
        [rules]
        T0*T0 = (k0 + k0^-1)*T0 - 1
        T1*T1 = (k1 + k1^-1)*T1 - 1
        V0*V0 = (l0 + l0^-1)*V0 - 1
        V1*V1 = (l1 + l1^-1)*V1 - 1
        V0*T0*V1*T1 = q^-1
    """,
    "UDAHA_model": """
        [algebra]
        name = UDAHA_model
        params = cT0, cT1, cV0, cV1, Q inv
        generators = T0, T1, V0, V1
        [rules]
        T0*T0 = cT0*T0 - 1
        T1*T1 = cT1*T1 - 1
        V0*V0 = cV0*V0 - 1
        V1*V1 = cV1*V1 - 1
        V0*T0*V1*T1 = Q^-1
    """,
    "CentralPair": """
        [algebra]
        name = CentralPair
        params = cu, cv
        generators = u, v
        [rules]
        u*u = cu*u - 1
        v*v = cv*v - 1
    """,
}
PRESET_NAMES = tuple(PRESET_TEXTS)


def preset(token: str, order: Optional[Sequence[str]] = None) -> AlgebraPresentation:
    """A shipped preset by name, or the presentation in the file at path
    `token`, optionally reordered."""
    return from_presentation(presentation_spec(token), order)


def presentation_spec(token: str) -> PresentationSpec:
    """The presentation named by a preset name or a presentation file path."""
    if token in PRESET_TEXTS:
        return load_presentation(PRESET_TEXTS[token])
    if not os.path.exists(token):
        raise UnsupportedPresetError(
            f"{token!r} is neither a preset ({', '.join(PRESET_NAMES)}) nor a file"
        )
    with open(token, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise PresentationError(f"{token!r} is not UTF-8 text: {exc}") from None
    return load_presentation(text)


def from_presentation(
    spec: PresentationSpec, order: Optional[Sequence[str]] = None
) -> AlgebraPresentation:
    """Build an algebra from a parsed presentation file, under the precedence
    `order` when one is given and the file's own otherwise."""
    try:
        ring = ParamRing(spec.base, spec.params)
        alphabet = Alphabet(spec.generators)
        order = TermOrder(alphabet, spec.order if order is None else order)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None
    pres = AlgebraPresentation(spec.name, ring, alphabet, order)
    for lhs_text, rhs_text in spec.rules:
        try:
            lhs = alphabet.parse_word(lhs_text)
            rhs = parse_expr(rhs_text, alphabet, ring)
        except (ParseError, ValueError) as exc:
            raise PresentationError(f"bad rule {lhs_text!r}: {exc}") from None
        try:
            pres.add_axiom(lhs, rhs)
        except DahaError as exc:
            raise PresentationError(f"cannot orient rule {lhs_text!r}: {exc}") from None
    return pres


# -- the x, y, z elements ----------------------------------------------------


def _require_daha_generators(algebra: AlgebraPresentation, what: str):
    for name in ("T0", "T1", "V0", "V1"):
        if name not in algebra.alphabet.symbols:
            raise UnsupportedPresetError(
                f"{algebra.name} has no generator {name}; {what} undefined"
            )


def build_xyz(algebra: AlgebraPresentation) -> dict:
    """x = V0*T1 + (V0*T1)^-1 and its companions y, z from V1*T1, T0*T1, keyed by name."""
    _require_daha_generators(algebra, "x, y, z are")

    def pair(first, second):
        word = algebra.alphabet.word(first, second)
        return NCPoly.monomial(algebra.alphabet, algebra.ring, word) + algebra.inv_word(word)

    return {"x": pair("V0", "T1"), "y": pair("V1", "T1"), "z": pair("T0", "T1")}


def cyclic_triples(elems: dict):
    """(a1, a2, target, e1, e2, e3) for the cyclic orders x y z, y z x, z x y
    of the dict `elems` keyed "x", "y", "z"."""
    for a1, a2, target in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        yield a1, a2, target, elems[a1], elems[a2], elems[target]


# -- semilinear maps ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SemilinearMap:
    """Generator images plus a permutation of the coefficient parameters.

    The parameter action is a ring automorphism (here always a
    flag-preserving permutation of the symbols), applied to every
    coefficient before the generator images are substituted.
    """

    name: str
    algebra: AlgebraPresentation
    images: Mapping[str, NCPoly]
    param_map: Mapping[str, str]
    # reduced image of each word met so far, filled by semilinear_apply
    _word_images: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # for each parameter, the one whose exponent the parameter action moves to it
    _sources: tuple = dataclasses.field(init=False, repr=False, compare=False)
    # exponent keys met so far and their images under the parameter action
    _key_images: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        ring = self.algebra.ring
        if set(self.images) != set(self.algebra.alphabet.symbols):
            raise UnsupportedPresetError("images must cover the alphabet exactly")
        if set(self.param_map) != set(ring.params) or set(
            self.param_map.values()
        ) != set(ring.params):
            raise UnsupportedPresetError("parameter action must permute the parameters")
        for src, dst in self.param_map.items():
            if ring.is_invertible(src) != ring.is_invertible(dst):
                raise UnsupportedPresetError(
                    f"parameter action breaks invertibility at {src} -> {dst}"
                )
        inverse = {dst: src for src, dst in self.param_map.items()}
        sources = tuple(ring.index(inverse[name]) for name in ring.params)
        object.__setattr__(self, "_sources", sources)

    def __repr__(self):
        return f"SemilinearMap({self.name} on {self.algebra.name})"


def apply_param_map(coeff: LaurentPoly, phi: SemilinearMap) -> LaurentPoly:
    return permute_params(coeff, phi._sources, phi._key_images)


def semilinear_apply(phi: SemilinearMap, p: NCPoly) -> NCPoly:
    """Apply the map and reduce: each coefficient goes through the
    parameter action and multiplies the reduced image of its word.

    A word's image is built from its longest prefix whose image the map
    has stored, one letter at a time, reducing after each letter; every
    new prefix is stored on the map.  Stored images may predate rules
    added to the algebra since, so the sum is reduced once more."""
    algebra = phi.algebra
    if p.alphabet != algebra.alphabet or p.ring != algebra.ring:
        raise ValueError("element does not live on the map's algebra")
    memo = phi._word_images
    letter_images = [phi.images[name] for name in algebra.alphabet.symbols]
    out: dict = {}
    for word, coeff in p.terms.items():
        k = len(word)
        while k and word[:k] not in memo:
            k -= 1
        image = memo[word[:k]] if k else algebra.one()
        for j in range(k, len(word)):
            image = algebra.nf(image * letter_images[word[j]])
            memo[word[: j + 1]] = image
        add_product(out, apply_param_map(coeff, phi), (), image)
    return algebra.nf(as_ncpoly(algebra.alphabet, algebra.ring, out))


def identity_map(algebra: AlgebraPresentation) -> SemilinearMap:
    return SemilinearMap(
        "id",
        algebra,
        {name: algebra.gen(name) for name in algebra.alphabet.symbols},
        {name: name for name in algebra.ring.params},
    )


def compose_maps(phi: SemilinearMap, psi: SemilinearMap, name: Optional[str] = None) -> SemilinearMap:
    """phi after psi."""
    if phi.algebra is not psi.algebra:
        raise ValueError("cannot compose maps over different algebras")
    images = {
        gen_name: semilinear_apply(phi, image) for gen_name, image in psi.images.items()
    }
    param_map = {src: phi.param_map[dst] for src, dst in psi.param_map.items()}
    return SemilinearMap(name or f"{phi.name}*{psi.name}", phi.algebra, images, param_map)


def map_power(phi: SemilinearMap, power: int, name: Optional[str] = None) -> SemilinearMap:
    if power < 0:
        raise ValueError("negative map powers are not defined here")
    out = identity_map(phi.algebra)
    for _ in range(power):
        out = compose_maps(phi, out)
    return SemilinearMap(name or f"{phi.name}^{power}", phi.algebra, out.images, out.param_map)


def verify_map(phi: SemilinearMap, algebra: AlgebraPresentation) -> tuple:
    """Well-definedness: the image of every axiom reduces to zero.  Returns
    the (axiom text, EqualityVerdict) of each axiom, in declaration order."""
    if phi.algebra is not algebra:
        raise ValueError("map was built over a different algebra")
    verdicts = []
    for lhs, rhs in algebra.axioms:
        lhs_poly = NCPoly.monomial(algebra.alphabet, algebra.ring, lhs)
        verdict = algebra.check_equal(
            semilinear_apply(phi, lhs_poly), semilinear_apply(phi, rhs)
        )
        text = f"{algebra.alphabet.render_word(lhs)} -> {rhs.render()}"
        verdicts.append((text, verdict))
    return tuple(verdicts)


# -- the shipped maps -----------------------------------------------------------


def trace_symbol(algebra: AlgebraPresentation, gen_name: str) -> str:
    """The unique parameter symbol occurring in a generator's trace."""
    seen = algebra.trace(gen_name).symbols()
    if len(seen) != 1:
        raise UnsupportedPresetError(
            f"trace of {gen_name} does not carry a single parameter symbol"
        )
    return seen.pop()


def product_axiom(algebra: AlgebraPresentation):
    """The unique non-quadratic product axiom (lhs length > 2)."""
    found = [(lhs, rhs) for lhs, rhs in algebra.axioms if len(lhs) > 2]
    if len(found) != 1:
        raise UnsupportedPresetError(
            f"{algebra.name} lacks a unique product axiom"
        )
    return found[0]


def q_value(algebra: AlgebraPresentation) -> LaurentPoly:
    """The unit scalar q with product-axiom rhs q^-1 * 1."""
    lhs, rhs = product_axiom(algebra)
    if set(rhs.support()) != {()}:
        raise UnsupportedPresetError("product axiom rhs is not scalar")
    return monomial_inverse(rhs.terms[()])


def q_symbol(algebra: AlgebraPresentation) -> str:
    names = q_value(algebra).symbols()
    if len(names) != 1:
        raise UnsupportedPresetError("product axiom carries no single q symbol")
    return names.pop()


#: The four-cycle (Lemma 3.6) and the B3 generators b and c (Lemmas
#: 4.2-4.3): each generator g maps to the image text, and the trace of g
#: to the trace of the second generator.  Other parameters stay fixed.
MAP_TABLES = {
    "four_cycle": {"V0": ("T0", "T0"), "T0": ("V1", "V1"), "V1": ("T1", "T1"), "T1": ("V0", "V0")},
    "b": {"V0": ("inv(T1)*V1*T1", "V1"), "T0": ("V0", "V0"), "V1": ("T0", "T0"), "T1": ("T1", "T1")},
    "c": {
        "V0": ("inv(T1)*V1*T1", "V1"),
        "T0": ("V0*T0*inv(V0)", "T0"),
        "V1": ("V0", "V0"),
        "T1": ("T1", "T1"),
    },
}


def _table_map(algebra: AlgebraPresentation, name: str) -> SemilinearMap:
    """The map `name` of MAP_TABLES on `algebra`, its images as parsed."""
    _require_daha_generators(algebra, f"the map {name} is")
    images = {}
    param_map = {param: param for param in algebra.ring.params}
    for gen_name, (image, trace_of) in MAP_TABLES[name].items():
        images[gen_name] = algebra.parse(image)
        param_map[trace_symbol(algebra, gen_name)] = trace_symbol(algebra, trace_of)
    return SemilinearMap(name, algebra, images, param_map)


def four_cycle(algebra: AlgebraPresentation) -> SemilinearMap:
    """V0 -> T0 -> V1 -> T1 -> V0, with the induced trace-symbol cycle."""
    return _table_map(algebra, "four_cycle")


def braid_b_map(algebra: AlgebraPresentation) -> SemilinearMap:
    """V0 -> T1^-1*V1*T1, T0 -> V0, V1 -> T0, T1 -> T1; traces follow."""
    return _table_map(algebra, "b")


def braid_c_map(algebra: AlgebraPresentation) -> SemilinearMap:
    """V0 -> T1^-1*V1*T1, T0 -> V0*T0*V0^-1, V1 -> V0, T1 -> T1."""
    return _table_map(algebra, "c")


def conjugation_map(algebra: AlgebraPresentation, inverse: bool = False) -> SemilinearMap:
    """h -> T1^-1 * h * T1 (or its inverse), parameters untouched; the
    images are reduced."""
    pattern = "T1*{}*inv(T1)" if inverse else "inv(T1)*{}*T1"
    images = {
        name: algebra.nf(algebra.parse(pattern.format(name)))
        for name in algebra.alphabet.symbols
    }
    name = "conj_T1_inv" if inverse else "conj_T1"
    return SemilinearMap(name, algebra, images, {p: p for p in algebra.ring.params})


# -- specialization ----------------------------------------------------------


def specialize_presentation(
    source: AlgebraPresentation,
    assignment: Mapping[str, LaurentPoly],
    target_ring: ParamRing,
    name: str,
) -> AlgebraPresentation:
    """The same axioms with specialized coefficients, as a new algebra."""
    order = TermOrder(source.alphabet, source.system.order.precedence)
    target = AlgebraPresentation(name, target_ring, source.alphabet, order)
    for lhs, rhs in source.axioms:
        terms = {
            word: specialize(coeff, assignment, target_ring)
            for word, coeff in rhs.terms.items()
        }
        target.add_axiom(lhs, NCPoly.from_terms(source.alphabet, target_ring, terms))
    return target


# -- Askey-Wilson form ---------------------------------------------------------


@dataclass(frozen=True)
class AWRelation:
    """One cyclic relation q*A1*A2 - q^-1*A2*A1 = g*A3 + h."""

    name: str
    g: LaurentPoly
    h: NCPoly
    verdict: EqualityVerdict


def aw_rhs(algebra: AlgebraPresentation, which: str, q: LaurentPoly) -> NCPoly:
    """The central right-hand sides of the cyclic x, y, z relations at the
    value `q`, which the caller states rather than reads off the algebra."""
    core = algebra.scalar(monomial_inverse(q)) * algebra.gen("T1") + algebra.scalar(
        q
    ) * algebra.inv_word(algebra.alphabet.word("T1"))
    tT0 = algebra.trace("T0")
    tV0 = algebra.trace("V0")
    tV1 = algebra.trace("V1")
    table = {
        "z": (tV0 * tV1, tT0),
        "x": (tV1 * tT0, tV0),
        "y": (tT0 * tV0, tV1),
    }
    if which not in table:
        raise ValueError(f"no relation named {which!r}")
    constant, carrier = table[which]
    return algebra.scalar(constant) + algebra.scalar(carrier) * core


def aw_form_extract(algebra: AlgebraPresentation) -> tuple:
    """The relations for z, x and y, each matched against g*target + h
    with h supported on {1, T1}.

    The scalar g is one exact division of coefficients, at the first word
    of the reduced target off {1, T1}.  A word where g does not fit keeps
    a coefficient in h, so leftover support outside {1, T1}, like a failed
    final check_equal, raises :class:`ExtractionError`.
    """
    qv = q_value(algebra)
    q_inv = monomial_inverse(qv)
    low = {(), algebra.alphabet.word("T1")}  # the words 1 and T1, where h lives
    relations = []
    for _, _, target_name, e1, e2, e3 in cyclic_triples(build_xyz(algebra)):
        combo = algebra.scalar(qv) * e1 * e2 - algebra.scalar(q_inv) * e2 * e1
        reduced = algebra.nf(combo)
        target = algebra.nf(e3)
        word = next((w for w in target.support() if w not in low), None)
        if word is None:
            raise ExtractionError(
                f"relation {target_name}: target support is degenerate"
            )
        if word not in reduced.terms:
            raise ExtractionError(
                f"relation {target_name}: no {algebra.alphabet.render_word(word)} "
                "term to divide"
            )
        g = divide_exact(reduced.terms[word], target.terms[word])
        h = reduced - target.scale(g)
        if not set(h.support()) <= low:
            raise ExtractionError(
                f"relation {target_name}: remainder is not supported on 1, T1"
            )
        verdict = algebra.check_equal(combo, e3.scale(g) + h)
        if not verdict.equal:
            raise ExtractionError(
                f"relation {target_name}: extracted form failed verification"
            )
        relations.append(AWRelation(target_name, g, h, verdict))
    return tuple(relations)
