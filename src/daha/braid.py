"""The braid group B3 = <b, c | b^3 = c^2> and its action.

Elements are kept in the normal form a^m * s1 ... sk, where a = b^3 =
c^2 generates the center and the tail s1 ... sk is a strictly
alternating word in the syllables {b, bb} and {c}.  Modulo the center
the group is Z3 * Z2, whose free-product normal form is unique, and a
letter table tracks the a-exponent exactly (B = a^-1 b^2, C = a^-1 c),
so two BraidWords are equal in the group iff they are structurally equal.

The action on an algebra is built from the shipped semilinear maps: a
acts by conjugation with T1, b and c by their generator tables.  It
follows group order, b3_act(u*v, p) = b3_act(u, b3_act(v, p)), so a
word acts by applying its syllable maps to the element one after
another, rightmost first, then the central map.  The five syllable
maps (b, bb, c, a, a^-1) are built once per algebra and kept on it;
each keeps the reduced images of the words it has met, so repeated
acts reuse them.  b3_to_map folds the same maps into one composed map.
The relations b^3 = c^2 = a that make the action well defined are
checked on these maps by the lemma4.2 suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .algebras import (
    AlgebraPresentation,
    SemilinearMap,
    braid_b_map,
    braid_c_map,
    compose_maps,
    conjugation_map,
    identity_map,
    semilinear_apply,
)
from .errors import ParseError
from .ncpoly import NCPoly


#: letter -> (a-power it adds, syllable kind, letters it pushes)
_LETTERS = {
    "a": (1, "", 0),
    "A": (-1, "", 0),
    "b": (0, "b", 1),
    "B": (-1, "b", 2),
    "c": (0, "c", 1),
    "C": (-1, "c", 1),
}
#: the order of each syllable kind modulo the center: b^3 = c^2 = a
_ORDER = {"b": 3, "c": 2}


@dataclass(frozen=True)
class BraidWord:
    a_power: int
    tail: tuple  # syllables "b", "bb", "c", strictly alternating in type

    def __post_init__(self):
        last = None
        for syl in self.tail:
            if syl not in ("b", "bb", "c"):
                raise ValueError(f"bad syllable {syl!r}")
            kind = syl[0]
            if kind == last:
                raise ValueError("tail syllables must alternate")
            last = kind

    @classmethod
    def parse(cls, letters: Iterable[str]) -> "BraidWord":
        """Normalize a letter sequence over b, B, c, C, a, A.

        Each letter adds its a-power and pushes its syllable letters, merged
        with a top syllable of the same kind; whole multiples of b^3 = c^2 = a
        carry into the a-power.  Whitespace is skipped.
        """
        a_power = 0
        stack: list = []
        for pos, ch in enumerate(letters):
            if ch.isspace():
                continue
            if ch not in _LETTERS:
                raise ParseError(f"bad braid letter {ch!r}", pos)
            power, kind, count = _LETTERS[ch]
            a_power += power
            if kind:
                if stack and stack[-1][0] == kind:
                    count += len(stack.pop())
                carry, count = divmod(count, _ORDER[kind])
                a_power += carry
                if count:
                    stack.append(kind * count)
        return cls(a_power, tuple(stack))

    def letters(self) -> str:
        """Letter rendition; parsing it back reproduces the word."""
        prefix = ("a" if self.a_power > 0 else "A") * abs(self.a_power)
        return prefix + "".join(self.tail)

    def __str__(self):
        return self.letters() or "e"

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        merged = BraidWord.parse("".join(self.tail) + "".join(other.tail))
        return BraidWord(self.a_power + other.a_power + merged.a_power, merged.tail)


def b3_normal_form(letters: Union[str, Iterable[str], BraidWord]) -> BraidWord:
    if isinstance(letters, BraidWord):
        return letters
    return BraidWord.parse(letters)


def syllable_maps(algebra: AlgebraPresentation) -> dict:
    """The maps of b, bb, c, a and a^-1 (key "A"), built on first use
    and kept on the algebra."""
    maps = algebra.braid_maps
    if not maps:
        b = braid_b_map(algebra)
        maps.update(
            b=b,
            bb=compose_maps(b, b, name="b^2"),
            c=braid_c_map(algebra),
            a=conjugation_map(algebra),
            A=conjugation_map(algebra, inverse=True),
        )
    return maps


def _syllables(w: BraidWord) -> list:
    """The syllable map keys of `w` in the order they act: the tail
    rightmost first, then the central power."""
    central = "a" if w.a_power >= 0 else "A"
    return list(reversed(w.tail)) + [central] * abs(w.a_power)


def b3_to_map(w, algebra: AlgebraPresentation) -> SemilinearMap:
    """The composed map of `w`: the syllable maps folded with compose_maps."""
    w = b3_normal_form(w)
    maps = syllable_maps(algebra)
    phi = identity_map(algebra)
    for key in _syllables(w):
        phi = compose_maps(maps[key], phi)
    return SemilinearMap(str(w), algebra, phi.images, phi.param_map)


def b3_act(w, p: NCPoly, algebra: AlgebraPresentation) -> NCPoly:
    maps = syllable_maps(algebra)
    keys = _syllables(b3_normal_form(w))
    if not keys:
        return semilinear_apply(identity_map(algebra), p)
    for key in keys:
        p = semilinear_apply(maps[key], p)
    return p
