"""Noncommutative rewriting with truncated critical-pair completion.

A :class:`RewriteSystem` holds rules `lhs -> rhs` where `lhs` is a word
that strictly dominates every word of `rhs` under a fixed deglex order,
so every rule is degree-nonincreasing and all reductions of an element
stay inside its degree slice.

Reduction is deterministic: highest remaining word first, leftmost
match, lowest rule id.  Normal forms are computed with a max-heap over
words; produced words are strictly smaller than the word being rewritten
under the order, which makes the heap pass equivalent to iterating
single deterministic steps while touching each word once.  The recorded
step list replays exactly on the input element, which is what the
certificate format relies on.

Every step, and the two steps of a critical pair, is a call of
:func:`substitute`, which hands the rule's rhs and the words around the
match to the product kernel :func:`daha.ncpoly.add_product`; it adds into
a working term map in place, copying a coefficient on its first write.

Completion checks a critical pair again only when one of its two rules
has changed since it was last found resolved, inter-reduces only an rhs
with a reducible word, and orients each new rule in one kernel call.

`proved-equal` is sound at any completion degree (rewriting only
subtracts multiples of relations).  `distinct-at-degree` needs completion
up to the difference's degree, or :meth:`RewriteSystem.check_equal`
refuses; it is decisive for homogeneous relations only, since an ambiguity
above the bound can yield a relation below it (`x*y -> 1` and `y*x -> 0`
give x = x*y*x = 0, found only at degree 3).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .coeffring import ParamRing, monomial_inverse
from .errors import (
    CertificateError,
    ExponentRangeError,
    IncompatibleRingError,
    InsufficientCompletionError,
    OrientationError,
)
from .ncpoly import Alphabet, NCPoly, TermOrder, Word, add_product, as_ncpoly, fnv1a64

log = logging.getLogger("daha")


@dataclass(frozen=True, eq=False)
class RewriteRule:
    """An oriented relation `lhs -> rhs`; ids are stable within a system,
    and a new rhs makes a new object (rules compare by identity)."""

    id: int
    lhs: Word
    rhs: NCPoly

    @cached_property
    def text(self) -> tuple[str, str]:
        """The rendered lhs and rhs, as certificates list them; rendered once."""
        return self.rhs.alphabet.render_word(self.lhs), self.rhs.render()

    def render(self) -> str:
        return "%s -> %s" % self.text


def make_rule(order: TermOrder, rule_id: int, lhs: Word, rhs: NCPoly) -> RewriteRule:
    """Validate orientation: every rhs word strictly below lhs."""
    lhs = tuple(lhs)
    if not lhs:
        raise OrientationError("a rule needs a nonempty left-hand side")
    for w in rhs.support():
        if order.compare(w, lhs) >= 0:
            raise OrientationError(
                f"rhs word {rhs.alphabet.render_word(w)} does not descend "
                f"from lhs {rhs.alphabet.render_word(lhs)}"
            )
    return RewriteRule(rule_id, lhs, rhs)


class ReductionStep(NamedTuple):
    """One rewrite: rule `rule_id` applied to term word `word` at `position`.
    A named tuple: immutable, and cheap to build once per step, in reduction
    and again in decoding."""

    rule_id: int
    position: int
    word: Word


@dataclass(frozen=True, slots=True)
class AmbiguityRecord:
    """A critical pair: two one-step reductions of the same word.

    `kind` is "overlap" (suffix of one lhs meets a prefix of the other)
    or "inclusion" (one lhs sits strictly inside the other).  Rule 1
    matches at the start of `word`, rule 2 at `pos2`.
    """

    kind: str
    word: Word
    rule1: int
    rule2: int
    pos2: int


@dataclass(frozen=True)
class CompletionReport:
    degree: int
    passes: int
    rules_added: int
    ambiguities_checked: int  # differences actually normalized
    ambiguities_skipped: int  # found resolved earlier with the same two rules

    def summary(self) -> str:
        return (
            f"completed to degree {self.degree}: {self.passes} passes, "
            f"{self.rules_added} rules added, "
            f"{self.ambiguities_checked} ambiguities checked, "
            f"{self.ambiguities_skipped} skipped as already resolved"
        )


@dataclass(frozen=True)
class ReductionCertificate:
    """A replayable trace of one reduction to normal form.

    Contains everything needed to re-run the reduction without the
    originating system: the algebra description, the order, a snapshot
    of the active rules, and the element itself alongside its hash.
    `states`, the rendered element after every step, is set only by decoding.
    """

    algebra: dict
    order: tuple
    rules: tuple
    initial: str
    initial_hash: str
    steps: tuple
    final: str
    final_hash: str
    confluence_degree: int
    states: tuple | None = None


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of a mechanical equality check.

    `verdict` is "proved-equal" or "distinct-at-degree", which is decisive
    only for homogeneous relations (module docstring).  `residual` is the
    normal form of the difference (zero exactly when proved equal), and
    the certificate's `confluence_degree` is the degree of the verdict.
    """

    verdict: str
    residual: NCPoly
    certificate: ReductionCertificate

    @property
    def equal(self) -> bool:
        return self.verdict == "proved-equal"

    def summary(self) -> str:
        if self.equal:
            return f"proved-equal (residual 0, {len(self.certificate.steps)} steps)"
        degree = self.certificate.confluence_degree
        return f"distinct-at-degree {degree} (residual {self.residual.render()})"


def substitute(terms: dict, word: Word, pos: int, rule: RewriteRule, coeff) -> list:
    """The one rewrite step: :func:`daha.ncpoly.add_product` of `coeff * pre *
    rule.rhs * suf` into `terms`, where `pre` and `suf` surround the lhs match
    at `pos` in `word` (which the caller has removed); returns the new words."""
    return add_product(terms, coeff, word[:pos], rule.rhs, word[pos + len(rule.lhs) :])


def step_in_place(terms: dict, step: ReductionStep, rules: Mapping, alphabet: Alphabet):
    """Apply one recorded step to the term map `terms` in place; raises
    :class:`CertificateError` when the step does not fit."""
    rule = rules.get(step.rule_id)
    if rule is None:
        raise CertificateError(f"unknown rule id {step.rule_id}")
    word = step.word
    coeff = terms.get(word)
    if coeff is None:
        raise CertificateError(f"absent word {alphabet.render_word(word)}")
    pos = step.position
    if pos < 0 or word[pos : pos + len(rule.lhs)] != rule.lhs:
        raise CertificateError(
            f"rule {step.rule_id} does not match "
            f"{alphabet.render_word(word)} at position {pos}"
        )
    del terms[word]
    substitute(terms, word, pos, rule, coeff)


class RewriteSystem:
    """Rules over one alphabet and coefficient ring, plus completion state.

    `confluence_degree` is the degree bound up to which completion has
    resolved every ambiguity of the current rules; a rule added from
    outside completion resets it to 0.  Rule ids are never reused, so a
    certificate's rule snapshot stays unambiguous even after
    inter-reduction has replaced or retired rules.
    """

    def __init__(self, alphabet: Alphabet, ring: ParamRing,
                 order: TermOrder | None = None, name: str | None = None):
        if order is None:
            order = TermOrder(alphabet)
        if order.alphabet != alphabet:
            raise ValueError("order built over a different alphabet")
        self.alphabet = alphabet
        self.ring = ring
        self.order = order
        self.name = name
        self.rules: dict[int, RewriteRule] = {}
        self.confluence_degree = 0
        self._next_id = 1
        self._by_first: dict[int, list[RewriteRule]] = {}
        self._irreducible: set = set()
        self._resolved: set = set()  # (AmbiguityRecord, rule1, rule2) keys
        self._neg_rank = tuple(-order.precedence.index(s) for s in alphabet.symbols)

    # -- rule bookkeeping --------------------------------------------------

    def add_rule(self, lhs: Word, rhs: NCPoly) -> RewriteRule:
        """Add a rule from outside completion, which voids earlier completion."""
        self.confluence_degree = 0
        return self._add_rule(lhs, rhs)

    def _add_rule(self, lhs: Word, rhs: NCPoly) -> RewriteRule:
        rule = make_rule(self.order, self._next_id, lhs, rhs)
        self._next_id += 1
        self.rules[rule.id] = rule
        self._by_first.setdefault(lhs[0], []).append(rule)  # ids only grow: buckets stay sorted
        self._irreducible.clear()
        return rule

    def _unregister(self, rule_id: int):
        """Retire a rule; that makes no irreducible word reducible."""
        rule = self.rules.pop(rule_id)
        self._by_first[rule.lhs[0]].remove(rule)

    def _replace_rhs(self, rule_id: int, rhs: NCPoly):
        old = self.rules[rule_id]
        new = make_rule(self.order, rule_id, old.lhs, rhs)
        self.rules[rule_id] = new
        bucket = self._by_first[old.lhs[0]]
        bucket[bucket.index(old)] = new

    def sorted_rules(self) -> list:
        # ids only grow and _replace_rhs keeps its key, so insertion order is id order
        return list(self.rules.values())

    def describe(self) -> dict:
        return {
            "name": self.name,
            "base": self.ring.base.describe(),
            "params": [[name, bool(flag)] for name, flag in zip(self.ring.params, self.ring.invertible)],
            "generators": list(self.alphabet.symbols),
        }

    # -- single steps ------------------------------------------------------

    def find_redex(self, word: Word):
        """Leftmost match, lowest rule id; None when `word` is irreducible."""
        if word in self._irreducible:
            return None
        n = len(word)
        for pos in range(n):
            bucket = self._by_first.get(word[pos])
            if not bucket:
                continue
            for rule in bucket:  # ascending id
                size = len(rule.lhs)
                if pos + size <= n and word[pos : pos + size] == rule.lhs:
                    return rule, pos
        self._irreducible.add(word)
        return None

    def _reducible_by_others(self, rule: RewriteRule) -> bool:
        """Whether a rule other than `rule` matches somewhere in its lhs."""
        lhs = rule.lhs
        return any(
            other is not rule and lhs[pos : pos + len(other.lhs)] == other.lhs
            for pos in range(len(lhs))
            for other in self._by_first.get(lhs[pos], ())
        )

    # -- normal forms --------------------------------------------------------

    def _neg_key(self, word: Word):
        return (-len(word), tuple(map(self._neg_rank.__getitem__, word)))

    def normal_form(self, p: NCPoly, record: bool = False):
        """Reduce to normal form; returns (nf, steps).

        Words are processed highest-first via a lazy-deletion max-heap.
        Every word a step produces is strictly smaller than the word it
        rewrote, so finished words are never revisited and the recorded
        steps replay verbatim on the original element.  An exponent out of
        range raises :class:`ExponentRangeError` naming the step's rule and word.
        """
        if not p.terms:
            return p, ()
        if p.ring is not self.ring and p.ring != self.ring:
            raise IncompatibleRingError("element and rules use different coefficient rings")
        pending = dict(p.terms)
        finished: dict = {}
        heap = [(self._neg_key(w), w) for w in pending]
        heapq.heapify(heap)
        steps = [] if record else None
        while heap:
            _, word = heapq.heappop(heap)
            coeff = pending.pop(word, None)
            if coeff is None:
                continue  # stale heap entry
            hit = self.find_redex(word)
            if hit is None:
                finished[word] = coeff
                continue
            rule, pos = hit
            if record:
                steps.append(ReductionStep(rule.id, pos, word))
            try:
                inserted = substitute(pending, word, pos, rule, coeff)
            except ExponentRangeError as exc:
                raise ExponentRangeError(
                    f"{exc} (rewriting {self.alphabet.render_word(word)} by rule {rule.id})"
                ) from None
            for new_word in inserted:
                heapq.heappush(heap, (self._neg_key(new_word), new_word))
        nf = as_ncpoly(self.alphabet, self.ring, finished)
        return nf, tuple(steps) if record else ()

    def nf(self, p: NCPoly) -> NCPoly:
        return self.normal_form(p)[0]

    def irreducible_words(self, max_degree: int) -> list:
        """All normal-form words of degree at most `max_degree`: each
        irreducible word extended by one letter that `find_redex` passes."""
        out, frontier = [()], [()]
        for _ in range(max_degree):
            grown = (word + (g,) for word in frontier for g in range(len(self.alphabet)))
            frontier = [w for w in grown if self.find_redex(w) is None]
            out += frontier
        return sorted(out, key=self.order.key)

    # -- certificates and equality -----------------------------------------------

    def reduce_with_certificate(self, p: NCPoly):
        """Normal form plus a certificate that replays the reduction.  The
        certificate records no states: the writer derives them on request
        (:func:`daha.certificates.certificate_to_json`)."""
        nf, steps = self.normal_form(p, record=True)
        initial, final = p.render(), nf.render()
        cert = ReductionCertificate(
            algebra=self.describe(),
            order=self.order.precedence,
            rules=tuple((r.id, *r.text) for r in self.sorted_rules()),
            initial=initial,
            initial_hash=fnv1a64(initial),
            steps=steps,
            final=final,
            final_hash=fnv1a64(final),
            confluence_degree=self.confluence_degree,
        )
        return nf, cert

    def check_equal(self, p: NCPoly, r: NCPoly | None = None) -> EqualityVerdict:
        """Decide p = r in the presented algebra, with the certificate of
        the difference's reduction (see :meth:`reduce_with_certificate`).

        Reduction to zero proves equality.  A system completed below the
        difference's degree raises :class:`InsufficientCompletionError`;
        otherwise a nonzero residual proves p != r for homogeneous relations
        only, since completion past that degree may still find a relation.
        """
        diff = p if r is None else p - r
        if diff and self.confluence_degree < diff.degree():
            raise InsufficientCompletionError(
                f"difference has degree {diff.degree()} but completion "
                f"only reached degree {self.confluence_degree}"
            )
        residual, cert = self.reduce_with_certificate(diff)
        verdict = "proved-equal" if residual.is_zero() else "distinct-at-degree"
        return EqualityVerdict(verdict, residual, cert)

    # -- completion -----------------------------------------------------------

    def critical_pairs(self, max_degree: int) -> list:
        """All overlap and inclusion ambiguities up to `max_degree`."""
        records = []
        rules = self.sorted_rules()
        for r1 in rules:
            for r2 in rules:
                l1, l2 = r1.lhs, r2.lhs
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k :] == l2[:k] and len(l1) + len(l2) - k <= max_degree:
                        word = l1 + l2[k:]
                        records.append(AmbiguityRecord("overlap", word, r1.id, r2.id, len(l1) - k))
                if len(l1) <= max_degree and (len(l2) < len(l1) or (l2 == l1 and r1.id < r2.id)):
                    for pos in range(len(l1) - len(l2) + 1):
                        if l1[pos : pos + len(l2)] == l2:
                            records.append(AmbiguityRecord("inclusion", l1, r1.id, r2.id, pos))
        return records

    def ambiguity_difference(self, amb: AmbiguityRecord) -> NCPoly:
        """Difference of the two one-step reductions of the ambiguous word."""
        terms: dict = {}
        one = self.ring.one()
        substitute(terms, amb.word, 0, self.rules[amb.rule1], one)
        substitute(terms, amb.word, amb.pos2, self.rules[amb.rule2], -one)
        return as_ncpoly(self.alphabet, self.ring, terms)

    def _orient(self, diff: NCPoly, amb: AmbiguityRecord | None = None) -> RewriteRule:
        """Turn a fully reduced nonzero relation into a rule; `amb` is the
        ambiguity it came from, named when the relation cannot be oriented."""
        word, coeff = diff.leading_term(self.order)

        def source():  # formatted only for an error
            return "" if amb is None else (
                f"; it comes from the {amb.kind} ambiguity of rules {amb.rule1} "
                f"and {amb.rule2} on {self.alphabet.render_word(amb.word)}")
        if not word:
            raise OrientationError(
                f"a nonzero scalar {diff.render()} lies in the ideal; "
                f"the presentation collapses{source()}"
            )
        if not coeff.is_unit():
            raise OrientationError(
                f"leading coefficient {coeff.render()} of the derived relation "
                f"{diff.render()} = 0 is not a unit; cannot orient{source()}"
            )
        terms: dict = {}
        try:
            add_product(terms, -monomial_inverse(coeff), (), diff)
        except ExponentRangeError as exc:
            raise ExponentRangeError(f"{exc}{source()}") from None
        del terms[word]  # its coefficient is -1: the rhs is word - diff/coeff
        return self._add_rule(word, as_ncpoly(self.alphabet, self.ring, terms))

    def _interreduce(self):
        """Keep the rule set reduced: no lhs reducible by the others, every
        rhs in normal form (an rhs with no reducible word already is).  Rhs
        updates keep their rule id; a rule whose lhs falls gets retired and
        its surviving content re-oriented under a fresh id."""
        while True:
            for rule in self.sorted_rules():
                if self._reducible_by_others(rule):
                    self._unregister(rule.id)
                    head = NCPoly.monomial(self.alphabet, self.ring, rule.lhs)
                    survivor = self.nf(head - rule.rhs)
                    if survivor:
                        self._orient(survivor)
                    break  # the lhs set changed: scan again
                if any(map(self.find_redex, rule.rhs.terms)):
                    self._replace_rhs(rule.id, self.nf(rule.rhs))
            else:
                # no lhs changed, so every rhs normalized in this scan stays normal
                return

    def complete_to_degree(self, degree: int) -> CompletionReport:
        """Resolve all ambiguities of degree at most `degree`.

        Repeatedly sweeps the critical pairs, orients every unresolved
        difference (smallest first) and inter-reduces, until a sweep
        finds nothing.  Terminates because each new rule strictly shrinks
        the finite set of irreducible words of bounded degree.

        A pair whose difference once reduced to 0 is skipped while both of
        its rule objects stand, across passes and later calls.  That stays
        sound: the reduction wrote the difference through relations on
        words below the ambiguous one, and inter-reduction re-expresses a
        retired or rewritten relation through relations on words no larger
        than its lhs, so the pair stays resolvable relative to the order
        (the diamond lemma's condition) for every later rule set.
        """
        if degree <= self.confluence_degree:
            return CompletionReport(self.confluence_degree, 0, 0, 0, 0)
        passes = added = checked = skipped = 0
        while True:
            passes += 1
            before = (checked, skipped, added)
            # keys of replaced or retired rules can never match again
            live = set(self.rules.values())
            self._resolved = {k for k in self._resolved if k[1] in live and k[2] in live}
            unresolved = []
            for amb in self.critical_pairs(degree):
                key = (amb, self.rules[amb.rule1], self.rules[amb.rule2])
                if key in self._resolved:
                    skipped += 1
                    continue
                checked += 1
                diff = self.nf(self.ambiguity_difference(amb))
                if diff:
                    unresolved.append((diff, amb))
                else:
                    self._resolved.add(key)
            unresolved.sort(key=lambda item: (
                item[0].degree(), self.order.key(item[0].leading_term(self.order)[0]),
                item[1].rule1, item[1].rule2,
            ))
            for diff, amb in unresolved:
                # earlier orientations in this sweep may already resolve it
                diff = self.nf(diff)
                if not diff:
                    continue
                self._orient(diff, amb)
                added += 1
                self._interreduce()
            log.debug("completion to degree %d, pass %d: %d checked, %d skipped, "
                      "%d unresolved, %d rules added", degree, passes, checked - before[0],
                      skipped - before[1], len(unresolved), added - before[2])
            if not unresolved:
                break
        self.confluence_degree = max(self.confluence_degree, degree)
        return CompletionReport(degree, passes, added, checked, skipped)
