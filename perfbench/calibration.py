"""Machine-speed calibration shared by the benchmark's processes.

The machines this benchmark runs on are shared, and their speed drifts by
20-40% over tens of seconds.  Every op is therefore also reported in
reference seconds: its time scaled by how much longer a fixed piece of
pure-Python work took around it than ``CALIBRATION_REF_S``.  That work
has the shape of the engine's inner loops, on the standard library
alone: products of noncommutative polynomials, dicts keyed by word
tuples, whose coefficients are Laurent polynomials, objects with
``__slots__`` holding dicts keyed by exponent tuples with ``Fraction``
values, added and multiplied through a ring object's methods.  Over six
20 s runs of ``deep-identity`` on such a machine, op_tail_s spread by 13%
(quartile distance over median) unscaled, by 10% scaled by a bare
``Fraction`` dict product, and by 5% scaled by a larger version of this
work.

Importing the engine is other work: unmarshalling code, running module
bodies, building dataclasses.  The machine's slow spells slow it less
than the polynomial products, so set-up has a calibration of its own that
does the same kind of work on a fixed synthetic module.  Over eight
processes, the median import time of each spread by 3% scaled by such
work and by 21% scaled by a bare ``Fraction`` dict product.
"""

import marshal
import time
from fractions import Fraction

CALIBRATE_EVERY_S = 0.25  # a worker re-times the work at least this often
CALIBRATION_REF_S = 0.007  # the work's time at the reference speed


class _Ring:
    __slots__ = ()

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def is_zero(self, a):
        return a == 0


class _Laurent:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __add__(self, other):
        ring, out = self.ring, dict(self.terms)
        for exps, c in other.terms.items():
            total = ring.add(out[exps], c) if exps in out else c
            if ring.is_zero(total):
                out.pop(exps, None)
            else:
                out[exps] = total
        return _Laurent(ring, out)

    def __mul__(self, other):
        ring, out = self.ring, {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = ring.mul(c1, c2)
                if exps in out:
                    total = ring.add(out[exps], c)
                    if ring.is_zero(total):
                        del out[exps]
                    else:
                        out[exps] = total
                elif not ring.is_zero(c):
                    out[exps] = c
        return _Laurent(ring, out)


def _ncpoly(seed: int) -> dict:
    ring = _Ring()
    return {
        tuple((seed * 7 + i * 3 + k) % 4 for k in range(1 + (i + seed) % 3)):
            _Laurent(ring, {(j - 1, (i + j) % 3 - 1): Fraction(i + j + 1, seed + j + 2) for j in range(2)})
        for i in range(5)
    }


def _ncmul(left: dict, right: dict) -> dict:
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            word, c = w1 + w2, c1 * c2
            if word in out:
                total = out[word] + c
                if total.terms:
                    out[word] = total
                else:
                    del out[word]
            elif c.terms:
                out[word] = c
    return out


_A, _B = _ncpoly(1), _ncpoly(2)
IMPORT_REF_S = 0.02  # calibrate_import's time at the reference speed
_MODULE = "\n".join(
    ["from dataclasses import dataclass\nfrom typing import Optional\n"]
    + [f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: str = 'x'\n    c: tuple = ()\n"
       f"    d: Optional[int] = None\n\n    def m(self, x):\n        return self.a + x\n\n\n"
       f"def f{i}(xs):\n    out = {{}}\n    for k, v in xs.items():\n"
       f"        out[k] = out.get(k, 0) + v * {i}\n    return out\n"
       for i in range(20)]
)
_MODULE_CODE = marshal.dumps(compile(_MODULE, "<calibration>", "exec"))


def calibrate() -> float:
    """Best of three timings of a fixed product of three polynomials, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _ncmul(_ncmul(_A, _B), _A)
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_import() -> float:
    """Best of three timings of loading and running a fixed module, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        exec(marshal.loads(_MODULE_CODE), {"__name__": "calibration_module"})
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(seconds: float, work_seconds: float, ref_seconds: float = CALIBRATION_REF_S) -> float:
    """``seconds`` measured while the work took ``work_seconds``, at reference
    speed; ``ref_seconds`` is the work's own time at that speed."""
    return seconds * ref_seconds / work_seconds
