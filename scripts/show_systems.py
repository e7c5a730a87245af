#!/usr/bin/env python3
"""Print the completed rewrite systems for the shipped presets.

Shows each preset's active rules after truncated completion, together
with the count of irreducible words by degree, which makes the normal
form shape (a T-block followed by a V-block in the rank-one algebras)
easy to eyeball.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from daha import PRESET_NAMES, DahaError, preset
from daha.cli import _degree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=_degree, default=8)
    parser.add_argument("--word-degree", type=_degree, default=6)
    parser.add_argument("presets", nargs="*", default=list(PRESET_NAMES))
    args = parser.parse_args()
    try:
        show(args)
    except (DahaError, OSError) as exc:  # an unknown preset or a closed pipe, as `daha` ends
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def show(args) -> None:
    for name in args.presets:
        alg = preset(name)
        report = alg.complete(args.degree)
        print(f"== {name} ==")
        print(report.summary())
        for rule in alg.system.sorted_rules():
            print(f"  [{rule.id}] {rule.render()}")
        counts = Counter(
            len(w) for w in alg.system.irreducible_words(args.word_degree)
        )
        by_degree = ", ".join(
            f"{d}:{counts.get(d, 0)}" for d in range(args.word_degree + 1)
        )
        print(f"irreducible words by degree: {by_degree}")
        print()


if __name__ == "__main__":
    raise SystemExit(main())
