"""Rebuild bench/data/w12_dependent.txt, the dependent 7-subsets at weight 12.

Run from the repository root:

    python3 bench/rebuild_reference.py

The coordinate matrix comes from the program (descendent_matrix(12));
everything after that is the benchmark's own arithmetic: every 7 x 7
minor is evaluated modulo 2^61 - 1 and each zero is confirmed exactly
(``reference.dependent_subsets``).  The list must leave the published
102 670 bases, or the file is not written.
"""

import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import reference  # noqa: E402
from descmat import descendent_matrix  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    m = descendent_matrix(12)
    if m.nrows != reference.W12_RANK or len(m) != reference.W12_GROUND:
        print(f"unexpected weight-12 matrix shape {m.nrows} x {len(m)}", file=sys.stderr)
        return 1
    masks = reference.dependent_subsets(m.columns, reference.W12_RANK)
    bases = comb(reference.W12_GROUND, reference.W12_RANK) - len(masks)
    if bases != reference.W12_PUBLISHED_BASES:
        print(f"{bases} bases, not the published 102 670: file not written", file=sys.stderr)
        return 1
    reference.DATA_DIR.mkdir(exist_ok=True)
    reference.W12_DEPENDENT_FILE.write_text("".join(f"{mask:06x}\n" for mask in sorted(masks)))
    elapsed = time.perf_counter() - start
    print(f"wrote {len(masks)} dependent 7-subsets ({bases} bases) in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
