#!/usr/bin/env python3
"""Hash the classify grid and compare it with the pinned value.

The grid is p in {0, 3, 5, 7, 11, 13, 17, 19, 23} x g in 2..30 x raw_pairs
in {False, True}.  Every entry feeds one line into a sha256:

    repr((p, g, raw, n, branch, spec, genus, wild, repr(signature),
          repr(orbits)))

with spec the entry's command-line model spec, signature its
`signature` view (None for a wild entry) and orbits its `ramification`,
the orbit data, for a wild entry (None for a tame one).  The script
exits 1 unless the grid has PINNED_ENTRIES entries and the hash is
PINNED_SHA256.  A change that alters the classification on purpose
updates both values and says why.

Example:
    PYTHONPATH=src python3 scripts/classify_grid_hash.py
"""

import hashlib
import sys
import time

from cycliccurves.classify import classify
from cycliccurves.cli import model_to_spec

CHARACTERISTICS = (0, 3, 5, 7, 11, 13, 17, 19, 23)
GENERA = range(2, 31)
PINNED_ENTRIES = 338_294
PINNED_SHA256 = (
    "aba35d4468da3ddfacc8938eeb1d0198fd86c42eccfdf7f2d66d0809498bbe7b")


def grid_hash():
    """(number of entries, sha256 hex digest) of the classify grid."""
    digest = hashlib.sha256()
    entries = 0
    for p in CHARACTERISTICS:
        for g in GENERA:
            for raw in (False, True):
                for e in classify(p, g, raw_pairs=raw):
                    digest.update(repr((
                        p, g, raw, e.n, e.branch, model_to_spec(e),
                        e.genus, e.wild, repr(e.signature),
                        repr(e.ramification if e.wild else None),
                    )).encode())
                    entries += 1
    return entries, digest.hexdigest()


def main():
    start = time.perf_counter()
    entries, sha = grid_hash()
    ok = (entries, sha) == (PINNED_ENTRIES, PINNED_SHA256)
    print(f"{entries} entries, sha256 {sha}: "
          f"{'matches' if ok else 'DIFFERS from'} the pinned "
          f"{PINNED_ENTRIES} entries, sha256 {PINNED_SHA256} "
          f"({time.perf_counter() - start:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
