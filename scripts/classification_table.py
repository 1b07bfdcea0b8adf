#!/usr/bin/env python3
"""Print classification tables over a sweep of characteristics and genera.

Example:
    python3 scripts/classification_table.py --characteristics 0 3 5 7 --max-genus 12
"""

import argparse
import sys
import time
from collections import Counter

from cycliccurves.classify import classify
from cycliccurves.cli import model_to_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--characteristics", type=int, nargs="+",
                    default=[0, 3, 5, 7, 11, 13])
    ap.add_argument("--min-genus", type=int, default=2)
    ap.add_argument("--max-genus", type=int, default=10)
    ap.add_argument("--wild-only", action="store_true",
                    help="only print branch II/III rows")
    args = ap.parse_args()

    start = time.perf_counter()
    totals = Counter()
    for p in args.characteristics:
        print(f"== characteristic {p or '0 (classical)'}")
        for g in range(args.min_genus, args.max_genus + 1):
            entries = classify(p, g)
            for e in entries:
                totals[e.branch] += 1
                if args.wild_only and not e.wild:
                    continue
                ram = str(e.signature) if e.signature else " + ".join(
                    f"{o.orbit_size}x{list(o.filtration.orders)}"
                    for o in e.ramification)
                print(f"  g={g:>2}  N={e.n:>3}  {e.branch:<16} "
                      f"{model_to_spec(e):<24} {ram}")
        print()
    print("branch totals:", dict(sorted(totals.items())))
    print(f"done in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
