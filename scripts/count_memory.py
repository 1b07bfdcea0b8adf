#!/usr/bin/env python3
"""Time and trace the place count of each family near the field ceiling.

For each (model, field) below, the field is built and the model's
places are counted with `fforacle.count_places`, both under tracemalloc
(numpy reports its buffers to it).  One JSON line per row gives the
count, the seconds the build and the count took, the bytes of the
field's tables, and the traced peaks beyond them: that of the build
and that of the count, each in MiB.  Both passes run over the field in
blocks of `fforacle._BLOCK` elements, so their peaks stay near a few
blocks whatever q is.

Then one row for each raw Kummer listing `classify(0, g,
raw_pairs=True)` below, also under tracemalloc: the entries, the
seconds (tracemalloc slows each allocation, so they run several times
slower than untraced), the MiB held once it returns (the entries
and what the call left in the caches) and at its peak, and the cyclic
garbage collections made during the call, per generation (from
`gc.get_stats()`).  The listing expands its orbits over blocks of
orders of `classify._BLOCK` keys, so its peak stays within about a
block's arrays of what it holds, and builds each block's entries with
the collector paused.

Example:
    PYTHONPATH=src python3 scripts/count_memory.py
"""

import gc
import json
import time
import tracemalloc

from cycliccurves.classify import classify
from cycliccurves.cli import model_to_spec
from cycliccurves.families import (
    ASPower, ASRational, Homma, Hyperelliptic, Kummer,
)
from cycliccurves.fforacle import FiniteField, count_places

MIB = 2**20
LARGEST_PRIME = 4_194_301  # the largest prime below the ceiling 2^22

# (model, field (p, k)): one of each family, q above 10^6, and Kummer
# over an extension field too, counted in its LogView
ROWS = [
    (Kummer(5, 1, 2), (LARGEST_PRIME, 1)),
    (Kummer(7, 1, 2), (3, 13)),
    (Hyperelliptic(2, 3), (LARGEST_PRIME, 1)),
    (ASPower(3, 4, 1, 0), (3, 13)),
    (ASRational(3, 1, 1, 1), (3, 13)),
    (Homma(5), (5, 9)),
]
RAW_GENERA = (100, 200)  # raw classify(0, g): 42,193 and 166,699 entries


def measure(model, p, k):
    """The row of `model` over a fresh F_{p^k}."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        fld = FiniteField(p, k)
        build_s = time.perf_counter() - start
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        count = count_places(model, fld)
        count_s = time.perf_counter() - start
        count_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    tables = sum(t.nbytes for t in (fld._expz, fld._log, fld._zechz)
                 if t is not None)
    return {"model": model_to_spec(model), "q": fld.q, "count": count,
            "build_s": round(build_s, 4), "count_s": round(count_s, 4),
            "tables_mib": round(tables / MIB, 2),
            "build_peak_over_tables_mib": round((build_peak - tables) / MIB,
                                                2),
            "count_peak_mib": round(count_peak / MIB, 2)}


def measure_raw(g):
    """The row of the raw listing of classify(0, g)."""
    tracemalloc.start()
    try:
        before = [gen["collections"] for gen in gc.get_stats()]
        start = time.perf_counter()
        entries = classify(0, g, raw_pairs=True)
        seconds = time.perf_counter() - start
        after = [gen["collections"] for gen in gc.get_stats()]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"classify": f"p=0 g={g} raw_pairs", "entries": len(entries),
            "s": round(seconds, 4), "held_mib": round(held / MIB, 2),
            "peak_mib": round(peak / MIB, 2),
            "collections": [b - a for a, b in zip(before, after)]}


def main():
    for model, (p, k) in ROWS:
        print(json.dumps(measure(model, p, k)), flush=True)
    for g in RAW_GENERA:
        print(json.dumps(measure_raw(g)), flush=True)


if __name__ == "__main__":
    main()
