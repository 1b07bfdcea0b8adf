#!/usr/bin/env python3
"""Split the build of each small-characteristic extension field by stage.

For every F_{p^k} with p in {3, 5, 7, 11, 13}, k >= 2 and p^k <= 2^20,
one JSON line gives the milliseconds of the modulus search
(`_least_irreducible`), of the primitive-element search
(`FiniteField._least_primitive`, run again on the built field) and of
the whole build (`FiniteField(p, k)`, which runs both searches and then
fills the exp, log and Zech tables), each the best of `REPEATS` runs,
and the candidates the primitive-element search passed over before it
found g = `_exp[1]`, which it tests from p.

Example:
    PYTHONPATH=src python3 scripts/field_build_split.py
"""

import json
import time

from cycliccurves.fforacle import FiniteField, _least_irreducible

PRIMES = (3, 5, 7, 11, 13)
MAX_Q = 1 << 20
REPEATS = 3


def best_ms(fn):
    """The least wall time of `REPEATS` calls of fn, in ms, and its
    last result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3), out


def row(p, k):
    modulus_ms, _ = best_ms(lambda: _least_irreducible(p, k))
    build_ms, fld = best_ms(lambda: FiniteField(p, k))
    generator_ms, g = best_ms(fld._least_primitive)
    if g != fld._exp[1]:
        raise RuntimeError(f"F_{p}^{k}: search gave {g}, table {fld._exp[1]}")
    return {"p": p, "k": k, "q": fld.q, "modulus_ms": modulus_ms,
            "generator_ms": generator_ms, "failed_candidates": g - p,
            "build_ms": build_ms}


def main():
    for p in PRIMES:
        k = 2
        while p**k <= MAX_Q:
            print(json.dumps(row(p, k)), flush=True)
            k += 1


if __name__ == "__main__":
    main()
