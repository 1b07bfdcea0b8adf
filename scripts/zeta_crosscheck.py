#!/usr/bin/env python3
"""Cross-validate genus formulas by point counting and zeta inference.

For each model in the battery: count rational places over a tower of
extensions, infer the genus from the Weil polynomial, and verify the
cyclic generator acts with its full order.  Every check is exact.

Example:
    python3 scripts/zeta_crosscheck.py

One model over one field is checked by the CLI instead:
    cycliccurves verify --model kummer:5,1,2 --q 11 --zeta-depth 4
"""

import argparse
import sys
import time

from cycliccurves.cli import model_to_spec
from cycliccurves.families import (
    ASPower, ASRational, Homma, Hyperelliptic, Kummer,
)
from cycliccurves.fforacle import (
    count_series, field, verify_automorphism, zeta_genus, OrderMismatch,
    PreconditionViolated,
)

# (model, counting field (p, k), orbit-check field (p, k))
BATTERY = [
    (Kummer(5, 1, 1), (11, 1), (11, 1)),
    (Kummer(6, 1, 1), (13, 1), (13, 1)),
    (Kummer(8, 1, 3), (3, 2), (3, 2)),
    (Homma(5), (5, 1), (5, 1)),
    (Homma(7), (7, 1), (7, 1)),
    (ASPower(5, 2, 1, 0), (5, 1), (5, 3)),
    (Hyperelliptic(2, 2), (7, 1), (7, 1)),
    (Hyperelliptic(2, 3), (7, 1), (7, 1)),
    (ASRational(5, 1, 1, 4), (5, 1), (5, 1)),
    # coefficients outside F_5, lifted into each extension of F_25
    (Hyperelliptic(2, 11), (5, 2), (5, 2)),
    (ASPower(5, 2, 5, 2), (5, 2), (5, 2)),
    # characteristic 3: F_9 holds no element of order 4, F_81 does; F_3
    # gives ASRational no affine point, so its order check is refused there
    (ASPower(3, 4, 1, 0), (3, 2), (3, 4)),
    (ASRational(3, 1, 1, 2), (3, 2), (3, 2)),
]


def check(model, count_field, orbit_field):
    g = model.genus
    t0 = time.perf_counter()
    series = count_series(model, count_field, 2 * g)
    inferred = zeta_genus(series, g)
    try:
        report = verify_automorphism(model, orbit_field)
        order = report.order
    except (OrderMismatch, PreconditionViolated) as exc:
        order = str(exc)
    elapsed = time.perf_counter() - t0
    status = "OK" if inferred == g and order == model.n else "FAIL"
    print(f"{model_to_spec(model):<24} q={count_field.q:<4} g={g} "
          f"zeta={inferred} order={order} counts={list(series.counts)} "
          f"[{elapsed:.2f}s] {status}")
    return status == "OK"


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    ok = True
    for model, (p, k), (po, ko) in BATTERY:
        ok &= check(model, field(p, k), field(po, ko))
    print("all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
