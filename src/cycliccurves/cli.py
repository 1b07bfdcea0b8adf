"""Command-line frontend: classification, enumeration, verification.

Four subcommands, all batch-oriented with machine-readable output:

  classify    --p P --genus G [--n N] [--raw-pairs] [--format ...]
  pairs       --n N [--genus G] [--canonical] [--format ...]
  signatures  --n N --genus G [--format ...]
  verify      --model SPEC --q Q [--zeta-depth D]

A model spec is a family name and its parameters, `name:v1,v2,...`,
in the order the family declares (`families.FAMILIES`).  Field
coefficients are integers (prime-field residues) or dot-separated
coefficient strings like 2.1 for extension field elements (meaning
2 + 1*x in the base-p encoding).  `verify` expects the generator to have
the model's order `n`; q^depth may not pass the field ceiling 2^22.

Output is line-delimited JSON by default (canonical key order, integers
only, byte-stable under reparse/reserialize); --format csv/table give a
flat rendering.  Exit codes: 0 success, 1 verification mismatch, 2
usage or precondition error.

Records are made in one place.  A subcommand returns its exit code and
its payloads, plain dicts; `main` stamps each with `schema_version` and
`command` and emits them in --format (`verify` is JSON only).  A new
record kind is one more payload, and `main` does not change for it.
"""

import argparse
import csv
import functools
import itertools
import json
import sys

from . import fforacle
from .classify import (
    _orbit,
    classify,
    enumerate_signatures,
    primitive_pairs,
)
from .families import FAMILIES
from .intmath import prime_factors

SCHEMA_VERSION = "1"

_FAMILY_BY_NAME = {family.name: family for family in FAMILIES}
_SPEC_GRAMMAR = " | ".join(
    f"{family.name}:{','.join(family.spec_fields)}" for family in FAMILIES)


def model_to_spec(model) -> str:
    return f"{model.name}:{','.join(str(v) for v in model.spec_values())}"


def _parse_param(token, p):
    token = token.strip()
    if "." in token:
        digits = [int(d) for d in token.split(".")]
        if any(not 0 <= d < p for d in digits):
            raise ValueError(
                f"coefficient string {token!r} has digits outside [0, {p})")
        enc = 0
        for d in reversed(digits):
            enc = enc * p + d
        return enc
    return int(token)


def parse_model_spec(spec, p):
    """Build a curve model from its CLI spec string.

    p is the field characteristic, needed to decode extension-field
    coefficient strings.
    """
    kind, _, rest = spec.partition(":")
    parts = rest.split(",") if rest else []
    family = _FAMILY_BY_NAME.get(kind)
    if family is None or len(parts) != len(family.spec_fields):
        raise ValueError(f"bad model spec {spec!r}")
    k = len(parts) - family.coefficients
    try:
        return family(*(int(t) for t in parts[:k]),
                      *(_parse_param(t, p) for t in parts[k:]))
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from exc


def _parse_prime_power(q):
    if q < 3:
        raise ValueError(f"q must be an odd prime power >= 3, got {q}")
    fforacle.check_ceiling(q, 1, f"q = {q}")  # before trial division
    p, *others = prime_factors(q)  # distinct
    if others:
        raise ValueError(f"q={q} is not a prime power")
    return p, next(k for k in range(1, q) if p**k == q)


# ---------------------------------------------------------------------------
# output plumbing


def _flatten(value):
    if isinstance(value, (list, tuple)):
        return " ".join(_flatten(v) for v in value) or "-"
    if isinstance(value, dict):
        return ";".join(f"{k}={_flatten(v)}" for k, v in value.items())
    if value is None:
        return "-"
    return str(value)


def _emit(records, fmt):
    """Print json and csv records as they come; a table holds them all
    to size its columns.  A command's records share keys, the columns."""
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return
    records = iter(records)
    head = next(records, None)
    if head is None:
        return
    keys = sorted(head)
    rows = ([_flatten(rec[k]) for k in keys]
            for rec in itertools.chain([head], records))
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(rows)
        return
    rows = list(rows)
    widths = [max(len(k), *(len(r[i]) for r in rows)) for i, k in enumerate(keys)]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    # classify runs, and can fail, before the first record is printed
    entries = classify(args.p, args.genus, raw_pairs=args.raw_pairs, n=args.n)
    return 0, ({
        "p": args.p,
        "genus": entry.genus,
        "n": entry.n,
        "branch": entry.branch,
        "wild": entry.wild,
        "model": model_to_spec(entry),
        "signature": None if entry.wild else {
            "g0": entry.signature.g0,
            "indices": list(entry.signature.indices)},
        "orbits": [{"orders": list(o.filtration.orders), "size": o.orbit_size}
                   for o in entry.ramification] if entry.wild else None,
    } for entry in entries)


def _cmd_pairs(args):
    if args.genus is not None and args.genus < 0:
        raise ValueError(f"genus must be an int >= 0, got {args.genus}")
    return 0, _pair_records(args)


def _pair_records(args):
    # pairs come in lexicographic order and an orbit keeps the genus, so
    # an orbit's first pair is its canonical one
    n, canonical = args.n, {}
    for pair in primitive_pairs(n):
        if args.genus not in (None, pair.genus):
            continue
        key = pair.r, pair.s
        if key not in canonical:
            canonical |= dict.fromkeys(_orbit(n, *key), key)
        if not args.canonical or canonical[key] == key:
            yield {
                "n": pair.n,
                "r": pair.r,
                "s": pair.s,
                "genus": pair.genus,
                "canonical": list(canonical[key]),
            }


def _cmd_signatures(args):
    sigs = enumerate_signatures(args.n, args.genus)
    return 0, ({
        "n": args.n,
        "genus": args.genus,
        "g0": sig.g0,
        "indices": list(sig.indices),
    } for sig in sigs)


def _cmd_verify(args):
    p, k = _parse_prime_power(args.q)
    model = parse_model_spec(args.model, p)
    g = model.genus
    if args.zeta_depth:  # a bad tower is refused before any field is built
        fforacle.check_tower(args.q, args.zeta_depth, g)
    fld = fforacle.field(p, k)

    # one listing of the affine points serves both records; the generator
    # comes first, so a missing root of unity fails before any point is
    # listed, and a refused map still reports the listing's places
    try:
        report = fforacle.verify_automorphism(model, fld)
        count = report.places
        automorphism = {
            "order": report.order, "expected_order": model.n,
            "affine_points": report.point_count,
            "fixed_points": [list(pt) for pt in report.fixed_points],
            "ok": report.fixed_points == model.affine_fixed}
    except (fforacle.NotAnAutomorphism, fforacle.OrderMismatch) as exc:
        count = exc.places
        automorphism = {"error": str(exc), "ok": False}
    checks = {"places": {"count": count, "genus_formula": g,
                         "ok": fforacle.within_hasse_weil(count, args.q, g)},
              "automorphism": automorphism}
    if args.zeta_depth:
        try:
            series = fforacle.count_series(model, fld, args.zeta_depth)
        except fforacle.HasseWeilViolation as exc:  # names the count
            checks["zeta"] = {"error": str(exc), "ok": False}
        else:
            inferred, reason = fforacle.zeta_fit(series, g_max=g)
            checks["zeta"] = {
                "counts": list(series.counts),
                "inferred_genus": -1 if inferred is None else inferred,
                "genus_formula": g, "ok": inferred == g,
                **({"reason": reason} if reason else {})}
    ok = all(fields["ok"] for fields in checks.values())
    checks["summary"] = {"ok": ok}
    return (0 if ok else 1), ({"check": name, "model": args.model,
                               "q": args.q, **fields}
                              for name, fields in checks.items())


@functools.cache  # parse_args fills a fresh Namespace on every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cycliccurves",
        description="Classify and verify curves with a cyclic automorphism "
                    "group of order at least 2g + 1.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = dict(choices=("json", "csv", "table"), default="json")

    c = sub.add_parser("classify", help="list families for (p, genus)")
    c.add_argument("--p", type=int, required=True,
                   help="characteristic: 0 or an odd prime")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--n", type=int, default=None,
                   help="restrict to one group order")
    c.add_argument("--raw-pairs", action="store_true",
                   help="list every primitive pair instead of canonical ones")
    c.add_argument("--format", **fmt)
    c.set_defaults(func=_cmd_classify)

    r = sub.add_parser("pairs", help="list primitive pairs for an order n")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--genus", type=int, default=None)
    r.add_argument("--canonical", action="store_true")
    r.add_argument("--format", **fmt)
    r.set_defaults(func=_cmd_pairs)

    s = sub.add_parser("signatures", help="enumerate ramification types")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--genus", type=int, required=True)
    s.add_argument("--format", **fmt)
    s.set_defaults(func=_cmd_signatures)

    v = sub.add_parser("verify",
                       help="count places and verify automorphisms")
    v.add_argument("--model", required=True, help=_SPEC_GRAMMAR)
    v.add_argument("--q", type=int, required=True, help="odd prime power")
    v.add_argument("--zeta-depth", type=int, default=0,
                   help="count over this many extensions and infer the genus")
    v.set_defaults(func=_cmd_verify, format="json")  # a default, no flag

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, payloads = args.func(args)
        _emit(({"schema_version": SCHEMA_VERSION, "command": args.command,
                **payload} for payload in payloads), args.format)
        return code
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
