"""Workload definitions: seeded inputs, the timed jobs, and their checks.

Nothing here imports the package at module level; the worker passes in
the package modules it imported as `pkg`.  Expected values come from
the curve-family formulas of the README table, restated below, and from
reference data computed outside the timed path (`Workload.reference`).
"""

import contextlib
import io
import json
from math import gcd
from typing import Callable, NamedTuple

# ---------------------------------------------------------------------------
# family formulas, restated independently of the package


def spec_genus(spec):
    kind, _, rest = spec.partition(":")
    a = [int(t) for t in rest.split(",")]
    if kind == "kummer":
        n, r, s = a
        return (n + 2 - gcd(n, r) - gcd(n, s) - gcd(n, r + s)) // 2
    if kind == "hyper":
        return a[0]
    if kind == "aspower":
        return (a[0] - 1) * (a[1] - 1) // 2
    if kind == "asrational":
        return a[0] - 1
    if kind == "homma":
        return (a[0] - 1) // 2
    raise ValueError(spec)


def spec_order(spec):
    """Order of the family's distinguished cyclic generator."""
    kind, _, rest = spec.partition(":")
    a = [int(t) for t in rest.split(",")]
    return {"kummer": lambda: a[0], "hyper": lambda: 2 * a[0] + 2,
            "aspower": lambda: a[0] * a[1], "asrational": lambda: 2 * a[0],
            "homma": lambda: a[0]}[kind]()


def spec_fixed_points(spec):
    """Affine fixed points of the generator: (0, 0) and (1, 0) on a
    Kummer curve, none on the other families."""
    return [[0, 0], [1, 0]] if spec.startswith("kummer:") else []


def prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, k


def primes_between(lo, hi):
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [n for n in range(lo, hi + 1) if sieve[n]]


# ---------------------------------------------------------------------------
# zeta-tower: the 11-model cross-validation set of the acceptance suite,
# (spec, base field q, orbit-check field q).  The orbit fields leave the
# degenerate range where the generator acts with order 1 on few points.

ZETA_MODELS = (
    ("kummer:5,1,1", 11, 11),
    ("kummer:6,1,1", 13, 13),
    ("kummer:8,1,3", 9, 9),
    ("kummer:10,1,4", 11, 121),
    ("homma:5", 5, 5),
    ("homma:7", 7, 7),
    ("aspower:5,2,1,0", 5, 125),
    ("aspower:7,2,1,1", 7, 7),
    ("hyper:2,2", 7, 7),
    ("hyper:2,3", 7, 7),
    ("asrational:5,1,1,4", 5, 5),
)
NAIVE_Q_MAX = 10**4  # tower fields checked against count_places_naive


def interleave(rng, streams):
    """A uniformly random merge of the streams that keeps the order
    inside each stream."""
    streams = [list(s) for s in streams if s]
    out = []
    while streams:
        pick = rng.randrange(sum(len(s) for s in streams))
        for s in streams:
            if pick < len(s):
                out.append(s.pop(0))
                if not s:
                    streams.remove(s)
                break
            pick -= len(s)
    return out


def zeta_jobs(rng, pkg):
    """The seed draws the model order.  Models over one characteristic
    share the cached tower fields, so they keep their listed order and
    the seed interleaves the characteristics: each job then builds the
    same fields under every seed, and its latency compares across seeds."""
    by_char = {}
    for job in ZETA_MODELS:
        by_char.setdefault(prime_power(job[1])[0], []).append(job)
    return interleave(rng, by_char.values())


def zeta_run(pkg, job):
    spec, q, orbit_q = job
    ff = pkg.fforacle
    p, k = prime_power(q)
    model = pkg.cli.parse_model_spec(spec, p)
    g = spec_genus(spec)
    series = ff.count_series(model, ff.field(p, k), 2 * g)
    inferred = ff.zeta_genus(series, g)
    report = ff.verify_automorphism(model, ff.field(*prime_power(orbit_q)))
    return {"counts": list(series.counts), "inferred": inferred,
            "order": report.order,
            "fixed": [list(pt) for pt in report.fixed_points]}


def zeta_check(pkg, job, out, reference):
    spec, q, _ = job
    g = spec_genus(spec)
    if out["inferred"] != g:
        return f"zeta genus {out['inferred']} != formula genus {g}"
    if len(out["counts"]) != 2 * g:
        return f"{len(out['counts'])} counts, expected {2 * g}"
    for j, count in enumerate(out["counts"], start=1):
        key = f"{spec}@{q**j}"
        if q**j <= NAIVE_Q_MAX and reference[key] != count:
            return f"count over F_{q**j} is {count}, naive {reference[key]}"
    if out["order"] != spec_order(spec):
        return f"generator order {out['order']} != {spec_order(spec)}"
    if spec.startswith("kummer:") and out["fixed"] != spec_fixed_points(spec):
        return f"fixed points {out['fixed']}"
    return None


def zeta_reference(pkg):
    """Brute-force place counts on every tower field with q <= 10^4."""
    ff = pkg.fforacle
    ref = {}
    for spec, q, _ in ZETA_MODELS:
        p, k = prime_power(q)
        model = pkg.cli.parse_model_spec(spec, p)
        for j in range(1, 2 * spec_genus(spec) + 1):
            if q**j <= NAIVE_Q_MAX:
                ref[f"{spec}@{q**j}"] = ff.count_places_naive(
                    model, ff.field(p, k * j))
    return ref


# ---------------------------------------------------------------------------
# verify-cli: one `cycliccurves verify` call per job, each in a distinct
# prime field F_q with 2000 <= q <= 5000.

VERIFY_Q_RANGE = (2000, 5000)
VERIFY_KUMMER_GENERA = range(2, 7)
VERIFY_KUMMER_REPEATS = 2


def verify_jobs(rng, pkg):
    """Seeded `verify` argument lists.

    The call mix is fixed: every canonical Kummer pair of classify(0, g),
    g <= 6, twice, and ten calls each of the other four families.  The
    seed draws the order, the fields and the free parameters.  Each field
    satisfies the family's preconditions: q = 1 mod the root-of-unity
    order of the generator, and, for the wild families whose curve lives
    in characteristic q, parameters that give the generator a nonzero
    translation and a nonempty moving point set (the degenerate range
    where the orbit check reads order 1).
    """
    kummer = sorted({
        spec for g in VERIFY_KUMMER_GENERA
        for spec in (pkg.cli.model_to_spec(e.model)
                     for e in pkg.classify.classify(0, g))
        if spec.startswith("kummer:")})
    # (family, root-of-unity order q - 1 must be divisible by, parameter, calls)
    groups = [("kummer", int(spec[7:].split(",")[0]), spec,
               VERIFY_KUMMER_REPEATS) for spec in kummer]
    groups += [("hyper", g + 1, g, n) for g, n in ((2, 4), (4, 3), (6, 3))]
    groups += [("aspower", m, m, n) for m, n in ((2, 4), (3, 3), (4, 3))]
    groups += [("asrational", 2, None, 10), ("homma", 2, None, 10)]

    lo, hi = VERIFY_Q_RANGE
    primes = primes_between(lo, hi)
    used = set()
    jobs = []
    for kind, d, arg, count in groups:
        for j in range(count):
            # stratified draw: the j-th call of a group targets the j-th
            # slice of the range, so every seed spreads each group's
            # fields, and with them its cost, over [lo, hi] the same way
            target = lo + (hi - lo) * (j + rng.random()) / count
            fits = [q for q in primes if (q - 1) % d == 0 and q not in used]
            q = min(fits, key=lambda q: (abs(q - target), q))
            used.add(q)
            if kind == "kummer":
                spec = arg
            elif kind == "hyper":
                spec = f"hyper:{arg},{rng.randrange(2, q)}"
            elif kind == "aspower":
                # b a nonzero m-th power: x^m = b has m roots to rotate
                b = pow(rng.randrange(1, q), arg, q)
                spec = f"aspower:{q},{arg},{rng.randrange(1, q)},{b}"
            elif kind == "asrational":
                # c = -b gives the translation gamma = 1; a = -1/u^2 puts
                # the affine points over x = u and x = -u, which 1/(a*x)
                # swaps
                b = rng.randrange(1, q)
                u = rng.randrange(1, q)
                a = (-pow(u * u, -1, q)) % q
                spec = f"asrational:{q},{a},{b},{q - b}"
            else:
                spec = f"homma:{q}"
            jobs.append(["verify", "--model", spec, "--q", str(q)])
    rng.shuffle(jobs)
    return jobs


def verify_run(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def verify_check(pkg, argv, out, reference):
    if out["code"] != 0:
        return f"exit code {out['code']}: {out['stderr'].strip()}"
    spec, q = argv[2], int(argv[4])
    checks = {}
    for line in out["stdout"].splitlines():
        rec = json.loads(line)
        if json.dumps(rec, sort_keys=True, separators=(",", ":")) != line:
            return f"record not byte-stable: {line}"
        if rec.get("ok") is not True:
            return f"record not ok: {line}"
        if rec.get("model") != spec or rec.get("q") != q:
            return f"record for another call: {line}"
        checks[rec.get("check")] = rec
    if set(checks) != {"places", "automorphism", "summary"}:
        return f"records {sorted(checks)}"
    if checks["places"]["genus_formula"] != spec_genus(spec):
        return f"genus {checks['places']['genus_formula']}"
    auto = checks["automorphism"]
    if auto["order"] != spec_order(spec) or auto["expected_order"] != spec_order(spec):
        return f"order {auto['order']}, expected {spec_order(spec)}"
    if auto["fixed_points"] != spec_fixed_points(spec):
        return f"fixed points {auto['fixed_points']}"
    return None


# ---------------------------------------------------------------------------
# classify-sweep: canonical and exhaustive classification calls mixed with
# the Sasaki check and the signature enumerator, in seeded order.

SWEEP_PRIMES = (0, 3, 5, 7, 11, 13)
SWEEP_GENERA = range(2, 51)
SASAKI_N_MAX = 200
SIGNATURE_N_MAX = 60


def sweep_jobs(rng, pkg):
    """The Sasaki check first, then one block per genus in seeded order.

    The Sasaki check builds the pair tables of every N <= 200, which the
    classification calls reuse; a genus block (classify for each p, the
    raw listing, and the signatures at the extremal orders 2g + 1 and
    2g + 2) shares its orbit and signature caches with no other block.
    Every call therefore does the same work under every seed, and call
    latencies compare across seeds.
    """
    blocks = []
    for g in SWEEP_GENERA:
        block = [("classify", p, g) for p in SWEEP_PRIMES]
        block.append(("raw", 0, g))
        block += [("signatures", n, g) for n in (2 * g + 1, 2 * g + 2)
                  if n <= SIGNATURE_N_MAX]
        blocks.append(block)
    rng.shuffle(blocks)
    return [("sasaki", SASAKI_N_MAX)] + [job for b in blocks for job in b]


def sweep_run(pkg, job):
    c = pkg.classify
    kind = job[0]
    if kind == "sasaki":
        report = c.verify_sasaki_bound(job[1])
        return {"checked": report.pairs_checked, "tight": report.tight_pairs,
                "violations": len(report.violations)}
    if kind == "signatures":
        return [[s.g0, list(s.indices)] for s in c.enumerate_signatures(*job[1:])]
    entries = c.classify(job[1], job[2], raw_pairs=kind == "raw")
    kummer = [[e.n, e.model.pair.r, e.model.pair.s]
              for e in entries if e.branch == "I-Kummer"]
    return {"kummer": kummer,
            "other": [[e.branch, e.n, e.genus, e.wild] for e in entries
                      if e.branch != "I-Kummer"]}


def _expected_other(p, g):
    """Non-Kummer entries of classify(p, g) that the family table
    requires: hyperelliptic at N = 2g + 2 for even g, and for p >= 5 the
    Artin-Schreier power and rational curves and the degree-p curve."""
    out = []
    if g % 2 == 0 and (p == 0 or (2 * g + 2) % p):
        out.append(["I-Hyperelliptic", 2 * g + 2, g, False])
    if p >= 5:
        if 2 * g % (p - 1) == 0 and (2 * g // (p - 1) + 1) % p:
            out.append(["II-ASPower", p * (2 * g // (p - 1) + 1), g, True])
        if g == p - 1:
            out.append(["II-ASRational", 2 * p, g, True])
        if p == 2 * g + 1:
            out.append(["III-Homma", p, g, True])
    return out


def _wild_ok(p, branch, n, g):
    if branch == "II-ASPower":
        m = n // p if p else 0
        return p >= 3 and n == p * m and g == (p - 1) * (m - 1) // 2
    if branch == "II-ASRational":
        return p >= 3 and n == 2 * p and g == p - 1
    if branch == "III-Homma":
        return p >= 3 and n == p and g == (p - 1) // 2
    return False


def sweep_check(pkg, job, out, reference):
    kind = job[0]
    if kind == "sasaki":
        want = {"checked": reference["sasaki_checked"],
                "tight": reference["sasaki_tight"], "violations": 0}
        return None if out == want else f"sasaki report {out}, expected {want}"
    if kind == "signatures":
        n, g = job[1:]
        for g0, indices in out:
            # Riemann-Hurwitz: 2g - 2 = n(2g0 - 2) + sum(n - n/e)
            if 2 * g - 2 != n * (2 * g0 - 2) + sum(n - n // e for e in indices):
                return f"signature ({g0}; {indices}) has the wrong genus"
            if g0 != 0:
                return f"signature ({g0}; {indices}) has g0 != 0"
            if len(indices) != 3 and not (
                    indices == [2, 2, g + 1, g + 1] and n == 2 * g + 2
                    and g % 2 == 0):
                return f"signature ({g0}; {indices}) is not a known type"
        return None
    p, g = job[1:]
    ceiling = 4 * g + 4 if p else 4 * g + 2
    table = reference["raw" if kind == "raw" else "orbits"]
    want = sum(table.get(f"{n},{g}", 0) for n in range(2 * g + 1, ceiling + 1)
               if p == 0 or n % p)
    if len(out["kummer"]) != want:
        return f"{len(out['kummer'])} Kummer entries, expected {want}"
    for n, r, s in out["kummer"]:
        if not 2 * g + 1 <= n <= ceiling or (p and n % p == 0):
            return f"Kummer entry at N={n} outside the search range"
    if kind == "classify":
        for n, r, s in out["kummer"][:1] + out["kummer"][-1:]:
            canon = pkg.classify.canonical_pair(n, r, s)
            if (canon.r, canon.s) != (r, s):
                return f"({n}, {r}, {s}) is not canonical: {canon}"
    other = out["other"]
    for entry in _expected_other(p, g):
        if entry not in other:
            return f"missing entry {entry}"
    for branch, n, eg, wild in other:
        if branch == "I-Hyperelliptic":
            if [branch, n, eg, wild] not in _expected_other(p, g):
                return f"unexpected hyperelliptic entry at N={n}"
        elif eg != g or not wild or not _wild_ok(p, branch, n, g):
            return f"wild entry {branch} N={n} inconsistent with p={p}, g={g}"
    return None


def _orbit(n, r, s, units):
    t = (-(r + s)) % n
    out = set()
    for u in units:
        a, b, c = u * r % n, u * s % n, u * t % n
        for x, y in ((a, b), (a, c), (b, a), (b, c), (c, a), (c, b)):
            if x + y <= n - 1:
                out.add((x, y))
    return out


def sweep_reference(pkg):
    """Per (N, g): primitive pairs counted through kummer_genus, and
    their symmetry orbits (branch-point permutations and unit scalings),
    counted by walking each orbit once."""
    c, kummer_genus = pkg.classify, pkg.families.kummer_genus
    n_max = max(4 * max(SWEEP_GENERA) + 4, SASAKI_N_MAX)
    raw, orbits = {}, {}
    checked = tight = 0
    for n in range(3, n_max + 1):
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        seen = set()
        for pair in c.primitive_pairs(n):
            g = kummer_genus(n, pair.r, pair.s)
            key = f"{n},{g}"
            raw[key] = raw.get(key, 0) + 1
            if n <= SASAKI_N_MAX:
                checked += 1
                tight += n == 2 * g + 1
            if (pair.r, pair.s) not in seen:
                seen |= _orbit(n, pair.r, pair.s, units)
                orbits[key] = orbits.get(key, 0) + 1
    return {"raw": raw, "orbits": orbits,
            "sasaki_checked": checked, "sasaki_tight": tight}


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    make_jobs: Callable  # (rng, pkg) -> jobs
    run: Callable  # (pkg, job) -> output; timed
    check: Callable  # (pkg, job, output, reference) -> problem or None
    reference: Callable | None  # pkg -> reference data for check
    # gc.collect() before each job, outside the timed region.  zeta-tower
    # has 11 jobs that leave up to 90 MB of field tables behind; without
    # it, a full collection owed by earlier jobs lands on whichever job the
    # seed puts next, adding up to 20 ms to a 50 ms job.  classify-sweep's
    # 400 jobs over a 170 MB heap would spend more time collecting than
    # working.
    collect: bool = False


WORKLOADS = {
    "zeta-tower": Workload(zeta_jobs, zeta_run, zeta_check, zeta_reference,
                           collect=True),
    "verify-cli": Workload(verify_jobs, verify_run, verify_check, None),
    "classify-sweep": Workload(sweep_jobs, sweep_run, sweep_check,
                               sweep_reference),
}
