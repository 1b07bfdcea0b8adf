"""Classification engine and tame signature enumerator.

`classify(p, g)` lists, for a characteristic p (0 or an odd prime) and
a genus g >= 2, every family of curves of genus g admitting a cyclic
automorphism group of order N >= 2g + 1, together with its N, its
ramification data, and a model template:

  * branch I   (tame, p does not divide N): Kummer curves and, for even
    g, the hyperelliptic family at N = 2g + 2;
  * branch II  (wild, p >= 5): y^p - y = a(x^m - b) at N = p*m when
    g = (p-1)(m-1)/2, and b*y^p + c*y = a*x + 1/x at N = 2p when
    g = p - 1;
  * branch III (wild): y^p - y = x^2 at N = p when g = (p-1)/2.

The search over N is bounded by the abelian ceiling 4g + 4 (4g + 2 in
characteristic 0), which guarantees termination and completeness.
Everything here is pure and deterministic: results are canonically
sorted before return, so enumeration may be partitioned across workers
and merged order-independently.

`enumerate_signatures(n, g)` lists every tame ramification type
(g0; e_1..e_k) that a degree-n cyclic cover of genus g can have,
subject to the arithmetic constraints: all e_i divide n, at least two
(three when g0 = 0) branch points, lcm of the indices equal to n when
g0 = 0, and the lcm unchanged by deleting any single index.  The
enumerator accepts any n >= 2; the structural consequences peculiar to
n >= 2g + 1 (g0 = 0 and three branch points, up to one exception) are
asserted by the test suite, not imposed here.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .intmath import divisors, is_prime
from .families import (
    ASPower,
    ASRational,
    CurveModel,
    Homma,
    Hyperelliptic,
    Kummer,
    PrimitivePair,
)
from .ramification import (
    FiltrationProfile,
    OrbitDatum,
    Signature,
    rh_genus_tame,
    rh_genus_wild,
)

BRANCH_KUMMER = "I-Kummer"
BRANCH_HYPERELLIPTIC = "I-Hyperelliptic"
BRANCH_AS_POWER = "II-ASPower"
BRANCH_AS_RATIONAL = "II-ASRational"
BRANCH_HOMMA = "III-Homma"

_WILD_BRANCHES = (BRANCH_AS_POWER, BRANCH_AS_RATIONAL, BRANCH_HOMMA)
_BRANCHES = (BRANCH_KUMMER, BRANCH_HYPERELLIPTIC) + _WILD_BRANCHES


class UnsupportedCharacteristic(ValueError):
    """The characteristic is not 0 or an odd prime."""


class BadGenus(ValueError):
    """The requested genus is below 2."""


class BadOrder(ValueError):
    """The requested group order is not an integer >= 3."""


@dataclass(frozen=True)
class ClassifyQuery:
    """A (characteristic, genus) classification request."""

    p: int
    g: int
    n: int | None = None

    def __post_init__(self):
        _check_characteristic(self.p)
        if self.g < 2:
            raise BadGenus(f"genus must be >= 2, got {self.g}")
        n = self.n
        if n is not None and (isinstance(n, bool) or not isinstance(n, int)
                              or n < 3):
            raise BadOrder(f"group order must be None or an int >= 3, "
                           f"got {n!r}")


@dataclass(frozen=True)
class ClassificationEntry:
    """One family in the classification: self-validating record.

    For tame branches `signature` holds the ramification type and
    `orbits` is None; for wild branches `orbits` holds the filtration
    data of every short orbit and `signature` is None.
    """

    n: int
    branch: str
    model: CurveModel
    genus: int
    signature: Signature | None = None
    orbits: tuple[OrbitDatum, ...] | None = None
    wild: bool = False

    def __post_init__(self):
        if self.branch not in _BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.wild != (self.branch in _WILD_BRANCHES):
            raise ValueError(f"wild flag disagrees with branch {self.branch}")
        if self.n < 2 * self.genus + 1:
            raise ValueError(
                f"N={self.n} below 2g+1={2 * self.genus + 1}")
        if self.model.genus() != self.genus:
            raise ValueError(
                f"model genus {self.model.genus()} != {self.genus}")
        if self.wild:
            if self.signature is not None or self.orbits is None:
                raise ValueError("wild entry must carry orbits, not signature")
            if rh_genus_wild(self.n, 0, self.orbits) != self.genus:
                raise ValueError("orbit data inconsistent with genus")
        else:
            if self.orbits is not None or self.signature is None:
                raise ValueError("tame entry must carry a signature")
            if rh_genus_tame(self.n, self.signature.g0,
                             self.signature) != self.genus:
                raise ValueError("signature inconsistent with genus")
            if isinstance(self.model, Kummer):
                expected = self.model.pair.signature
                if self.signature != expected:
                    raise ValueError(
                        f"signature {self.signature} is not the model's "
                        f"ramification type {expected}")
            else:
                g = self.genus
                if self.signature != Signature(0, (2, 2, g + 1, g + 1)):
                    raise ValueError(
                        "hyperelliptic entry has the wrong signature")


def _check_characteristic(p):
    if p == 0:
        return
    if p == 2:
        raise UnsupportedCharacteristic("characteristic 2 unsupported")
    if p < 0 or not is_prime(p):
        raise UnsupportedCharacteristic(
            f"characteristic must be 0 or an odd prime, got {p}")


def primitive_pairs(n: int):
    """Yield every primitive pair (r, s) for exponent n, in
    lexicographic order."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    for r in range(1, n - 1):
        for s in range(1, n - r):
            if gcd(gcd(r, s), n) == 1:
                yield PrimitivePair(n, r, s)


@lru_cache(maxsize=None)
def _pairs_by_genus(n):
    out: dict[int, list[tuple[int, int]]] = {}
    for pair in primitive_pairs(n):
        out.setdefault(pair.genus, []).append((pair.r, pair.s))
    return {g: tuple(pairs) for g, pairs in out.items()}


def _pair_orbit(n, r, s):
    # Unit scalings commute with permutations of the exponent triple
    # (r, s, t), t = -(r+s) mod n, so the full symmetry orbit is
    # {permutation of u * triple}; swapping r and s is one of the
    # permutations.  Only members back inside r + s <= n - 1 are kept.
    t = (-(r + s)) % n
    out = set()
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        a, b, c = u * r % n, u * s % n, u * t % n
        for pair in ((a, b), (a, c), (b, a), (b, c), (c, a), (c, b)):
            if pair[0] + pair[1] <= n - 1:
                out.add(pair)
    return out


def canonical_pair(n: int, r: int, s: int) -> PrimitivePair:
    """Canonical representative of the symmetry orbit of (r, s).

    The orbit is generated by swapping r and s, permuting the exponent
    triple (r, s, -(r+s) mod n) -- i.e. permuting the three branch
    points -- and scaling by units mod n; the representative is the
    lexicographically least in-range member.  This is a heuristic
    deduplication: pairs in one orbit define isomorphic curves, but no
    claim is made that distinct orbits are never isomorphic.
    """
    PrimitivePair(n, r, s)
    best = min(_pair_orbit(n, r, s))
    return PrimitivePair(n, best[0], best[1])


@lru_cache(maxsize=None)
def _canonical_genus_models(n, g):
    # Decompose the genus-g pairs at order n into symmetry orbits once;
    # genus is orbit-invariant, so orbits never straddle genus classes.
    # The models are shared by every classify call that lists them, and
    # with them each pair's signature, computed once.
    seen = set()
    reps = []
    for rs in _pairs_by_genus(n).get(g, ()):
        if rs in seen:
            continue
        orbit = _pair_orbit(n, *rs)
        seen |= orbit
        reps.append(min(orbit))
    return tuple(Kummer.of(n, r, s) for r, s in sorted(reps))


def enumerate_signatures(n: int, g: int) -> list[Signature]:
    """All tame ramification types of a degree-n cyclic cover with
    total-space genus g, sorted by (g0, indices)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if g < 2:
        raise BadGenus(f"genus must be >= 2, got {g}")
    ds = [e for e in divisors(n) if e >= 2]
    terms = {e: (n // e) * (e - 1) for e in ds}
    found = []
    g0 = 0
    while True:
        target = 2 * g - 2 - n * (2 * g0 - 2)
        if target < n:  # cheapest admissible multiset is two indices of 2
            break
        for indices in _index_multisets(ds, terms, target):
            if _signature_ok(n, g0, indices):
                found.append(Signature(g0, indices))
        g0 += 1
    return sorted(found, key=lambda sig: (sig.g0, sig.indices))


def _index_multisets(ds, terms, target):
    # Non-decreasing multisets of divisors whose Hurwitz contributions
    # sum exactly to target.
    out = []

    def extend(prefix, start, remaining):
        if remaining == 0:
            if len(prefix) >= 2:
                out.append(tuple(prefix))
            return
        for i in range(start, len(ds)):
            e = ds[i]
            if terms[e] > remaining:
                break
            prefix.append(e)
            extend(prefix, i, remaining - terms[e])
            prefix.pop()

    extend([], 0, target)
    return out


def _signature_ok(n, g0, indices):
    if g0 == 0 and len(indices) < 3:
        return False
    m = lcm(*indices)
    if g0 == 0 and m != n:
        return False
    for i in range(len(indices)):
        if i > 0 and indices[i] == indices[i - 1]:
            continue  # deleting a repeated index cannot change the lcm
        rest = indices[:i] + indices[i + 1:]
        if lcm(*rest) != m:
            return False
    return True


def _wild_orbits(branch, p, g):
    if branch == BRANCH_HOMMA:
        return (OrbitDatum(FiltrationProfile(p, (p, p, p)), 1),)
    if branch == BRANCH_AS_RATIONAL:
        return (
            OrbitDatum(FiltrationProfile(p, (p, p)), 2),
            OrbitDatum(FiltrationProfile(p, (2,)), p),
            OrbitDatum(FiltrationProfile(p, (2,)), p),
        )
    if branch == BRANCH_AS_POWER:
        m = 2 * g // (p - 1) + 1
        return (
            OrbitDatum(FiltrationProfile(p, (p * m,) + (p,) * m), 1),
            OrbitDatum(FiltrationProfile(p, (m,)), p),
        )
    raise ValueError(branch)


def classify(p: int, g: int, *, raw_pairs: bool = False,
             n: int | None = None) -> list[ClassificationEntry]:
    """All families of genus-g curves with a cyclic group of order
    N >= 2g + 1 in characteristic p (0 for the classical case).

    Kummer entries are grouped by canonical pair; with raw_pairs=True
    every genus-matching primitive pair gets its own entry.  An
    optional n restricts the output to that group order.
    """
    query = ClassifyQuery(p, g, n)
    p, g, n_filter = query.p, query.g, query.n
    ceiling = 4 * g + 4 if p else 4 * g + 2
    entries = []

    for big_n in range(2 * g + 1, ceiling + 1):
        if p and big_n % p == 0:
            continue
        if raw_pairs:
            models = [Kummer.of(big_n, r, s)
                      for r, s in _pairs_by_genus(big_n).get(g, ())]
        else:
            models = _canonical_genus_models(big_n, g)
        for model in models:
            entries.append(ClassificationEntry(
                n=big_n, branch=BRANCH_KUMMER, model=model, genus=g,
                signature=model.pair.signature))

    if g % 2 == 0:
        big_n = 2 * g + 2
        if p == 0 or big_n % p:
            entries.append(ClassificationEntry(
                n=big_n, branch=BRANCH_HYPERELLIPTIC,
                model=Hyperelliptic(g, "lambda"), genus=g,
                signature=Signature(0, (2, 2, g + 1, g + 1))))

    if p >= 5:
        if 2 * g % (p - 1) == 0:
            m = 2 * g // (p - 1) + 1
            if m > 1 and m % p:
                entries.append(ClassificationEntry(
                    n=p * m, branch=BRANCH_AS_POWER,
                    model=ASPower(p, m, "a", "b"), genus=g,
                    orbits=_wild_orbits(BRANCH_AS_POWER, p, g), wild=True))
        if g == p - 1:
            entries.append(ClassificationEntry(
                n=2 * p, branch=BRANCH_AS_RATIONAL,
                model=ASRational(p, "a", "b", "c"), genus=g,
                orbits=_wild_orbits(BRANCH_AS_RATIONAL, p, g), wild=True))
    if p == 2 * g + 1:
        entries.append(ClassificationEntry(
            n=p, branch=BRANCH_HOMMA, model=Homma(p), genus=g,
            orbits=_wild_orbits(BRANCH_HOMMA, p, g), wild=True))

    entries.sort(key=_entry_key)
    if n_filter is not None:
        entries = [e for e in entries if e.n == n_filter]
    return entries


def _entry_key(entry):
    pair = entry.model.pair if isinstance(entry.model, Kummer) else None
    return (entry.n, _BRANCHES.index(entry.branch),
            (pair.r, pair.s) if pair else ())


@dataclass(frozen=True)
class SasakiReport:
    """Result of the exhaustive N >= 2g + 1 bound check."""

    n_max: int
    pairs_checked: int
    tight_pairs: int  # pairs attaining N = 2g + 1 exactly
    violations: tuple[tuple[int, int, int, int], ...]


def verify_sasaki_bound(n_max: int) -> SasakiReport:
    """Check N >= 2*genus + 1 over every primitive pair with N <= n_max."""
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    checked = tight = 0
    violations = []
    for n in range(3, n_max + 1):
        for g, pairs in _pairs_by_genus(n).items():
            for r, s in pairs:
                checked += 1
                if n < 2 * g + 1:
                    violations.append((n, r, s, g))
                elif n == 2 * g + 1:
                    tight += 1
    return SasakiReport(n_max, checked, tight, tuple(violations))
