"""Classification engine and tame signature enumerator.

`classify(p, g)` lists, for a characteristic p (0 or an odd prime) and
a genus g >= 2, every family of curves of genus g admitting a cyclic
automorphism group of order N >= 2g + 1, together with its N, its
ramification data, and a model template.  The families are the classes
of `families.FAMILIES`: each states its branch (I tame; II and III
wild), its ramification data and, for all but Kummer, its models of
genus g in characteristic p (`of_genus`).  `classify` searches the
Kummer pairs itself, asks every other family for its models and builds
each entry from its model alone, so adding a family means adding one
class to `FAMILIES`.

The Kummer search over N is bounded by the abelian ceiling 4g + 4
(4g + 2 in characteristic 0), which guarantees termination and
completeness.  Everything here is pure and deterministic: results are
canonically sorted before return, so enumeration may be partitioned
across workers and merged order-independently.

`enumerate_signatures(n, g)` lists every tame ramification type
(g0; e_1..e_k) that a degree-n cyclic cover of genus g can have,
subject to the arithmetic constraints: all e_i divide n, at least two
(three when g0 = 0) branch points, lcm of the indices equal to n when
g0 = 0, and the lcm unchanged by deleting any single index.  The
enumerator accepts any n >= 2; the structural consequences peculiar to
n >= 2g + 1 (g0 = 0 and three branch points, up to one exception) are
asserted by the test suite, not imposed here.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm

from .intmath import divisors, is_prime
from .families import FAMILIES, CurveModel, Kummer, PrimitivePair
from .ramification import OrbitDatum, Signature, rh_genus_tame, rh_genus_wild

# Entries kept by each pair cache: classify(p, g) reads the pair tables
# of N <= 4g + 4 and at most 2g + 4 orbit decompositions, so 256 holds
# one genus's working set up to g = 50 and all of verify_sasaki_bound(200).
_CACHE_SIZE = 256


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
    """One family in the classification, built from its model alone.

    `signature` holds a tame branch's ramification type, `orbits` a wild
    branch's filtration data of every short orbit; the other is None.
    Construction checks N >= 2g + 1 and the genus by Riemann-Hurwitz.
    """

    n: int = field(init=False)
    branch: str = field(init=False)
    model: CurveModel
    genus: int = field(init=False)
    signature: Signature | None = field(init=False)
    orbits: tuple[OrbitDatum, ...] | None = field(init=False)
    wild: bool = field(init=False)

    def __post_init__(self):
        model = self.model
        n, g, ram = model.cyclic_order(), model.genus(), model.ramification()
        if n < 2 * g + 1:
            raise ValueError(f"N={n} below 2g+1={2 * g + 1}")
        if model.wild:
            signature, orbits, rh = None, ram, rh_genus_wild(n, 0, ram)
        else:
            signature, orbits, rh = ram, None, rh_genus_tame(n, ram.g0, ram)
        if rh != g:
            raise ValueError(
                f"ramification data of {model} gives genus {rh}, not {g}")
        # frozen: the derived fields go into the instance dict directly
        self.__dict__.update(n=n, branch=model.branch, genus=g, wild=model.wild,
                             signature=signature, orbits=orbits)


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


@lru_cache(maxsize=_CACHE_SIZE)
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


@lru_cache(maxsize=_CACHE_SIZE)
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
        entries += map(ClassificationEntry, models)
    for family in FAMILIES[1:]:
        entries += map(ClassificationEntry, family.of_genus(p, g))

    entries.sort(key=_entry_key)
    if n_filter is not None:
        entries = [e for e in entries if e.n == n_filter]
    return entries


def _entry_key(entry):
    # a family lists at most one model per N, except Kummer, whose
    # models at one N differ in (r, s)
    model = entry.model
    return (entry.n, FAMILIES.index(type(model)), model.spec_values())


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
