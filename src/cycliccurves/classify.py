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
completeness.  It reads one table per order N: every primitive pair
with its genus, as int16 arrays sorted by genus, built in one numpy
pass, so the pairs of one genus are one slice.  `verify_sasaki_bound`
counts from the same tables; `primitive_pairs` and `kummer_genus` work
one pair at a time and are the independent check of them.  Orders stop
at 2897, where a table would pass `TABLE_LIMIT` pairs.  Everything here
is pure and deterministic: results are canonically sorted before
return, so enumeration may be partitioned across workers and merged
order-independently.

`enumerate_signatures(n, g)` lists every tame ramification type
(g0; e_1..e_k) that a degree-n cyclic cover of genus g can have,
subject to the arithmetic constraints: all e_i divide n, at least two
(three when g0 = 0) branch points, lcm of the indices equal to n when
g0 = 0, and the lcm unchanged by deleting any single index.  The
enumerator accepts any n >= 2; the structural consequences peculiar to
n >= 2g + 1 (g0 = 0 and three branch points, up to one exception) are
asserted by the test suite, not imposed here.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

from .intmath import TABLE_LIMIT, divisors, is_prime
from .families import FAMILIES, CurveModel, Kummer, PrimitivePair
from .ramification import OrbitDatum, Signature, rh_genus_tame, rh_genus_wild

# Orbit decompositions kept: classify(p, g) reads at most 2g + 4 of them,
# so 256 holds one genus's working set up to g = 50.
_CACHE_SIZE = 256
# Pair-table bytes kept between calls: the tables of every order <= 204
# (all that verify_sasaki_bound(200) and classify(p, g <= 50) read) take
# 6.7 MiB together; the largest table, of order 2897, takes 24 MiB.
_TABLE_BYTES = 32 << 20


class UnsupportedCharacteristic(ValueError):
    """The characteristic is not 0 or an odd prime."""


class BadGenus(ValueError):
    """The requested genus is below 2."""


class BadOrder(ValueError):
    """The requested group order is not an integer >= 3."""


class OrderTooLarge(ValueError):
    """An order has more exponent pairs than a pair table holds."""


# Largest order whose pair table, one slot for every (r, s) with
# r + s <= n - 1, stays within TABLE_LIMIT slots: 2897.
_MAX_ORDER = (isqrt(8 * TABLE_LIMIT + 1) + 3) // 2


def _check_order(n, context=""):
    if n > _MAX_ORDER:
        raise OrderTooLarge(
            f"{context}order {n} has {(n - 1) * (n - 2) // 2} exponent "
            f"pairs, above the {TABLE_LIMIT} of a pair table; orders up "
            f"to {_MAX_ORDER} are supported")


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
        ceiling = 4 * self.g + 4  # the Kummer search's largest order
        _check_order(ceiling, f"genus {self.g} reaches order {ceiling}; ")


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
    lexicographic order.  One object at a time: the independent check of
    the pair tables that classify and verify_sasaki_bound read."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    _check_order(n)
    for r in range(1, n - 1):
        for s in range(1, n - r):
            if gcd(gcd(r, s), n) == 1:
                yield PrimitivePair(n, r, s)


class _PairTable(NamedTuple):
    """The primitive pairs of one order n, sorted by genus and within a
    genus in lexicographic order: pair i is (r[i], s[i]) of genus
    genus[i].  int16 columns, 6 bytes a pair (n <= 2897)."""

    genus: np.ndarray
    r: np.ndarray
    s: np.ndarray

    @property
    def nbytes(self):
        return self.genus.nbytes + self.r.nbytes + self.s.nbytes

    def of_genus(self, g):
        """The pairs of genus g, as (r, s) tuples in lexicographic order."""
        lo, hi = np.searchsorted(self.genus, (g, g + 1))
        return zip(self.r[lo:hi].tolist(), self.s[lo:hi].tolist())


def _build_pair_table(n):
    # The triangle r, s >= 1, r + s <= n - 1 row by row: row r holds
    # s = 1 .. n - 1 - r, so s steps up by 1 and drops back to 1 at each
    # new row.  Every value stays below n, so int16 holds it throughout.
    lengths = np.arange(n - 2, 0, -1)
    r = np.repeat(np.arange(1, n - 1, dtype=np.int16), lengths)
    steps = np.ones(r.size, dtype=np.int16)
    steps[np.cumsum(lengths[:-1])] = 1 - lengths[:-1]
    s = np.cumsum(steps, dtype=np.int16)
    gcds = np.gcd(np.arange(n, dtype=np.int16), np.int16(n))
    a, b = gcds[r], gcds[s]
    keep = np.gcd(a, b) == 1  # gcd(gcd(n, r), gcd(n, s)) = gcd(r, s, n)
    r, s = r[keep], s[keep]
    genus = (n + 2 - a[keep] - b[keep] - gcds[r + s]) // 2
    order = np.argsort(genus, kind="stable")
    return _PairTable(genus[order], r[order], s[order])


class _TableCache:
    """Least recently used pair tables by order, kept to `max_bytes` in
    all; the table just asked for is kept even when it alone is larger."""

    def __init__(self, build, max_bytes):
        self.build, self.max_bytes = build, max_bytes
        self.nbytes = 0
        self._tables = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, n):
        with self._lock:
            table = self._tables.get(n)
            if table is not None:
                self._tables.move_to_end(n)
                return table
        table = self.build(n)
        with self._lock:
            if n not in self._tables:
                self._tables[n] = table
                self.nbytes += table.nbytes
            while self.nbytes > self.max_bytes and len(self._tables) > 1:
                self.nbytes -= self._tables.popitem(last=False)[1].nbytes
        return table

    def clear(self):
        with self._lock:
            self._tables.clear()
            self.nbytes = 0


_pair_table = _TableCache(_build_pair_table, _TABLE_BYTES)


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
    for rs in _pair_table(n).of_genus(g):
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
                      for r, s in _pair_table(big_n).of_genus(g)]
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
    _check_order(n_max)
    checked = tight = 0
    violations = []
    for n in range(3, n_max + 1):
        table = _pair_table(n)
        # genus is sorted: the pairs before hi have 2g + 1 <= n, those
        # in [lo, hi) 2g + 1 = n (for odd n), the rest break the bound
        lo, hi = np.searchsorted(table.genus, ((n - 1) // 2, (n + 1) // 2))
        checked += table.genus.size
        if n % 2:
            tight += int(hi - lo)
        for r, s, g in zip(table.r[hi:].tolist(), table.s[hi:].tolist(),
                           table.genus[hi:].tolist()):
            violations.append((n, r, s, g))
    return SasakiReport(n_max, checked, tight, tuple(violations))
