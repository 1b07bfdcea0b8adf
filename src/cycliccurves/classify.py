"""Classification engine and tame signature enumerator.

`classify(p, g)` lists, for a characteristic p (0 or an odd prime) and
a genus g >= 2, every family of curves of genus g admitting a cyclic
automorphism group of order N >= 2g + 1.  Each entry is a model
template, which carries its N, its ramification data and its branch.
The families are the classes of `families.FAMILIES`: each states its
branch (I tame; II and III wild), its ramification data and, for all
but Kummer, its models of genus g in characteristic p (`of_genus`).
`classify` searches the Kummer pairs itself, asks every other family
for its models, checks each of those (N >= 2g + 1, and the genus by
Riemann-Hurwitz) and returns the models, so adding a family means
adding one class to `FAMILIES`.

The search over N stops at 4g + 2, which guarantees termination and
completeness: a Kummer pair's gcds, pairwise coprime proper divisors of
N, sum to N + 2 - 2g, and no other family's N (2g + 2, pm, 2p or p)
exceeds it.  The Kummer search finds the least member of each symmetry
orbit of pairs directly: a unit scales each entry of the exponent triple
(r, s, -(r+s)) down to its gcd with N and no lower, the genus fixes the
sum of the three gcds, and so the least members come from the divisor
triples of N alone.  The canonical listing reads the pairs' gcds from a
table per order, checks primitivity and the genus once per gcd triple
and builds each entry, a `Kummer` tuple, in one call (`_kummer_entries`).
The raw listing expands the orbits of those entries as arrays, over
blocks of orders, into int64 keys sorted once a block, and checks every
member for range, primitivity and the gcd triple of the orbit data it
takes (`_orbit_members`, which `canonical_pair` uses too).
`verify_sasaki_bound` stays exhaustive, one order at a time as int16
arrays; with it, `primitive_pairs` and `kummer_genus` are the
independent check of both.  Orders stop at 2897: it bounds the pairs
that `primitive_pairs` and `verify_sasaki_bound` walk by `TABLE_LIMIT`,
classify's gcd tables by N entries an order, 256 orders kept, and N, r
and s to the 12 bits each has in a key.  All here is pure and
deterministic: entries come out ordered by N, family and spec values.

`enumerate_signatures(n, g)` lists every tame ramification type
(g0; e_1..e_k) that a degree-n cyclic cover of genus g can have,
subject to the arithmetic constraints: all e_i divide n, at least two
(three when g0 = 0) branch points, lcm of the indices equal to n when
g0 = 0, and the lcm unchanged by deleting any single index.  It accepts
any n from 2 to 2**32 at which no signature of genus g could have more
than 256 indices and 2**17 candidate index multisets, which it counts
in at most 2**21 steps before listing any; the structural consequences
peculiar to n >= 2g + 1 (g0 = 0 and three branch points, up to one
exception) are asserted by the test suite, not imposed here.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, lcm

import numpy as np

from .intmath import TABLE_LIMIT, divisors, is_int, is_prime
from .families import FAMILIES, CurveModel, Kummer, PrimitivePair
from .ramification import N_CAP, Signature, rh_genus_wild, tame_signature

# Orbit decompositions kept: classify(p, g) reads at most 2g + 4 of them,
# so 256 holds one genus's working set up to g = 50.
_CACHE_SIZE = 256
# Most ramification indices a signature may have room for; for
# n >= 2g + 1 a signature has three or four.  The enumerator keeps its
# own stacks, so its interpreter stack depth does not grow with them.
_MAX_INDICES = 256
_MAX_CANDIDATES = 1 << 17  # index multisets a signature search may test
_MAX_COUNT_STEPS = 1 << 21  # (state, term) steps a count of them may take


class UnsupportedCharacteristic(ValueError):
    """The characteristic is not 0 or an odd prime."""


class BadGenus(ValueError):
    """The requested genus is below 2."""


class BadOrder(ValueError):
    """The requested group order is not an int, or too small."""


class OrderTooLarge(ValueError):
    """An order is beyond the supported range: above `_MAX_ORDER`, or a
    signature order above `N_CAP`."""


class TooManyIndices(ValueError):
    """A signature could have more ramification indices than the
    enumerator lists."""


class TooManyCandidates(ValueError):
    """A signature search would test, or count, past its budget."""


# Largest order whose exponent pairs, one for every (r, s) with
# r + s <= n - 1, stay within TABLE_LIMIT: 2897.
_MAX_ORDER = (isqrt(8 * TABLE_LIMIT + 1) + 3) // 2
# Each of n, r and s takes _W_BITS bits of an orbit member's key.
_W_BITS = 12
_W = 1 << _W_BITS
assert _MAX_ORDER < _W
# The ints below _W, one object each, which raw entries share.
_INTS = np.array(range(_W), object)
# Keys a raw block of orders expands at most, unless one order has more.
_BLOCK = 1 << 14


def _check_order(n, context=""):
    if n > _MAX_ORDER:
        raise OrderTooLarge(
            f"{context}order {n} is past the cap that bounds a pair walk by "
            f"{TABLE_LIMIT} pairs and classify's gcd tables by {_MAX_ORDER} "
            f"entries an order; orders up to {_MAX_ORDER} are supported")


def primitive_pairs(n: int):
    """Yield every primitive pair (r, s) for exponent n, in
    lexicographic order.  One object at a time: the independent check of
    classify's pair search and verify_sasaki_bound's triangles."""
    if not is_int(n) or n < 3:
        raise BadOrder(f"n must be an int >= 3, got {n!r}")
    _check_order(n)
    for r in range(1, n - 1):
        for s in range(1, n - r):
            if gcd(gcd(r, s), n) == 1:
                yield PrimitivePair(n, r, s)


def _pair_triangle(n):
    """Every primitive pair (r, s) of order n in lexicographic order,
    with its genus, as the int16 columns genus, r, s."""
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
    return (n + 2 - a[keep] - b[keep] - gcds[r + s]) // 2, r, s


@lru_cache(maxsize=_CACHE_SIZE)
def _order_gcds(n):
    """gcd(n, x) for x < n: each divisor, ascending, marks its multiples."""
    gcds = [1] * n
    for d in divisors(n)[1:]:
        gcds[::d] = [d] * -(-n // d)
    return tuple(gcds)


def _ragged_arange(lengths):
    """0 .. k - 1 for each k of the int64 array `lengths`, back to back."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) - np.repeat(ends - lengths, lengths)


def _orbit_members(n, r, s):
    """The symmetry orbits of the pairs (r, s) mod n, int64 arrays: the
    permutations of u * (r, s, n - r - s) mod n, one unit u < n/2 at a
    time (for one of u and -u the triple sums to n, and all six are in
    range; the other sums to 2n and is flipped to n minus each), as keys
    ((n*W + r)*W + s)*M + i, i the index of the pair whose orbit holds
    the member, sorted once.  Returns the columns n, r, s, i of the
    distinct members in lexicographic order and their `_gcd_type`s; a
    member out of range or not primitive raises `NotPrimitive`."""
    bits = int(n.size).bit_length()  # M = 2**bits; m < 2**23 fits int64
    # gcd(n, x) for x < n, the tables of the orders back to back
    orders = _distinct(np.sort(n))
    offset = np.zeros(_W, np.int64)
    offset[orders] = np.cumsum(orders) - orders
    gcds = np.gcd(_ragged_arange(orders), np.repeat(orders, orders))
    # each pair beside each x < n/2 of its order, the units kept
    rows = np.repeat(np.arange(n.size), (n - 1) // 2)
    u = _ragged_arange((n - 1) // 2) + 1
    keep = gcds[offset[n][rows] + u] == 1
    rows, u = rows[keep], u[keep]
    big = n[rows]
    triple = u * np.array((r, s, n - r - s))[:, rows] % big
    triple = np.where(triple.sum(0) > big, big - triple, triple)
    keys = ((big << _W_BITS | triple[[0, 0, 1, 1, 2, 2]]) << _W_BITS
            | triple[[1, 2, 0, 2, 0, 1]]) << bits | rows
    keys = keys.ravel()
    keys.sort()
    keys = _distinct(keys)
    i, keys = keys & ((1 << bits) - 1), keys >> bits
    s, keys = keys & (_W - 1), keys >> _W_BITS
    n, r = keys >> _W_BITS, keys & (_W - 1)
    _refuse_first(n, r, s, (r < 1) | (s < 1) | (r + s >= n))
    abc = gcds[offset[n] + np.array((r, s, r + s))]
    _refuse_first(n, r, s, np.gcd(abc[0], abc[1]) != 1)
    return n, r, s, i, _gcd_type(abc)


def _gcd_type(abc):
    # the columns of three rows, each sorted and packed in one int
    low, high = abc.min(0), abc.max(0)
    return (high << _W_BITS | abc.sum(0) - low - high) << _W_BITS | low


def _distinct(a):
    """The distinct values of an ascending array.  (`np.unique` sorts
    again, and its first call in a process imports `numpy.ma`, about
    15 ms under numpy 2.4.)"""
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _refuse_first(n, r, s, bad):
    # the first member marked bad raises NotPrimitive from the constructor
    if bad.any():
        j = bad.argmax()
        PrimitivePair(int(n[j]), int(r[j]), int(s[j]))


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
    _check_order(n)
    return PrimitivePair(n, *_orbit(n, r, s)[0])


def _orbit(n, r, s):
    """The members (r, s) of the symmetry orbit of a pair, in
    lexicographic order."""
    _, r, s, _, _ = _orbit_members(*np.array([[n], [r], [s]], np.int64))
    return list(zip(r.tolist(), s.tolist()))


@lru_cache(maxsize=_CACHE_SIZE)
def _orbit_minima(n, g):
    """The least in-range member of every symmetry orbit of primitive
    pairs of genus g at order n, in lexicographic order."""
    # A unit scales each coordinate of the triple (r, s, t), t = n - r - s,
    # down to its gcd with n and no lower; those gcds a, b, c are
    # pairwise coprime, and the genus fixes a + b + c = n + 2 - 2g.  So
    # an orbit's least member is (m, s) with m the least gcd, b = gcd(n, s)
    # and c = gcd(n, m + s) the other two: s = 0 (mod b), s = -m (mod c).
    ds, gcds = divisors(n), _order_gcds(n)
    out = []
    for i, m in enumerate(ds):
        for b in ds[i:]:
            c = n + 2 - 2 * g - m - b
            if c < m:
                break
            if gcd(m, b) != 1 or n % c or gcd(b, c) != 1:
                continue
            out += [(m, s) for s in range(b * (-m * pow(b, -1, c) % c or c),
                                          n - m, b * c)
                    if gcds[s] == b and gcds[m + s] == c
                    and _least_in_orbit(n, gcds, m, s)]
    return tuple(sorted(out))


def _least_in_orbit(n, gcds, m, s):
    # The members of (m, s)'s orbit that start with m come from the units
    # u = (x/m)^-1 (mod n/m), at most m of them, that send a coordinate x
    # of gcd m to m; (m, s) is least unless one has a smaller second
    # coordinate.  A scaled triple is in range when it sums to n.
    triple, k = (m, s, n - m - s), n // m
    for i, x in enumerate(triple):
        if gcds[x] != m:
            continue
        y, w = triple[:i] + triple[i + 1:]
        for u in range(pow(x // m, -1, k), n, k):
            if gcds[u] == 1:
                uy, uw = u * y % n, u * w % n
                if m + uy + uw == n and min(uy, uw) < s:
                    return False
    return True


def _raw_entries(g, orders):
    """For each of the ascending orders in turn, the list of every Kummer
    entry of genus g at it, in lexicographic order: the orbits of its
    canonical entries, expanded over blocks of orders of at most `_BLOCK`
    keys (an order with more is a block alone)."""
    block, size = [], 0
    for n in orders:
        block.append(n)
        # at most n/2 units, and 6 keys a unit
        size += 3 * n * len(_canonical_genus_entries(n, g))
        if size >= _BLOCK:
            yield from _raw_block(g, block)
            block, size = [], 0
    if block:
        yield from _raw_block(g, block)


def _raw_block(g, orders):
    # The canonical entries were checked when they were built.  Each
    # member is checked for range and primitivity (`_orbit_members`), and
    # its gcd triple, sorted, must be the orbit sizes of the orbit data it
    # takes from its orbit's canonical entry.
    canon = [e for n in orders for e in _canonical_genus_entries(n, g)]
    n, r, s, i, types = _orbit_members(
        *np.array([e[:3] for e in canon], np.int64).reshape(-1, 3).T)
    data = np.fromiter((e[4] for e in canon), object, len(canon))
    sizes = np.array([[o.orbit_size for o in d] for d in data], np.int64)
    misfit = types != _gcd_type(sizes.reshape(-1, 3).T)[i]
    if misfit.any():
        j = misfit.argmax()
        raise ValueError(f"({r[j]}, {s[j]}) mod {n[j]} does not give the "
                         f"orbit data {tame_signature(data[i[j]])} of its "
                         f"orbit")
    # the entries share their ints and, per type, their orbit data
    built = list(map(tuple.__new__, repeat(Kummer), zip(
        _INTS[n].tolist(), _INTS[r].tolist(), _INTS[s].tolist(), repeat(g),
        data[i].tolist())))
    start = 0
    for end in np.searchsorted(n, orders, "right").tolist():
        yield built[start:end]
        start = end


def _kummer_entries(n, g, pairs):
    """`Kummer(n, r, s)` for each pair (r, s) of genus g (the canonical
    listing's), with the range checked per pair, and primitivity and the
    genus (by Riemann-Hurwitz) on one `PrimitivePair` per gcd triple of
    the order's table.  Each entry is one tuple built in one call, and the
    interned orbit data of a type serve every pair of it."""
    if g < 2 or n < 2 * g + 1:
        raise ValueError(f"no Kummer entry of genus {g} at order {n}")
    new, gcds = tuple.__new__, _order_gcds(n)
    types, out = {}, []
    for r, s in pairs:
        if r < 1 or s < 1 or r + s >= n:
            PrimitivePair(n, r, s)  # raises NotPrimitive
        orbits = types.get(abc := (gcds[r], gcds[s], gcds[r + s]))
        if orbits is None:
            orbits = types[abc] = PrimitivePair(n, r, s).ramification
            if (rh := rh_genus_wild(n, 0, orbits)) != g:
                raise ValueError(f"ramification data {tame_signature(orbits)}"
                                 f" of ({r}, {s}) mod {n} gives genus {rh}, "
                                 f"not {g}")
        out.append(new(Kummer, (n, r, s, g, orbits)))
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def _canonical_genus_entries(n, g):
    # The entries are shared by every classify call that lists them.
    return tuple(_kummer_entries(n, g, _orbit_minima(n, g)))


def enumerate_signatures(n: int, g: int) -> list[Signature]:
    """All tame ramification types of a degree-n cyclic cover with
    total-space genus g, sorted by (g0, indices): the order in which
    the targets and their multisets are searched."""
    if not is_int(n) or n < 2:
        raise BadOrder(f"n must be an int >= 2, got {n!r}")
    if not is_int(g) or g < 2:
        raise BadGenus(f"genus must be an int >= 2, got {g!r}")
    if n > N_CAP:
        raise OrderTooLarge(f"order {n} is above the cap of 2**32")
    # each index contributes at least n/2 to the largest target, at g0 = 0
    most = (2 * g - 2 + 2 * n) // ((n + 1) // 2)
    if most > _MAX_INDICES:
        raise TooManyIndices(
            f"order {n} and genus {g} leave room for {most} ramification "
            f"indices, above the {_MAX_INDICES} the enumerator lists")
    ds = [e for e in divisors(n) if e >= 2]
    terms = [(n // e) * (e - 1) for e in ds]  # ascending with e
    # the Hurwitz target of each g0, down to n: the sum of the cheapest
    # admissible multiset, two indices of 2
    targets = [2 * g - 2 - n * (2 * g0 - 2)
               for g0 in range((2 * g - 2 + n) // (2 * n) + 1)]
    count = _MultisetCounts(terms)
    candidates = sum(count[0, target] for target in targets)
    if candidates > _MAX_CANDIDATES:
        raise TooManyCandidates(
            f"order {n} and genus {g} give {candidates} candidate index "
            f"multisets, above the {_MAX_CANDIDATES} the enumerator tests")
    return [Signature(g0, indices) for g0, target in enumerate(targets)
            for indices in _index_multisets(ds, terms, count, 0, target)
            if _signature_ok(n, g0, indices)]


def _steps(terms, start, remaining):
    # the next index i >= start of a non-decreasing multiset summing to
    # remaining, and what is left after it, skipping dead ends: a
    # nonzero rest below terms[i] cannot be completed from terms[i:]
    for i in range(start, bisect_right(terms, remaining)):
        rest = remaining - terms[i]
        if rest == 0 or rest >= terms[i]:
            yield i, rest


class _MultisetCounts(dict):
    """counts[i, t]: how many non-decreasing multisets of the ascending
    terms[i:] sum to t, in at most `_MAX_COUNT_STEPS` steps a search.  A
    missing count is found depth first, as a recursion would go, on a
    list of frames, and every count on the way is kept."""

    def __init__(self, terms):
        self.terms, self.tried = terms, 0

    def __missing__(self, key):
        # [state, its steps not yet taken, the counts of those taken],
        # under a root frame whose one step is key
        terms, frames = self.terms, [[None, iter([key]), 0]]
        while True:
            frame = frames[-1]
            for state in frame[1]:
                value = self.get(state) if state[1] else 1
                if value is not None:
                    frame[2] += value
                    continue
                self.tried += bisect_right(terms, state[1]) - state[0]
                if self.tried > _MAX_COUNT_STEPS:
                    raise TooManyCandidates(
                        f"candidate count over {_MAX_COUNT_STEPS} steps")
                frames.append([state, _steps(terms, *state), 0])
                break
            else:  # every step taken: the state's count is known
                frames.pop()
                if not frames:
                    return frame[2]
                self[frame[0]] = frame[2]
                frames[-1][2] += frame[2]


def _index_multisets(ds, terms, count, start, remaining):
    # The multisets of ds[start:] whose Hurwitz terms sum to remaining > 0,
    # in lexicographic order, descending only where `count` finds one:
    # depth first, on a stack of (prefix, steps not yet taken).
    stack = [((), _steps(terms, start, remaining))]
    while stack:
        prefix, steps = stack[-1]
        for i, rest in steps:
            if rest == 0:
                yield prefix + (ds[i],)
            elif count[i, rest]:
                stack.append((prefix + (ds[i],), _steps(terms, i, rest)))
                break
        else:
            stack.pop()


def _signature_ok(n, g0, indices):
    m = lcm(*indices)
    if g0 == 0 and (len(indices) < 3 or m != n):
        return False
    for i in range(len(indices)):
        if i > 0 and indices[i] == indices[i - 1]:
            continue  # deleting a repeated index cannot change the lcm
        rest = indices[:i] + indices[i + 1:]
        if lcm(*rest) != m:
            return False
    return True


def classify(p: int, g: int, *, raw_pairs: bool = False,
             n: int | None = None) -> list[CurveModel]:
    """All families of genus-g curves with a cyclic group of order
    N >= 2g + 1 in characteristic p (0 for the classical case).

    Each entry is a model, which carries its N (`n`), `genus`,
    `branch`, `wild`, `ramification` and `signature`.  Every model but a
    Kummer one is checked here, N >= 2g + 1 and its genus by
    Riemann-Hurwitz; Kummer entries are checked per gcd triple
    (`_kummer_entries`), and the members of their orbits, which
    raw_pairs=True lists, as arrays (`_raw_block`).  They are grouped by
    canonical pair; with raw_pairs=True every genus-matching primitive
    pair gets its own entry.  An optional n restricts the output to that
    group order.
    """
    if not is_int(p) or p == 2 or p and not is_prime(p):
        raise UnsupportedCharacteristic(
            f"characteristic {p!r} unsupported: must be 0 or an odd prime")
    if not is_int(g) or g < 2:
        raise BadGenus(f"genus must be an int >= 2, got {g!r}")
    if n is not None and (not is_int(n) or n < 3):
        raise BadOrder(f"group order must be None or an int >= 3, got {n!r}")
    _check_order(4 * g + 2, f"genus {g} reaches order {4 * g + 2}; ")
    orders = range(2 * g + 1, 4 * g + 3)
    if n is not None:
        orders = [n] if n in orders else []
    others = {}  # the other families' models, at most one each, by N
    for model in (model for family in FAMILIES[1:]
                  for model in family.of_genus(p, g)):
        big_n, genus = model.n, model.genus
        if big_n < 2 * genus + 1:
            raise ValueError(f"N={big_n} below 2g+1={2 * genus + 1}")
        if (rh := rh_genus_wild(big_n, 0, model.ramification)) != genus:
            raise ValueError(
                f"ramification data of {model} gives genus {rh}, not {genus}")
        others.setdefault(big_n, []).append(model)
    # the raw listing yields the list of each order's entries in turn
    raw = _raw_entries(g, [big_n for big_n in orders if not p or big_n % p]
                       ) if raw_pairs else None
    entries = []
    for big_n in orders:
        if not p or big_n % p:
            entries += (next(raw) if raw_pairs
                        else _canonical_genus_entries(big_n, g))
        entries += others.get(big_n, ())  # after Kummer's at N
    return entries


@dataclass(frozen=True)
class SasakiReport:
    """Result of the exhaustive N >= 2g + 1 bound check."""

    n_max: int
    pairs_checked: int
    tight_pairs: int  # pairs attaining N = 2g + 1 exactly
    violations: tuple[tuple[int, int, int, int], ...]


def verify_sasaki_bound(n_max: int) -> SasakiReport:
    """Check N >= 2*genus + 1 over every primitive pair with N <= n_max."""
    if not is_int(n_max) or n_max < 3:
        raise BadOrder(f"n_max must be an int >= 3, got {n_max!r}")
    _check_order(n_max)
    checked = tight = 0
    violations = []
    for n in range(3, n_max + 1):
        genus, r, s = _pair_triangle(n)
        # N >= 2g + 1 is g <= (n - 1) // 2, attained exactly for odd n
        top = (n - 1) // 2
        checked += genus.size
        if n % 2:
            tight += int(np.count_nonzero(genus == top))
        for i in np.flatnonzero(genus > top).tolist():
            violations.append((n, int(r[i]), int(s[i]), int(genus[i])))
    return SasakiReport(n_max, checked, tight, tuple(violations))
