"""Exact Riemann-Hurwitz arithmetic for cyclic covers.

The objects here are the raw combinatorial data of a cyclic cover of
curves: higher-ramification filtrations at ramified points (stored as
the list of subgroup orders |G_P^(i)|, p = 0 for a tame one), orbit
data pairing a filtration with the number of points sharing it, and
ramification signatures (quotient genus plus a multiset of indices),
the tame view of that data.  `orbit_datum` is the one constructor of
orbit data, tame or wild, interned per orbit; `rh_genus_wild` reads
every genus.

All operations are pure functions of their inputs, return exact Python
integers, and raise rather than silently round when the genus formula
cannot be satisfied: a parity failure of 2g - 2 is a meaningful
arithmetic contradiction, not a rounding issue.

Group orders are capped at 2**32; this library targets desk-scale
enumeration, not asymptotics.
"""

from dataclasses import dataclass
from functools import lru_cache

from .intmath import is_int, is_power_of, is_prime

N_CAP = 2**32


class InvalidFiltration(ValueError):
    """A ramification filtration violates a structural invariant."""


class Inconsistent(ValueError):
    """Riemann-Hurwitz data admits no non-negative integer genus."""


class NotADivisor(ValueError):
    """A divisibility precondition fails."""


def _check_group_order(n):
    if not 1 <= n <= N_CAP:
        raise Inconsistent(f"group order {n} outside [1, 2**32]")


@dataclass(frozen=True)
class Signature:
    """Ramification type (g0; e_1, ..., e_n) of a cyclic cover.

    g0 is the genus of the quotient curve; indices is the multiset of
    ramification indices, kept in canonical non-decreasing order so
    equality is multiset equality.
    """

    g0: int
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.g0 < 0:
            raise ValueError(f"quotient genus must be >= 0, got {self.g0}")
        indices = tuple(sorted(self.indices))
        for e in indices:
            if e < 2:
                raise ValueError(f"ramification index must be >= 2, got {e}")
        object.__setattr__(self, "indices", indices)

    @property
    def n(self) -> int:
        return len(self.indices)

    def __str__(self):
        inner = ",".join(str(e) for e in self.indices)
        return f"({self.g0}; {inner})"


@dataclass(frozen=True)
class FiltrationProfile:
    """Orders |G_P^(0)| >= |G_P^(1)| >= ... at a ramified point.

    Trailing 1s are normalized away, so equality compares only the
    nontrivial levels; orders beyond the stored list are implicitly 1.
    p = 0 is the tame form, whose one level is the stabilizer's order.
    Structural invariants of cyclic stabilizers in characteristic p are
    enforced at construction:

      * the order at level 1 is the p-part of the order at level 0,
      * every order at level >= 1 is a power of p,
      * all jump indices >= 1 are congruent modulo p.
    """

    p: int
    orders: tuple[int, ...]

    def __post_init__(self):
        p, orders = self.p, tuple(self.orders)
        if not is_int(p) or p and (p < 3 or not is_prime(p)):
            raise InvalidFiltration(f"0 or an odd prime expected, got p={p!r}")
        if not all(map(is_int, orders)) or min(orders, default=1) < 1:
            raise InvalidFiltration(f"orders must be positive ints: {orders}")
        while orders and orders[-1] == 1:
            orders = orders[:-1]
        if list(orders) != sorted(orders, reverse=True):
            raise InvalidFiltration(f"orders must be non-increasing: {orders}")
        o0 = orders[0] if orders else 1
        _check_group_order(o0)
        for o in orders[1:]:
            if not is_power_of(o, p):
                raise InvalidFiltration(
                    f"order {o} at level >= 1 is not a power of p={p}")
        o1 = orders[1] if len(orders) > 1 else 1
        if o0 % o1 or p and (o0 // o1) % p == 0:
            raise InvalidFiltration(
                f"level-0 order {o0} must be (prime-to-p) * {o1}")
        object.__setattr__(self, "orders", orders)
        jumps = self.jumps()
        if any((i - jumps[0]) % p for i in jumps[1:]):
            raise InvalidFiltration(
                f"jump indices {jumps} not congruent modulo p={p}")

    @property
    def o0(self) -> int:
        """Order of the full stabilizer (1 for a trivial profile)."""
        return self.orders[0] if self.orders else 1

    def jumps(self) -> tuple[int, ...]:
        """Indices i >= 1 where the order drops from level i to i+1."""
        orders = tuple(self.orders) + (1,)
        return tuple(i for i in range(1, len(orders) - 1)
                     if orders[i] > orders[i + 1])


@dataclass(frozen=True)
class OrbitDatum:
    """A filtration together with the number of points sharing it."""

    filtration: FiltrationProfile
    orbit_size: int

    def __post_init__(self):
        if self.orbit_size < 1:
            raise ValueError(f"orbit size must be >= 1, got {self.orbit_size}")


def different_exponent(profile: FiltrationProfile) -> int:
    """Local different exponent: the sum of (order - 1) over all levels."""
    return sum(profile.orders) - len(profile.orders)


# The three caches hold immutable data, dearer to build than to look up,
# shared by the covers of one order with that orbit (a datum) or type (a
# tuple and its signature).
@lru_cache(maxsize=1024)
def orbit_datum(p: int, group_order: int, e: int, m: int, /) -> OrbitDatum:
    """A short orbit of a cyclic cover of order N, its tame stabilizer of
    order e: one level with no pole (m = 0; p = 0 is the tame form), or,
    at a pole of order m prime to p, one totally ramified place with
    lower jump m, orders (e*p, p, ..., p) (Stichtenoth, Prop. 3.7.8).
    Positional and required arguments give one orbit one cache key."""
    profile = FiltrationProfile(p, (e * p,) + (p,) * m if m else (e,))
    return OrbitDatum(profile, group_order // profile.o0)


@lru_cache(maxsize=1024)
def tame_orbits(group_order: int, indices: tuple) -> tuple[OrbitDatum, ...]:
    """The orbit data of a tuple of tame ramification indices: an index e
    is an orbit of N/e points whose stabilizer, of order e, has only
    level 0."""
    return tuple([orbit_datum(0, group_order, e, 0) for e in indices])


@lru_cache(maxsize=1024)
def tame_signature(orbits) -> Signature:
    """The signature (0; e_1, ..., e_k) of orbit data over the projective
    line: the stabilizer order of each orbit, one object per tuple of
    orbit data (those of `tame_orbits` are interned)."""
    return Signature(0, tuple(o.filtration.o0 for o in orbits))


def rh_genus_tame(group_order: int, g0: int, sig) -> int:
    """Genus of a degree-N tame cyclic cover from its signature: the
    indices are checked, then `rh_genus_wild` reads their `tame_orbits`.

    2g - 2 = N(2*g0 - 2) + sum over indices of (N/e)(e - 1).

    `sig` may be a Signature (its g0 must agree with the g0 argument) or
    a bare iterable of ramification indices.
    """
    _check_group_order(group_order)
    if isinstance(sig, Signature) and sig.g0 != g0:
        raise Inconsistent(f"signature g0={sig.g0} disagrees with g0={g0}")
    indices = sig.indices if isinstance(sig, Signature) else tuple(sig)
    for e in indices:
        if e < 2:
            raise Inconsistent(f"ramification index {e} < 2")
        if group_order % e:
            raise NotADivisor(f"index {e} does not divide N={group_order}")
    return rh_genus_wild(group_order, g0, tame_orbits(group_order, indices))


def rh_genus_wild(group_order: int, g0: int, orbits) -> int:
    """Genus of a degree-N cyclic cover from per-orbit filtration data,
    tame or wild; an odd or negative-genus outcome is rejected loudly.

    2g - 2 = N(2*g0 - 2) + sum over orbits of size * different_exponent.
    Each orbit must satisfy orbit_size * o0 = N.
    """
    _check_group_order(group_order)
    if g0 < 0:
        raise Inconsistent(f"quotient genus {g0} < 0")
    rhs = group_order * (2 * g0 - 2)
    for orbit in orbits:
        if orbit.orbit_size * orbit.filtration.o0 != group_order:
            raise Inconsistent(
                f"orbit size {orbit.orbit_size} x stabilizer "
                f"{orbit.filtration.o0} != N={group_order}")
        rhs += orbit.orbit_size * different_exponent(orbit.filtration)
    if rhs % 2:
        raise Inconsistent(f"2g - 2 = {rhs} is odd")
    if rhs < -2:
        raise Inconsistent(f"2g - 2 = {rhs} gives negative genus")
    return (rhs + 2) // 2
