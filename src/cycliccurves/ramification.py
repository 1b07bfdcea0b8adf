"""Exact Riemann-Hurwitz arithmetic for cyclic covers.

The objects here are the raw combinatorial data of a cyclic cover of
curves: ramification signatures (quotient genus plus a multiset of
ramification indices), higher-ramification filtrations at wildly
ramified points (stored as the list of subgroup orders |G_P^(i)|), and
orbit data pairing a filtration with the number of points sharing it.

All operations are pure functions of their inputs, return exact Python
integers, and raise rather than silently round when the genus formula
cannot be satisfied: a parity failure of 2g - 2 is a meaningful
arithmetic contradiction, not a rounding issue.

Group orders are capped at 2**32; this library targets desk-scale
enumeration, not asymptotics.
"""

from dataclasses import dataclass

from .intmath import is_power_of, is_prime

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
    Structural invariants of cyclic stabilizers in characteristic p are
    enforced at construction:

      * the order at level 1 is the p-part of the order at level 0,
      * every order at level >= 1 is a power of p,
      * all jump indices >= 1 are congruent modulo p.
    """

    p: int
    orders: tuple[int, ...]

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise InvalidFiltration(f"odd prime expected, got p={self.p}")
        orders = tuple(self.orders)
        if any(o < 1 for o in orders):
            raise InvalidFiltration(f"orders must be positive: {orders}")
        while orders and orders[-1] == 1:
            orders = orders[:-1]
        if any(orders[i] < orders[i + 1] for i in range(len(orders) - 1)):
            raise InvalidFiltration(f"orders must be non-increasing: {orders}")
        o0 = orders[0] if orders else 1
        _check_group_order(o0)
        o1 = orders[1] if len(orders) > 1 else 1
        if not is_power_of(o1, self.p):
            raise InvalidFiltration(
                f"level-1 order {o1} is not a power of p={self.p}")
        for o in orders[2:]:
            if not is_power_of(o, self.p):
                raise InvalidFiltration(
                    f"order {o} at level >= 1 is not a power of p={self.p}")
        if o0 % o1 != 0 or (o0 // o1) % self.p == 0:
            raise InvalidFiltration(
                f"level-0 order {o0} must be (prime-to-p) * {o1}")
        object.__setattr__(self, "orders", orders)
        jumps = self.jumps()
        if any((i - jumps[0]) % self.p for i in jumps[1:]):
            raise InvalidFiltration(
                f"jump indices {jumps} not congruent modulo p={self.p}")

    @property
    def o0(self) -> int:
        """Order of the full stabilizer (1 for a trivial profile)."""
        return self.orders[0] if self.orders else 1

    def jumps(self) -> tuple[int, ...]:
        """Indices i >= 1 where the order drops from level i to i+1."""
        orders = tuple(self.orders) + (1,)
        return tuple(i for i in range(1, len(orders) - 1)
                     if orders[i] > orders[i + 1])


def validate_filtration(p: int, orders) -> FiltrationProfile:
    """Normalize and validate raw filtration orders.

    Returns the canonical FiltrationProfile, or raises InvalidFiltration.
    """
    return FiltrationProfile(p, tuple(orders))


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
    return sum(o - 1 for o in profile.orders)


def _rh_genus(group_order, g0, terms):
    """2g - 2 = N(2*g0 - 2) + sum of size * exponent over the (orbit size,
    different exponent) terms, which are checked as they are read; an
    odd or negative-genus outcome is rejected loudly."""
    _check_group_order(group_order)
    if g0 < 0:
        raise Inconsistent(f"quotient genus {g0} < 0")
    rhs = group_order * (2 * g0 - 2) + sum(size * d for size, d in terms)
    if rhs % 2:
        raise Inconsistent(f"2g - 2 = {rhs} is odd")
    if rhs < -2:
        raise Inconsistent(f"2g - 2 = {rhs} gives negative genus")
    return (rhs + 2) // 2


def rh_genus_tame(group_order: int, g0: int, sig) -> int:
    """Genus of a degree-N tame cyclic cover from its signature: an index
    e is an orbit of N/e points with different exponent e - 1.

    2g - 2 = N(2*g0 - 2) + sum over indices of (N/e)(e - 1).

    `sig` may be a Signature (its g0 must agree with the g0 argument) or
    a bare iterable of ramification indices.
    """
    def terms():
        if isinstance(sig, Signature) and sig.g0 != g0:
            raise Inconsistent(f"signature g0={sig.g0} disagrees with g0={g0}")
        for e in (sig.indices if isinstance(sig, Signature) else tuple(sig)):
            if e < 2:
                raise Inconsistent(f"ramification index {e} < 2")
            if group_order % e:
                raise NotADivisor(f"index {e} does not divide N={group_order}")
            yield group_order // e, e - 1
    return _rh_genus(group_order, g0, terms())


def rh_genus_wild(group_order: int, g0: int, orbits) -> int:
    """Genus of a degree-N cyclic cover from per-orbit filtration data.

    2g - 2 = N(2*g0 - 2) + sum over orbits of size * different_exponent.
    Each orbit must satisfy orbit_size * o0 = N.
    """
    def terms():
        for orbit in orbits:
            if orbit.orbit_size * orbit.filtration.o0 != group_order:
                raise Inconsistent(
                    f"orbit size {orbit.orbit_size} x stabilizer "
                    f"{orbit.filtration.o0} != N={group_order}")
            yield orbit.orbit_size, different_exponent(orbit.filtration)
    return _rh_genus(group_order, g0, terms())
