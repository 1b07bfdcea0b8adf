"""Independent verification engine over finite fields.

This module cross-checks the genus formulas and automorphism claims of
the curve families by exact computation over small finite fields:

  * `FiniteField` implements F_{p^k} with elements encoded as integers
    in [0, p^k) (base-p digit vectors).  The modulus is the least
    irreducible monic polynomial of degree k, chosen deterministically
    so counts are reproducible across runs.
  * `count_places` returns the exact number of rational places of the
    smooth model of a curve over a field, combining fibre counts on the
    affine part with exact place counts over the branch and infinite
    points derived from the ramification data.
  * `count_places_naive` is the brute-force double-loop oracle for the
    affine part; fast and naive paths must agree exactly.
  * `zeta_genus` infers the genus from a series of place counts by
    fitting a Weil polynomial via Newton's identities and the
    functional equation, demanding exact integer agreement.
  * `verify_automorphism` instantiates a symbolic generator on the
    rational points and checks that it is a permutation of the exact
    claimed order, reporting orbit structure and fixed points.

Both counts, `affine_points` and `verify_automorphism` are generic: the
equation, its x-domain, the extra places and the generator's action
come from the family (`CurveModel.equation` and `point_map`).

Parameter conventions: integer model parameters with absolute value
below p denote prime-subfield elements; values in [p, q) are read as
the base-p encoding of an element of the concrete field in use (and are
lifted along subfield embeddings when counting over extensions).

Everything is a pure function of its inputs; fields cache their own
multiplication tables but are immutable once constructed, so all
operations are safe for unrestricted concurrent use.  Counting loops
could be partitioned over x-ranges; this implementation keeps them
sequential, which is ample at the supported field sizes.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .intmath import is_prime, prime_factors
from .families import (
    AutomorphismDescriptor,
    CurveModel,
    PreconditionViolated,
)

Q_CAP = 2**31
TABLE_LIMIT = 1 << 22  # largest extension field (it needs exp/log tables)


class FieldTooLarge(ValueError):
    """The requested field exceeds the supported size."""


class NotAnAutomorphism(RuntimeError):
    """The instantiated map does not permute the rational points."""


class OrderMismatch(RuntimeError):
    """The permutation order differs from the claimed order."""


class InsufficientCounts(ValueError):
    """The place-count series is too short for the requested genus bound."""


class HasseWeilViolation(ArithmeticError):
    """A place count falls outside the Hasse-Weil interval."""


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (ascending coefficient tuples, internal)

def _pnorm(a):
    i = len(a)
    while i and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _pnorm(tuple(c % p for c in out))


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
        a[i] = 0
    return _pnorm(tuple(c % p for c in a[:dm]))


def _pmulmod(a, b, m, p):
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(a, e, m, p):
    out = (1,)
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            out = _pmulmod(out, a, m, p)
        a = _pmulmod(a, a, m, p)
        e >>= 1
    return out


def _pgcd(a, b, p):
    a, b = _pnorm(tuple(a)), _pnorm(tuple(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = tuple(c * inv % p for c in b)
        a, b = b, _pmod(a, bm, p)
    return a


def _poly_is_irreducible(f, p):
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    if _ppowmod(x, p**k, f, p) != x:
        return False
    for ell in prime_factors(k):
        h = _ppowmod(x, p**(k // ell), f, p)
        diff = _pnorm(tuple(
            ((h[i] if i < len(h) else 0) - (x[i] if i < len(x) else 0)) % p
            for i in range(max(len(h), len(x)))))
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def _least_irreducible(p, k):
    if k == 1:
        return (0, 1)
    for enc in range(1, p**k):
        if enc % p == 0:
            continue  # constant term 0: divisible by x
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        f = tuple(coeffs) + (1,)
        if _poly_is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FiniteField:
    """F_{p^k}: elements are ints in [0, p^k), base-p digit encoded.

    Use the cached factory `field(p, k)` rather than the constructor
    when possible so multiplication tables are shared.
    """

    def __init__(self, p, k=1, modulus=None):
        if p < 3 or not is_prime(p):
            raise PreconditionViolated(f"odd prime expected, got p={p}")
        if k < 1:
            raise PreconditionViolated(f"extension degree must be >= 1: {k}")
        q = p**k
        if q > Q_CAP:
            raise FieldTooLarge(f"q = {p}^{k} exceeds 2^31")
        if k >= 2 and q > TABLE_LIMIT:
            # extension-field arithmetic runs on discrete-log tables,
            # and building them beyond this size takes too long
            raise FieldTooLarge(
                f"extension field of size {q} exceeds the table ceiling 2^22")
        if modulus is None:
            modulus = _least_irreducible(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise PreconditionViolated(
                    f"modulus must be monic of degree {k}")
            if not _poly_is_irreducible(modulus, p):
                raise PreconditionViolated(f"modulus {modulus} is reducible")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        # x^(k+i) mod f, encoded, for reducing products
        self._xk = self._encode(_pmod((0,) * k + (1,), modulus, p))
        self._exp = self._log = None
        self._basis_traces = None
        self._lift_roots = {}
        if k >= 2:
            self._build_tables()

    def __repr__(self):
        return f"FiniteField({self.p}, {self.k})"

    # -- encoding helpers

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def elements(self):
        return range(self.q)

    # -- slow (table-free) arithmetic, always available

    def _mul_slow(self, a, b):
        prod = _pmulmod(tuple(self._digits(a)), tuple(self._digits(b)),
                        self.modulus, self.p)
        return self._encode(list(prod) + [0] * (self.k - len(prod)))

    def _pow_slow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self._mul_slow(out, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return out

    def _mul_by_x(self, a):
        digits = self._digits(a)
        carry = digits[-1]
        shifted = self._encode([0] + digits[:-1])
        if not carry:
            return shifted
        return self.add(shifted, self.scale(carry, self._xk))

    # -- exp/log tables (baby-step giant-step, vectorized)

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        fac = prime_factors(q - 1)
        g = p  # constants have order dividing p - 1 < q - 1
        while any(self._pow_slow(g, (q - 1) // ell) == 1 for ell in fac):
            g += 1
        t = isqrt(q - 1) + 1
        baby = [1] * t
        for i in range(1, t):
            baby[i] = self._mul_slow(baby[i - 1], g)
        arr = np.array(baby, dtype=np.int64)
        baby_digits = np.empty((t, k), dtype=np.int64)
        for i in range(k):
            baby_digits[:, i] = arr % p
            arr //= p
        pvec = p ** np.arange(k, dtype=np.int64)
        giant = self._pow_slow(g, t)
        exp = np.empty(q - 1, dtype=np.int64)
        cur = 1
        for b in range((q - 2) // t + 1):
            rows = []
            elem = cur
            for _ in range(k):
                rows.append(self._digits(elem))
                elem = self._mul_by_x(elem)
            block = (baby_digits @ np.array(rows, dtype=np.int64)) % p
            vals = block @ pvec
            lo = b * t
            hi = min(lo + t, q - 1)
            exp[lo:hi] = vals[:hi - lo]
            cur = self._mul_slow(cur, giant)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        if log[1] != 0 or (log[1:] < 0).any():
            raise RuntimeError("discrete log table construction failed")
        self._exp = exp.tolist()
        self._log = log.tolist()

    # -- field operations

    def add(self, a, b):
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        shift = 1
        while a or b:
            out += (a % p + b % p) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a):
        p = self.p
        if self.k == 1:
            return (p - a) % p
        out = 0
        shift = 1
        while a:
            out += (p - a % p) % p * shift
            a //= p
            shift *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, c, a):
        """Multiply by a prime-subfield scalar c."""
        p = self.p
        c %= p
        if self.k == 1:
            return c * a % p
        out = 0
        shift = 1
        while a:
            out += a % p * c % p * shift
            a //= p
            shift *= p
        return out

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self.k == 1:
            return pow(a, e, self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def trace(self, a):
        """Absolute trace down to the prime field, as an int in [0, p)."""
        if self.k == 1:
            return a
        if self._basis_traces is None:
            traces = []
            for i in range(self.k):
                e = self.p**i
                acc = e
                t = e
                for _ in range(self.k - 1):
                    t = self.pow(t, self.p)
                    acc = self.add(acc, t)
                if acc >= self.p:
                    raise RuntimeError("basis trace not in prime field")
                traces.append(acc)
            self._basis_traces = traces
        total = 0
        i = 0
        while a:
            total += a % self.p * self._basis_traces[i]
            a //= self.p
            i += 1
        return total % self.p

    def element_order(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        if self._log is not None:
            return (self.q - 1) // gcd(self._log[a], self.q - 1)
        order = self.q - 1
        for ell in prime_factors(self.q - 1):
            while order % ell == 0 and self.pow(a, order // ell) == 1:
                order //= ell
        return order

    def element_of_order(self, n):
        """Least element (by encoding) of multiplicative order exactly n."""
        if n < 1 or (self.q - 1) % n:
            raise PreconditionViolated(
                f"no element of order {n} in field of size {self.q}")
        for a in range(1, self.q):
            if self.element_order(a) == n:
                return a
        raise RuntimeError("unreachable: cyclic group has all divisor orders")

    def num_nth_roots(self, c, n):
        """Number of y with y^n = c."""
        if c == 0:
            return 1
        d = gcd(n, self.q - 1)
        if self._log is not None:
            return d if self._log[c] % d == 0 else 0
        return d if self.pow(c, (self.q - 1) // d) == 1 else 0

    def lift_from(self, value, src):
        """Image of a src-encoded element under the embedding src -> self.

        src must be a subfield pattern: same p, src.k dividing self.k.
        The embedding sends the residue of x in src to the least root
        of src.modulus in self, making lifts deterministic.
        """
        if src.p != self.p or self.k % src.k:
            raise PreconditionViolated(
                f"no embedding of F_{src.p}^{src.k} into F_{self.p}^{self.k}")
        if value < self.p:
            return value
        if src.k == self.k and src.modulus == self.modulus:
            return value
        key = src.modulus
        root = self._lift_roots.get(key)
        if root is None:
            coeffs = list(src.modulus)
            for z in range(self.p, self.q):
                acc = 0
                for c in reversed(coeffs):
                    acc = self.add(self.mul(acc, z), c)
                if acc == 0:
                    root = z
                    break
            else:
                raise RuntimeError("modulus has no root in extension")
            self._lift_roots[key] = root
        out = 0
        power = 1
        v = value
        while v:
            out = self.add(out, self.scale(v % src.p, power))
            power = self.mul(power, root)
            v //= src.p
        return out


@lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> FiniteField:
    """Cached field factory with the deterministic least modulus."""
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# place counting


def count_places(model: CurveModel, fld: FiniteField, base=None) -> int:
    """Exact number of rational places of the smooth model over `fld`.

    Each x contributes the size of the fibre of the left side over
    rhs(x): in closed form for y^n and y^p - y, and from a histogram of
    the left side over all y otherwise.
    """
    eq = model.equation(fld, base)
    rhs, fibre = eq.rhs, eq.fibre
    if fibre is None:
        fibre = Counter(map(eq.lhs, fld.elements())).__getitem__
    total = 0
    for x in eq.counted_xs():
        total += fibre(rhs(x))
    return total + eq.extra


def count_places_naive(model: CurveModel, fld: FiniteField) -> int:
    """Brute-force oracle: every (x, y) tested against the equation,
    plus the same place corrections as the fast path."""
    eq = model.equation(fld)
    total = 0
    for x in eq.counted_xs():
        v = eq.rhs(x)
        for y in fld.elements():
            if eq.lhs(y) == v:
                total += 1
    return total + eq.extra


@dataclass(frozen=True)
class PlaceCountSeries:
    """Rational-place counts of a model over F_q, F_q^2, ..., F_q^m.

    Every count is checked against the Hasse-Weil interval for the
    model's formula genus at construction; a violation means a counting
    bug and is raised loudly.
    """

    model: CurveModel
    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        g = self.model.genus()
        for j, nj in enumerate(self.counts, start=1):
            if nj < 0:
                raise HasseWeilViolation(f"negative count N_{j}={nj}")
            if (nj - (self.q**j + 1))**2 > 4 * g * g * self.q**j:
                raise HasseWeilViolation(
                    f"N_{j}={nj} outside Hasse-Weil bound for genus {g}")


def count_series(model: CurveModel, base_field: FiniteField, depth: int,
                 max_field_size: int = 10**9) -> PlaceCountSeries:
    """Count rational places over the first `depth` extensions of
    base_field.  Refuses fields beyond max_field_size."""
    q = base_field.q
    counts = []
    for j in range(1, depth + 1):
        if q**j > max_field_size:
            raise FieldTooLarge(
                f"q^{j} = {q**j} exceeds cap {max_field_size}")
        ext = field(base_field.p, base_field.k * j)
        counts.append(count_places(model, ext, base=base_field))
    return PlaceCountSeries(model, q, tuple(counts))


# ---------------------------------------------------------------------------
# zeta-function genus inference


def zeta_genus(series: PlaceCountSeries, g_max: int) -> int | None:
    """Smallest g <= g_max whose Weil polynomial reproduces the series.

    The candidate polynomial is built from the first g power sums by
    Newton's identities, completed by the functional equation, and then
    required to predict every further supplied count exactly.  Returns
    None when no genus fits (an inconsistent series).
    """
    if g_max < 0:
        raise ValueError("g_max must be >= 0")
    m = len(series.counts)
    if m < 2 * g_max:
        raise InsufficientCounts(
            f"need counts over {2 * g_max} extensions, got {m}")
    q = series.q
    s = [Fraction(q**j + 1 - series.counts[j - 1]) for j in range(1, m + 1)]
    for g in range(g_max + 1):
        e = _newton_elementary(s, g)
        if e is None:
            continue
        # complete degree-2g coefficients via b_{2g-i} = q^(g-i) b_i
        b = [(-1)**i * e[i] for i in range(g + 1)]
        b += [Fraction(0)] * g
        for i in range(g):
            b[2 * g - i] = q**(g - i) * b[i]
        e_full = [(-1)**i * b[i] for i in range(2 * g + 1)]
        if _power_sums(e_full, 2 * g, m) == s:
            return g
    return None


def _newton_elementary(s, g):
    """e_1..e_g from power sums; None when some e_k is not an integer."""
    e = [Fraction(1)]
    for k in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1)**(i - 1) * e[k - i] * s[i - 1]
        ek = acc / k
        if ek.denominator != 1:
            return None
        e.append(ek)
    return e


def _power_sums(e, deg, m):
    """First m power sums of the multiset with elementary symmetric
    functions e[1..deg] (e[0] = 1)."""
    s = []
    for k in range(1, m + 1):
        acc = Fraction(0)
        for i in range(1, min(k - 1, deg) + 1):
            acc += (-1)**(i - 1) * e[i] * s[k - i - 1]
        if k <= deg:
            acc += (-1)**(k - 1) * k * e[k]
        s.append(acc)
    return s


# ---------------------------------------------------------------------------
# automorphism verification


def affine_points(model: CurveModel, fld: FiniteField) -> frozenset:
    """Rational points of the affine plane model, as (x, y) encodings."""
    eq = model.equation(fld)
    bucket = {}
    for y in fld.elements():
        bucket.setdefault(eq.lhs(y), []).append(y)
    return frozenset((x, y) for x in eq.affine_xs()
                     for y in bucket.get(eq.rhs(x), ()))


def _point_map(model, fld, descriptor):
    if descriptor.order == 1:
        return lambda pt: pt
    zeta = None
    if descriptor.zeta_order is not None:
        if (fld.q - 1) % descriptor.zeta_order:
            raise PreconditionViolated(
                f"no root of unity of order {descriptor.zeta_order} "
                f"in field of size {fld.q}")
        zeta = fld.element_of_order(descriptor.zeta_order)
    return model.point_map(model.equation(fld), zeta)


@dataclass(frozen=True)
class OrbitReport:
    """Orbit structure of a verified automorphism on affine points."""

    q: int
    point_count: int
    order: int
    fixed_points: tuple
    orbit_sizes: tuple  # ((size, multiplicity), ...) ascending


def expected_affine_fixed(model: CurveModel) -> tuple:
    """Affine fixed points forced by the family's generator."""
    return model.affine_fixed


def verify_automorphism(model: CurveModel, fld: FiniteField,
                        descriptor: AutomorphismDescriptor | None = None
                        ) -> OrbitReport:
    """Check that the generator permutes the rational affine points
    with exactly the claimed order, and report the orbit structure."""
    if descriptor is None:
        descriptor = model.generator()
    pts = affine_points(model, fld)
    apply_map = _point_map(model, fld, descriptor)
    images = {}
    for pt in pts:
        ipt = apply_map(pt)
        if ipt not in pts:
            raise NotAnAutomorphism(
                f"image {ipt} of {pt} is not on the curve")
        images[pt] = ipt
    sizes = {}
    fixed = []
    seen = set()
    for start in pts:
        if start in seen:
            continue
        size = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = images[cur]
            size += 1
        sizes[size] = sizes.get(size, 0) + 1
        if size == 1:
            fixed.append(start)
    order = lcm(*sizes) if sizes else 1
    if order != descriptor.order:
        raise OrderMismatch(
            f"permutation has order {order}, descriptor claims "
            f"{descriptor.order}")
    assert sum(size * mult for size, mult in sizes.items()) == len(pts)
    assert all(order % size == 0 for size in sizes)
    return OrbitReport(
        q=fld.q, point_count=len(pts), order=order,
        fixed_points=tuple(sorted(fixed)),
        orbit_sizes=tuple(sorted(sizes.items())))
