"""Independent verification engine over finite fields.

This module cross-checks the genus formulas and automorphism claims of
the curve families by exact computation over small finite fields:

  * `FiniteField` implements F_{p^k} with elements encoded as integers
    in [0, p^k) (base-p digit vectors).  The modulus f is the monic
    irreducible polynomial of degree k least by encoding, found by
    Rabin's test on the matrix C of x mod f, the one matrix that all
    arithmetic mod f is built on.  Its operations are array-at-a-time:
    they take numpy integer arrays and evaluate every element in one
    call, by int32 exp/log tables over the least primitive element by
    encoding (8 bytes per element, with a Zech-log table more in
    extension fields, 12 bytes: see `FiniteField`).
  * `count_places` returns the exact number of rational places of the
    smooth model of a curve over a field, combining fibre counts on the
    affine part with exact place counts over the branch and infinite
    points derived from the ramification data.
  * `count_places_naive` is the brute-force double-loop oracle for the
    affine part; fast and naive paths must agree exactly.
  * `zeta_genus` infers the genus from a series of place counts by
    fitting a Weil polynomial via Newton's identities and the
    functional equation, demanding exact integer agreement; `zeta_fit`
    also says why no genus fits.
  * `affine_points` lists the rational points of the affine part once,
    as an `AffinePoints` with the tables that locate them; with the
    extra places it gives the same count as `count_places`.
  * `verify_automorphism` runs the family's generator (`point_map`) on
    that listing and checks that it is a permutation of order exactly
    the model's `n`, reporting orbit structure and fixed points, and
    the listing's place count, so that one listing serves `verify`.

Both counts and `verify_automorphism` are generic: the equation, its
x-domain, its fibre sizes, the extra places and the generator's action
come from the family (`CurveModel.equation` and `point_map`).

Parameter conventions: integer model parameters below p denote
prime-subfield elements; values in [p, q) are read as the base-p
encoding of an element of the field in use.  An equation meets one
field only: `count_series` reads the coefficients in the base field of
its tower and moves them into each extension (`CurveModel.lifted`).

Each side of the equation is evaluated as an array.  The fast count
runs over x in blocks of `_BLOCK` elements and sums the closed-form
fibre sizes of rhs block by block (`fibre(rhs(xs)).sum()`), and the
table build fills its tables block by block too, so neither holds more
than O(`_BLOCK`) beyond the field tables.  The naive count compares lhs
over all y with each rhs value, the listing sorts the y by lhs(y) and
pairs each x with the y of value rhs(x), and the automorphism check
maps every listed point in one call, finds the images by dense lookups
and walks the orbits by pointer doubling: these hold a few vectors of
length q, a point listing being O(q) by nature.  Every field, prime or
not, stops at `TABLE_LIMIT` elements (2^22), the ceiling of the tables.

Everything is a pure function of its inputs; fields cache their own
tables but are immutable once constructed, so all operations are safe
for unrestricted concurrent use.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .intmath import TABLE_LIMIT, is_int, is_prime, prime_factors
from .families import CurveModel, PreconditionViolated


class FieldTooLarge(ValueError):
    """The requested field exceeds the supported size."""


class NotAnAutomorphism(RuntimeError):
    """The instantiated map does not permute the rational points.
    Raised by `verify_automorphism`, it carries the listing's `places`."""


class OrderMismatch(RuntimeError):
    """The permutation order differs from the claimed order.  Raised by
    `verify_automorphism`, it carries the listing's `places`."""


class InsufficientCounts(ValueError):
    """The place-count series is too short for the requested genus bound."""


class HasseWeilViolation(ArithmeticError):
    """A place count falls outside the Hasse-Weil interval."""


# ---------------------------------------------------------------------------


def _powers(c, n, p):
    """c^0, ..., c^(n-1) mod p, as int64."""
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * c % p
    return np.array(out, dtype=np.int64)


def _matpow(m, e, p):
    """m^e mod p for a square int64 matrix m (Rabin's test's C^p)."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m, e = m @ m % p, e >> 1
    return out


def _companion(f, p):
    """The matrix of multiplication by x mod the monic f on digit rows
    (ascending coefficients): row i holds the digits of x^(i+1) mod f."""
    c = np.eye(len(f) - 1, k=1, dtype=np.int64)
    c[-1] = np.negative(f[:-1]) % p
    return c


def _mul_rows(row, c, p):
    """The rows row, row C, ..., row C^(k-1) mod p: for C the matrix of
    x, the matrix of multiplication by the element with digits `row`.
    A (B, k) stack of rows gives the (B, k, k) stack of their matrices."""
    rows = [row]
    for _ in range(len(c) - 1):
        rows.append(rows[-1] @ c % p)
    return np.stack(rows, axis=-2)


def _is_unit(m, p):
    """det(m) != 0 mod p, by Gaussian elimination on Python ints: each
    column takes a pivot from the rows left and clears it in the rest."""
    rows = m.tolist()
    for i in range(len(rows)):
        pivot = next((r for r in rows if r[i] % p), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        inv = pow(pivot[i], -1, p)
        rows = [[(a - r[i] * inv * b) % p for a, b in zip(r, pivot)]
                for r in rows]
    return True


def _poly_is_irreducible(f, p):
    """Rabin's test (M. O. Rabin, "Probabilistic algorithms in finite
    fields", SIAM J. Comput. 9, 1980) on the companion matrix C of the
    monic f of degree k: f is irreducible exactly when x^(p^k) = x mod f
    and, for each prime l | k, h = x^(p^(k/l)) - x is a unit mod f, that
    is, its multiplication matrix has a determinant prime to p.  The
    digits of x^(p^j) are those of x times F^j, F the matrix of the
    Frobenius a -> a^p, whose row i holds the digits of x^(ip), read off
    C^p.  A non-monic f gives False."""
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    c = _companion(f, p)
    one = np.eye(1, k, dtype=np.int64)[0]
    frobenius = _mul_rows(one, _matpow(c, p, p), p)
    x = [c[0]]  # the digits of x^(p^j), from j = 0
    for _ in range(k):
        x.append(x[-1] @ frobenius % p)
    return (x[k] == x[0]).all() and all(
        _is_unit(_mul_rows((x[k // ell] - x[0]) % p, c, p), p)
        for ell in prime_factors(k))


def _least_irreducible(p, k):
    """The monic irreducible f of degree k over F_p whose lower
    coefficients have the least base-p encoding.  A candidate with a
    root in F_p is passed over before Rabin's test."""
    if k == 1:
        return (0, 1)
    # a^i for a < p and i <= k, each below p^k <= 2^22
    powers = np.arange(p, dtype=np.int64)[:, None] ** np.arange(k + 1)
    candidates = (c[::-1] + (1,) for c in np.ndindex((p,) * k))
    return next(f for f in candidates
                if (powers @ f % p).all() and _poly_is_irreducible(f, p))


def _int64(a):
    # prime-field residues below 2^31 multiply in int64; an int32 operand
    # (or under numpy 1's value-based casting a 0-d one) would keep the
    # product in int32
    return np.asarray(a, dtype=np.int64)


def _mod(t, m):
    """t mod m in place, for a fresh int64 t (or numpy scalar): numpy
    divides an array by a scalar with libdivide, about three times as
    fast as it takes a remainder."""
    t -= t // m * m
    return t


def _fold(s, p):
    """s in (-p, p) folded into [0, p) with no modulo, for s of a signed
    integer type that holds p: its sign bit, spread, masks p."""
    s += s >> 8 * s.itemsize - 1 & p
    return s


def _blocks(n):
    """The (lo, hi) that cover range(n) in steps of `_BLOCK`."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _wrap(s, n):
    """s - n, folded into [0, n) where s < 2n and clipped to n, the zero
    slot of the exp table, where s carries a zero log: int32 throughout."""
    s = s - n
    s += (s >> 31) & n
    return np.minimum(s, n)


LOG_ZERO = 1 << 28  # log(0): any sum with it, less n, is past n < 2^22
_TABLE_BITS = TABLE_LIMIT.bit_length() - 1  # the ceiling is 2^_TABLE_BITS
_RUN = 1 << 14  # longest run of powers the exp build makes in one step
# the elements a whole-field pass (a place count, a table fill) takes at
# a time, so that its temporaries are O(_BLOCK) beside the O(q) tables.
# 2^15 and 2^16 count F_{5^8} fastest; at 2^16 an int64 block is 512 KB,
# enough for glibc's adaptive thresholds to keep freed blocks in the heap
# rather than trim and fault them in again block after block
_BLOCK = 1 << 16
# the exp build's first powers as digit rows: below this many, a SWAR
# `_times` costs more to set up than it saves; above, digit rows cost more
_DIGIT_RUN = 1 << 11
# the generator search's first window of candidates, each next one twice
# as wide: of the 32 extension fields with p <= 13 and q <= 2^20 all but
# four pass over fewer than 8 candidates, and F_{3^8} passes over 35
_FIRST_WINDOW = 8


class FiniteField:
    """F_{p^k}: elements are ints in [0, p^k), base-p digit encoded.

    Every operation takes numpy integer arrays (or plain ints) and
    evaluates all of their elements in one call; a scalar argument gives
    a numpy scalar back.  Every field holds two int32 tables over a
    primitive element g, n = q - 1, 8 bytes per element: `_expz[i] =
    g^i` for i < n with a zero slot `_expz[n] = 0`, and `_log[a]`, with
    the sentinel `LOG_ZERO` = 2^28 at a = 0.  a^e is `_expz[log(a) * e
    mod n]` in int64 (and a^r b^s one exp of r log a + s log b), the zero
    log's bit 28 sending 0^e to the zero slot; c is an n-th power exactly
    when gcd(n, q - 1) divides log(c), and the elements of order n are
    the g^(j(q-1)/n) with j prime to n.  Prime fields add, subtract and
    multiply in int64 modular arithmetic (q <= 2^22, so every product
    fits), a sum folded into [0, p) with no modulo.  Extension fields
    hold a third int32 table, the Zech log `_zechz[i] = log(1 + g^i)`
    (`LOG_ZERO` where 1 + g^i = 0, and 0 in the slot i = n), 12 bytes
    per element in all, and compute in int32 with no modulo and no zero
    test: a product is the exp of the summed logs, and g^i + g^j with
    i <= j is g^(i + Z(j - i)) (K. Huber, "Some comments on Zech's
    logarithms", IEEE Trans. Inf. Theory 36, 1990).  A zero log makes
    every index sum pass n, and `_wrap` clips it to the zero slot; a
    zero summand puts |log a - log b| past n, clipped to Z = 0, so the
    sum is the other one.  `_exp` is the first n entries of `_expz`.
    The tables are built from C, the matrix of x mod the modulus, stored
    once: the matrix of multiplication by c has the rows digits(c) C^i.
    g is the least encoding of order n (`_least_primitive`), and the O(q)
    passes split encodings and fold residues with no remainder.

    Use the cached factory `field(p, k)` rather than the constructor
    when possible so the tables are shared.
    """

    def __init__(self, p, k=1):
        if not is_int(p) or p < 3 or not is_prime(p):
            raise PreconditionViolated(f"odd prime expected, got p={p!r}")
        if not is_int(k) or k < 1:
            raise PreconditionViolated(f"degree {k!r} is not an int >= 1")
        check_ceiling(p, k, f"q = {p}^{k}")
        self.p, self.k, self.q = p, k, p**k
        self.modulus = _least_irreducible(p, k)
        self._x = _companion(self.modulus, p)  # C, the matrix of x
        self._pvec = p ** np.arange(k, dtype=np.int64)
        self._trace_halves = None
        self._build_tables()

    def __repr__(self):
        return f"FiniteField({self.p}, {self.k})"

    # -- encoding helpers

    def elements(self):
        """Every element, as an int64 array indexed by its encoding."""
        return np.arange(self.q, dtype=np.int64)

    def _halves(self, m):
        """half = p^(k // 2), then digits(a) @ m mod p for the multiples
        a of half and for the a below half: an F_p-linear map of a is
        the sum of its values on a's high and low digits."""
        half = self.p ** (self.k // 2)
        return half, *(r[:, None] // self._pvec % self.p @ m % self.p
                       for r in (np.arange(0, self.q, half), np.arange(half)))

    # -- exp/log/Zech tables

    def _mul_matrix(self, c):
        """The k x k matrix M over F_p with digits(a) @ M = digits(a * c):
        row i holds the digits of c * x^i, row i - 1 times C.  An array
        of B elements c gives the (B, k, k) stack of their matrices."""
        digits = np.asarray(c)[..., None] // self._pvec % self.p
        return _mul_rows(digits, self._x, self.p)

    def _least_primitive(self):
        """The least g, by encoding, of multiplicative order q - 1: the
        first with g^((q-1)/l) != 1 for every prime l | q - 1.  Prime
        fields test each g from 2 by `pow`.  Extension fields skip the
        constants (of order dividing p - 1) and test the g from p in
        windows of `_FIRST_WINDOW`, 2 `_FIRST_WINDOW`, ... candidates:
        row 0 of M^e, M the matrix of g, holds the digits of g^e, so one
        squaring chain M, M^2, M^4, ... of the window's stacked matrices
        serves every exponent, each accumulating one digit row per
        candidate from the row of 1."""
        p, k, n = self.p, self.k, self.q - 1
        exps = [n // ell for ell in prime_factors(n)]
        if k == 1:
            return next(g for g in range(2, p)
                        if all(pow(g, e, p) != 1 for e in exps))
        one = np.eye(1, k, dtype=np.int64)[0]
        lo, width = p, _FIRST_WINDOW
        while True:
            m = self._mul_matrix(np.arange(lo, min(lo + width, self.q)))
            rows = np.broadcast_to(one, (len(m), len(exps), k))
            bits = np.array(exps)
            while True:
                rows = np.where((bits & 1)[:, None], rows @ m % p, rows)
                bits = bits >> 1
                if not bits.any():
                    break
                m = m @ m % p
            primitive = ~(rows == one).all(axis=2).any(axis=1)
            if primitive.any():
                return lo + int(primitive.argmax())
            lo, width = lo + width, 2 * width

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        n = q - 1
        g = self._least_primitive()
        exp = np.zeros(q, dtype=np.int32)
        log = np.full(q, LOG_ZERO, dtype=np.int32)
        if k == 1:
            # g^(i*t + j) = (g^t)^i * g^j: giant steps times baby steps,
            # in int64, which also scatters the logs faster than int32; a
            # block is the fewest whole giant-step rows that hold _BLOCK
            # powers, so a field of one block is one product
            t = isqrt(n) + 1
            baby, giant = _powers(g, t, p), _powers(pow(g, t, p), t, p)
            rows = -(-_BLOCK // t)
            for lo in range(0, n, rows * t):
                i, hi = lo // t, min(lo + rows * t, n)
                exp[lo:hi] = powers = _mod(
                    giant[i:i + rows, None] * baby, p).ravel()[:hi - lo]
                log[powers] = np.arange(lo, hi, dtype=np.int32)
        else:
            self._extension_exp(g, exp[:n])
            for lo, hi in _blocks(n):
                log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        # every other log is below n, so a maximum finds a log left unset
        if log[1] != 0 or log[1:].max() == LOG_ZERO:
            raise RuntimeError("discrete log table construction failed")
        self._expz, self._log, self._exp = exp, log, exp[:n]
        self._zechz = None
        if k >= 2:
            # 1 + g^i changes only the lowest digit, which wraps from
            # p - 1 to 0; log[0] = LOG_ZERO marks the i where 1 + g^i = 0,
            # and the zero slot reads log(1 + 0) = 0
            self._zechz = np.empty(q, dtype=np.int32)
            for lo, hi in _blocks(q):
                one_plus = exp[lo:hi] + 1
                one_plus -= (one_plus // p * p == one_plus) * np.int32(p)
                log.take(one_plus, out=self._zechz[lo:hi])

    def _extension_exp(self, g, exp):
        """Fill exp with g^0, ..., g^(q-2) for k >= 2.  The first
        min(n, `_DIGIT_RUN`) powers are digit rows, doubled from the row
        of 1 by appending rows @ M mod p, M the matrix of g^m, squared
        at each step, and encoded once.  Then come runs: each run is the
        one before times g^r, r its length, which doubles up to `_RUN`
        and then stays."""
        n, p, step = self.q - 1, self.p, self._mul_matrix(g)
        rows, m = np.eye(1, self.k, dtype=np.int64), min(n, _DIGIT_RUN)
        while len(rows) < m:  # p < 2^11 for k >= 2: k products below 2^22
            rows = np.concatenate((rows, rows @ step % p))
            step = step @ step % p
        exp[:m] = rows[:m] @ self._pvec
        while m < n:
            r = min(m, _RUN)
            if r == m:  # the matrix of g^r, squared for the next run
                times, step = self._times(step), step @ step % p
            exp[m:m + r] = times(exp[m - r:min(m, n - r)])
            m += r

    def _times(self, m):
        """a -> a * c on arrays of encodings, m the matrix of c, without
        tables.  The products of c with a's high and low digit halves
        come from two tables of about sqrt(q) entries, which hold every
        digit in a field of b + 1 bits (2^b >= p, at most 39 bits in
        all), so one integer sum adds the two digit by digit.  A carry
        test per field reduces the digits mod p, and merging neighbouring
        fields, then pairs of them, and so on, gives base p."""
        p, k = self.p, self.k
        b = (p - 1).bit_length()
        shifts = (b + 1) * np.arange(k, dtype=np.int64)
        ones = int((1 << shifts).sum())
        half, hi, lo = self._halves(m)
        hi, lo = (hi << shifts).sum(axis=1), (lo << shifts).sum(axis=1)

        def times(a):
            u = a // half
            s = hi[u] + lo[a - u * half]
            s -= (s + ones * ((1 << b) - p) >> b & ones) * p
            fields, width = k, b + 1
            while fields > 1:
                fields = (fields + 1) // 2
                mask = sum((1 << width) - 1 << 2 * width * j
                           for j in range(fields))
                s = (s & mask) + (s >> width & mask) * p ** (width // (b + 1))
                width *= 2
            return s
        return times

    # -- field operations

    def add(self, a, b):
        if self.k == 1:
            return _fold(_int64(a) + _int64(b) - self.p, self.p)
        la, lb = self._log[a], self._log[b]
        z = self._zechz[np.minimum(abs(la - lb), self.q - 1)]
        return self._expz[_wrap(np.minimum(la, lb) + z, self.q - 1)]

    def neg(self, a):
        if self.k == 1:
            return _fold(-_int64(a), self.p)
        return self.mul(self.p - 1, a)

    def sub(self, a, b):
        if self.k == 1:
            return _fold(_int64(a) - _int64(b), self.p)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return _mod(_int64(a) * _int64(b), self.p)
        return self._expz[_wrap(self._log[a] + self._log[b], self.q - 1)]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        n, la = self.q - 1, self._log[a]
        t = _mod(_int64(la) * (e % n), n)
        if e:  # 0^e = 0: the zero log's bit 28 sends it past n
            t |= la & LOG_ZERO
        return self._expz[np.minimum(t, n)]

    def pow_product(self, a, r, b, s):
        """a^r * b^s for r, s >= 1, one exp of r log a + s log b."""
        n, la, lb = self.q - 1, self._log[a], self._log[b]
        t = _mod(_int64(la) * (r % n) + _int64(lb) * (s % n), n)
        t |= (la | lb) & LOG_ZERO
        return self._expz[np.minimum(t, n)]

    def inv(self, a):
        if (np.asarray(a) == 0).any():
            raise ZeroDivisionError("inverse of zero")
        return self._expz[_wrap(self.q - 1 - self._log[a], self.q - 1)]

    def trace(self, a):
        """Absolute trace down to the prime field, as ints in [0, p)."""
        if self.k == 1:
            return _int64(a) % self.p
        if self._trace_halves is None:
            # Tr(x^i) is the trace of the matrix of multiplication by x^i,
            # and Tr is F_p-linear; the tables take the least signed type
            # that holds a sum of two traces, at most 2p - 2
            basis = [int(np.trace(self._mul_matrix(self.p**i)))
                     for i in range(self.k)]
            half, hi, lo = self._halves(np.array(basis))
            small = np.min_scalar_type(-2 * self.p)
            self._trace_halves = half, hi.astype(small), lo.astype(small)
        half, hi, lo = self._trace_halves
        u = a // half
        return _fold(hi[u] + lo[a - u * half] - self.p, self.p)

    def element_of_order(self, n):
        """Least element (by encoding) of multiplicative order exactly n.
        These are the g^(j(q-1)/n) for the j < n prime to n, read from
        the exp table in O(n)."""
        if n < 1 or (self.q - 1) % n:
            raise PreconditionViolated(
                f"no element of order {n} in field of size {self.q}")
        js = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        return int(self._exp[js * ((self.q - 1) // n)].min())

    def num_nth_roots(self, c, n):
        """Number of y with y^n = c: gcd(n, q-1) for a nonzero n-th
        power (a log divisible by the gcd), 0 for a nonzero non-power,
        1 for zero.  The logs of c, an element or an array of them, are
        tested against the gcd d directly, with no table, giving int32
        counts of c's shape: the zero log, capped to q - 1, is a
        multiple of d, and its d is then moved to 1."""
        d, m = gcd(n, self.q - 1), self.q - 1
        lc = np.minimum(self._log[c], m)
        roots = (lc - lc // d * d == 0) * np.int32(d)
        roots -= (lc == m) * np.int32(d - 1)
        return roots

    def nth_root(self, c, n):
        """A y with y^n = c, or None if c is no n-th power: 0 for c = 0,
        since 0^n = 0, and otherwise y = g^m with m * n = log(c) mod
        q - 1."""
        if c == 0:
            return 0
        d, lc = gcd(n, self.q - 1), int(self._log[c])
        return None if lc % d else int(self._exp[
            lc // d * pow(n // d, -1, (self.q - 1) // d) % (self.q - 1)])

    def lift_from(self, value, src):
        """Image of a src-encoded element under the embedding src -> self.

        src must be a subfield pattern: same p, src.k dividing self.k,
        and value one of its elements, in [0, src.q).
        The embedding sends the residue of x in src to the least root
        of src.modulus in self, making lifts deterministic.  The roots
        are among the src.q - 1 powers of g^((q - 1) / (src.q - 1)).
        """
        if src.p != self.p or self.k % src.k:
            raise PreconditionViolated(
                f"no embedding of F_{src.p}^{src.k} into F_{self.p}^{self.k}")
        value = int(value)
        if not 0 <= value < src.q:
            raise PreconditionViolated(
                f"value {value} outside field of size {src.q}")
        if value < self.p or src.k == self.k:  # one modulus per (p, k)
            return value

        def horner(coefficients, x):  # sum of c_i x^i, lowest first
            acc = 0
            for c in reversed(coefficients):
                acc = self.add(self.mul(acc, x), c)
            return acc
        sub = self._exp[::(self.q - 1) // (src.q - 1)]
        roots = sub[horner(src.modulus, sub) == 0]
        if not len(roots):
            raise RuntimeError("modulus has no root in extension")
        digits = value // src._pvec % self.p
        return int(horner(digits.tolist(), int(roots.min())))


@lru_cache(maxsize=64)
def field(p: int, k: int = 1) -> FiniteField:
    """Cached field factory with the deterministic least modulus.

    Bounded, so a long-lived process does not pin the tables of every
    field it ever touched."""
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# place counting


def count_places(model: CurveModel, fld: FiniteField) -> int:
    """Exact number of rational places of the smooth model over `fld`:
    the fibre sizes of the left side over rhs(x), summed over the affine
    x values, plus the family's `extra` places.  The x run in blocks of
    `_BLOCK` (`Equation.affine_xs(lo, hi)`), so the count holds O(_BLOCK)
    memory beyond the field tables; a field of one block is one call."""
    eq = model.equation(fld)
    return sum(int(eq.fibre(eq.rhs(eq.affine_xs(lo, hi))).sum())
               for lo, hi in _blocks(fld.q)) + eq.extra


def count_places_naive(model: CurveModel, fld: FiniteField) -> int:
    """Brute-force oracle: every (x, y) tested against the equation,
    plus the same place corrections as the fast path."""
    eq = model.equation(fld)
    lhs = eq.lhs(fld.elements())
    total = 0
    for v in eq.rhs(eq.affine_xs()).tolist():
        total += int(np.count_nonzero(lhs == v))
    return total + eq.extra


def within_hasse_weil(count: int, q: int, g: int) -> bool:
    """|count - (q + 1)| <= 2g sqrt(q): the Hasse-Weil bound on the
    rational places of a genus-g curve over F_q, in integers."""
    return (count - (q + 1))**2 <= 4 * g * g * q


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
        g = self.model.genus
        for j, nj in enumerate(self.counts, start=1):
            if nj < 0:
                raise HasseWeilViolation(f"negative count N_{j}={nj}")
            if not within_hasse_weil(nj, self.q**j, g):
                raise HasseWeilViolation(
                    f"N_{j}={nj} outside Hasse-Weil bound for genus {g}")


def check_ceiling(base: int, degree: int, name: str) -> None:
    """Refuse `name`, of base^degree elements (base >= 2), past the field
    ceiling `TABLE_LIMIT`, a degree past its log2 before any power."""
    if degree > _TABLE_BITS or base**degree > TABLE_LIMIT:
        raise FieldTooLarge(
            f"{name} exceeds the field ceiling 2^{_TABLE_BITS}")


def check_tower(q: int, depth: int, g_max: int = 0) -> None:
    """Refuse, before any field is built, a tower F_q, ..., F_q^depth of
    negative depth, one past the field ceiling 2^22, or one too short to
    fit a genus up to g_max."""
    if depth < 0:
        raise ValueError(f"tower depth must be >= 0, got {depth}")
    check_ceiling(q, depth, f"the tower to F_{q}^{depth}")
    _check_length(depth, g_max)


def count_series(model: CurveModel, base_field: FiniteField,
                 depth: int) -> PlaceCountSeries:
    """Count rational places over the first `depth` extensions of
    base_field, the model's coefficients read in base_field and lifted,
    after `check_tower`."""
    check_tower(base_field.q, depth)
    counts = []
    for j in range(1, depth + 1):
        ext = field(base_field.p, base_field.k * j)
        counts.append(count_places(model.lifted(base_field, ext), ext))
    return PlaceCountSeries(model, base_field.q, tuple(counts))


# ---------------------------------------------------------------------------
# zeta-function genus inference


def zeta_genus(series: PlaceCountSeries, g_max: int) -> int | None:
    """Smallest g <= g_max whose Weil polynomial reproduces the series,
    or None when no genus fits (an inconsistent series); see `zeta_fit`."""
    return zeta_fit(series, g_max)[0]


def zeta_fit(series: PlaceCountSeries,
             g_max: int) -> tuple[int | None, str | None]:
    """(g, None) for the smallest g <= g_max whose Weil polynomial
    reproduces the series, or (None, why not).

    The candidate polynomial takes e_1..e_g from the power sums by
    Newton's identities, is completed by the functional equation
    e_{2g-i} = q^(g-i) e_i, and must then predict every supplied count
    exactly.  A genus at or above the first e_k that is not an integer
    cannot fit.  The reason names, for each candidate, the first count
    it predicts wrongly, and then that e_k.
    """
    if g_max < 0:
        raise ValueError("g_max must be >= 0")
    m = len(series.counts)
    _check_length(m, g_max)
    q = series.q
    s = [q**j + 1 - n for j, n in enumerate(series.counts, start=1)]
    e = _newton_elementary(s, g_max)
    reasons = []
    for g in range(len(e)):
        full = e[:g + 1] + [q**(g - i) * e[i] for i in reversed(range(g))]
        predicted = _power_sums(full, m)
        if predicted == s:
            return g, None
        j = next(j for j in range(m) if predicted[j] != s[j])
        reasons.append(f"genus {g} predicts N_{j + 1} = "
                       f"{q**(j + 1) + 1 - predicted[j]}, counted "
                       f"{series.counts[j]}")
    if len(e) <= g_max:
        reasons.append(f"e_{len(e)} is not an integer")
    return None, "; ".join(reasons)


def _check_length(m, g_max):
    """A genus up to g_max needs counts over 2 g_max extensions."""
    if m < 2 * g_max:
        raise InsufficientCounts(
            f"need counts over {2 * g_max} extensions, got {m}")


def _newton_elementary(s, g_max):
    """[e_0 = 1, e_1, ...] from the power sums s, up to e_{g_max} or up
    to the first e_k that is not an integer, which it leaves out."""
    e = [1]
    for k in range(1, g_max + 1):
        acc = sum((-1)**(i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1))
        if acc % k:
            break
        e.append(acc // k)
    return e


def _power_sums(e, m):
    """First m power sums of the multiset with elementary symmetric
    functions e[1..deg] (e[0] = 1)."""
    deg = len(e) - 1
    s = []
    for k in range(1, m + 1):
        acc = sum((-1)**(i - 1) * e[i] * s[k - i - 1]
                  for i in range(1, min(k - 1, deg) + 1))
        s.append(acc + ((-1)**(k - 1) * k * e[k] if k <= deg else 0))
    return s


# ---------------------------------------------------------------------------
# automorphism verification


@dataclass(frozen=True)
class AffinePoints:
    """The rational points of an equation's affine model, listed once:
    arrays (xs, ys) sorted by x and then y, the dense tables at_x and
    rank that locate them (point (x, y) is number at_x[x] + rank[y]),
    and `places`, their number plus the equation's `extra` places: the
    count that `count_places` sums fibre by fibre."""

    xs: np.ndarray
    ys: np.ndarray
    at_x: np.ndarray
    rank: np.ndarray
    places: int

    def __len__(self):
        return len(self.xs)


def affine_points(eq) -> AffinePoints:
    """List the rational points of eq's affine model, once for both the
    place count and the orbit walk of `verify_automorphism`."""
    q, ys = eq.fld.q, eq.fld.elements()
    xs, lhs = eq.affine_xs(), eq.lhs(ys)
    counts = np.bincount(lhs, minlength=q)  # fibre size of each value
    # ys sorted by (lhs(y), y), read off the sorted keys lhs(y) TABLE_LIMIT
    # + y, as y < q <= TABLE_LIMIT; rank[y] is y's place among them
    keys = np.sort(_int64(lhs) << _TABLE_BITS | ys)
    ys = keys & (TABLE_LIMIT - 1)
    rank = np.empty(q, dtype=np.int64)
    rank[ys] = np.arange(q)
    rhs = _int64(eq.rhs(xs))
    sizes = counts.take(rhs)
    # the i-th x pairs with the sizes[i] ys of value rhs[i], which end
    # before ys[cumsum(counts)[rhs[i]]], and its points end before point
    # cumsum(sizes)[i]: point (x, y) is number at_x[x] + rank[y] for
    # at_x[x] the difference of the two ends
    at_x = np.zeros(q, dtype=np.int64)
    at_x[xs] = shift = np.cumsum(sizes) - np.cumsum(counts).take(rhs)
    at = np.arange(int(sizes.sum())) - np.repeat(shift, sizes)
    xs = np.repeat(xs, sizes)
    return AffinePoints(xs, ys.take(at), at_x, rank, len(xs) + eq.extra)


@dataclass(frozen=True)
class OrbitReport:
    """Orbit structure of a verified automorphism on affine points, and
    the rational places of the listing it was checked on."""

    point_count: int
    order: int
    fixed_points: tuple
    orbit_sizes: tuple  # ((size, multiplicity), ...) ascending
    places: int


def verify_automorphism(model: CurveModel, fld: FiniteField) -> OrbitReport:
    """Check that the generator permutes the rational affine points
    with order exactly `model.n`, and report the orbit structure: each
    image is found by dense lookup, a point hit twice is refused, and
    the cycles are found by pointer doubling on the image indices, with
    no loop over points.  A refusal
    (`NotAnAutomorphism`, `OrderMismatch`) carries the listing's
    `places` as the report does."""
    eq = model.equation(fld)
    generator = model.point_map(fld)  # raises before any point is listed
    points = affine_points(eq)
    if not len(points):  # no permutation order to read
        raise PreconditionViolated(
            f"F_{fld.q} has no affine point to check the order on")
    try:
        return _orbits(model, generator, points, fld.q)
    except (NotAnAutomorphism, OrderMismatch) as exc:
        exc.places = points.places
        raise


def _orbits(model, generator, points, q):
    """The orbit report of `generator` on the listed points over F_q, or
    the refusal of `verify_automorphism`."""
    xs, ys, n = points.xs, points.ys, len(points)
    image_xs, image_ys = (_int64(a) for a in generator((xs, ys)))
    # the image of point i is point index[i].  Read unsigned and bounded,
    # an encoding outside [0, q) and an index outside [0, n) still index
    # the tables, and no listed point matches them
    cx, cy = (np.minimum(a.view(np.uint64), q - 1).view(np.int64)
              for a in (image_xs, image_ys))
    index = points.at_x.take(cx) + points.rank.take(cy)
    index = np.minimum(index.view(np.uint64), n - 1).view(np.int64)
    off_curve = (xs.take(index) != image_xs) | (ys.take(index) != image_ys)
    if off_curve.any():
        i = off_curve.nonzero()[0][0]
        raise NotAnAutomorphism(
            f"image {(int(image_xs[i]), int(image_ys[i]))} of "
            f"{(int(xs[i]), int(ys[i]))} is not on the curve")
    hits = np.bincount(index, minlength=n)
    if hits.max() > 1:
        j = (hits > 1).nonzero()[0][0]
        i, i2 = (index == j).nonzero()[0][:2]
        raise NotAnAutomorphism(
            f"{(int(xs[i]), int(ys[i]))} and {(int(xs[i2]), int(ys[i2]))} "
            f"both map to {(int(xs[j]), int(ys[j]))}")
    # pointer doubling: after k rounds label[i] is the least index among
    # i, s(i), ..., s^(2^k - 1)(i) for s: i -> index[i].  As many rounds
    # as the claimed order has bits cover every cycle of a right claim.
    # A label constant along its cycle is the cycle's least index, which
    # the window starting there holds, so a round is added only while
    # some label differs from its image's.
    claimed = model.n
    label, jump, rounds = np.arange(n), index, claimed.bit_length()
    while rounds:
        for _ in range(rounds):
            np.minimum(label, label.take(jump), out=label)
            jump = jump.take(jump)
        rounds = int((label != label.take(index)).any())
    cycles = np.bincount(label)  # at each cycle's least point, its length
    by_size = np.bincount(cycles)
    sizes = by_size[1:].nonzero()[0] + 1
    sizes, mult = sizes.tolist(), by_size[sizes].tolist()
    order = lcm(*sizes)
    if order != claimed:
        raise OrderMismatch(
            # the wording is part of the CLI's pinned output
            f"permutation has order {order}, the model's order n is {claimed}")
    fixed = (cycles == 1).nonzero()[0]  # each a cycle's least point
    return OrbitReport(
        point_count=n, order=order,
        fixed_points=tuple(zip(xs[fixed].tolist(), ys[fixed].tolist())),
        orbit_sizes=tuple(zip(sizes, mult)), places=points.places)
