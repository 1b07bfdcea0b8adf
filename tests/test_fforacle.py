import hashlib
import math
import random
import time
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from cycliccurves import fforacle
from cycliccurves.families import (
    FAMILIES,
    ASPower,
    ASRational,
    CurveModel,
    Equation,
    Homma,
    Hyperelliptic,
    Kummer,
)
from cycliccurves.intmath import is_prime, prime_factors
from cycliccurves.fforacle import (
    TABLE_LIMIT,
    FieldTooLarge,
    LOG_ZERO,
    FiniteField,
    HasseWeilViolation,
    InsufficientCounts,
    NotAnAutomorphism,
    OrderMismatch,
    PlaceCountSeries,
    PreconditionViolated,
    _least_irreducible,
    _newton_elementary,
    _poly_is_irreducible,
    affine_points,
    count_places,
    count_places_naive,
    count_series,
    field,
    verify_automorphism,
    zeta_fit,
    zeta_genus,
)

SMALL_FIELDS = [(5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (3, 4)]


# --- field arithmetic --------------------------------------------------------


def test_deterministic_modulus():
    assert field(5, 1).modulus == (0, 1)
    assert field(3, 2).modulus == (1, 0, 1)  # x^2 + 1, least irreducible


def test_reducible_modulus_rejected():
    assert not _poly_is_irreducible((0, 0, 1), 3)  # x^2
    assert not _poly_is_irreducible((2, 0, 1), 3)  # x^2 - 1 splits
    assert not _poly_is_irreducible((1, 0, 2), 3)  # not monic
    assert _poly_is_irreducible((1, 0, 1), 3)  # x^2 + 1
    assert _poly_is_irreducible((2, 2, 0, 1), 3)  # x^3 + 2x + 2


# every modulus of an extension field below the ceiling: the 379 pairs
# (p, k), k >= 2 and p^k <= 2^22, one "p k modulus" line each
MODULI_SHA256 = (
    "e4a34a5eff909815f9162faf942d9ec275929aa9449824c5e87a02d664b3e3df")


def test_every_modulus_is_pinned():
    pairs = [(p, k) for p in range(3, 2049) if is_prime(p)
             for k in range(2, 23) if p**k <= TABLE_LIMIT]
    text = "".join(f"{p} {k} {_least_irreducible(p, k)}\n" for p, k in pairs)
    assert len(pairs) == 379
    assert hashlib.sha256(text.encode()).hexdigest() == MODULI_SHA256


def _moebius(n):
    factors = prime_factors(n)
    if any(n % (ell * ell) == 0 for ell in factors):
        return 0
    return (-1) ** len(factors)


@pytest.mark.parametrize("p,k", [(3, k) for k in range(2, 7)]
                         + [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3)])
def test_irreducible_count_is_gauss_count(p, k):
    # Rabin's test on every monic f of degree k accepts exactly
    # (1/k) sum_{d | k} mu(d) p^(k/d) of them
    accepted = sum(_poly_is_irreducible(
        tuple(enc // p**i % p for i in range(k)) + (1,), p)
        for enc in range(p**k))
    assert accepted == sum(_moebius(d) * p**(k // d)
                           for d in range(1, k + 1) if k % d == 0) // k


def test_field_caps_and_validation():
    with pytest.raises(FieldTooLarge):
        FiniteField(3, 21)  # 3^21 > 2^31
    # the degree is tested before 3^k, a 16-million-bit power, is computed
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match=r"^q = 3\^10000000 exceeds"):
        FiniteField(3, 10**7)
    assert time.perf_counter() - start < 1
    with pytest.raises(PreconditionViolated):
        FiniteField(4, 1)
    with pytest.raises(PreconditionViolated):
        FiniteField(2, 5)


def test_is_prime_against_a_sieve_and_strong_pseudoprimes():
    # Miller-Rabin tests four witnesses below 3,215,031,751 and twelve
    # from there on: each strong pseudoprime to the first 1, ..., 7 prime
    # witnesses is refused, and every n below 10^5 agrees with a sieve
    n_max = 10**5
    sieve = np.ones(n_max, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(n_max) + 1):
        sieve[d * d::d] = False
    assert [is_prime(n) for n in range(n_max)] == sieve.tolist()
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321):
        assert not is_prime(n), n
    for n in (4194301, 2**31 - 1, 2**61 - 1):
        assert is_prime(n), n


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_sampled(p, k):
    fld = field(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(60):
        a = rng.randrange(fld.q)
        b = rng.randrange(fld.q)
        c = rng.randrange(fld.q)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b),
                                                    fld.mul(a, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.pow(a, fld.q) == a  # Frobenius fixed point
        if a:
            assert fld.mul(a, fld.inv(a)) == 1
        assert fld.sub(a, a) == 0


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (7, 2)])
def test_trace_linearity_and_balance(p, k):
    fld = field(p, k)
    rng = random.Random(k)
    for _ in range(40):
        a, b = rng.randrange(fld.q), rng.randrange(fld.q)
        assert fld.trace(fld.add(a, b)) == (fld.trace(a) + fld.trace(b)) % p
    # trace is onto with balanced fibers
    zeros = sum(1 for a in fld.elements() if fld.trace(a) == 0)
    assert zeros == fld.q // p


def test_element_of_order_matches_known_value():
    assert field(11, 1).element_of_order(5) == 3  # 3^5 = 1 mod 11
    fld = field(3, 2)
    z = fld.element_of_order(8)
    assert fld.pow(z, 8) == 1 and fld.pow(z, 4) != 1
    with pytest.raises(PreconditionViolated):
        field(7, 1).element_of_order(5)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)])
def test_num_nth_roots_against_enumeration(p, k):
    fld = field(p, k)
    for n in (2, 3, 4, 6):
        for c in fld.elements():
            expected = sum(1 for y in fld.elements() if fld.pow(y, n) == c)
            assert fld.num_nth_roots(c, n) == expected


@pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (5, 2), (3, 3)])
def test_nth_root_solves_or_refuses(p, k):
    # a root exactly when one exists, 0 the n-th root of 0
    fld = field(p, k)
    for n in range(1, 7):
        for c in range(fld.q):
            y = fld.nth_root(c, n)
            assert (y is None) == (fld.num_nth_roots(c, n) == 0), (c, n)
            if y is not None:
                assert fld.pow(y, n) == c, (c, n)


def test_lift_is_a_field_embedding():
    small, big = field(3, 2), field(3, 4)
    rng = random.Random(9)
    for _ in range(80):
        a, b = rng.randrange(9), rng.randrange(9)
        la, lb = big.lift_from(a, small), big.lift_from(b, small)
        assert big.lift_from(small.add(a, b), small) == big.add(la, lb)
        assert big.lift_from(small.mul(a, b), small) == big.mul(la, lb)
    assert big.lift_from(2, small) == 2  # prime subfield is untouched


def test_lift_refuses_a_value_outside_the_subfield():
    # 32 is past F_25, whose two digits would wrap it to 7; -1 and 25
    # are no elements of F_5
    for big, value, small in ((field(5, 4), 32, field(5, 2)),
                              (field(5, 2), -1, field(5, 1)),
                              (field(5, 2), 25, field(5, 1))):
        with pytest.raises(PreconditionViolated,
                           match=rf"^value {value} outside field of size "
                                 rf"{small.q}$"):
            big.lift_from(value, small)


def _horner(fld, coefficients, x):
    """sum of c_i x^i over fld, lowest coefficient first, one element at
    a time."""
    acc = 0
    for c in reversed(coefficients):
        acc = int(fld.add(fld.mul(acc, x), c))
    return acc


@pytest.mark.parametrize("p,k,big_k", [
    (3, 2, 4), (3, 2, 6), (3, 3, 6), (5, 2, 4), (7, 2, 4), (3, 4, 8)])
def test_lift_is_the_least_root_over_the_whole_field(p, k, big_k):
    # the reference embedding: x goes to the least root of small.modulus
    # found over every element of big, and a value to its digit
    # polynomial at that root
    small, big = field(p, k), field(p, big_k)
    root = next(z for z in range(big.q)
                if _horner(big, small.modulus, z) == 0)
    for value in range(small.q):
        digits = [value // p**i % p for i in range(k)]
        assert big.lift_from(value, small) == _horner(big, digits, root), \
            value


# --- array arithmetic against the table-free references ---------------------

ARRAY_FIELDS = [(3, 2), (3, 3), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1)]
PRIMES_BELOW_500 = [p for p in range(3, 500) if is_prime(p)]


# table-free references on arrays of encodings: digit arrays and
# polynomial products over F_p


def _digit_array(fld, a):
    return np.asarray(a, dtype=np.int64)[:, None] // fld.p ** np.arange(
        fld.k) % fld.p


def _encode_array(fld, d):
    return d @ fld.p ** np.arange(fld.k)


def _mul_array(fld, a, b):
    p, k = fld.p, fld.k
    da, db = _digit_array(fld, a), _digit_array(fld, b)
    prod = np.zeros((len(da), 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, i:i + k] += da[:, [i]] * db
    for i in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
        prod[:, i - k:i] -= prod[:, [i]] % p * np.array(fld.modulus[:k])
    return _encode_array(fld, prod[:, :k] % p)


def _pow_array(fld, a, e):
    out, a = np.ones(len(a), dtype=np.int64), np.asarray(a)
    while e:
        if e & 1:
            out = _mul_array(fld, out, a)
        a, e = _mul_array(fld, a, a), e >> 1
    return out


def _ref_add(fld, a, b):
    return _encode_array(
        fld, (_digit_array(fld, a) + _digit_array(fld, b)) % fld.p)


def _ref_pow(fld, a, e):
    if fld.k == 1:
        return np.array([pow(x, e, fld.p) for x in np.asarray(a).tolist()],
                        dtype=np.int64)
    if e < 0:
        return _pow_array(fld, _pow_array(fld, a, fld.q - 2), -e)
    return _pow_array(fld, a, e)


def _ref_trace(fld, a):
    acc, conj = np.zeros(len(a), dtype=np.int64), a
    for _ in range(fld.k):
        acc = _ref_add(fld, acc, conj)
        conj = _ref_pow(fld, conj, fld.p)
    assert (acc < fld.p).all()
    return acc


def _operands(fld):
    """Every pair when q <= 125, otherwise every a with one partner."""
    xs = fld.elements()
    if fld.q <= 125:
        return np.repeat(xs, fld.q), np.tile(xs, fld.q)
    return xs, (7 * xs + 3) % fld.q


@pytest.mark.parametrize("p,k", ARRAY_FIELDS)
def test_array_add_and_mul_match_references(p, k):
    fld = field(p, k)
    a, b = _operands(fld)
    assert fld.add(a, b).tolist() == _ref_add(fld, a, b).tolist()
    assert fld.mul(a, b).tolist() == _mul_array(fld, a, b).tolist()
    assert fld.sub(fld.add(a, b), b).tolist() == a.tolist()
    assert fld.add(a, fld.neg(a)).tolist() == [0] * len(a)
    # a prime-subfield scalar times an array, and neg as the scalar p - 1
    for c, got in ((p - 2, fld.mul(p - 2, a)), (p - 1, fld.neg(a))):
        assert got.tolist() == _mul_array(fld, np.full(len(a), c), a).tolist()


@pytest.mark.parametrize("p,k", ARRAY_FIELDS + [
    (p, 1) for p in PRIMES_BELOW_500 if (p, 1) not in ARRAY_FIELDS])
def test_array_pow_inv_trace_match_references(p, k):
    fld = field(p, k)
    xs = fld.elements()
    q = fld.q
    for e in (0, 1, 2, p, q - 2, q - 1, q, 3 * q + 1, 3 * q + 5):
        assert fld.pow(xs, e).tolist() == _ref_pow(fld, xs, e).tolist(), e
    units = xs[1:]
    assert fld.inv(units).tolist() == _ref_pow(fld, units, q - 2).tolist()
    if k == 1:
        assert fld.inv(units).tolist() == [pow(x, -1, p) for x in range(1, q)]
    for e in (-1, -3, -5):
        assert fld.pow(units, e).tolist() == _ref_pow(
            fld, units, e).tolist(), e
    assert fld.trace(xs).tolist() == _ref_trace(fld, xs).tolist()
    with pytest.raises(ZeroDivisionError):
        fld.inv(xs)


@pytest.mark.parametrize("p,k", ARRAY_FIELDS)
def test_pow_product_is_the_product_of_powers(p, k):
    # one exp of r log a + s log b, zero factors included
    fld = field(p, k)
    a, b = _operands(fld)
    q = fld.q
    for r, s in ((1, 1), (2, 3), (q - 1, 1), (q, 2 * q + 5)):
        assert fld.pow_product(a, r, b, s).tolist() == _mul_array(
            fld, _ref_pow(fld, a, r), _ref_pow(fld, b, s)).tolist(), (r, s)


@pytest.mark.parametrize("p,k", [f for f in ARRAY_FIELDS if f[1] >= 2])
def test_zech_table_adds_one(p, k):
    # exp[Z[n]] = 1 + g^n, and Z[n] = LOG_ZERO exactly where 1 + g^n = 0
    fld = field(p, k)
    ones = np.ones(fld.q - 1, dtype=np.int64)
    for n, (one_plus, z) in enumerate(zip(
            _ref_add(fld, fld._exp, ones).tolist(), fld._zechz[:-1].tolist())):
        if z == LOG_ZERO:
            assert one_plus == 0 and 2 * n == fld.q - 1
        else:
            assert fld._exp[z] == one_plus, n


@pytest.mark.parametrize("p,k", ARRAY_FIELDS)
def test_scalar_arguments_follow_array_rules(p, k):
    fld = field(p, k)
    rng = random.Random(p * k)
    for _ in range(30):
        a, b = rng.randrange(fld.q), rng.randrange(1, fld.q)
        assert fld.mul(a, b) == fld.mul(np.array([a]), b)[0]
        assert fld.add(a, b) == fld.add(a, np.array([b]))[0]
        assert fld.num_nth_roots(a, 4) == fld.num_nth_roots(np.array([a]), 4)


EXTENSION_FIELDS_UP_TO_125 = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2),
                              (11, 2)]


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS_UP_TO_125)
def test_kernels_match_references_on_every_pair(p, k):
    fld = field(p, k)
    a, b = np.repeat(fld.elements(), fld.q), np.tile(fld.elements(), fld.q)
    negs = _mul_array(fld, np.full(len(b), p - 1), b)
    assert fld.add(a, b).tolist() == _ref_add(fld, a, b).tolist()
    assert fld.sub(a, b).tolist() == _ref_add(fld, a, negs).tolist()
    assert fld.mul(a, b).tolist() == _mul_array(fld, a, b).tolist()
    xs = fld.elements()
    for e in (0, 1, p, fld.q - 2, fld.q + 3):
        assert fld.pow(xs, e).tolist() == _ref_pow(fld, xs, e).tolist(), e
    assert fld.inv(xs[1:]).tolist() == _ref_pow(
        fld, xs[1:], fld.q - 2).tolist()
    assert fld.trace(xs).tolist() == _ref_trace(fld, xs).tolist()


@pytest.mark.parametrize("p,k", [(5, 8), (3, 13)])
def test_kernels_on_seeded_pairs_of_large_fields(p, k):
    fld = field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a, b = rng.integers(0, fld.q, 10**5), rng.integers(0, fld.q, 10**5)
    a[:50], b[50:100], a[100:150], b[100:150] = 0, 0, 0, 0
    # a + (-a) = 0 on the next 100
    b[150:250] = _mul_array(fld, np.full(100, p - 1), a[150:250])
    digit_sum = _encode_array(
        fld, (_digit_array(fld, a) + _digit_array(fld, b)) % p)
    product = _mul_array(fld, a, b)
    assert (fld.add(a, b) == digit_sum).all()
    assert (fld.add(a, b)[150:250] == 0).all()
    assert (fld.sub(digit_sum, b) == a).all()
    assert (fld.mul(a, b) == product).all()
    # scalars against arrays, both ways round, and scalar pairs
    for x in (0, 1, p - 1, int(a[500]), int(b[700])):
        xs = np.full(len(b), x)
        assert (fld.add(x, b) == fld.add(xs, b)).all()
        assert (fld.mul(b, x) == fld.mul(b, xs)).all()
        assert (fld.mul(b[:2000], x)
                == _mul_array(fld, b[:2000], xs[:2000])).all()
        assert fld.add(x, int(b[9])) == fld.add(xs[:1], b[9:10])[0]
        assert fld.mul(x, int(b[9])) == _mul_array(fld, [x], b[9:10])[0]
    units = a[a > 0][:2000]
    assert (fld.inv(units) == _pow_array(fld, units, fld.q - 2)).all()
    assert (fld.mul(fld.inv(units), units) == 1).all()
    for e in (2, p, 12345):
        assert (fld.pow(a[:2000], e) == _pow_array(fld, a[:2000], e)).all()
    # the trace sums the conjugates a^(p^i)
    conj, trace = a[:2000], np.zeros((2000, k), dtype=np.int64)
    for _ in range(k):
        trace = (trace + _digit_array(fld, conj)) % p
        conj = _pow_array(fld, conj, p)
    assert (trace[:, 1:] == 0).all()
    assert (fld.trace(a[:2000]) == trace[:, 0]).all()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 8), (3, 13)])
def test_zero_sentinel_stays_in_int32(p, k):
    # log(0) = LOG_ZERO: a sum of two logs stays below 2^31, and every
    # kernel gives int32 results without overflow warnings, for int32,
    # int64 and scalar operands (numpy 1 casts scalars by value)
    fld = field(p, k)
    assert fld._log.dtype == np.int32 and fld._log[0] == LOG_ZERO
    assert 2 * LOG_ZERO + fld.q < 2**31
    assert fld._expz[fld.q - 1] == 0 and fld._zechz[fld.q - 1] == 0
    xs = np.concatenate(([0, 0, 1, p - 1], fld._exp[-20:], fld._exp[:20]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype in (np.int32, np.int64):
            x = xs.astype(dtype)
            zeros = np.zeros_like(x)
            assert fld.add(x, zeros).tolist() == x.tolist()
            assert fld.add(zeros, x).tolist() == x.tolist()
            assert fld.mul(x, zeros).tolist() == zeros.tolist()
            assert fld.mul(x, x).dtype == fld.add(x, x).dtype == np.int32
            assert fld.sub(x, x).tolist() == zeros.tolist()
        for x in (0, 1, p - 1, int(fld._exp[-1]), np.int32(0), np.int64(0)):
            assert fld.add(x, 0) == x and fld.add(0, x) == x
            assert fld.mul(x, 0) == 0 and fld.mul(0, x) == 0
            assert fld.sub(x, x) == 0
            assert fld.add(np.int32(x), np.int32(x)) == fld.add(
                np.array([x]), np.array([x]))[0]


def test_extension_tables_are_int32():
    fld = field(3, 5)
    for table in (fld._exp, fld._log, fld._zechz[:-1]):
        assert table.dtype == np.int32
    assert len(fld._exp) == len(fld._zechz[:-1]) == fld.q - 1
    assert len(fld._log) == fld.q


# the largest sum of the halves' traces in each field: F_{2039^2}'s
# least modulus x^2 + 1 has Tr(x) = 0, so its sums stay below p in int16,
# while F_{149^3}, F_{71^3} and F_{59^3} reach 2p - 2, in int16 (71 is
# the least such p whose sums pass int8) and in int8
@pytest.mark.parametrize("p,k,top", [(2039, 2, 2038), (149, 3, 296),
                                     (71, 3, 140), (59, 3, 116)])
def test_trace_folds_sums_up_to_twice_p(p, k, top):
    # the trace sums the values of a's high and low digit halves, each
    # below p, and folds the sum into [0, p); the sample holds an a
    # whose halves give the largest sum
    fld = FiniteField(p, k)
    fld.trace(0)
    half, hi, lo = fld._trace_halves
    assert int(hi.max()) + int(lo.max()) == top
    a = np.random.default_rng(p).integers(0, fld.q, 3000)
    a[0] = hi.argmax() * half + lo.argmax()
    assert fld.trace(a).tolist() == _ref_trace(fld, a).tolist()
    assert [fld.trace(int(x)) for x in a[:20]] == fld.trace(a[:20]).tolist()


# extension fields whose exp tables end below the first SWAR run (2^11
# powers), just past it, and past the longest run (2^14)
@pytest.mark.parametrize("p,k", [(3, 2), (11, 3), (3, 7), (5, 5), (3, 10),
                                 (5, 8)])
def test_extension_exp_is_the_power_sequence(p, k):
    # exp is a permutation of 1..q - 1 that starts at 1, and each entry
    # is the one before times g = exp[1], by g's multiplication matrix
    fld = FiniteField(p, k)
    exp = fld._exp.astype(np.int64)
    assert exp[0] == 1
    assert np.array_equal(np.sort(exp), np.arange(1, fld.q))
    step = fld._mul_matrix(int(exp[1]))
    for i in range(0, fld.q - 2, 1 << 16):
        a = exp[i:min(i + (1 << 16), fld.q - 2)]
        assert np.array_equal(
            _encode_array(fld, _digit_array(fld, a) @ step % p),
            exp[i + 1:i + 1 + len(a)]), i
    assert np.array_equal(fld._log[exp], np.arange(fld.q - 1))


@pytest.mark.parametrize("p,k", [
    (p, k) for p in (3, 5, 7, 11, 13) for k in range(1, 11)
    if p**k <= 1 << 16] + [(3, 12)])
def test_generator_is_the_least_primitive_encoding(p, k):
    # g = exp[1] has log 1, prime to q - 1; every c below it (from p in
    # an extension, whose constants have order dividing p - 1) has a log
    # sharing a factor with q - 1, so it is no generator
    fld = FiniteField(p, k)
    g, n = int(fld._exp[1]), fld.q - 1
    assert math.gcd(int(fld._log[g]), n) == 1
    assert (np.gcd(fld._log[2 if k == 1 else p:g], n) > 1).all()


# sha256 of the int32 little-endian bytes of _expz, _log and _zechz, in
# that order, over these fields in turn: a change to how the tables are
# built must leave them byte for byte as they were
PINNED_TABLE_FIELDS = [(3, 2), (5, 2), (11, 3), (3, 7), (5, 5), (7, 4),
                       (13, 4), (43, 3), (3, 10), (7, 6), (631, 2), (5, 8)]
TABLES_SHA256 = (
    "70c3e7f35a7b6403660c1ffef97bfb7030f12badd91ff8c01e97be2f98e2328c")


def test_extension_tables_are_pinned():
    digest = hashlib.sha256()
    for p, k in PINNED_TABLE_FIELDS:
        fld = FiniteField(p, k)
        for table in (fld._expz, fld._log, fld._zechz):
            digest.update(table.astype("<i4").tobytes())
    assert digest.hexdigest() == TABLES_SHA256


LARGEST_PRIME_FIELD = 4194301  # the largest prime below 2^22
EXTENSION_FIELDS_BELOW_200 = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                              (11, 2), (5, 3), (13, 2)]


@pytest.mark.parametrize("p", PRIMES_BELOW_500 + [LARGEST_PRIME_FIELD])
def test_prime_field_exp_and_log_are_inverse_permutations(p):
    fld = field(p, 1) if p < 500 else FiniteField(p, 1)
    assert fld._exp.dtype == fld._log.dtype == np.int32
    assert fld._exp.nbytes + fld._log.nbytes == 8 * p - 4
    n = p - 1
    assert fld._log[0] == LOG_ZERO and fld._exp[0] == 1
    assert np.array_equal(np.sort(fld._exp), np.arange(1, p))
    assert np.array_equal(fld._log[fld._exp], np.arange(n))
    assert np.array_equal(fld._exp[fld._log[1:]], np.arange(1, p))
    # consecutive entries differ by the generator g = exp[1]
    g = int(fld._exp[1])
    assert np.array_equal(fld._exp[1:],
                          fld._exp[:-1].astype(np.int64) * g % p)
    assert all(pow(g, n // ell, p) != 1 for ell in prime_factors(n))


def test_pow_past_int32_log_products():
    # log(a) * (e mod (q - 1)) passes 2^31 for most a: the product must
    # be taken in int64
    p = LARGEST_PRIME_FIELD
    fld = FiniteField(p, 1)
    rng = np.random.default_rng(12)
    a = np.concatenate(([0, 1, p - 1], rng.integers(2, p, 2000),
                        fld._exp[-50:]))
    for e in (0, 1, 2, p - 2, p - 1, p, 3 * p + 1, -1, -5):
        b = a[a > 0] if e < 0 else a
        expected = [pow(x, e, p) for x in b.tolist()]
        assert fld.pow(b, e).tolist() == expected, e
    assert (fld._log[a[3:]].astype(np.int64) * (p - 2) > 2**31).mean() > 0.9


def _fields_up_to_200():
    primes = [(q, 1) for q in range(3, 201) if is_prime(q)]
    return primes + EXTENSION_FIELDS_BELOW_200


def _powers_slow(fld, n):
    """y^n for every y, by the table-free reference arithmetic."""
    return _ref_pow(fld, fld.elements(), n).tolist()


@pytest.mark.parametrize("p,k", _fields_up_to_200())
def test_element_of_order_is_the_least_of_exact_order(p, k):
    fld = field(p, k)
    q = fld.q
    divisors = [d for d in range(1, q) if (q - 1) % d == 0]
    # the exact order of y is the least divisor d of q - 1 with y^d = 1
    order = {}
    for d in divisors:
        for y, v in enumerate(_powers_slow(fld, d)):
            if y and v == 1:
                order.setdefault(y, d)
    for n in divisors:
        assert fld.element_of_order(n) == min(
            y for y, d in order.items() if d == n), n
    for n in (0, q, q + 1):
        with pytest.raises(PreconditionViolated):
            fld.element_of_order(n)


@pytest.mark.parametrize("p,k", _fields_up_to_200())
def test_num_nth_roots_matches_a_count_of_the_powers(p, k):
    fld = field(p, k)
    q = fld.q
    xs = fld.elements()
    for n in sorted({1, 2, 3, 4, 5, 6, 8, 12, p, q - 1, q, 2 * q - 1}):
        expected = np.bincount(_powers_slow(fld, n), minlength=q)
        assert fld.num_nth_roots(xs, n).tolist() == expected.tolist(), n


def test_largest_table_memory():
    # about 1.6M elements; the three int32 tables stay under 20 MB, and
    # numpy reports its buffers to tracemalloc: the build's blocks and the
    # place count hold at most 4 MiB beyond them (the whole-field passes
    # held 8 and 49 MiB)
    tracemalloc.start()
    try:
        fld = FiniteField(3, 13)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        count = count_places(ASPower(3, 4, 1, 0), fld)
        count_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    tables = fld._expz.nbytes + fld._log.nbytes + fld._zechz.nbytes
    assert fld._exp.nbytes + fld._log.nbytes + fld._zechz[:-1].nbytes < 20 * 10**6
    assert build_peak <= tables + 4 * 2**20
    assert count_peak <= 4 * 2**20
    assert count == 3**13 + 1
    assert fld.mul(fld.inv(12345), 12345) == 1


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_build_is_exact(monkeypatch, block):
    # prime fields of several giant-step blocks, extension fields of
    # several log and Zech blocks, none a whole number of blocks long
    fields = [(101, 1), (1009, 1), (5, 3), (11, 2), (3, 7)]
    monkeypatch.setattr(fforacle, "_BLOCK", block)
    for p, k in fields:
        blocked, whole = FiniteField(p, k), field(p, k)
        for name in ("_expz", "_log", "_zechz"):
            a, b = getattr(blocked, name), getattr(whole, name)
            assert (a is None and b is None) or (  # no Zech table for k = 1
                a.dtype == b.dtype and a.tobytes() == b.tobytes()), (p, k)


# one model of each family, over fields of one block, of several blocks
# and of a whole number of blocks; ASRational's missing x = 0 is in the
# first block
BLOCKED_COUNTS = [
    (Kummer(5, 1, 2), (11, 1)), (Kummer(8, 1, 3), (3, 4)),
    (Kummer(7, 1, 1), (13, 2)), (Hyperelliptic(2, 3), (7, 2)),
    (Hyperelliptic(2, 2), (11, 2)), (ASPower(3, 4, 1, 0), (3, 5)),
    (ASPower(5, 2, 1, 0), (5, 3)), (ASRational(5, 1, 1, 4), (5, 1)),
    (ASRational(5, 1, 1, 4), (5, 3)), (ASRational(3, 1, 1, 1), (3, 5)),
    (Homma(5), (5, 3)), (Homma(7), (7, 2)),
]


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_count_is_exact(monkeypatch, block):
    cases = [(model, field(*pk)) for model, pk in BLOCKED_COUNTS]
    whole = [count_places(model, fld) for model, fld in cases]
    monkeypatch.setattr(fforacle, "_BLOCK", block)
    blocked = [count_places(model, fld) for model, fld in cases]
    assert blocked == whole == [count_places_naive(model, fld)
                                for model, fld in cases]


def test_affine_xs_in_blocks_is_the_whole_range():
    fld = field(11, 2)
    eq = Equation(fld, None, None, None, extra=0,
                  missing_x=(0, 6, 7, 13, 63, 64, 120))
    whole = eq.affine_xs()
    assert whole.tolist() == [x for x in range(fld.q) if x not in eq.missing_x]
    for block in (1, 7, 64, 121, 500):
        parts = [eq.affine_xs(lo, min(lo + block, fld.q))
                 for lo in range(0, fld.q, block)]
        assert np.concatenate(parts).tolist() == whole.tolist(), block


@pytest.mark.parametrize("p,k", [(3, 7), (13, 3), (1009, 1), (7, 4)])
def test_num_nth_roots_array_path_is_the_scalar_path(p, k):
    # every element, zero included; 2^28, the zero log, is a multiple of
    # every power of two gcd, which the array path must not read as one
    fld = field(p, k)
    q = fld.q
    coprime = next(n for n in range(5, q) if math.gcd(n, q - 1) == 1)
    xs = fld.elements()
    for n in (1, 2, 3, 4, 8, 16, 32, coprime, q - 1, q, 2 * (q - 1)):
        scalar = [fld.num_nth_roots(c, n) for c in xs.tolist()]
        assert fld.num_nth_roots(xs, n).tolist() == scalar, n


def _view_sample(fld, size, seed):
    """Seeded logs of F_q with the zero log, 1 (log 0) and -1 (log
    n/2) first, each beside every other of the three."""
    n = fld.q - 1
    rng = np.random.default_rng(seed)
    special = [LOG_ZERO, 0, n // 2]
    a = np.array(special * 3 + rng.integers(0, n, size).tolist())
    b = np.array([x for x in special for _ in range(3)]
                 + rng.integers(0, n, size).tolist())
    return a.astype(np.int32), b.astype(np.int32)


@pytest.mark.parametrize("p,k", [(3, 13), (2039, 2)])
def test_log_view_ops_at_the_largest_extension_fields(p, k):
    # F_{3^13} and F_{2039^2} (q = 4,157,521) are the largest extension
    # fields under the ceiling: every log sum and difference of the view
    # stays in int32 there, checked against Python ints mod n, the sums
    # against base-p digit sums of the encodings
    fld = field(p, k)
    view, n = fforacle.LogView(fld), fld.q - 1
    a, b = _view_sample(fld, 2000, p * 100 + k)

    def enc(x):
        return 0 if x == LOG_ZERO else int(fld._expz[x])

    def log(e):
        return int(fld._log[e])

    def digits(e):
        return [e // p**i % p for i in range(k)]

    def from_digits(d):
        return sum(x * p**i for i, x in enumerate(d))

    def ref_mul(x, y):
        return LOG_ZERO if LOG_ZERO in (x, y) else (x + y) % n

    def ref_add(x, y):
        return log(from_digits([(u + v) % p for u, v in zip(
            digits(enc(x)), digits(enc(y)))]))

    def ref_neg(x):
        return log(from_digits([-u % p for u in digits(enc(x))]))

    def ref_pow(x, e):
        if x == LOG_ZERO:
            return LOG_ZERO if e else 0
        return x * e % n

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = list(zip(a.tolist(), b.tolist()))
        assert view.mul(a, b).tolist() == [ref_mul(x, y) for x, y in pairs]
        assert view.add(a, b).tolist() == [ref_add(x, y) for x, y in pairs]
        assert view.sub(a, b).tolist() == [
            ref_add(x, ref_neg(y)) for x, y in pairs]
        assert view.neg(a).tolist() == [ref_neg(x) for x in a.tolist()]
        units = a[a != LOG_ZERO]
        assert view.inv(units).tolist() == [-x % n for x in units.tolist()]
        with pytest.raises(ZeroDivisionError):
            view.inv(a)
        for e in (0, 1, 2, p, n - 1, n, 3 * n + 5):
            assert view.pow(a, e).tolist() == [
                ref_pow(x, e) for x in a.tolist()], e
        assert view.pow(units, -3).tolist() == [
            ref_pow(-x % n, 3) for x in units.tolist()]
        for r, s in ((1, 2), (n - 1, n + 3)):
            assert view.pow_product(a, r, b, s).tolist() == [
                ref_mul(ref_pow(x, r), ref_pow(y, s)) for x, y in pairs]
        for m in (2, 3, 4, p - 1, n):
            d = math.gcd(m, n)
            assert view.num_nth_roots(a, m).tolist() == [
                1 if x == LOG_ZERO else d * (x % d == 0)
                for x in a.tolist()], m
        assert view.trace(a).tolist() == [
            int(fld.trace(enc(x))) for x in a.tolist()]
        # scalars follow the array rules, and constants enter as logs
        for x, y in pairs[:12]:
            assert view.add(x, y) == ref_add(x, y)
            assert view.mul(x, y) == ref_mul(x, y)
        assert view.element(0) == LOG_ZERO and view.element(1) == 0
        assert view.element(p - 1) == n // 2


def test_log_view_lands_on_zero():
    # 1 + g^i = 0 at i = n/2, 1 - 1 = 0, and Kummer's rhs at x = 0 and
    # x = 1, each the zero log, whose fibre is the one root y = 0
    for p, k in ((3, 2), (5, 3), (7, 2)):
        fld = field(p, k)
        view, n = fforacle.LogView(fld), fld.q - 1
        assert view.add(0, n // 2) == LOG_ZERO
        assert view.sub(0, 0) == LOG_ZERO
        assert int(fld._zechz[n // 2]) == LOG_ZERO
        for model in (Kummer(5, 1, 1), Kummer(8, 1, 3)):
            if model.n % p:
                eq = model.equation(view)
                xs = np.array([view.element(0), view.element(1)])
                assert eq.rhs(xs).tolist() == [LOG_ZERO] * 2
                assert eq.fibre(eq.rhs(xs)).tolist() == [1, 1]
        xs = view.elements()
        assert xs[-1] == LOG_ZERO and xs[:-1].tolist() == list(range(n))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 4), (5, 3)])
def test_log_view_equation_is_the_field_equation(p, k):
    # one statement of each equation: bound to the view, its rhs on every
    # affine x is the field's, read back through the exp table, and its
    # fibre sizes are the field's too
    fld = field(p, k)
    view, n = fforacle.LogView(fld), fld.q - 1
    x = p  # the encoding of the modulus's root
    models = [Kummer(nn, r, s) for nn, r, s in ((5, 1, 1), (8, 1, 3))
              if nn % p]
    models += [Hyperelliptic(g, x + 1) for g in (2, 4) if (g + 1) % p]
    models += [ASPower(p, 4, 2, x + 1), ASRational(p, x, 2, x + 1)]
    models += [Homma(p)] if p >= 5 else []
    for model in models:
        eq, eqv = model.equation(fld), model.equation(view)
        xs, logs = eq.affine_xs(), eqv.affine_xs()
        assert fld._expz[np.minimum(logs, n)].tolist() == sorted(
            xs.tolist(), key=lambda e: min(int(fld._log[e]), n)), model
        rhs = eqv.rhs(logs)
        assert fld._expz[np.minimum(rhs, n)].tolist() == eq.rhs(
            fld._expz[np.minimum(logs, n)]).tolist(), model
        assert eqv.fibre(rhs).tolist() == eq.fibre(eq.rhs(
            fld._expz[np.minimum(logs, n)])).tolist(), model
        assert eqv.extra == eq.extra


# --- place counting -----------------------------------------------------------


FROZEN_COUNTS = [
    (Kummer(5, 1, 1), 11, 1, 13),
    (Kummer(6, 1, 1), 13, 1, 16),
    (Kummer(8, 1, 3), 3, 2, 14),
    (Homma(5), 5, 1, 6),
    (Homma(7), 7, 1, 8),
    (ASPower(5, 2, 1, 0), 5, 1, 6),
    (Hyperelliptic(2, 2), 7, 1, 7),
    (Hyperelliptic(2, 3), 7, 1, 11),
    (ASRational(5, 1, 1, 4), 5, 1, 12),
]


@pytest.mark.parametrize("model,p,k,expected", FROZEN_COUNTS)
def test_count_places_frozen_values(model, p, k, expected):
    assert count_places(model, field(p, k)) == expected


def test_count_places_matches_inline_brute_force():
    # an oracle independent of both library counting paths
    fld = field(11, 1)
    model = Kummer(5, 1, 1)
    affine = 0
    for x in range(11):
        if x in (0, 1):
            continue
        fx = pow(x, 1, 11) * pow((1 - x) % 11, 1, 11) % 11
        affine += sum(1 for y in range(11) if pow(y, 5, 11) == fx)
    assert count_places(model, fld) == affine + 3  # one place each over 0,1,oo

    fld = field(5, 1)
    affine = sum(1 for x in range(5) for y in range(5)
                 if (pow(y, 5, 5) - y) % 5 == pow(x, 2, 5))
    assert count_places(Homma(5), fld) == affine + 1


@pytest.mark.parametrize("model,p,k,expected", FROZEN_COUNTS)
def test_fast_count_equals_naive(model, p, k, expected):
    fld = field(p, k)
    assert count_places_naive(model, fld) == expected


def test_counting_preconditions():
    # only the generator needs a root of unity of the group order: the
    # count does not, so it runs where 5 does not divide 6 = q - 1 (and
    # 3 does not divide 4), and the zeta genus matches the formula on
    # towers over such fields
    for model, p in ((Kummer(5, 1, 1), 7), (ASPower(5, 3, 1, 0), 5)):
        fld = field(p, 1)
        assert count_places(model, fld) == count_places_naive(model, fld)
    for model, p, g in ((Kummer(5, 1, 1), 7, 2),
                        (Kummer(7, 1, 2), 3, 3),
                        (ASPower(5, 3, 1, 0), 5, 4)):
        assert model.genus == g
        assert zeta_genus(count_series(model, field(p, 1), 2 * g), g) == g
    with pytest.raises(PreconditionViolated):
        count_places(Homma(5), field(7, 1))  # wrong characteristic
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(2, -6), field(7, 1))  # lambda = 1 in F_7
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(2, "lambda"), field(7, 1))  # symbolic
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(6, 3), field(7, 1))  # p divides g + 1


def test_kummer_refuses_a_characteristic_dividing_n():
    # where p divides n, y^n = x^r(1-x)^s is purely inseparable over the
    # x-line, not the Kummer curve: F_5 once counted 6 places on
    # kummer:5,1,1 and fitted genus 0 to its tower, against genus 2
    for model, p in ((Kummer(5, 1, 1), 5), (Kummer(6, 1, 1), 3)):
        for k in (1, 2):
            fld = field(p, k)
            for check in (lambda: count_places(model, fld),
                          lambda: count_series(model, fld, 4),
                          lambda: verify_automorphism(model, fld)):
                with pytest.raises(PreconditionViolated,
                                   match=f"^p={p} divides n={model.n};"):
                    check()


def test_count_series_and_caps():
    series = count_series(Homma(5), field(5, 1), 4)
    assert series.counts == (6, 6, 126, 526)
    assert series.q == 5
    # 5^10 passes 2^22: the tower is refused before the first count,
    # not when its last field fails to build
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match="tower to F_5\\^10 exceeds"):
        count_series(Homma(5), field(5, 1), 10)
    with pytest.raises(FieldTooLarge):
        count_series(Homma(5), field(5, 1), 10**9)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        count_series(Homma(5), field(5, 1), -1)
    assert time.perf_counter() - start < 1


# models with coefficients outside F_5, counted over the F_25 tower:
# count_series reads them in F_25 and lifts them into F_625 and beyond
LIFTED_TOWERS = [
    (Hyperelliptic(2, 11), (25, 577, 15478, 391777)),  # lambda = 1 + 2x
    (ASPower(5, 2, 6, 2), (21, 651, 15501, 391251)),  # a = 1 + x
    (ASPower(5, 2, 5, 2), (46, 526, 16126, 388126)),  # a = x
]


@pytest.mark.parametrize("model,counts", LIFTED_TOWERS)
def test_count_series_lifts_coefficients_from_the_base_field(model, counts):
    base = field(5, 2)
    series = count_series(model, base, 4)
    assert series.counts == counts
    assert zeta_genus(series, 2) == 2
    assert model.lifted(base, base) is model
    ext = field(5, 4)
    lifted = model.lifted(base, ext)
    assert lifted != model and lifted.lifted(ext, ext) is lifted
    assert count_places(lifted, ext) == count_places_naive(lifted, ext)


# every extension field with q <= 10^4 of the characteristics 3 to 13
EXTENSION_FIELDS_TO_10K = [(p, k) for p in (3, 5, 7, 11, 13)
                           for k in range(2, 9) if p**k <= 10**4]


@pytest.mark.parametrize("p,k", EXTENSION_FIELDS_TO_10K)
def test_fast_count_equals_naive_on_extension_fields(p, k):
    # count_places counts these in the field's LogView, the naive count
    # on encodings: all five families, Homma where p >= 5 gives genus 2
    fld = field(p, k)
    x = p  # the encoding of the modulus's root
    models = [Kummer(n, r, s) for n, r, s in ((5, 1, 1), (7, 1, 2),
                                              (8, 1, 3)) if n % p]
    models += [Hyperelliptic(g, lam) for g in (2, 4) if (g + 1) % p
               for lam in (2, x + 1)]
    models += [ASPower(p, 4, 2, x + 1), ASRational(p, 1, 1, p - 1),
               ASRational(p, x, 2, x + 1)]
    models += [ASPower(p, 2, x, 1), Homma(p)] if p >= 5 else []
    for model in models:
        assert count_places(model, fld) == count_places_naive(model, fld), \
            model


def test_count_places_frozen_at_the_largest_fields():
    # counts taken over encodings before extension fields were counted
    # in their LogView
    assert count_places(Kummer(7, 1, 2), field(3, 13)) == 1_594_324
    model = ASRational(5, 1, 1, 4).lifted(field(5, 1), field(5, 8))
    assert count_places(model, field(5, 8)) == 387_972


BIG_PRIME = 4194319  # the least prime above TABLE_LIMIT = 2^22


@pytest.mark.parametrize("p", [241, 281])
def test_fast_count_equals_naive_on_prime_fields(p):
    fld = field(p, 1)
    models = [Kummer(5, 1, 1), Kummer(8, 1, 3), Hyperelliptic(2, 3),
              Hyperelliptic(4, 5), ASPower(p, 2, 2, 5), ASPower(p, 4, 3, 1),
              ASRational(p, 2, 3, 5), ASRational(p, 1, 1, p - 1), Homma(p)]
    for model in models:
        assert count_places(model, fld) == count_places_naive(model, fld), \
            model


def test_histogram_count_refuses_fields_beyond_table_limit():
    # every use enumerates the whole field, so prime fields stop at the
    # ceiling of the extension-field tables
    assert BIG_PRIME > TABLE_LIMIT
    with pytest.raises(FieldTooLarge):
        FiniteField(BIG_PRIME, 1)
    assert FiniteField(4194301, 1).q == 4194301  # the largest prime below


def test_counting_refuses_untabulated_extension_fields():
    # 29^6 > 2^22, the ceiling of the exp/log tables, so the field is
    # refused at construction
    with pytest.raises(FieldTooLarge):
        FiniteField(29, 6)


def test_hasse_weil_violation_detected():
    with pytest.raises(HasseWeilViolation):
        PlaceCountSeries(Homma(5), 5, (60,))
    with pytest.raises(HasseWeilViolation):
        PlaceCountSeries(Homma(5), 5, (-1,))


# --- zeta genus ----------------------------------------------------------------


def test_zeta_genus_projective_line():
    # N_j = q^j + 1 is the rational curve
    series = PlaceCountSeries(Homma(5), 5, tuple(5**j + 1 for j in (1, 2, 3, 4)))
    assert zeta_genus(series, 2) == 0


def test_zeta_genus_synthetic_elliptic():
    # a Weil polynomial 1 - 2T + 5T^2 by hand: S_1 = 2, S_2 = 2^2 - 2*5 = -6
    counts = (5 + 1 - 2, 25 + 1 + 6)
    series = PlaceCountSeries(Hyperelliptic(2, 2), 5, counts)  # model unused
    assert zeta_genus(series, 1) == 1


def test_zeta_genus_inconsistent_series():
    counts = (5 + 1 - 2, 25 + 1 + 7)  # breaks the functional equation
    series = PlaceCountSeries(Hyperelliptic(2, 2), 5, counts)
    assert zeta_genus(series, 1) is None


def test_zeta_genus_non_integral_coefficient():
    # S_1 = 1 and S_2 = 0 give 2 e_2 = S_1 e_1 - S_2 = 1: no integer
    # Weil polynomial of degree 4 starts this way, and degrees 0 and 2
    # do not fit, so no genus fits
    s = [1, 0, 3, -7]
    assert _newton_elementary(s, 2) == [1, 1]
    counts = tuple(5**j + 1 - sj for j, sj in enumerate(s, start=1))
    series = PlaceCountSeries(Homma(5), 5, counts)
    assert zeta_genus(series, 2) is None


def test_zeta_fit_names_what_broke_the_fit():
    # the broken functional equation above: each candidate's first wrong
    # count, and the non-integral e_2 that stops the candidates
    inconsistent = PlaceCountSeries(Hyperelliptic(2, 2), 5, (4, 33))
    assert zeta_fit(inconsistent, 1) == (None, (
        "genus 0 predicts N_1 = 6, counted 4; "
        "genus 1 predicts N_2 = 32, counted 33"))
    counts = tuple(5**j + 1 - sj for j, sj in enumerate([1, 0, 3, -7], 1))
    reason = zeta_fit(PlaceCountSeries(Homma(5), 5, counts), 2)[1]
    assert reason.endswith("; e_2 is not an integer")
    homma = (6, 6, 126, 526)
    assert zeta_fit(PlaceCountSeries(Homma(5), 5, homma), 2) == (2, None)
    broken = PlaceCountSeries(Homma(5), 5, (6, 6, 128, 526))
    assert zeta_fit(broken, 2)[1].endswith(
        "genus 2 predicts N_3 = 126, counted 128")


def test_zeta_genus_insufficient_counts():
    series = PlaceCountSeries(Homma(5), 5, (6, 6))
    with pytest.raises(InsufficientCounts):
        zeta_genus(series, 2)


@pytest.mark.parametrize("model,p,k", [
    (Kummer(5, 1, 1), 11, 1),
    (Homma(5), 5, 1),
    (Hyperelliptic(2, 3), 7, 1),
])
def test_zeta_genus_recovers_formula_genus(model, p, k):
    g = model.genus
    series = count_series(model, field(p, k), 2 * g)
    assert zeta_genus(series, g) == g


# --- automorphism verification ---------------------------------------------------


def test_kummer_automorphism_report():
    model = Kummer(5, 1, 1)
    report = verify_automorphism(model, field(11, 1))
    assert report.order == 5
    assert report.fixed_points == ((0, 0), (1, 0))
    assert report.fixed_points == model.affine_fixed
    assert report.point_count == 12
    assert report.orbit_sizes == ((1, 2), (5, 2))


def test_homma_automorphism_no_affine_fixed_points():
    report = verify_automorphism(Homma(5), field(5, 1))
    assert report.order == 5
    assert report.fixed_points == ()
    assert report.point_count == 5


def test_order_mismatch_detected():
    # over F_5 every affine point of this curve has x = 0, so the
    # order-10 generator only shows its order-5 part
    with pytest.raises(OrderMismatch, match=(
            "permutation has order 5, the model's order n is 10")):
        verify_automorphism(ASPower(5, 2, 1, 0), field(5, 1))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_homma_is_the_square_of_aspower(p):
    # y^p - y = x^2 is the curve of ASPower(p, 2, 1, 0) and of Homma(p):
    # the same places and affine points, and Homma's generator
    # (x, y + 1) is sigma^(p + 1) for ASPower's sigma(x, y) = (-x, y + 1)
    aspower, homma = ASPower(p, 2, 1, 0), Homma(p)
    for k in (1, 2):
        fld = field(p, k)
        assert count_places(aspower, fld) == count_places(homma, fld)
        points = affine_points(homma.equation(fld))
        xs, ys = points.xs, points.ys
        other = affine_points(aspower.equation(fld))
        assert all(np.array_equal(a, b) for a, b in zip(
            (other.xs, other.ys), (xs, ys)))
        assert len(xs) >= p
        sigma, image = aspower.point_map(fld), (xs, ys)
        for _ in range(p + 1):
            image = sigma(image)
        want = homma.point_map(fld)((xs, ys))
        assert all(np.array_equal(a, b) for a, b in zip(image, want))


def test_aspower_order_realized_in_larger_field():
    report = verify_automorphism(ASPower(5, 2, 1, 0), field(5, 3))
    assert report.order == 10


class CubeRootKummer(Kummer):
    """y^5 = x(1-x) with y scaled by a cube root of unity instead."""

    def point_map(self, fld):
        zeta = fld.element_of_order(3)
        return lambda pt: (pt[0], fld.mul(zeta, pt[1]))


def test_not_an_automorphism_detected():
    # a root of unity of the wrong order does not preserve the curve
    with pytest.raises(NotAnAutomorphism, match="is not on the curve"):
        verify_automorphism(CubeRootKummer(5, 1, 1), field(31, 1))


def test_zeta_instantiation_precondition(monkeypatch):
    # the curve is defined over F_11, but x -> zeta x needs a cube root
    # of unity, and 3 does not divide 10
    count_places(Hyperelliptic(2, 3), field(11, 1))
    with pytest.raises(PreconditionViolated, match="order 3"):
        verify_automorphism(Hyperelliptic(2, 3), field(11, 1))

    # the missing root of unity is reported before any point is listed
    def no_points(eq):
        raise AssertionError("affine points listed before the generator")

    monkeypatch.setattr("cycliccurves.fforacle.affine_points", no_points)
    for model, p, n in ((Hyperelliptic(2, 3), 11, 3),
                        (Kummer(5, 1, 1), 7, 5),
                        (ASPower(5, 3, 1, 0), 5, 3)):
        with pytest.raises(PreconditionViolated, match=f"order {n}"):
            verify_automorphism(model, field(p, 1))


def test_asrational_orbit_structure():
    report = verify_automorphism(ASRational(5, 1, 1, 4), field(5, 1))
    assert report.order == 10
    assert report.point_count == 10
    assert report.orbit_sizes == ((10, 1),)


def test_orbit_sizes_partition_points():
    for model, p, k in [(Kummer(6, 1, 1), 13, 1),
                        (Hyperelliptic(2, 3), 7, 1),
                        (Homma(7), 7, 1)]:
        report = verify_automorphism(model, field(p, k))
        assert sum(s * m for s, m in report.orbit_sizes) == report.point_count
        assert all(report.order % s == 0 for s, _ in report.orbit_sizes)


def test_affine_points_lie_on_curve():
    fld = field(7, 1)
    model = Hyperelliptic(2, 3)
    points = affine_points(model.equation(fld))
    xs, ys, at_x, rank = points.xs, points.ys, points.at_x, points.rank
    assert list(zip(xs.tolist(), ys.tolist())) == sorted(
        (x, y) for x in range(7) for y in range(7)
        if fld.mul(y, y) == fld.mul(fld.sub(fld.pow(x, 3), 1),
                                    fld.sub(fld.pow(x, 3), 3)))
    # the dense tables locate every point
    assert (at_x[xs] + rank[ys]).tolist() == list(range(len(xs)))


# --- the orbit walk against a reference cycle walk -------------------------


def reference_orbits(points, images):
    """(order, orbit_sizes, fixed_points) of points[i] -> images[i], by a
    plain cycle walk."""
    at = {pt: i for i, pt in enumerate(points)}
    index = [at[pt] for pt in images]
    sizes, fixed, seen = {}, [], [False] * len(points)
    for start in range(len(points)):
        size, cur = 0, start
        while not seen[cur]:
            seen[cur], cur, size = True, index[cur], size + 1
        if size:
            sizes[size] = sizes.get(size, 0) + 1
        if size == 1:
            fixed.append(points[start])
    return (math.lcm(*sizes), tuple(sorted(sizes.items())),
            tuple(sorted(fixed)))


@dataclass(frozen=True)
class PointList(CurveModel):
    """The points (x, 0), x < len(images), of the line y = 0 over a
    prime field; the generator sends (x, 0) to images[x] and claims
    the order `n`."""

    images: tuple
    n: int = 1

    def equation(self, fld):
        return Equation(fld, lambda y: y, None, lambda x: 0 * x, extra=0,
                        missing_x=tuple(range(len(self.images), fld.q)))

    def point_map(self, fld):
        xs, ys = np.array(self.images, dtype=np.int64).reshape(-1, 2).T
        return lambda pt: (xs[pt[0]], ys[pt[0]])


def prime_field_above(n):
    p = max(n + 1, 3)
    while not is_prime(p):
        p += 1
    return field(p, 1)


def check_walk(perm):
    points = [(x, 0) for x in range(len(perm))]
    images = [(x, 0) for x in perm]
    order, sizes, fixed = reference_orbits(points, images)
    report = verify_automorphism(PointList(tuple(images), order),
                                 prime_field_above(len(perm)))
    assert report.point_count == len(perm)
    assert (report.order, report.orbit_sizes, report.fixed_points) == (
        order, sizes, fixed)


def test_orbit_walk_on_random_permutations():
    rng = random.Random(10)
    for n in list(range(1, 40)) + [100, 257, 1000, 2048]:
        perm = list(range(n))
        rng.shuffle(perm)
        check_walk(perm)


def test_orbit_walk_on_single_cycles():
    # pointer doubling takes one round per doubling of the cycle length:
    # lengths at and next to a power of two end on either side of a round
    rng = random.Random(11)
    for k in range(1, 11):
        for length in (2**k - 1, 2**k, 2**k + 1):
            shuffled = list(range(length))
            rng.shuffle(shuffled)
            for cycle in (list(range(length)), list(range(length))[::-1],
                          shuffled):
                perm = [0] * length
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[a] = b
                check_walk(perm)


def test_orbit_walk_on_fixed_points_and_no_points():
    for n in (1, 2, 17):
        check_walk(list(range(n)))
    # no point leaves no permutation order to compare with the claim, even
    # a claim of 1: the field is refused, not the generator
    for fld in (field(3, 1), field(5, 1)):
        with pytest.raises(PreconditionViolated,
                           match=f"F_{fld.q} has no affine point"):
            verify_automorphism(PointList(()), fld)


def family_models(p):
    """Models of every family in characteristic p, with coefficients in
    and outside the prime field; those a field refuses are skipped."""
    specs = [(Homma, (p,))]
    specs += [(Kummer, (n, r, s)) for n in range(5, 13)
              for r in (1, 2, 3) for s in (1, 2, 3)]
    specs += [(Hyperelliptic, (g, lam)) for g in (2, 4, 14, 30)
              for lam in (2, 3, p + 1)]
    specs += [(ASPower, (p, m, a, b)) for m in (2, 3, 4, 6, 8)
              for a in (1, p + 1) for b in (0, 3, p + 2)]
    specs += [(ASRational, (p, a, b, c)) for a in (1, p + 1)
              for b in (1, p + 3) for c in (4, p - 1, 2 * p + 1)]
    for family, values in specs:
        try:
            yield family(*values)
        except ValueError:  # degenerate, or not primitive
            pass


def check_against_reference(model, fld):
    """Compare verify_automorphism (and the point listing) with a plain
    listing and cycle walk: "report" or "mismatch" for the outcome they
    agree on, None where the field refuses the model or has no point."""
    try:
        eq = model.equation(fld)
        generator = model.point_map(fld)
    except PreconditionViolated:
        return None
    ys_of = {}
    for y, v in enumerate(eq.lhs(fld.elements()).tolist()):
        ys_of.setdefault(v, []).append(y)
    xs = eq.affine_xs()
    points = [(x, y) for x, v in zip(xs.tolist(), eq.rhs(xs).tolist())
              for y in ys_of.get(v, [])]
    listed = affine_points(eq)
    assert list(zip(listed.xs.tolist(), listed.ys.tolist())) == points
    if not points:
        with pytest.raises(PreconditionViolated, match="no affine point"):
            verify_automorphism(model, fld)
        return None
    image_xs, image_ys = generator(
        (np.array([x for x, _ in points], dtype=np.int64),
         np.array([y for _, y in points], dtype=np.int64)))
    order, sizes, fixed = reference_orbits(
        points, list(zip(np.asarray(image_xs).tolist(),
                         np.asarray(image_ys).tolist())))
    if order != model.n:
        with pytest.raises(OrderMismatch, match=(
                f"^permutation has order {order}, "
                f"the model's order n is {model.n}$")):
            verify_automorphism(model, fld)
        return "mismatch"
    report = verify_automorphism(model, fld)
    assert report.point_count == len(points)
    assert (report.order, report.orbit_sizes, report.fixed_points) == (
        order, sizes, fixed), model
    return "report"


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1), (31, 1),
                                 (41, 1), (61, 1), (3, 2), (5, 2), (11, 2),
                                 (5, 3)])
def test_orbit_walk_matches_reference_on_every_family(p, k):
    fld = field(p, k)
    outcomes = {check_against_reference(model, fld)
                for model in family_models(p)}
    assert "report" in outcomes


def test_point_lookup_past_int32_keys():
    # q^2 > 2^31 in F_3^10: the sort keys lhs(y) * q + y of the int32
    # table values need int64
    fld = field(3, 10)
    assert check_against_reference(Kummer(8, 1, 1), fld) == "report"
    assert check_against_reference(Hyperelliptic(10, 2), fld) == "report"


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2),
                                 (7, 2), (5, 3)])
def test_the_listing_counts_the_places(p, k):
    # verify reads its place count off the point listing, which then
    # must be the closed-form fibre count and the brute-force one
    fld = field(p, k)
    checked = set()
    for model in family_models(p):
        try:
            eq = model.equation(fld)
        except PreconditionViolated:
            continue
        points = affine_points(eq)
        assert len(points) == len(points.xs) == len(points.ys)
        assert points.places == len(points) + eq.extra
        assert points.places == count_places(model, fld) == (
            count_places_naive(model, fld)), model
        checked.add(type(model))
    assert checked == set(FAMILIES)


def moving_every_point_to(family, x):
    """`family` with a generator that sends every point to (x, y)."""
    return type(f"{family.__name__}To{x}", (family,),
                {"point_map": lambda self, fld: lambda pt: (0 * pt[0] + x,
                                                            pt[1])})


def test_a_generator_that_hits_a_point_twice_is_refused():
    # (0, 0) and (1, 0) both go to (0, 0), and nothing goes to (1, 0);
    # the orbit walk alone would read a functional graph as order 2
    with pytest.raises(NotAnAutomorphism,
                       match=r"^\(0, 0\) and \(1, 0\) both map to "
                             r"\(0, 0\)$"):
        verify_automorphism(PointList(((0, 0), (0, 0), (2, 0)), n=2),
                            field(5, 1))
    rng = random.Random(13)
    for n in (2, 3, 17, 100, 1000):
        images = [rng.randrange(n) for _ in range(n)]
        images[0] = images[n - 1]  # some point is hit twice
        with pytest.raises(NotAnAutomorphism, match="both map to"):
            verify_automorphism(PointList(tuple((x, 0) for x in images)),
                                prime_field_above(n))


def test_images_off_the_field_or_the_affine_xs_are_refused():
    # x = 0 is left out of the affine model of b*y^p + c*y = a*x + 1/x
    with pytest.raises(NotAnAutomorphism,
                       match=r"^image \(0, 0\) of \(2, 0\) is not on"):
        verify_automorphism(moving_every_point_to(ASRational, 0)(5, 1, 1, 4),
                            field(5, 1))
    # over F_11, y^5 = x(1 - x) has no point at x = 10, the last element
    # (9 is no fifth power): the tables point past the last point there,
    # for x = 10 and for 11 clipped to it
    for x in (10, 11):
        with pytest.raises(NotAnAutomorphism,
                           match=rf"^image \({x}, 0\) of \(0, 0\) is not"):
            verify_automorphism(moving_every_point_to(Kummer, x)(5, 1, 1),
                                field(11, 1))
    # three points (x, 0) over F_5: x = 3 is a field element outside
    # the affine xs, 5 and -1 are no field elements, and (0, 5) shares
    # its key x * q + y with the point (1, 0)
    for image in ((3, 0), (5, 0), (-1, 0), (0, 5), (1, -5), (2**40, 0)):
        with pytest.raises(NotAnAutomorphism,
                           match=rf"^image \({image[0]}, {image[1]}\) "
                                 r"of \(1, 0\) is not on the curve$"):
            verify_automorphism(PointList(((0, 0), image, (2, 0))),
                                field(5, 1))
