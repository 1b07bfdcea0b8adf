import gc
import inspect
import itertools
import re
import sys
import time
import tracemalloc
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cycliccurves.classify import (
    BadGenus,
    BadOrder,
    OrderTooLarge,
    TooManyCandidates,
    TooManyIndices,
    UnsupportedCharacteristic,
    canonical_pair,
    classify,
    enumerate_signatures,
    primitive_pairs,
    verify_sasaki_bound,
    _MultisetCounts,
)
import cycliccurves.classify as classify_module
from cycliccurves import families, intmath, ramification
from cycliccurves.families import (FAMILIES, ASPower, ASRational,
                                   CurveModel, DegenerateModel, Homma,
                                   Hyperelliptic, Kummer, NotPrimitive,
                                   PrimitivePair, kummer_genus)
from cycliccurves.fforacle import FiniteField, PreconditionViolated
from cycliccurves.intmath import divisors
from cycliccurves.ramification import (
    N_CAP,
    FiltrationProfile,
    Inconsistent,
    InvalidFiltration,
    NotADivisor,
    OrbitDatum,
    Signature,
    rh_genus_tame,
)


# --- primitive pair enumeration ----------------------------------------------


def test_primitive_pairs_for_five():
    assert [(p.r, p.s) for p in primitive_pairs(5)] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


def test_primitive_pairs_excludes_imprimitive():
    assert (2, 2) not in [(p.r, p.s) for p in primitive_pairs(4)]


@pytest.mark.parametrize("n", [5, 7, 11, 13, 17])
def test_prime_order_pair_count(n):
    assert sum(1 for _ in primitive_pairs(n)) == (n - 1) * (n - 2) // 2


def test_primitive_pairs_rejects_small_n():
    with pytest.raises(ValueError):
        list(primitive_pairs(2))


# --- canonicalization ---------------------------------------------------------


def test_canonical_pair_examples():
    assert canonical_pair(6, 4, 1) == canonical_pair(6, 1, 1)
    assert canonical_pair(6, 4, 1).r == 1 and canonical_pair(6, 4, 1).s == 1
    assert canonical_pair(5, 2, 2) == canonical_pair(5, 1, 1)


@given(st.integers(3, 40), st.data())
def test_canonical_pair_idempotent_and_orbit_constant(n, data):
    pairs = list(primitive_pairs(n))
    pair = data.draw(st.sampled_from(pairs))
    rep = canonical_pair(n, pair.r, pair.s)
    again = canonical_pair(rep.n, rep.r, rep.s)
    assert again == rep
    # swapping and scaling stay in the orbit
    assert canonical_pair(n, pair.s, pair.r) == rep
    u = data.draw(st.integers(1, n - 1))
    assume(gcd(u, n) == 1)
    ru, su = u * pair.r % n, u * pair.s % n
    if 1 <= ru and 1 <= su and ru + su <= n - 1:
        assert canonical_pair(n, ru, su) == rep


# --- signature enumeration ----------------------------------------------------


def test_enumerate_signatures_frozen_cases():
    assert enumerate_signatures(6, 2) == [
        Signature(0, (2, 2, 3, 3)), Signature(0, (3, 6, 6))]
    assert enumerate_signatures(5, 2) == [Signature(0, (5, 5, 5))]
    # below the 2g + 1 regime the enumerator still applies the
    # arithmetic constraints; positive quotient genus becomes possible
    assert enumerate_signatures(8, 5) == [
        Signature(0, (2, 4, 8, 8)), Signature(1, (2, 2))]
    assert enumerate_signatures(7, 3) == [Signature(0, (7, 7, 7))]
    assert enumerate_signatures(7, 4) == []


def _brute_signatures(n, g):
    """Independent oracle: blunt search over divisor multisets."""
    ds = [e for e in divisors(n) if e >= 2]
    out = set()
    for g0 in range(0, 4):
        for k in range(2, 13):
            for combo in itertools.combinations_with_replacement(ds, k):
                try:
                    if rh_genus_tame(n, g0, combo) != g:
                        continue
                except (Inconsistent, NotADivisor):
                    continue
                if g0 == 0 and k < 3:
                    continue
                m = lcm(*combo)
                if g0 == 0 and m != n:
                    continue
                if any(lcm(*(combo[:i] + combo[i + 1:])) != m
                       for i in range(k)):
                    continue
                out.add(Signature(g0, combo))
    return sorted(out, key=lambda sig: (sig.g0, sig.indices))


@pytest.mark.parametrize("n", range(3, 19))
def test_enumerator_matches_brute_force(n):
    for g in range(2, 7):
        assert enumerate_signatures(n, g) == _brute_signatures(n, g), (n, g)


def test_enumerated_signatures_recompute_to_genus():
    for n in range(3, 30):
        for g in range(2, (n - 1) // 2 + 1):
            for sig in enumerate_signatures(n, g):
                assert rh_genus_tame(n, sig.g0, sig) == g


def test_enumerator_refuses_orders_and_index_counts_out_of_range():
    with pytest.raises(OrderTooLarge):
        enumerate_signatures(N_CAP + 1, 2)
    # n = 3: every index is 3 and adds 2 to 2g - 2 + 2n at g0 = 0
    assert enumerate_signatures(3, 254)[0] == Signature(0, (3,) * 256)
    with pytest.raises(TooManyIndices, match="257 ramification indices"):
        enumerate_signatures(3, 255)


def test_enumerator_stack_depth_does_not_grow_with_the_indices():
    # 256 indices of 3: each index once cost about three interpreter
    # frames, 770 in all
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        sigs = enumerate_signatures(3, 254)
    finally:
        sys.setrecursionlimit(limit)
    assert sigs[0] == Signature(0, (3,) * 256)
    assert sigs == enumerate_signatures(3, 254)


@pytest.mark.parametrize("n", [6, 12, 30])
def test_multiset_counter_matches_brute_force(n):
    terms = [(n // e) * (e - 1) for e in divisors(n) if e >= 2]
    count = _MultisetCounts(terms)

    def brute(ts, target):
        return sum(1 for k in range(target // ts[0] + 1)
                   for combo in itertools.combinations_with_replacement(ts, k)
                   if sum(combo) == target)

    for target in range(4 * n):
        assert count[0, target] == brute(terms, target), target
        assert count[1, target] == brute(terms[1:], target), target


def test_enumerator_refuses_too_many_candidates():
    # (60, 480) has 2,032,410 candidate multisets and (60, 240) 18,775
    start = time.perf_counter()
    with pytest.raises(TooManyCandidates, match="2032410 candidate"):
        enumerate_signatures(60, 480)
    assert time.perf_counter() - start < 1
    assert len(enumerate_signatures(60, 240)) == 16342


def test_enumerator_refuses_a_count_past_its_step_budget(monkeypatch):
    # 1,439 divisors above 1 and a genus far above n / 2: the count alone
    # ran for minutes without a budget
    start = time.perf_counter()
    with pytest.raises(TooManyCandidates,
                       match="candidate count over 2097152 steps"):
        enumerate_signatures(3113510400, 10**10)
    assert time.perf_counter() - start < 1
    # the order with the most divisors up to 2**32 still counts at small
    # genus, in 1,846,085 steps
    assert enumerate_signatures(3491888400, 2) == []
    # count(0, 3), count(0, 2) and count(0, 1) try 3 + 2 + 1 terms
    monkeypatch.setattr(classify_module, "_MAX_COUNT_STEPS", 6)
    assert _MultisetCounts([1, 2, 3])[0, 3] == 3
    monkeypatch.setattr(classify_module, "_MAX_COUNT_STEPS", 5)
    with pytest.raises(TooManyCandidates, match="over 5 steps"):
        _MultisetCounts([1, 2, 3])[0, 3]


def test_hyperelliptic_type_appears_exactly_for_even_genus():
    for g in range(2, 12):
        sigs = enumerate_signatures(2 * g + 2, g)
        hyper = Signature(0, (2, 2, g + 1, g + 1))
        assert (hyper in sigs) == (g % 2 == 0)


# --- classification -----------------------------------------------------------


def _summary(entries):
    out = []
    for e in entries:
        pair = (e.r, e.s) if isinstance(e, Kummer) \
            else None
        out.append((e.n, e.branch, pair))
    return out


def test_classify_char5_genus2():
    assert _summary(classify(5, 2)) == [
        (5, "III-Homma", None),
        (6, "I-Kummer", (1, 1)),
        (6, "I-Hyperelliptic", None),
        (8, "I-Kummer", (1, 3)),
        (10, "II-ASPower", None),
    ]
    aspower = [e for e in classify(5, 2) if e.branch == "II-ASPower"]
    assert aspower[0].m == 2


def test_classify_char5_genus2_raw_pairs():
    kummer = [(e.n, e.r, e.s)
              for e in classify(5, 2, raw_pairs=True)
              if e.branch == "I-Kummer"]
    assert kummer == [
        (6, 1, 1), (6, 1, 4), (6, 4, 1),
        (8, 1, 3), (8, 1, 4), (8, 3, 1), (8, 3, 4), (8, 4, 1), (8, 4, 3)]


def test_classify_char3_genus3():
    entries = classify(3, 3)
    # the one wild entry is y^3 - y = a(x^4 - b), N = 12; the tame
    # orders are prime to 3
    assert [(e.n, e.branch) for e in entries if e.wild] == [(12, "II-ASPower")]
    assert all(e.n % 3 for e in entries if not e.wild)
    assert (7, "I-Kummer", (1, 1)) in _summary(entries)
    assert not any(e.branch == "I-Hyperelliptic" for e in entries)  # g odd


def test_classify_char3_lists_the_wild_families():
    # p = 3 is in the paper's scope, every p != 2: ASRational at g = p - 1
    # and ASPower at m = g + 1 whenever 3 does not divide m
    for g in range(2, 41):
        wild = [(e.branch, e.n, e.spec_values()[:2])
                for e in classify(3, g) if e.wild]
        want = [("II-ASPower", 3 * (g + 1), (3, g + 1))] if g % 3 != 2 else []
        if g == 2:
            want.append(("II-ASRational", 6, (3, "a")))
        assert sorted(wild) == sorted(want), g


def test_classify_characteristic_zero():
    entries = classify(0, 2)
    assert all(not e.wild for e in entries)
    assert _summary(entries) == [
        (5, "I-Kummer", (1, 1)),
        (6, "I-Kummer", (1, 1)),
        (6, "I-Hyperelliptic", None),
        (8, "I-Kummer", (1, 3)),
        (10, "I-Kummer", (1, 4)),
    ]


def test_classify_errors():
    with pytest.raises(UnsupportedCharacteristic):
        classify(2, 3)
    with pytest.raises(UnsupportedCharacteristic):
        classify(9, 3)
    with pytest.raises(BadGenus):
        classify(5, 1)


@pytest.mark.parametrize("call, error, bad", [
    (lambda: classify(3.0, 2), UnsupportedCharacteristic, 3.0),
    (lambda: classify(False, 2), UnsupportedCharacteristic, False),
    (lambda: classify("3", 2), UnsupportedCharacteristic, "3"),
    (lambda: classify(0, 3.0), BadGenus, 3.0),
    (lambda: classify(5, True), BadGenus, True),
    (lambda: enumerate_signatures(7, 3.0), BadGenus, 3.0),
    (lambda: enumerate_signatures(7.0, 3), BadOrder, 7.0),
    (lambda: enumerate_signatures(True, 3), BadOrder, True),
    (lambda: list(primitive_pairs(5.0)), BadOrder, 5.0),
    (lambda: verify_sasaki_bound(10.0), BadOrder, 10.0),
    (lambda: Homma(5.0), DegenerateModel, 5.0),
    (lambda: ASRational(5.0, 1, 1, 4), DegenerateModel, 5.0),
    (lambda: ASPower(5.0, 2, 1, 0), DegenerateModel, 5.0),
    (lambda: ASPower(5, 2.0, 1, 0), DegenerateModel, 2.0),
    (lambda: Hyperelliptic(4.0, "l"), DegenerateModel, 4.0),
    (lambda: FiltrationProfile(5.0, (5.0, 5.0)), InvalidFiltration, 5.0),
    (lambda: FiltrationProfile(5, (5.0, 5.0)), InvalidFiltration, 5.0),
    (lambda: FiniteField(5.0, 1), PreconditionViolated, 5.0),
    (lambda: FiniteField(5, 1.0), PreconditionViolated, 1.0),
    (lambda: PrimitivePair(5.0, 1, 1), NotPrimitive, 5.0),
    (lambda: PrimitivePair(True, 1, 1), NotPrimitive, True),
    (lambda: Kummer(7, 1.0, 2), NotPrimitive, 1.0),
], ids=["classify-p-float", "classify-p-bool", "classify-p-str",
        "classify-g-float", "classify-g-bool", "signatures-g-float",
        "signatures-n-float", "signatures-n-bool", "pairs-n-float",
        "sasaki-n-float", "homma-p-float", "asrational-p-float",
        "aspower-p-float", "aspower-m-float", "hyper-g-float",
        "profile-p-float", "profile-orders-float",
        "field-p-float", "field-k-float", "pair-n-float", "pair-n-bool",
        "kummer-r-float"])
def test_non_int_arguments_get_typed_errors(call, error, bad):
    # a float passes the range and primality tests (is_prime(3.0) holds)
    # and a bool is an int: each is refused, and named, before any
    # arithmetic
    with pytest.raises(error, match=re.escape(repr(bad))):
        call()


# psi_12 = 1287836182261 * 2575672364521, the least strong pseudoprime to
# the twelve prime bases up to 37; 2^89 - 1 is a prime the bases cannot
# certify either
PSI_12 = 3_317_044_064_679_887_385_961_981


@pytest.mark.parametrize("p", [PSI_12, 2**89 - 1])
@pytest.mark.parametrize("call,error", [
    (lambda p: classify(p, 2), UnsupportedCharacteristic),
    (lambda p: Homma(p), DegenerateModel),
    (lambda p: ASPower(p, 2, 1, 0), DegenerateModel),
    (lambda p: ASRational(p, 1, 1, 4), DegenerateModel),
    (lambda p: FiltrationProfile(p, (p,)), InvalidFiltration),
    (lambda p: FiniteField(p, 1), PreconditionViolated),
], ids=["classify", "homma", "aspower", "asrational", "profile", "field"])
def test_characteristics_past_psi_12_get_typed_errors(call, error, p):
    assert not intmath.is_prime(p)
    with pytest.raises(error, match=str(p)):
        call(p)


def test_no_entry_lies_above_4g_plus_2():
    # A Kummer pair's gcds are pairwise coprime proper divisors of N that
    # sum to N + 2 - 2g, which leaves no pair of genus g above 4g + 2;
    # classify's search stops there, so the next two orders must be empty
    for g in range(2, 31):
        for n in (4 * g + 3, 4 * g + 4):
            assert not np.any(classify_module._pair_triangle(n)[0] == g), n
        for p in (0, 3, 5, 7, 11, 13):
            assert all(model.n <= 4 * g + 2
                       for family in FAMILIES[1:]
                       for model in family.of_genus(p, g)), (p, g)


def test_classify_n_filter():
    entries = classify(5, 2, n=6)
    assert {e.n for e in entries} == {6}
    assert len(entries) == 2


@pytest.mark.parametrize("n", ["x", -7, 0, 2, 6.0, True])
def test_classify_query_rejects_bad_order(n):
    with pytest.raises(BadOrder,
                       match=f"group order must be None or an int >= 3, "
                             f"got {re.escape(repr(n))}"):
        classify(5, 4, n=n)


def test_classify_query_accepts_orders_from_three():
    assert classify(5, 4, n=3) == []
    assert classify(5, 2, n=3) == []


def test_entries_are_self_consistent():
    for p in (0, 3, 5, 7):
        for g in range(2, 12):
            entries = classify(p, g)
            for e in entries:
                assert e.n >= 2 * g + 1
                assert e.genus == g
                assert e.wild == (e.branch.startswith("II")
                                  or e.branch.startswith("III"))
            for branch in ("II-ASPower", "II-ASRational", "III-Homma",
                           "I-Hyperelliptic"):
                assert sum(1 for e in entries if e.branch == branch) <= 1


def test_kummer_entry_signatures_are_enumerable():
    for p, g in [(5, 2), (3, 3), (0, 2), (7, 4)]:
        for e in classify(p, g):
            if e.branch == "I-Kummer":
                assert e.signature in enumerate_signatures(e.n, g)


def test_entry_fields_are_the_models():
    for p in (0, 3, 5, 7, 11, 13):
        for g in range(2, 16):
            for raw in (False, True):
                for e in classify(p, g, raw_pairs=raw):
                    assert isinstance(e, CurveModel) and e.model is e
                    assert e.genus == g
                    assert e.branch == type(e).branch
                    assert e.wild == type(e).wild
                    assert e.signature == (
                        None if e.wild else _signature_of(e.ramification))


def _signature_of(orbits):
    """The tame signature (0; stabiliser orders) of orbit data."""
    return Signature(0, tuple(o.filtration.o0 for o in orbits))


def test_entry_validation_rejects_inconsistencies(monkeypatch):
    # classify checks each model that a family other than Kummer gives:
    # N >= 2g + 1, and the genus by Riemann-Hurwitz
    class WrongSignature(Kummer):
        of_genus = classmethod(lambda cls, p, g: iter([cls(7, 1, 1)]))
        # the signature (0; 7,7,7,7): genus 6
        ramification = property(
            lambda model: (OrbitDatum(FiltrationProfile(0, (7,)), 1),) * 4)

    class WrongOrder(Kummer):
        of_genus = classmethod(lambda cls, p, g: iter([cls(7, 1, 1)]))
        n = property(lambda model: 5)

    class WrongOrbits(Homma):
        ramification = property(lambda model: (OrbitDatum(
            FiltrationProfile(model.p, (model.p, model.p)), 1),))  # genus 0

    entry = Kummer(7, 1, 1)
    assert (entry.n, entry.genus, entry.signature) == (
        7, 3, Signature(0, (7, 7, 7)))
    assert classify(5, 2, n=5) == [Homma(5)]
    assert Homma(5).ramification is not None
    for family, p, g, match in ((WrongSignature, 0, 3, "gives genus 6, not 3"),
                                (WrongOrder, 0, 3, "below 2g"),
                                (WrongOrbits, 5, 2, "gives genus 0, not 2")):
        monkeypatch.setattr(classify_module, "FAMILIES", (Kummer, family))
        with pytest.raises(ValueError, match=match):
            classify(p, g)


def test_caches_are_bounded():
    arguments = [
        (intmath.divisors, lambda i: (i + 1,)),
        (classify_module._canonical_genus_entries, lambda i: (5 + i, 2)),
        (classify_module._orbit_minima, lambda i: (5 + i, 2)),
        (classify_module._order_gcds, lambda i: (3 + i,)),
        (ramification.tame_orbits, lambda i: (4 + 2 * i, (2, 2, 2 + i))),
        (ramification.orbit_datum, lambda i: (0, 2 * i + 2, 2, 0)),
        (ramification.orbit_datum, lambda i: (5, 10 * i + 10, 2, 1)),
        (ramification.tame_signature, lambda i: (
            ramification.tame_orbits(4 + 2 * i, (2, 2, 2 + i)),)),
    ]
    try:
        for cache, args in arguments:
            bound = cache.cache_info().maxsize
            assert bound is not None
            for i in range(bound + 10):
                cache(*args(i))
            assert cache.cache_info().currsize <= bound
    finally:
        for cache, _ in arguments[1:]:
            cache.cache_clear()


# --- Kummer pair search ---------------------------------------------------------


def test_order_gcds_are_the_gcds():
    for n in range(1, 400):
        assert classify_module._order_gcds(n) == tuple(
            gcd(n, x) for x in range(n)), n


def _walked_orbit(n, r, s):
    # every unit scaling of the exponent triple, each of its six
    # permutations tested for the range on its own
    t = n - r - s
    out = set()
    for u in range(1, n):
        if gcd(u, n) == 1:
            a, b, c = u * r % n, u * s % n, u * t % n
            out.update((x, y) for x, y in ((a, b), (a, c), (b, a),
                                           (b, c), (c, a), (c, b))
                       if x + y <= n - 1)
    return out


def _expanded(n, minima):
    # the members of the orbits of `minima` at order n in lexicographic
    # order, each with the least member of its orbit
    _, r, s, i, _ = classify_module._orbit_members(
        *np.array([(n, m, t) for m, t in minima], np.int64).reshape(-1, 3).T)
    return [((x, y), minima[j])
            for x, y, j in zip(r.tolist(), s.tolist(), i.tolist())]


def test_orbit_minima_match_an_orbit_walk():
    # the divisor-triple search and the orbit expansion against walking
    # the orbit of every primitive pair, one pair at a time
    for n in range(3, 131):
        minima, least = {}, {}
        for pair in primitive_pairs(n):
            rs = (pair.r, pair.s)
            if rs not in least:
                orbit = sorted(_walked_orbit(n, *rs))
                assert classify_module._orbit(n, *rs) == orbit, (n, rs)
                least |= dict.fromkeys(orbit, orbit[0])
                minima.setdefault(pair.genus, []).append(orbit[0])
        found = {g: classify_module._orbit_minima(n, g) for g in range(n)}
        assert found == {g: tuple(sorted(minima.get(g, [])))
                         for g in range(n)}, n
        # the orbits of every genus at once: each pair once, in order,
        # with the least member of its orbit
        every = [pair for g in range(n) for pair in found[g]]
        assert _expanded(n, every) == sorted(least.items()), n


def _triangle_pairs(triangle, g):
    # the pairs of genus g in the Sasaki check's exhaustive pair list
    genus, r, s = triangle
    keep = genus == g
    return list(zip(r[keep].tolist(), s[keep].tolist()))


def _raw_pairs(g, orders):
    return [[(e.r, e.s) for e in entries]
            for entries in classify_module._raw_entries(g, orders)]


def test_raw_listing_matches_the_pair_triangle_at_large_orders():
    # the exhaustive pair list against the orbit search, far above the
    # orders of the orbit walk: every order of genus 60, and every genus
    # at three highly composite orders
    triangles = {n: classify_module._pair_triangle(n) for n in range(121, 245)}
    raw = classify(0, 60, raw_pairs=True)
    assert [(e.n, e.r, e.s) for e in raw
            if e.branch == Kummer.branch] == [
        (n, r, s) for n in range(121, 243)
        for r, s in _triangle_pairs(triangles[n], 60)]
    assert _raw_pairs(60, [243, 244]) == [
        _triangle_pairs(triangles[n], 60) for n in (243, 244)]
    for n in (210, 360, 420):
        triangle = classify_module._pair_triangle(n)
        for g in range(2, (n - 1) // 2 + 1):
            assert _raw_pairs(g, [n]) == [_triangle_pairs(triangle, g)], (n, g)


def test_blocked_raw_listing_is_exact(monkeypatch):
    # the default blocks, of which classify(0, 120) fills several, blocks
    # of a few orders, and an order alone in each block
    want = {g: [(n, r, s) for n in ns for r, s in
                _triangle_pairs(classify_module._pair_triangle(n), g)]
            for g, ns in ((30, range(61, 123)), (120, range(241, 483)))}
    sizes = [3 * n * len(classify_module._orbit_minima(n, 120))
             for n in range(241, 483)]
    assert sum(sizes) > 2 * classify_module._BLOCK
    for block in (None, 1 << 11, 1):
        if block is not None:
            monkeypatch.setattr(classify_module, "_BLOCK", block)
        for g, pairs in want.items():
            assert [(e.n, e.r, e.s) for e in classify(0, g, raw_pairs=True)
                    if e.branch == Kummer.branch] == pairs, (block, g)


def test_kummer_entries_equal_the_constructed_ones():
    # built in one call each, the entries are the constructor's objects:
    # equal, with the same type, repr, hash and orbit data, canonical
    # and raw
    for n in range(5, 131):
        triangle = classify_module._pair_triangle(n)
        for g in range(2, (n - 1) // 2 + 1):
            minima = classify_module._orbit_minima(n, g)
            for built, pairs in (
                    (next(classify_module._raw_entries(g, [n])),
                     _triangle_pairs(triangle, g)),
                    (classify_module._kummer_entries(n, g, minima), minima)):
                want = [Kummer(n, r, s) for r, s in pairs]
                assert built == want, (n, g)
                assert list(map(type, built)) == list(map(type, want)), (n, g)
                assert list(map(repr, built)) == list(map(repr, want)), (n, g)
                assert list(map(hash, built)) == list(map(hash, want)), (n, g)
                assert all(e.ramification is w.ramification
                           for e, w in zip(built, want)), (n, g)
                assert [(e.signature, e.genus) for e in built] == [
                    (e.signature, e.genus) for e in want], (n, g)


def test_raw_entries_are_slotted_and_small():
    entries = classify(0, 50, raw_pairs=True)
    for e in entries:
        if e.branch != Kummer.branch:
            continue
        # one object is the entry, its model and its pair
        assert e.model is e and e.model.pair is e, e
        assert not hasattr(e, "__dict__"), e
    del entries
    # the pair search's divisor caches are warm after the listing above
    gc.collect()
    tracemalloc.start()
    try:
        entries = classify(0, 50, raw_pairs=True)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 120 * len(entries), size / len(entries)


def test_kummer_entries_check_every_pair(monkeypatch):
    entries = classify_module._kummer_entries
    assert [e.genus for e in entries(12, 3, [(1, 3), (1, 5)])] == [3, 3]
    for n, g in ((6, 3), (5, 1)):
        with pytest.raises(ValueError,
                           match=f"no Kummer entry of genus {g} at order {n}"):
            entries(n, g, [])
    # (11, 9) reflects (1, 3) through (n, n) and (13, 3) shifts it by n:
    # the same gcds and genus, but outside r, s >= 1, r + s <= n - 1
    for pair in ((11, 9), (13, 3), (0, 5), (5, 0)):
        with pytest.raises(ValueError, match="outside range for n=12"):
            entries(12, 3, [(1, 3), pair])
    # gcds 2, 2, 4 sum to n + 2 - 2g at g = 3, but (2, 2) is not primitive
    with pytest.raises(ValueError,
                       match=r"gcd\(r, s, n\) != 1 for \(2, 2\) mod 12"):
        entries(12, 3, [(1, 3), (2, 2)])
    with pytest.raises(ValueError, match=r"\(0; 6,12,12\) of \(1, 1\) mod 12 "
                       r"gives genus 5, not 3"):
        entries(12, 3, [(1, 3), (1, 1)])
    # Riemann-Hurwitz runs once on each signature type, not only the first
    calls = []

    def wrong_rh(n, g0, orbits):
        calls.append(_signature_of(orbits))
        return 4 if calls[-1] == Signature(0, (3, 4, 12)) else 3

    monkeypatch.setattr(classify_module, "rh_genus_wild", wrong_rh)
    with pytest.raises(ValueError, match=r"\(0; 3,4,12\) of \(1, 3\) mod 12 "
                       r"gives genus 4, not 3"):
        entries(12, 3, [(1, 5), (5, 1), (1, 3)])
    assert calls == [Signature(0, (2, 12, 12)), Signature(0, (3, 4, 12))]


def test_raw_entries_check_every_pair(monkeypatch):
    # the raw listing expands the canonical entries it is given, and
    # checks each member as `_kummer_entries` checks each pair
    listed = classify_module._canonical_genus_entries
    good = listed(12, 3)  # (1, 3) and (1, 5)

    def raw(*extra):
        monkeypatch.setattr(classify_module, "_canonical_genus_entries",
                            lambda n, g: good + extra)
        return [e for entries in classify_module._raw_entries(3, [12])
                for e in entries]

    assert len(raw()) == 18
    orbits = good[0].ramification
    # (1, 11) scales to triples with a zero, so (0, 1) is in its orbit
    with pytest.raises(ValueError,
                       match=r"\(r, s\)=\(0, 1\) outside range for n=12"):
        raw(tuple.__new__(Kummer, (12, 1, 11, 3, orbits)))
    # gcds 2, 2, 4 sum to n + 2 - 2g at g = 3, but (2, 2) is not primitive
    with pytest.raises(ValueError,
                       match=r"gcd\(r, s, n\) != 1 for \(2, 2\) mod 12"):
        raw(tuple.__new__(Kummer, (12, 2, 2, 3, orbits)))
    # a member takes only the orbit data its own gcd triple gives
    with pytest.raises(ValueError, match=r"^\(1, 5\) mod 12 does not give "
                       r"the orbit data \(0; 3,4,12\) of its orbit$"):
        raw(tuple.__new__(Kummer, (12, 1, 5, 3, orbits)))
    monkeypatch.undo()
    # Riemann-Hurwitz runs on the canonical entries the listing expands
    monkeypatch.setattr(classify_module, "rh_genus_wild", lambda *_: 4)
    listed.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"\(0; 3,4,12\) of \(1, 3\) "
                           r"mod 12 gives genus 4, not 3"):
            classify(0, 3, raw_pairs=True, n=12)
    finally:
        listed.cache_clear()


def test_kummer_entries_share_a_signature_per_type():
    for n, g in ((12, 3), (30, 10), (60, 20)):
        entries = next(classify_module._raw_entries(g, [n]))
        by_type = {}
        for e in entries:
            by_type.setdefault(e.ramification, set()).add(id(e.ramification))
            # the signature view is interned with its orbit data
            assert e.signature is e.signature is PrimitivePair(
                *e[:3]).signature
        assert all(len(ids) == 1 for ids in by_type.values()), (n, g)
        assert len(by_type) == (1 if n == 60 else 2)
        # the pairs of one type have gcd triples in different orders
        triples = {(gcd(n, e.r), gcd(n, e.s)) for e in entries}
        assert len(triples) > len(by_type)


def test_classify_lists_entries_in_order():
    def key(entry):
        return entry.n, FAMILIES.index(type(entry)), entry.spec_values()

    for p in (0, 3, 5, 7, 11, 13, 17, 19, 23):
        for g in range(2, 41):
            for raw in (False, True):
                keys = [key(e) for e in classify(p, g, raw_pairs=raw)]
                assert keys == sorted(keys), (p, g, raw)


def test_classify_at_one_order_is_the_filtered_listing():
    for p in (0, 3, 5, 7):
        for g in range(2, 13):
            for raw in (False, True):
                full = classify(p, g, raw_pairs=raw)
                for n in range(2 * g, 4 * g + 6):
                    assert classify(p, g, raw_pairs=raw, n=n) == [
                        e for e in full if e.n == n], (p, g, raw, n)


def test_large_genus_classifies_quickly():
    start = time.perf_counter()
    entries = classify(0, 723)
    assert time.perf_counter() - start < 5
    assert entries and all(e.genus == 723 for e in entries)


# --- pair triangles ---------------------------------------------------------------


def test_pair_tables_group_primitive_pairs_by_genus():
    # the array triangle against the one-object-at-a-time enumeration
    for n in range(3, 121):
        genus, r, s = classify_module._pair_triangle(n)
        pairs = list(primitive_pairs(n))
        assert list(zip(r.tolist(), s.tolist())) == [
            (pair.r, pair.s) for pair in pairs], n
        assert genus.tolist() == [pair.genus for pair in pairs], n


def test_pair_table_is_compact():
    columns = classify_module._pair_triangle(1000)
    assert {column.dtype for column in columns} == {np.dtype(np.int16)}
    assert sum(column.nbytes for column in columns) < 5_000_000


def test_oversized_orders_fail_fast():
    start = time.perf_counter()
    with pytest.raises(OrderTooLarge, match="order 3202"):
        classify(0, 800)
    with pytest.raises(OrderTooLarge):
        verify_sasaki_bound(2898)
    with pytest.raises(OrderTooLarge):
        next(primitive_pairs(100_000))
    with pytest.raises(OrderTooLarge, match="order 1000003"):
        canonical_pair(1_000_003, 1, 2)
    assert time.perf_counter() - start < 1
    # the largest genus reaches order 4 * 723 + 2 = 2894 <= 2897
    assert classify(0, 723, n=3) == []
    with pytest.raises(OrderTooLarge, match="genus 724 reaches order 2898"):
        classify(0, 724, n=3)


# --- bound verification --------------------------------------------------------


def test_sasaki_bound_report():
    report = verify_sasaki_bound(100)
    assert report.violations == ()
    assert report.pairs_checked > 0
    assert report.tight_pairs > 0
    # equality attained at n = 5, (1, 1): genus 2
    assert kummer_genus(5, 1, 1) == 2 and 5 == 2 * 2 + 1


def test_sasaki_bound_totals():
    # the brute-force totals over every primitive pair with N <= 200
    report = verify_sasaki_bound(200)
    assert (report.pairs_checked, report.tight_pairs) == (1_098_601, 397_351)
    assert report.violations == ()


def test_sasaki_bound_names_the_violating_pair(monkeypatch):
    honest = verify_sasaki_bound(10)
    triangles = {n: classify_module._pair_triangle(n) for n in range(3, 11)}
    real_genus, r, s = triangles[9]
    # the last pair has the largest genus, 4 = (9 - 1) / 2; claim 5
    genus = real_genus.copy()
    genus[-1] = 5
    triangles[9] = genus, r, s
    monkeypatch.setattr(classify_module, "_pair_triangle", triangles.__getitem__)
    report = verify_sasaki_bound(10)
    r, s = int(r[-1]), int(s[-1])
    assert kummer_genus(9, r, s) == 4
    assert report.violations == ((9, r, s, 5),)
    assert report.tight_pairs == honest.tight_pairs - 1
    assert report.pairs_checked == honest.pairs_checked


def test_sasaki_bound_small():
    report = verify_sasaki_bound(5)
    assert report.pairs_checked == 6 + 3 + 1  # n = 5, 4, 3
    assert report.violations == ()
