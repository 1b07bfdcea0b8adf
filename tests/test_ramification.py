import itertools

import pytest
from hypothesis import given, strategies as st

from cycliccurves.intmath import is_prime
from cycliccurves.ramification import (
    FiltrationProfile,
    Inconsistent,
    InvalidFiltration,
    NotADivisor,
    OrbitDatum,
    Signature,
    different_exponent,
    orbit_datum,
    rh_genus_tame,
    rh_genus_wild,
    tame_orbits,
)

SMALL_PRIMES = (3, 5, 7)


# --- Signature -------------------------------------------------------------


def test_signature_canonicalizes_order():
    assert Signature(0, (6, 2, 3)).indices == (2, 3, 6)
    assert Signature(0, (3, 6, 2)) == Signature(0, (2, 3, 6))


def test_signature_rejects_bad_values():
    with pytest.raises(ValueError):
        Signature(-1, (2, 2))
    with pytest.raises(ValueError):
        Signature(0, (1, 2))


# --- FiltrationProfile -----------------------------------------------------


@st.composite
def wild_profiles(draw):
    """Structurally valid profiles: tame part times a p-power tower with
    jump indices congruent modulo p."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    a = draw(st.integers(1, 3))
    u = draw(st.integers(1, 12).filter(lambda v: v % p))
    drops = []
    rem = a
    while rem:
        d = draw(st.integers(1, rem))
        drops.append(d)
        rem -= d
    positions = [draw(st.integers(1, 4))]
    for _ in drops[1:]:
        positions.append(positions[-1] + p * draw(st.integers(1, 2)))
    tail = []
    exponent = a
    prev = 0
    for drop, pos in zip(drops, positions):
        tail += [p**exponent] * (pos - prev)
        prev = pos
        exponent -= drop
    return FiltrationProfile(p, (u * p**a,) + tuple(tail))


@st.composite
def tame_profiles(draw):
    # p = 0 is the tame form of a cover that does not fix p
    p = draw(st.sampled_from((0,) + SMALL_PRIMES))
    e = draw(st.integers(1, 50).filter(lambda v: not p or v % p))
    return FiltrationProfile(p, (e,))


def test_trailing_ones_are_normalized():
    assert FiltrationProfile(5, [5, 5, 5, 1, 1]) == FiltrationProfile(
        5, [5, 5, 5])
    assert FiltrationProfile(5, [1]).orders == ()


def test_tame_form_is_p_zero():
    for e in range(1, 60):
        profile = FiltrationProfile(0, (e, 1, 1))
        assert profile == FiltrationProfile(0, (e,)) == FiltrationProfile(
            0, [e])
        assert (profile.o0, profile.jumps()) == (e, ())
        assert different_exponent(profile) == e - 1
        for f in range(2, e + 1):
            with pytest.raises(InvalidFiltration):
                FiltrationProfile(0, (e, f))


def test_different_exponent_examples():
    assert different_exponent(FiltrationProfile(5, [4])) == 3
    assert different_exponent(FiltrationProfile(3, [9, 9, 3, 3, 3])) == 22
    assert different_exponent(FiltrationProfile(3, [1])) == 0


def test_wrong_level_count_is_rejected():
    # one extra level of order 3 moves the second jump off the
    # congruence class of the first
    with pytest.raises(InvalidFiltration):
        FiltrationProfile(3, [9, 9, 3, 3, 3, 3])


@pytest.mark.parametrize("p,orders", [
    (3, (9, 3, 9)),         # not non-increasing
    (3, (6, 2)),            # level-1 order not a power of p
    (3, (3,)),              # level-0 p-part must persist at level 1
    (5, (50, 5)),           # prime-to-p part 10 is divisible by p... (50/5=10)
    (3, (18, 9, 9, 3)),     # 18/9 = 2 fine, but jumps at 2 and 3: 2 != 3 mod 3
    (4, (4,)),              # p must be an odd prime
    (1, (3,)),
    (2, (2,)),
    (-3, (3,)),
    (0, (4, 4)),            # the tame form has one level
    (0, (6, 2)),
    (0, (6, 2, 2, 1)),
])
def test_invalid_profiles(p, orders):
    with pytest.raises(InvalidFiltration):
        FiltrationProfile(p, orders)


@given(wild_profiles())
def test_wild_profiles_jump_congruence(profile):
    jumps = profile.jumps()
    assert all((j - jumps[0]) % profile.p == 0 for j in jumps)
    assert len(profile.orders) > 1  # a wild level
    # strict inequality in the wild case
    assert different_exponent(profile) > profile.o0 - 1


@given(tame_profiles())
def test_tame_profiles_different_is_order_minus_one(profile):
    assert len(profile.orders) <= 1
    assert different_exponent(profile) == profile.o0 - 1


# --- Riemann-Hurwitz -------------------------------------------------------


def test_rh_tame_examples():
    assert rh_genus_tame(6, 0, Signature(0, (2, 2, 3, 3))) == 2
    assert rh_genus_tame(5, 0, Signature(0, (5, 5, 5))) == 2
    assert rh_genus_tame(7, 1, Signature(1)) == 1
    assert rh_genus_tame(6, 0, (2, 2, 3, 3)) == 2  # bare indices accepted


def test_rh_tame_errors():
    with pytest.raises(Inconsistent):
        rh_genus_tame(2, 0, (2,))  # 2g - 2 = -3
    with pytest.raises(Inconsistent):
        rh_genus_tame(5, 0, (5,))  # genus would be negative
    with pytest.raises(NotADivisor):
        rh_genus_tame(6, 0, (4, 4, 4))
    with pytest.raises(Inconsistent):
        rh_genus_tame(6, 1, Signature(0, (2, 2)))  # g0 disagreement


def test_rh_wild_examples():
    profile = FiltrationProfile(3, [9, 9, 3, 3, 3])
    assert rh_genus_wild(9, 0, [OrbitDatum(profile, 1)]) == 3
    assert rh_genus_wild(5, 0, [
        OrbitDatum(FiltrationProfile(5, [5, 5, 5]), 1)]) == 2
    two_points = [OrbitDatum(FiltrationProfile(3, [2]), 1)] * 2
    assert rh_genus_wild(2, 0, two_points) == 0


def test_group_order_cap():
    with pytest.raises(Inconsistent):
        rh_genus_tame(2**32 + 2, 0, (2, 2, 2))
    # 2g - 2 = N(-2) + 5(N/2) = N/2
    assert rh_genus_tame(2**32, 0, (2, 2, 2, 2, 2)) == 2**30 + 1


def test_rh_wild_rejects_bad_orbit_size():
    profile = FiltrationProfile(5, [5, 5, 5])
    with pytest.raises(Inconsistent):
        rh_genus_wild(10, 0, [OrbitDatum(profile, 1)])


def _next_coprime_prime(n):
    p = 3
    while n % p == 0 or not is_prime(p):
        p += 2
    return p


def test_wild_agrees_with_tame_exhaustively():
    # all-tame orbit data must reproduce the signature formula
    from cycliccurves.intmath import divisors
    from itertools import combinations_with_replacement

    for n in range(2, 31):
        ds = [e for e in divisors(n) if e >= 2]
        for p, g0 in itertools.product((0, _next_coprime_prime(n)), (0, 1, 2)):
            for k in (0, 1, 2, 3):
                for combo in combinations_with_replacement(ds, k):
                    orbits = [OrbitDatum(FiltrationProfile(p, (e,)), n // e)
                              for e in combo]
                    try:
                        expected = rh_genus_tame(n, g0, combo)
                    except Inconsistent:
                        with pytest.raises(Inconsistent):
                            rh_genus_wild(n, g0, orbits)
                        continue
                    assert rh_genus_wild(n, g0, orbits) == expected


@pytest.mark.parametrize("n,g0,indices", [
    (6, 0, (2, 2, 3, 3)),      # hyperelliptic genus 2, N = 2g + 2
    (12, 0, (3, 4, 12)),       # Kummer (1, 3) mod 12, genus 3
    (15, 0, (3, 5, 15)),       # Kummer (1, 5) mod 15, genus 4
    (10, 1, (2, 5, 10)),       # positive quotient genus
    (7, 2, ()),                # unramified
])
def test_tame_indices_as_level_zero_orbits(n, g0, indices):
    # an index e is an orbit of N/e points whose stabiliser, of order e
    # prime to p, has only level 0: different exponent e - 1
    for p in (0, 3, 5, 7, 11, 13):
        if p and n % p == 0:
            continue
        orbits = [OrbitDatum(FiltrationProfile(p, (e,)), n // e)
                  for e in indices]
        assert all(different_exponent(o.filtration) == o.filtration.o0 - 1
                   for o in orbits)
        assert rh_genus_wild(n, g0, orbits) == rh_genus_tame(
            n, g0, Signature(g0, indices))


def test_orbit_datum_has_one_call_form():
    # one orbit is one cache key, so the tame data of `tame_orbits` are
    # the very objects that a direct call returns, and no keyword or
    # default form keys the same orbit apart.  Both caches are bounded,
    # so a tuple cached earlier may hold data since evicted: start empty
    tame_orbits.cache_clear()
    orbit_datum.cache_clear()
    for n, indices in ((6, (2, 2, 3, 3)), (12, (3, 4, 12)), (10, (2, 5))):
        for datum, e in zip(tame_orbits(n, indices), indices):
            assert datum is orbit_datum(0, n, e, 0)
    with pytest.raises(TypeError):
        orbit_datum(5, 10, 2, m=0)
    with pytest.raises(TypeError):
        orbit_datum(5, 10, 2)


def test_filtration_identity_for_p_squared_profiles():
    for p in (3, 5, 7, 11, 13):
        profile = FiltrationProfile(p, [p * p, p * p] + [p] * p)
        g = rh_genus_wild(p * p, 0, [OrbitDatum(profile, 1)])
        assert p * p == 2 * g + p


# --- Kummer branch-count lemma ---------------------------------------------


@given(st.integers(2, 12), st.lists(st.integers(-30, 30), max_size=6))
def test_no_principal_divisor_has_exactly_one_branch_point(n, orders):
    # close the list to sum zero, then the branch count is never 1
    orders = orders + [-sum(orders)]
    branch_count = sum(1 for v in orders if v % n)
    assert branch_count != 1


def test_single_branch_configurations_never_sum_to_zero():
    # brute-force vindication over small order lists
    from itertools import product

    n = 3
    for values in product(range(-4, 5), repeat=4):
        if sum(values) == 0:
            assert sum(1 for v in values if v % n) != 1
