import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from math import gcd, lcm

from cycliccurves import families, ramification
from cycliccurves.families import (
    FAMILIES,
    ASPower,
    ASRational,
    DegenerateModel,
    Homma,
    Hyperelliptic,
    Kummer,
    NotPrimitive,
    PrimitivePair,
    kummer_genus,
)
from cycliccurves.fforacle import (count_places, count_places_naive, field,
                                   verify_automorphism)
from cycliccurves.intmath import is_prime
from cycliccurves.ramification import Signature, rh_genus_tame, rh_genus_wild


@st.composite
def primitive_pairs_st(draw, max_n=80):
    n = draw(st.integers(3, max_n))
    r = draw(st.integers(1, n - 2))
    s = draw(st.integers(1, n - 1 - r))
    assume(gcd(gcd(r, s), n) == 1)
    return n, r, s


# --- primitive pairs and the Kummer genus ----------------------------------


def test_primitive_pair_validation():
    PrimitivePair(5, 1, 3)
    with pytest.raises(NotPrimitive):
        PrimitivePair(4, 2, 2)
    with pytest.raises(NotPrimitive):
        PrimitivePair(5, 0, 1)
    with pytest.raises(NotPrimitive):
        PrimitivePair(5, 3, 2)  # r + s = n


def test_primitive_pair_derived_fields_stay_out_of_identity():
    pair = PrimitivePair(7, 1, 2)
    assert pair.genus == 3
    assert pair.signature == Signature(0, (7, 7, 7))
    assert repr(pair) == "PrimitivePair(n=7, r=1, s=2)"
    assert pair == PrimitivePair(7, 1, 2)
    assert hash(pair) == hash(PrimitivePair(7, 1, 2))


def test_kummer_genus_examples():
    assert kummer_genus(5, 1, 1) == 2
    assert kummer_genus(6, 1, 2) == 1
    assert kummer_genus(6, 1, 1) == 2
    assert kummer_genus(8, 1, 3) == 2


@given(primitive_pairs_st())
def test_kummer_genus_symmetry(nrs):
    n, r, s = nrs
    assert kummer_genus(n, r, s) == kummer_genus(n, s, r)


@given(primitive_pairs_st(), st.integers(1, 79))
def test_kummer_genus_unit_invariance(nrs, u):
    n, r, s = nrs
    assume(gcd(u, n) == 1)
    ru, su = u * r % n, u * s % n
    assume(1 <= ru and 1 <= su and ru + su <= n - 1)
    assert kummer_genus(n, ru, su) == kummer_genus(n, r, s)


@given(primitive_pairs_st())
def test_sasaki_inequality(nrs):
    n, r, s = nrs
    assert n >= 2 * kummer_genus(n, r, s) + 1


def test_kummer_signature_examples():
    assert PrimitivePair(6, 1, 1).signature.indices == (3, 6, 6)
    assert PrimitivePair(5, 1, 1).signature.indices == (5, 5, 5)
    assert PrimitivePair(8, 1, 3).signature.indices == (2, 8, 8)
    assert PrimitivePair(6, 1, 1).signature.g0 == 0


def test_signature_and_genus_formula_agree_exhaustively():
    from cycliccurves.classify import primitive_pairs

    for n in range(3, 41):
        for pair in primitive_pairs(n):
            sig = PrimitivePair(n, pair.r, pair.s).signature
            assert rh_genus_tame(n, 0, sig) == kummer_genus(n, pair.r, pair.s)


def test_tame_orbits_are_the_stated_ones():
    from cycliccurves.classify import primitive_pairs

    # over x = 0 lie gcd(n, r) places, each with stabiliser n / gcd(n, r),
    # and so for s over x = 1 and r + s over infinity
    for n in range(3, 61):
        for pair in primitive_pairs(n):
            stated = sorted(((n // d,), d) for d in (
                gcd(n, pair.r), gcd(n, pair.s), gcd(n, pair.r + pair.s)))
            assert sorted((o.filtration.orders, o.orbit_size)
                          for o in pair.ramification) == stated, pair
            assert {o.filtration.p for o in pair.ramification} == {0}, pair
            if pair.genus >= 2:
                assert Kummer(*pair[:3]).ramification is pair.ramification
    # two orbits of g + 1 roots with stabiliser 2, and two of size 2 over
    # x = 0 and infinity with stabiliser g + 1
    for g in range(2, 41, 2):
        assert sorted((o.filtration.p, o.filtration.orders, o.orbit_size)
                      for o in Hyperelliptic(g, "l").ramification) == sorted(
            [(0, (2,), g + 1)] * 2 + [(0, (g + 1,), 2)] * 2), g


# --- model constructors and genus formulas ----------------------------------


def test_model_genus_examples():
    assert ASPower(5, 2, 1, 0).genus == 2
    assert ASPower(5, 2, 1, 0).n == 10
    assert Homma(5).genus == 2
    assert Homma(5).n == 5
    assert Hyperelliptic(2, 2).genus == 2
    assert Hyperelliptic(2, 2).n == 6
    assert ASRational(5, 1, 1, -1).genus == 4
    assert ASRational(5, 1, 1, -1).n == 10
    assert Kummer(5, 1, 1).genus == 2


def test_degenerate_models_rejected():
    with pytest.raises(DegenerateModel):
        Homma(3)  # genus 1
    with pytest.raises(DegenerateModel):
        Kummer(6, 1, 2)  # genus 1
    with pytest.raises(DegenerateModel):
        Hyperelliptic(3, 2)  # odd genus
    with pytest.raises(DegenerateModel):
        Hyperelliptic(2, 1)
    with pytest.raises(DegenerateModel):
        ASPower(2, 3, 1, 0)  # p = 2 excluded
    with pytest.raises(DegenerateModel):
        ASRational(2, 1, 1, 1)
    with pytest.raises(DegenerateModel):
        ASPower(5, 10, 1, 0)  # m not coprime to p
    with pytest.raises(DegenerateModel):
        ASPower(5, 2, 0, 0)
    with pytest.raises(DegenerateModel):
        ASRational(5, 1, 0, 1)
    with pytest.raises(DegenerateModel):
        ASRational(7, 1, 1, -7)  # c is zero mod p
    with pytest.raises(DegenerateModel):
        ASPower(5, 2, -5, 0)  # a is zero mod p


def test_extension_field_coefficients_are_nonzero():
    # integers in [p, q) are base-p encodings of nonzero elements, so a
    # multiple of p at or above p is not a zero coefficient: a = x
    assert ASPower(5, 2, 5, 2).a == 5
    assert ASRational(7, 7, 14, 21).c == 21


def test_aspower_checks_its_genus():
    # p = 3 passes the characteristic guard, so the genus check alone
    # refuses y^3 - y = x^2, of genus 1
    with pytest.raises(DegenerateModel, match="genus 1 < 2"):
        ASPower(3, 2, 1, 0)
    assert ASPower(3, 4, 1, 0).genus == 3


def test_wild_families_share_one_genus_floor():
    # the base derives the genus from places() and refuses it below 2
    # with one message; no wild family states a genus of its own
    for model, message in (
            (lambda: Homma(3), "Homma(p=3) has genus 1 < 2"),
            (lambda: ASPower(3, 2, 1, 0),
             "ASPower(p=3, m=2, a=1, b=0) has genus 1 < 2"),
            (lambda: ASPower(5, 1, 1, 0),
             "ASPower(p=5, m=1, a=1, b=0) has genus 0 < 2")):
        with pytest.raises(DegenerateModel) as info:
            model()
        assert str(info.value) == message
    for family in (ASPower, ASRational, Homma):
        assert "genus" not in vars(family), family
        assert family.genus is families.ArtinSchreier.genus


def test_symbolic_parameters_allowed():
    assert Hyperelliptic(4, "lambda").genus == 4
    assert ASPower(7, 3, "a", "b").genus == 6


@given(st.sampled_from([5, 7, 11, 13]), st.integers(2, 12))
def test_aspower_order_strictly_exceeds_bound(p, m):
    assume(gcd(p, m) == 1)
    model = ASPower(p, m, 1, 0)
    assert 2 * model.genus + 1 < model.n


@given(st.sampled_from([5, 7, 11, 13, 17]))
def test_homma_attains_bound_exactly(p):
    model = Homma(p)
    assert 2 * model.genus + 1 == model.n


@given(st.integers(1, 15), st.integers(2, 40))
def test_hyperelliptic_genus_is_parameter_free(half_g, lam):
    g = 2 * half_g
    assume(lam not in (0, 1))
    assert Hyperelliptic(g, lam).genus == g
    assert Hyperelliptic(g, lam).n == 2 * g + 2


# --- place in the classification --------------------------------------------

CHARACTERISTICS = [0] + [p for p in range(3, 32) if is_prime(p)]
WILD_PRIMES = CHARACTERISTICS[1:]


def _accepted(family, *params):
    """[the model], or [] where the constructor rejects the parameters."""
    try:
        return [family(*params)]
    except DegenerateModel:
        return []


def _sweep_models():
    from cycliccurves.classify import primitive_pairs

    for n in range(3, 41):
        for pair in primitive_pairs(n):
            if pair.genus >= 2:
                yield Kummer(*pair[:3])
    for g in range(2, 41, 2):
        yield Hyperelliptic(g, "lambda")
    for p in WILD_PRIMES:  # Homma(3) has genus 1 and is refused
        for m in range(2, 41):
            yield from _accepted(ASPower, p, m, "a", "b")
        yield from _accepted(ASRational, p, "a", "b", "c")
        yield from _accepted(Homma, p)


def _stated_orbits(model):
    """N and the (orders, orbit size) of every short orbit, as each wild
    family stated them by hand before one rule derived them from the
    poles of f."""
    p = model.p
    if isinstance(model, ASPower):
        m = model.m
        return p * m, (((p * m,) + (p,) * m, 1), ((m,), p))
    if isinstance(model, ASRational):
        return 2 * p, (((p, p), 2), ((2,), p), ((2,), p))
    return p, (((p, p, p), 1),)


def _stated_genus(model):
    """The genus as each wild family stated it in closed form before one
    rule derived it from the poles of f."""
    p = model.p
    if isinstance(model, ASPower):
        return (p - 1) * (model.m - 1) // 2
    if isinstance(model, ASRational):
        return p - 1
    return (p - 1) // 2


def test_ramification_gives_the_genus():
    seen = set()
    for model in _sweep_models():
        seen.add(type(model))
        n, ram = model.n, model.ramification
        assert rh_genus_wild(n, 0, ram) == model.genus, model
        if model.wild:
            p = model.p
            assert n % p == 0
            assert (n, tuple((o.filtration.orders, o.orbit_size)
                             for o in ram)) == _stated_orbits(model), model
            assert model.genus == _stated_genus(model), model
            # Stichtenoth, Prop. 3.7.8 needs every pole of f prime to p
            assert all(m % p for _, m in model.places() if m), model
        else:
            # tame: one level each, in the form that does not fix p
            assert all(o.filtration.p == 0 and len(o.filtration.orders) == 1
                       for o in ram), model
            sig = Signature(0, tuple(o.filtration.o0 for o in ram))
            assert lcm(*sig.indices) == n
            assert rh_genus_tame(n, sig.g0, sig) == model.genus, model
    assert seen == set(FAMILIES)
    assert {(type(m), m.p) for m in _sweep_models() if m.wild} >= {
        (ASPower, 3), (ASRational, 3)}


def test_wild_orbit_data_are_interned():
    # ASPower(5, 3, a, b) has one pole of order 3 at infinity whatever
    # a and b are: both models read one datum
    first, second = (ASPower(5, 3, 1, 0).ramification,
                     ASPower(5, 3, 2, 1).ramification)
    assert first[0] is second[0]
    assert all(a is b for a, b in zip(first, second))


def test_repeated_ramification_builds_no_profile(monkeypatch):
    models = [ASPower(5, 3, 1, 0), ASRational(7, 1, 1, 4), Homma(11),
              Kummer(7, 1, 2), Hyperelliptic(4, "l")]
    before = [model.ramification for model in models]
    built = []
    post_init = ramification.FiltrationProfile.__post_init__

    def counting(profile):
        built.append(profile.orders)
        post_init(profile)

    monkeypatch.setattr(ramification.FiltrationProfile, "__post_init__",
                        counting)
    assert [model.ramification for model in models] == before
    assert built == []


def _accepted_models(p):
    """Every symbolic non-Kummer model a constructor accepts in
    characteristic p (the hyperelliptic one only where p does not divide
    its order 2g + 2), for genus up to 40."""
    return {
        Hyperelliptic: [model for h in range(41)
                        for model in _accepted(Hyperelliptic, h, "lambda")
                        if p == 0 or (2 * h + 2) % p],
        ASPower: [model for m in range(82)
                  for model in _accepted(ASPower, p, m, "a", "b")],
        ASRational: _accepted(ASRational, p, "a", "b", "c"),
        Homma: _accepted(Homma, p),
    }


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_of_genus_matches_brute_force(p):
    accepted = _accepted_models(p)
    assert set(accepted) == set(FAMILIES[1:])
    for g in range(2, 41):
        for family, models in accepted.items():
            found = list(family.of_genus(p, g))
            for model in found:
                assert type(model) is family
                assert model.genus == g
                assert model.n >= 2 * g + 1
            assert found == [m for m in models if m.genus == g], (
                family, p, g)


# --- generators --------------------------------------------------------------


def test_point_map_roots_of_unity():
    # the generator scales y (Kummer) or x by a root of unity of order
    # n, g + 1 and m; the other two families need none
    def image_of_one_one(model, p):
        return model.point_map(field(p, 1))((1, 1))

    def order(z, p):
        return next(k for k in range(1, p) if pow(int(z), k, p) == 1)

    x, y = image_of_one_one(Kummer(5, 1, 1), 11)
    assert x == 1 and order(y, 11) == 5
    x, y = image_of_one_one(Hyperelliptic(2, 3), 7)
    assert order(x, 7) == 3 and y == 6
    x, y = image_of_one_one(ASPower(5, 2, 1, 0), 5)
    assert order(x, 5) == 2 and y == 2
    assert image_of_one_one(ASRational(5, 1, 1, -1), 5) == (1, 2)
    assert image_of_one_one(Homma(7), 7) == (1, 2)


def test_generator_order_matches_cyclic_order():
    # the permutation of the affine points has order exactly the
    # model's n, or verify_automorphism raises
    for model, p in [(Kummer(7, 1, 2), 29), (Hyperelliptic(4, 5), 11),
                     (ASPower(7, 2, 3, 1), 7), (ASRational(5, 1, 1, 4), 5),
                     (Homma(11), 11)]:
        report = verify_automorphism(model, field(p, 1))
        assert report.order == model.n, model


# --- the additive left side b*y^p + c*y -------------------------------------


def _fibre_matches_histogram(fld, b, c):
    """Check the closed-form fibre against a histogram of lhs over y;
    True when the map has a kernel of size p."""
    lhs, fibre = families._additive_lhs(fld, b, c)
    counts = np.bincount(lhs(fld.elements()), minlength=fld.q)
    assert fibre(fld.elements()).tolist() == counts.tolist(), (fld, b, c)
    return counts.max() == fld.p


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                 (5, 3), (7, 1), (7, 2)])
def test_additive_fibre_is_the_histogram_for_every_coefficient_pair(p, k):
    fld = field(p, k)
    kernels = [_fibre_matches_histogram(fld, b, c)
               for b in range(1, fld.q) for c in range(1, fld.q)]
    # -c/b is a (p-1)-th power for one pair in p - 1: both cases occur
    assert kernels.count(True) * (p - 1) == len(kernels)


@pytest.mark.parametrize("p,k", [(3, 5), (3, 8), (5, 4), (5, 5), (5, 6),
                                 (7, 3), (7, 4)])
def test_additive_fibre_on_seeded_coefficients(p, k):
    fld = field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    kernels = []
    for b, c, lam in rng.integers(1, fld.q, (12, 3)).tolist():
        kernels.append(_fibre_matches_histogram(fld, b, c))
        # c = -b*lam^(p-1) puts lam*F_p in the kernel
        c = int(fld.neg(fld.mul(b, fld.pow(lam, p - 1))))
        assert _fibre_matches_histogram(fld, b, c)
    assert not all(kernels)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_asrational_fast_count_is_naive_over_every_small_tower_field(p):
    rng = np.random.default_rng(p)
    k = 1
    while p**k <= 10**4:
        fld = field(p, k)
        for a, b, c in rng.integers(1, fld.q, (3, 3)).tolist():
            model = ASRational(p, a, b, c)
            assert count_places(model, fld) == count_places_naive(
                model, fld), (model, fld)
        k += 1
