import random

import pytest

from cycliccurves.families import (
    ASPower,
    ASRational,
    AutomorphismDescriptor,
    Homma,
    Hyperelliptic,
    Kummer,
    identity_descriptor,
)
from cycliccurves.fforacle import (
    FieldTooLarge,
    FiniteField,
    HasseWeilViolation,
    InsufficientCounts,
    NotAnAutomorphism,
    OrderMismatch,
    PlaceCountSeries,
    PreconditionViolated,
    affine_points,
    count_places,
    count_places_naive,
    count_series,
    expected_affine_fixed,
    field,
    verify_automorphism,
    zeta_genus,
)

SMALL_FIELDS = [(5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2), (3, 4)]


# --- field arithmetic --------------------------------------------------------


def test_deterministic_modulus():
    assert field(5, 1).modulus == (0, 1)
    assert field(3, 2).modulus == (1, 0, 1)  # x^2 + 1, least irreducible


def test_reducible_modulus_rejected():
    with pytest.raises(PreconditionViolated):
        FiniteField(3, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(PreconditionViolated):
        FiniteField(3, 2, modulus=(2, 0, 1))  # x^2 - 1 splits


def test_field_caps_and_validation():
    with pytest.raises(FieldTooLarge):
        FiniteField(3, 21)  # 3^21 > 2^31
    with pytest.raises(PreconditionViolated):
        FiniteField(4, 1)
    with pytest.raises(PreconditionViolated):
        FiniteField(2, 5)


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
    assert fld.element_order(z) == 8
    with pytest.raises(PreconditionViolated):
        field(7, 1).element_of_order(5)


@pytest.mark.parametrize("p,k", [(7, 1), (5, 2)])
def test_num_nth_roots_against_enumeration(p, k):
    fld = field(p, k)
    for n in (2, 3, 4, 6):
        for c in fld.elements():
            expected = sum(1 for y in fld.elements() if fld.pow(y, n) == c)
            assert fld.num_nth_roots(c, n) == expected


def test_lift_is_a_field_embedding():
    small, big = field(3, 2), field(3, 4)
    rng = random.Random(9)
    for _ in range(80):
        a, b = rng.randrange(9), rng.randrange(9)
        la, lb = big.lift_from(a, small), big.lift_from(b, small)
        assert big.lift_from(small.add(a, b), small) == big.add(la, lb)
        assert big.lift_from(small.mul(a, b), small) == big.mul(la, lb)
    assert big.lift_from(2, small) == 2  # prime subfield is untouched


# --- place counting -----------------------------------------------------------


FROZEN_COUNTS = [
    (Kummer.of(5, 1, 1), 11, 1, 13),
    (Kummer.of(6, 1, 1), 13, 1, 16),
    (Kummer.of(8, 1, 3), 3, 2, 14),
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
    model = Kummer.of(5, 1, 1)
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
    with pytest.raises(PreconditionViolated):
        count_places(Kummer.of(5, 1, 1), field(7, 1))  # 5 does not divide 6
    with pytest.raises(PreconditionViolated):
        count_places(Homma(5), field(7, 1))  # wrong characteristic
    with pytest.raises(PreconditionViolated):
        count_places(ASPower(5, 3, 1, 0), field(5, 1))  # 3 does not divide 4
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(2, -6), field(7, 1))  # lambda = 1 in F_7
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(2, "lambda"), field(7, 1))  # symbolic
    with pytest.raises(PreconditionViolated):
        count_places(Hyperelliptic(6, 3), field(7, 1))  # p divides g + 1


def test_count_series_and_caps():
    series = count_series(Homma(5), field(5, 1), 4)
    assert series.counts == (6, 6, 126, 526)
    assert series.q == 5
    with pytest.raises(FieldTooLarge):
        count_series(Homma(5), field(5, 1), 4, max_field_size=100)


def test_counting_refuses_untabulated_extension_fields():
    # 29^6 < 2^31, but extension-field arithmetic needs exp/log tables,
    # which stop at 2^22, so the field is refused at construction
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


def test_zeta_genus_insufficient_counts():
    series = PlaceCountSeries(Homma(5), 5, (6, 6))
    with pytest.raises(InsufficientCounts):
        zeta_genus(series, 2)


@pytest.mark.parametrize("model,p,k", [
    (Kummer.of(5, 1, 1), 11, 1),
    (Homma(5), 5, 1),
    (Hyperelliptic(2, 3), 7, 1),
])
def test_zeta_genus_recovers_formula_genus(model, p, k):
    g = model.genus()
    series = count_series(model, field(p, k), 2 * g)
    assert zeta_genus(series, g) == g


# --- automorphism verification ---------------------------------------------------


def test_kummer_automorphism_report():
    model = Kummer.of(5, 1, 1)
    report = verify_automorphism(model, field(11, 1))
    assert report.order == 5
    assert report.fixed_points == ((0, 0), (1, 0))
    assert report.fixed_points == expected_affine_fixed(model)
    assert report.point_count == 12
    assert report.orbit_sizes == ((1, 2), (5, 2))


def test_homma_automorphism_no_affine_fixed_points():
    report = verify_automorphism(Homma(5), field(5, 1))
    assert report.order == 5
    assert report.fixed_points == ()
    assert report.point_count == 5


def test_identity_descriptor_fixes_everything():
    model = Homma(5)
    report = verify_automorphism(model, field(5, 1), identity_descriptor())
    assert report.order == 1
    assert len(report.fixed_points) == report.point_count


def test_order_mismatch_detected():
    # over F_5 every affine point of this curve has x = 0, so the
    # order-10 generator only shows its order-5 part
    with pytest.raises(OrderMismatch):
        verify_automorphism(ASPower(5, 2, 1, 0), field(5, 1))


def test_aspower_order_realized_in_larger_field():
    report = verify_automorphism(ASPower(5, 2, 1, 0), field(5, 3))
    assert report.order == 10


def test_not_an_automorphism_detected():
    # a root of unity of the wrong order does not preserve the curve
    bogus = AutomorphismDescriptor(5, "(x, y) -> (x, zeta*y)", zeta_order=3)
    with pytest.raises(NotAnAutomorphism):
        verify_automorphism(Kummer.of(5, 1, 1), field(31, 1), bogus)


def test_zeta_instantiation_precondition():
    with pytest.raises(PreconditionViolated):
        # no 5th root of unity in F_13
        bogus = AutomorphismDescriptor(5, "(x, y) -> (x, zeta*y)", zeta_order=5)
        verify_automorphism(Kummer.of(6, 1, 1), field(13, 1), bogus)


def test_asrational_orbit_structure():
    report = verify_automorphism(ASRational(5, 1, 1, 4), field(5, 1))
    assert report.order == 10
    assert report.point_count == 10
    assert report.orbit_sizes == ((10, 1),)


def test_orbit_sizes_partition_points():
    for model, p, k in [(Kummer.of(6, 1, 1), 13, 1),
                        (Hyperelliptic(2, 3), 7, 1),
                        (Homma(7), 7, 1)]:
        report = verify_automorphism(model, field(p, k))
        assert sum(s * m for s, m in report.orbit_sizes) == report.point_count
        assert all(report.order % s == 0 for s, _ in report.orbit_sizes)


def test_affine_points_lie_on_curve():
    fld = field(7, 1)
    model = Hyperelliptic(2, 3)
    pts = affine_points(model, fld)
    for x, y in pts:
        lhs = fld.mul(y, y)
        xe = fld.pow(x, 3)
        rhs = fld.mul(fld.sub(xe, 1), fld.sub(xe, 3))
        assert lhs == rhs
