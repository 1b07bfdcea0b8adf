"""Acceptance suite: one test per criterion, exact tolerances, pinned
runtime budgets.  Each test prints a single PASS/FAIL line, so running

    pytest tests/test_acceptance.py -v -s

gives a per-criterion report.
"""

import time
from contextlib import contextmanager

import pytest

from cycliccurves.classify import (
    classify,
    enumerate_signatures,
    primitive_pairs,
    verify_sasaki_bound,
)
from cycliccurves.cli import main
from cycliccurves.families import (
    ASPower,
    ASRational,
    Homma,
    Hyperelliptic,
    Kummer,
    PrimitivePair,
    kummer_genus,
)
from cycliccurves.fforacle import (
    count_places,
    count_places_naive,
    count_series,
    field,
    verify_automorphism,
    zeta_genus,
)
from cycliccurves.ramification import (
    FiltrationProfile,
    OrbitDatum,
    rh_genus_tame,
    rh_genus_wild,
)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"(runtime {elapsed:.1f}s over budget {budget_seconds}s)")
        pytest.fail(f"runtime {elapsed:.2f}s exceeds {budget_seconds}s")
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")


# The cross-validation model set: every family is represented, fields
# chosen so all preconditions hold.
ZETA_MODELS = [
    (Kummer(5, 1, 1), 11, 1),
    (Kummer(6, 1, 1), 13, 1),
    (Kummer(8, 1, 3), 3, 2),
    (Kummer(10, 1, 4), 11, 1),
    (Homma(5), 5, 1),
    (Homma(7), 7, 1),
    (ASPower(5, 2, 1, 0), 5, 1),
    (ASPower(7, 2, 1, 1), 7, 1),
    (Hyperelliptic(2, 2), 7, 1),
    (Hyperelliptic(2, 3), 7, 1),
    (ASRational(5, 1, 1, 4), 5, 1),
]

# Per-model verification fields for the orbit check; the automorphism
# order is only visible once the point set leaves the degenerate range.
ORBIT_FIELDS = {
    "kummer:5,1,1": 11,
    "kummer:6,1,1": 13,
    "kummer:8,1,3": 9,
    "kummer:10,1,4": 121,
    "homma:5": 5,
    "homma:7": 7,
    "aspower:5,2,1,0": 125,
    "aspower:7,2,1,1": 7,
    "hyper:2,2": 7,
    "hyper:2,3": 7,
    "asrational:5,1,1,4": 5,
}


def test_criterion_1_sasaki_bound_exhaustive():
    with criterion(1, "order bound, all pairs with N <= 200", 10):
        report = verify_sasaki_bound(200)
        assert report.violations == ()
        assert report.pairs_checked >= 200 * 199 // 2


def test_criterion_2_formula_signature_coherence():
    with criterion(2, "signature/genus formula coherence, N <= 100", 30):
        for n in range(3, 101):
            for pair in primitive_pairs(n):
                sig = PrimitivePair(n, pair.r, pair.s).signature
                assert rh_genus_tame(n, 0, sig) == kummer_genus(
                    n, pair.r, pair.s)


def test_criterion_3_signature_case_analysis():
    with criterion(3, "tame signature case analysis, N <= 60", 30):
        for n in range(5, 61):
            for g in range(2, (n - 1) // 2 + 1):
                for sig in enumerate_signatures(n, g):
                    assert sig.g0 == 0
                    if sig.n == 3:
                        continue
                    assert sig.indices == (2, 2, g + 1, g + 1)
                    assert n == 2 * g + 2
                    assert g % 2 == 0


def test_criterion_4_classification_self_consistency():
    with criterion(4, "classification sweep p <= 13, g <= 30", 10):
        for p in (0, 3, 5, 7, 11, 13):
            for g in range(2, 31):
                for e in classify(p, g):
                    assert e.n >= 2 * g + 1
                    assert e.genus == g
                    if e.wild:
                        assert p >= 3
                        if e.branch == "II-ASPower":
                            m = e.m
                            assert m > 1 and m % p
                            assert g == (p - 1) * (m - 1) // 2
                            assert e.n == p * m
                        elif e.branch == "II-ASRational":
                            assert g == p - 1 and e.n == 2 * p
                        else:
                            assert e.branch == "III-Homma"
                            assert g == (p - 1) // 2 and e.n == p


def test_criterion_5_zeta_oracle_cross_validation():
    assert len(ZETA_MODELS) >= 8
    with criterion(5, "zeta genus equals formula genus, 9 models", 60):
        for model, p, k in ZETA_MODELS:
            g = model.genus
            series = count_series(model, field(p, k), 2 * g)
            assert zeta_genus(series, g) == g, model


def test_criterion_6_automorphism_verification():
    from cycliccurves.cli import model_to_spec

    with criterion(6, "generator order and fixed points, 9 models", 60):
        for model, _, _ in ZETA_MODELS:
            spec = model_to_spec(model)
            q = ORBIT_FIELDS[spec]
            code = main(["verify", "--model", spec, "--q", str(q)])
            assert code == 0, spec
            # the library-level report backs the same claims
            p, k = _prime_power(q)
            report = verify_automorphism(model, field(p, k))
            assert report.order == model.n
            if isinstance(model, Kummer):
                assert report.fixed_points == ((0, 0), (1, 0))


def _prime_power(q):
    from cycliccurves.intmath import prime_factors
    p = prime_factors(q)[0]
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return p, k


def test_criterion_7_counting_oracle_equivalence():
    with criterion(7, "character-sum count equals brute force", 60):
        battery = [(model, p, k) for model, p, k in ZETA_MODELS]
        battery += [(model, p, 2 * k) for model, p, k in ZETA_MODELS
                    if (p**(2 * k)) <= 10**4]
        for model, p, k in battery:
            fld = field(p, k)
            assert fld.q <= 10**4
            assert count_places(model, fld) == count_places_naive(model, fld)


def test_criterion_8_wild_filtration_identity():
    with criterion(8, "p-squared filtration identity", 10):
        for p in (3, 5, 7, 11, 13):
            profile = FiltrationProfile(p, [p * p, p * p] + [p] * p)
            assert profile.jumps() == (1, p + 1)
            assert (p + 1 - 1) % p == 0  # the two jumps are congruent mod p
            g = rh_genus_wild(p * p, 0, [OrbitDatum(profile, 1)])
            assert p * p == 2 * g + p
