import json
import time
from dataclasses import replace

import pytest

from cycliccurves.classify import canonical_pair
from cycliccurves.cli import main, model_to_spec, parse_model_spec
from cycliccurves.families import (
    FAMILIES,
    ASPower,
    ASRational,
    Homma,
    Hyperelliptic,
    Kummer,
    PrimitivePair,
)
from cycliccurves.fforacle import count_places, field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# --- classify ----------------------------------------------------------------


def test_classify_json_records(capsys):
    code, out, _ = run(capsys, "classify", "--p", "5", "--genus", "2")
    assert code == 0
    records = json_lines(out)
    assert [(r["n"], r["branch"]) for r in records] == [
        (5, "III-Homma"), (6, "I-Kummer"), (6, "I-Hyperelliptic"),
        (8, "I-Kummer"), (10, "II-ASPower")]
    assert all(r["schema_version"] == "1" for r in records)
    assert records[1]["signature"] == {"g0": 0, "indices": [3, 6, 6]}
    assert records[0]["orbits"] == [{"orders": [5, 5, 5], "size": 1}]


def test_classify_json_round_trips_byte_identical(capsys):
    code, out, _ = run(capsys, "classify", "--p", "5", "--genus", "2",
                       "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        reserialized = json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))
        assert reserialized == line


def test_classify_characteristic_two_rejected(capsys):
    code, out, err = run(capsys, "classify", "--p", "2", "--genus", "3")
    assert code == 2
    assert out == ""
    assert "characteristic 2 unsupported" in err
    assert len(err.strip().splitlines()) == 1


def test_classify_refuses_psi_12(capsys):
    # the least strong pseudoprime to the twelve prime bases up to 37
    psi_12 = "3317044064679887385961981"
    code, out, err = run(capsys, "classify", "--p", psi_12, "--genus", "2")
    assert code == 2
    assert out == ""
    assert f"characteristic {psi_12} unsupported" in err


def test_classify_bad_genus(capsys):
    code, _, err = run(capsys, "classify", "--p", "5", "--genus", "1")
    assert code == 2 and "genus" in err


def test_classify_bad_order(capsys):
    code, out, err = run(capsys, "classify", "--p", "5", "--genus", "4",
                         "--n", "-7")
    assert code == 2
    assert out == ""
    assert "group order" in err


def test_classify_characteristic_zero(capsys):
    code, out, _ = run(capsys, "classify", "--p", "0", "--genus", "2")
    assert code == 0
    assert all(r["branch"].startswith("I-") for r in json_lines(out))


def test_classify_table_and_csv(capsys):
    code, out, _ = run(capsys, "classify", "--p", "5", "--genus", "2",
                       "--format", "table")
    assert code == 0 and "I-Kummer" in out
    code, out, _ = run(capsys, "classify", "--p", "5", "--genus", "2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("branch,")


# --- pairs ---------------------------------------------------------------------


def test_pairs_listing(capsys):
    code, out, _ = run(capsys, "pairs", "--n", "5")
    assert code == 0
    records = json_lines(out)
    assert [(r["r"], r["s"]) for r in records] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


def test_pairs_genus_filter_and_canonical(capsys):
    code, out, _ = run(capsys, "pairs", "--n", "6", "--genus", "2")
    assert code == 0
    assert [(r["r"], r["s"]) for r in json_lines(out)] == [
        (1, 1), (1, 4), (4, 1)]
    code, out, _ = run(capsys, "pairs", "--n", "6", "--genus", "2",
                       "--canonical")
    assert [(r["r"], r["s"]) for r in json_lines(out)] == [(1, 1)]


def test_pairs_canonical_matches_canonical_pair(capsys):
    for n in range(3, 41):
        code, out, _ = run(capsys, "pairs", "--n", str(n))
        assert code == 0
        for rec in json_lines(out):
            rep = canonical_pair(n, rec["r"], rec["s"])
            assert rec["canonical"] == [rep.r, rep.s], rec


def test_pairs_walks_each_orbit_once(capsys):
    # one orbit walk per pair, not per orbit, took 4-6 s at n = 300 and
    # 22 s at n = 400; one per orbit takes about 1.3 s at n = 400
    start = time.perf_counter()
    code, out, _ = run(capsys, "pairs", "--n", "400")
    assert code == 0 and out
    assert time.perf_counter() - start < 5


def test_pairs_output_streams(capsys, monkeypatch):
    # json and csv records are printed as they come, so the records
    # before a failure are out; a table waits for all of them
    def two_then_fail(n):
        yield from (PrimitivePair(n, 1, 1), PrimitivePair(n, 1, 2))
        raise ValueError("enumeration failed")

    monkeypatch.setattr("cycliccurves.cli.primitive_pairs", two_then_fail)
    code, out, err = run(capsys, "pairs", "--n", "5")
    assert code == 2 and "enumeration failed" in err
    assert [(r["r"], r["s"]) for r in json_lines(out)] == [(1, 1), (1, 2)]
    code, out, _ = run(capsys, "pairs", "--n", "5", "--format", "csv")
    assert code == 2
    assert out.splitlines() == ["canonical,command,genus,n,r,s,schema_version",
                                "1 1,pairs,2,5,1,1,1", "1 1,pairs,2,5,1,2,1"]
    code, out, _ = run(capsys, "pairs", "--n", "5", "--format", "table")
    assert (code, out) == (2, "")


def test_pairs_rejects_small_n(capsys):
    code, _, err = run(capsys, "pairs", "--n", "2")
    assert code == 2 and err


def test_oversized_orders_fail_fast(capsys):
    # refused before any pair is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "pairs", "--n", "100000")
    assert (code, out) == (2, "") and "orders up to 2897" in err
    code, out, err = run(capsys, "classify", "--p", "0", "--genus", "800")
    assert (code, out) == (2, "") and "orders up to 2897" in err
    assert time.perf_counter() - start < 1


def test_pairs_refuses_a_negative_genus(capsys):
    code, out, err = run(capsys, "pairs", "--n", "7", "--genus", "-1")
    assert (code, out) == (2, "")
    assert err == "error: genus must be an int >= 0, got -1\n"
    # genus 0 and 1 stay filters: no pair has genus 0, and (1, 1) mod 3
    # has genus 1
    code, out, _ = run(capsys, "pairs", "--n", "7", "--genus", "0")
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "pairs", "--n", "3", "--genus", "1")
    assert code == 0
    assert [(r["r"], r["s"]) for r in json_lines(out)] == [(1, 1)]


# --- signatures ------------------------------------------------------------------


def test_signatures_records(capsys):
    code, out, _ = run(capsys, "signatures", "--n", "6", "--genus", "2")
    assert code == 0
    assert [r["indices"] for r in json_lines(out)] == [[2, 2, 3, 3], [3, 6, 6]]
    code, out, _ = run(capsys, "signatures", "--n", "5", "--genus", "2")
    assert [r["indices"] for r in json_lines(out)] == [[5, 5, 5]]


def test_signatures_below_bound_regime(capsys):
    # the enumerator accepts n < 2g + 1; here it finds a positive-genus
    # quotient type
    code, out, _ = run(capsys, "signatures", "--n", "8", "--genus", "5")
    assert code == 0
    records = json_lines(out)
    assert [(r["g0"], r["indices"]) for r in records] == [
        (0, [2, 4, 8, 8]), (1, [2, 2])]


def test_signatures_out_of_range_fail_fast(capsys):
    # refused before n is factored or a multiset is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "signatures", "--n", "2305843009213693951",
                         "--genus", "2")
    assert (code, out) == (2, "") and "2**32" in err
    code, out, err = run(capsys, "signatures", "--n", "3", "--genus", "1000")
    assert (code, out) == (2, "") and "1002 ramification indices" in err
    code, out, err = run(capsys, "signatures", "--n", "60", "--genus", "480")
    assert (code, out) == (2, "") and "2032410 candidate" in err
    assert time.perf_counter() - start < 1


# --- verify --------------------------------------------------------------------


def test_verify_homma_with_zeta(capsys):
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                       "--zeta-depth", "4")
    assert code == 0
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["places"]["count"] == 6
    assert by_check["automorphism"]["order"] == 5
    assert by_check["zeta"]["counts"] == [6, 6, 126, 526]
    assert by_check["zeta"]["inferred_genus"] == 2
    assert by_check["summary"]["ok"] is True


def test_verify_kummer_over_f11(capsys):
    code, out, _ = run(capsys, "verify", "--model", "kummer:5,1,1",
                       "--q", "11")
    assert code == 0
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["automorphism"]["order"] == 5
    assert by_check["automorphism"]["fixed_points"] == [[0, 0], [1, 0]]


def test_verify_precondition_failure_is_usage_error(capsys, monkeypatch):
    # the count runs over F_7, but the generator needs an element of
    # order 5, and 5 does not divide 6
    code, _, err = run(capsys, "verify", "--model", "kummer:5,1,1", "--q", "7")
    assert code == 2
    assert "no element of order 5" in err
    # the missing root of unity is reported before any place is counted

    def no_count(model, fld):
        raise AssertionError("places counted before the generator")

    monkeypatch.setattr("cycliccurves.fforacle.count_places", no_count)
    code, out, err = run(capsys, "verify", "--model", "kummer:5,1,1",
                         "--q", "4194287")
    assert (code, out) == (2, "")
    assert "no element of order 5" in err


def test_verify_refuses_a_kummer_order_divisible_by_p(capsys):
    code, out, err = run(capsys, "verify", "--model", "kummer:5,1,1",
                         "--q", "5")
    assert (code, out) == (2, "")
    assert "p=5 divides n=5; y^n = x^r(1-x)^s is purely inseparable" in err


def test_failed_zeta_fit_names_the_count(capsys, monkeypatch):
    # one count over F_125 broken by 2: genus 2 predicts it, and the
    # record names it; the other records are unchanged
    from cycliccurves import fforacle
    count = fforacle.count_places
    monkeypatch.setattr(fforacle, "count_places", lambda model, fld: count(
        model, fld) + 2 * (fld.q == 125))
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                       "--zeta-depth", "4")
    records = json_lines(out)
    assert code == 1 and [r["ok"] for r in records] == [
        True, True, False, False]
    zeta = records[2]
    assert zeta["counts"] == [6, 6, 128, 526]
    assert zeta["inferred_genus"] == -1
    assert zeta["reason"] == (
        "genus 0 predicts N_2 = 26, counted 6; "
        "genus 1 predicts N_2 = 36, counted 6; "
        "genus 2 predicts N_3 = 126, counted 128")
    monkeypatch.setattr(fforacle, "count_places", count)
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                       "--zeta-depth", "4")
    assert code == 0 and "reason" not in json_lines(out)[2]


def with_extra_places(monkeypatch, family, extra):
    """Give every equation of `family` `extra` places beyond its affine
    points, in the places record and in every tower count alike."""
    equation = family.equation
    monkeypatch.setattr(family, "equation", lambda model, fld: replace(
        equation(model, fld), extra=extra))


def test_verify_evaluates_the_right_side_once(capsys, monkeypatch):
    # one listing of the affine points serves the places and the
    # automorphism records, for every family and on a refused order
    calls = []
    for family in FAMILIES:
        def counted(model, fld, equation=family.equation):
            eq = equation(model, fld)
            return replace(eq, rhs=lambda x: calls.append(1) or eq.rhs(x))
        monkeypatch.setattr(family, "equation", counted)
    for spec, q, code in (("kummer:5,1,1", "11", 0), ("hyper:2,3", "7", 0),
                          ("aspower:5,2,1,0", "125", 0),
                          ("aspower:5,2,1,0", "5", 1),
                          ("asrational:5,1,1,4", "5", 0),
                          ("homma:5", "5", 0)):
        calls.clear()
        assert run(capsys, "verify", "--model", spec, "--q", q)[0] == code
        assert len(calls) == 1, spec


def test_a_refused_generator_keeps_the_listing_count(capsys, monkeypatch):
    # y -> zeta_3 y does not preserve y^5 = x(1 - x) over F_31: the
    # automorphism record fails, and the places record still reads the
    # listing, the count of count_places
    monkeypatch.setattr(Kummer, "point_map", lambda model, fld: (
        lambda pt: (pt[0], fld.mul(fld.element_of_order(3), pt[1]))))
    code, out, _ = run(capsys, "verify", "--model", "kummer:5,1,1",
                       "--q", "31")
    places, automorphism, _ = json_lines(out)
    assert code == 1 and "is not on the curve" in automorphism["error"]
    assert places["count"] == count_places(Kummer(5, 1, 1), field(31))


def test_count_out_of_bounds_fails_the_places_record(capsys, monkeypatch):
    # genus 2 over F_5 allows 6 +- 8.9 places, so 5 affine points and 10
    # extra places, 15, are out of bounds; the generator's record still
    # passes
    with_extra_places(monkeypatch, Homma, 10)
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5")
    assert code == 1
    assert out == (
        '{"check":"places","command":"verify","count":15,"genus_formula":2,'
        '"model":"homma:5","ok":false,"q":5,"schema_version":"1"}\n'
        '{"affine_points":5,"check":"automorphism","command":"verify",'
        '"expected_order":5,"fixed_points":[],"model":"homma:5","ok":true,'
        '"order":5,"q":5,"schema_version":"1"}\n'
        '{"check":"summary","command":"verify","model":"homma:5","ok":false,'
        '"q":5,"schema_version":"1"}\n')


def test_count_out_of_bounds_fails_the_zeta_record(capsys, monkeypatch):
    # the same count over the tower: the zeta record fails and names it,
    # and every record is still printed
    with_extra_places(monkeypatch, Homma, 10)
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                       "--zeta-depth", "4")
    assert code == 1
    assert out == (
        '{"check":"places","command":"verify","count":15,"genus_formula":2,'
        '"model":"homma:5","ok":false,"q":5,"schema_version":"1"}\n'
        '{"affine_points":5,"check":"automorphism","command":"verify",'
        '"expected_order":5,"fixed_points":[],"model":"homma:5","ok":true,'
        '"order":5,"q":5,"schema_version":"1"}\n'
        '{"check":"zeta","command":"verify",'
        '"error":"N_1=15 outside Hasse-Weil bound for genus 2",'
        '"model":"homma:5","ok":false,"q":5,"schema_version":"1"}\n'
        '{"check":"summary","command":"verify","model":"homma:5","ok":false,'
        '"q":5,"schema_version":"1"}\n')


def test_unexpected_fixed_points_fail_the_automorphism_record(
        capsys, monkeypatch):
    # the generator fixes (0, 0) and (1, 0); a model that claims no
    # fixed point fails on them, with the order still right
    monkeypatch.setattr(Kummer, "affine_fixed", ())
    code, out, _ = run(capsys, "verify", "--model", "kummer:5,1,1",
                       "--q", "11")
    assert code == 1
    assert out == (
        '{"check":"places","command":"verify","count":13,"genus_formula":2,'
        '"model":"kummer:5,1,1","ok":true,"q":11,"schema_version":"1"}\n'
        '{"affine_points":12,"check":"automorphism","command":"verify",'
        '"expected_order":5,"fixed_points":[[0,0],[1,0]],'
        '"model":"kummer:5,1,1","ok":false,"order":5,"q":11,'
        '"schema_version":"1"}\n'
        '{"check":"summary","command":"verify","model":"kummer:5,1,1",'
        '"ok":false,"q":11,"schema_version":"1"}\n')


def test_successive_calls_share_no_options(capsys):
    # one parser serves every call of the process; no option may carry
    # over from one call to the next
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                       "--zeta-depth", "4")
    assert code == 0 and json_lines(out)[2]["check"] == "zeta"
    code, out, err = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                         "--zeta-depth", "2")
    assert (code, out) == (2, "") and "need counts over 4" in err
    code, out, _ = run(capsys, "verify", "--model", "homma:5", "--q", "5")
    assert code == 0
    assert [r["check"] for r in json_lines(out)] == [
        "places", "automorphism", "summary"]
    run(capsys, "pairs", "--n", "6", "--canonical")
    code, out, _ = run(capsys, "pairs", "--n", "6")
    assert code == 0 and len(json_lines(out)) == 9


def test_verify_mismatch_gives_exit_one(capsys):
    # order-10 generator collapses to order 5 on the tiny point set
    code, out, _ = run(capsys, "verify", "--model", "aspower:5,2,1,0",
                       "--q", "5")
    assert code == 1
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["summary"]["ok"] is False
    assert "order" in by_check["automorphism"]["error"]


def test_verify_malformed_specs(capsys):
    for spec in ("kummer:5,1", "frobenius:3", "hyper:2", "homma:x"):
        code, _, err = run(capsys, "verify", "--model", spec, "--q", "11")
        assert code == 2, spec
        assert err


def test_verify_non_prime_power_q(capsys):
    code, _, err = run(capsys, "verify", "--model", "homma:5", "--q", "10")
    assert code == 2 and "prime power" in err


def test_verify_oversized_q_fails_fast(capsys):
    # q is prime but far beyond 2^22: refused before any factoring
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--model", "homma:5",
                         "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "exceeds the field ceiling 2^22" in err
    # the least prime above 2^22, a q above it that is no prime power
    # (refused for its size, before factoring), and a zeta tower past it
    for q in ("4194319", str(2**22 + 2)):
        code, out, err = run(capsys, "verify", "--model", "homma:5",
                             "--q", q)
        assert (code, out) == (2, "") and f"q = {q} exceeds" in err
    code, out, err = run(capsys, "verify", "--model", "homma:5", "--q", "5",
                         "--zeta-depth", "10")
    assert (code, out) == (2, "") and "ceiling 2^22" in err
    assert time.perf_counter() - start < 1


def test_bad_zeta_depth_is_refused_before_any_field(capsys, monkeypatch):
    # a negative depth, one below 2g = 8 (on a genus-4 model whose
    # generator exists over F_5) and a tower past 2^22 all exit 2
    # before the first field is built
    def no_field(p, k=1):
        raise AssertionError(f"field F_{p}^{k} built")

    monkeypatch.setattr("cycliccurves.fforacle.field", no_field)
    for spec, q, depth, message in (
            ("asrational:5,1,1,4", "5", "-1", "depth must be >= 0, got -1"),
            ("asrational:5,1,1,4", "5", "7", "need counts over 8 extensions"),
            ("kummer:5,1,1", "4194301", "2", "ceiling 2^22")):
        code, out, err = run(capsys, "verify", "--model", spec, "--q", q,
                             "--zeta-depth", depth)
        assert (code, out) == (2, "") and message in err, depth


def test_verify_missing_root_of_unity_is_usage_error(capsys):
    # hyper:2,3 is defined over F_11, but its generator needs a cube root
    # of unity, and 3 does not divide 10
    code, out, err = run(capsys, "verify", "--model", "hyper:2,3",
                         "--q", "11")
    assert (code, out) == (2, "")
    assert "no element of order 3" in err


def test_verify_field_without_affine_points_is_usage_error(capsys):
    # asrational:3,1,1,2 has its two rational places over x = 0 and
    # infinity only, so F_3 leaves no order to check: the field is
    # refused, not the generator, whose order 6 shows over F_9
    code, out, err = run(capsys, "verify", "--model", "asrational:3,1,1,2",
                         "--q", "3")
    assert (code, out) == (2, "")
    assert "F_3 has no affine point to check the order on" in err
    code, out, _ = run(capsys, "verify", "--model", "asrational:3,1,1,2",
                       "--q", "9")
    assert code == 0
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["automorphism"]["order"] == 6


def test_verify_extension_field_parameter(capsys):
    # lambda = 3 + x in F_49, written as a dotted coefficient string
    code, out, _ = run(capsys, "verify", "--model", "hyper:2,3.1", "--q", "49")
    assert code == 0
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["automorphism"]["order"] == 6


def test_verify_extension_field_coefficient_multiple_of_p(capsys):
    # a = x is encoded as 5 in F_25: nonzero, though a multiple of p
    code, out, _ = run(capsys, "verify", "--model", "aspower:5,2,0.1,2",
                       "--q", "25", "--zeta-depth", "4")
    assert code == 0
    by_check = {r["check"]: r for r in json_lines(out)}
    assert by_check["zeta"]["counts"] == [46, 526, 16126, 388126]
    assert by_check["zeta"]["inferred_genus"] == 2
    code, out, _ = run(capsys, "verify", "--model", "asrational:5,0.1,1,4",
                       "--q", "25")
    assert code == 0


def test_missing_required_flag_exits_two(capsys):
    assert main(["classify", "--genus", "2"]) == 2
    capsys.readouterr()


def test_verify_has_no_format_option(capsys):
    # verify's records are JSON by a parser default, not by an option
    code, out, err = run(capsys, "verify", "--model", "kummer:5,1,1",
                         "--q", "11", "--format", "json")
    assert (code, out) == (2, "") and "--format" in err


# --- model spec parsing -----------------------------------------------------------


def test_model_spec_round_trip():
    for model in (Kummer(5, 1, 1), Hyperelliptic(2, 3),
                  ASPower(5, 2, 1, 0), ASRational(5, 1, 2, 4), Homma(5)):
        assert parse_model_spec(model_to_spec(model), 5) == model


def test_parse_dotted_coefficients():
    model = parse_model_spec("hyper:2,3.1", 7)
    assert model == Hyperelliptic(2, 3 + 7)
    with pytest.raises(ValueError):
        parse_model_spec("hyper:2,9.1", 7)  # digit outside [0, 7)
