"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion."""

import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from ellsurf.catalog import CATALOG
from ellsurf.cli import build_model, main, parse_config
from ellsurf.exactalg import RatPoly, SpecialValue
from ellsurf.tatefiber import arithmetic_component_discriminant, global_invariants
from ellsurf.verify import (
    CONDITIONAL,
    PASS,
    check_q2_closed_form,
    run_verification,
    tamagawa_product,
)
from ellsurf.zeta import bad_correction, lefschetz_counts, surface_counts
from fiber_cases import synthetic_fiber
from lattice_cases import basis_trial, orthogonal_trial, yun_trial, z_triangle_trial
from lattice_lemmas import Mat, free_paired, two_term, yun_split, z_invariant

NAMES = ["x3_plus_t_f5", "x3_plus_t_f7", "legendre_f5", "generic_i1_f5"]

ALL_TYPES = (
    [(f"I{n}", s) for n in range(1, 10) for s in ("split", "nonsplit")]
    + [("II", None), ("III", None), ("IV", "split"), ("IV", "nonsplit")]
    + [("I0*", r) for r in (0, 1, 3)]
    + [(f"I{m}*", s) for m in range(1, 5) for s in ("split", "nonsplit")]
    + [("IV*", "split"), ("IV*", "nonsplit"), ("III*", None), ("II*", None)]
)


@pytest.fixture(scope="module")
def catalog_runs():
    out = {}
    for name in NAMES:
        cfg = parse_config(CATALOG[name].config_text)
        model, metadata, limits = build_model(cfg)
        t0 = time.time()
        report = run_verification(model, metadata, limits)
        out[name] = (report, time.time() - t0, model, metadata)
    return out


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_catalog_expected_values_match_the_reports(catalog_runs):
    """Every value a catalog entry lists under ``expected`` (printed by
    ``ellsurf catalog``) is the report's: counts as a prefix, bad fibers by
    place label, L and the predicted orders as strings."""
    for name, entry in CATALOG.items():
        report = catalog_runs[name][0]
        inv = report.invariants
        got = {
            "e": inv.e,
            "b2": inv.b2,
            "deg_l": inv.deg_l,
            "rho": report.rho,
            "m": report.m,
            "c_j": tamagawa_product(report.fibers),
            "fibers": {f.place.label(): f.kodaira for f in report.fibers if not f.is_good},
            "counts": report.counts[: len(entry.expected.get("counts", ()))],
            "l_poly": tuple(str(c) for c in report.l_poly.coeffs),
            "predicted_br": str(report.predicted_br),
            "predicted_sha": str(report.predicted_sha),
        }
        assert entry.expected.keys() <= got.keys(), name
        for key, want in entry.expected.items():
            assert got[key] == want, (name, key)


def test_criterion_1_dual_route_identity(catalog_runs):
    for name in NAMES:
        report, elapsed, _, _ = catalog_runs[name]
        c = _check(report, "p2_dual_route")
        assert c.status == PASS, f"{name}: {c.details}"
        assert report.p2_counts == report.p2_product
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        print(f"criterion 1 PASS [{name}] dual-route P2 equal ({elapsed:.1f}s)")


def test_catalog_polynomials_have_exact_int_coefficients(catalog_runs):
    """L and both P2 routes are integral, so every coefficient is an int:
    never a float, and no Fraction is left with denominator 1."""
    for name in NAMES:
        report, _, _, _ = catalog_runs[name]
        for poly in (report.l_poly, report.p2_product, report.p2_counts):
            assert poly.coeffs and {type(c) for c in poly.coeffs} == {int}, name


def test_criterion_2_special_value_identity(catalog_runs):
    for name in NAMES:
        report, _, _, _ = catalog_runs[name]
        c = _check(report, "special_value_product")
        assert c.status == PASS, name
        print(f"criterion 2 PASS [{name}] special-value product")
    rep = catalog_runs["x3_plus_t_f5"][0]
    assert rep.p2_star == SpecialValue(1, 1, 1, 10, 10)
    rhs = rep.l_star.mul(rep.q2_star).mul(SpecialValue(1, 1, 1, 2, 2))
    assert rhs == SpecialValue(1, 1, 1, 10, 10)
    print("criterion 2 PASS [x3_plus_t_f5] both sides equal (log q)^10")


def test_criterion_3_q2_closed_form(catalog_runs):
    for name in NAMES:
        report, _, _, _ = catalog_runs[name]
        assert _check(report, "q2_closed_form").status == PASS, name
    for deg in (1, 2):
        for kod, split in ALL_TYPES:
            f = synthetic_fiber(5, deg, kod, split)
            Q, lead, m = bad_correction([f], 5)
            assert check_q2_closed_form([f], lead).status == PASS, (kod, split, deg)
            assert lead.log_power == m == f.m_v - 1
            # Q is the local factor over all orbits divided by the identity
            # orbit's (1 - q_v t^d_v)
            assert f.components[0] == (1, 1), (kod, split)
            orbits = RatPoly([1])
            for r, _ in f.components:
                orbits = orbits * RatPoly([1] + [0] * (r * f.d_v - 1) + [-(f.q_v**r)])
            assert Q * RatPoly([1] + [0] * (f.d_v - 1) + [-f.q_v]) == orbits, (kod, split, deg)
            assert all(type(c) is int for c in Q.coeffs)
            expected = f.d_v ** (f.m_v - 1) * f.r_product()
            assert lead.value == expected, (kod, split, deg)
    print(f"criterion 3 PASS: closed form over {len(ALL_TYPES)} types x 2 degrees")


def test_criterion_4_flach_siebel_per_fiber():
    for deg in (1, 2):
        for kod, split in ALL_TYPES:
            f = synthetic_fiber(5, deg, kod, split)
            sv = arithmetic_component_discriminant(f)  # elimination of the orbit Gram rows
            c_v = f.c_v  # Tamagawa table, the independent route
            assert sv.value == Fraction(c_v * f.d_v ** (f.m_v - 1) * f.r_product())
            assert sv.log_power == f.m_v - 1, (kod, split)
    print(f"criterion 4 PASS: per-fiber discriminant identity, {len(ALL_TYPES)} types x 2 degrees")


def test_criterion_5_lattice_property_suite():
    """1000 seeded trials of each lattice identity (``lattice_cases``):
    Yun's isotropic splitting, with d_lambda = -d_lambda0 * d_mixed^2 on
    every trial, orthogonal splitting, z-invariant triangles, and basis
    independence of the discriminant; plus hand fixtures."""
    rng = random.Random(2024)
    for trial in (yun_trial, orthogonal_trial, z_triangle_trial, basis_trial):
        for _ in range(1000):
            trial(rng)

    # hyperbolic-plane hand fixture: signed identity fails, absolute holds
    U = free_paired([[0, 1], [1, 0]])
    d, d0, dm, habs, hsig = yun_split(U, Mat([[1], [0]]), Mat([[1], [0]]))
    assert habs and not hsig and d.signed_value == -1
    assert z_invariant(two_term(Mat([[3]]))) == Fraction(1, 3)
    print("criterion 5 PASS: 4 x 1000 seeded lattice trials plus hand fixtures")


def test_criterion_6_tate_shioda(catalog_runs):
    for name in NAMES:
        report, _, _, _ = catalog_runs[name]
        uncond = _check(report, "p2_order_vs_l_order")
        assert uncond.status == PASS, name
        cond = _check(report, "tate_shioda")
        assert cond.status == CONDITIONAL, name
        assert report.rho == 2 + report.rank + report.m
        print(
            f"criterion 6 PASS [{name}] rho {report.rho} = 2 + {report.rank} + {report.m}"
            f" (declared rank, CONDITIONAL)"
        )


def test_criterion_7_predicted_orders(catalog_runs):
    for name in NAMES:
        report, _, _, _ = catalog_runs[name]
        if report.predicted_br is not None and report.predicted_sha is not None:
            assert report.predicted_br == report.predicted_sha, name
            assert _check(report, "predicted_orders_match").status == PASS
    assert catalog_runs["x3_plus_t_f5"][0].predicted_br == 1
    assert catalog_runs["x3_plus_t_f5"][0].predicted_sha == 1
    assert catalog_runs["x3_plus_t_f7"][0].predicted_br == 1
    print("criterion 7 PASS: predicted [Br] = [Sha] where computable; both 1 for x3_plus_t")


def test_criterion_8_point_count_fixture(catalog_runs):
    report, _, model, _ = catalog_runs["x3_plus_t_f5"]
    assert report.counts[:2] == (76, 876)
    assert lefschetz_counts(report.p2_product, 5, 2) == [76, 876]
    print("criterion 8 PASS: #X(F_5) = 76, #X(F_25) = 876, both routes")


def test_criterion_9_mutation_sensitivity(catalog_runs):
    report, _, model, metadata = catalog_runs["x3_plus_t_f5"]
    inv, fibers = global_invariants(model)
    counts = surface_counts(model, fibers, 5)

    def detects(mut_fibers):
        try:
            rep = run_verification(model, metadata, fibers=mut_fibers, counts=counts)
            return rep.has_failure()
        except Exception:
            return True

    target = next(f for f in fibers if f.kodaira == "II*")
    others = [f for f in fibers if f is not target]
    mutations = {
        "c_v": dataclasses.replace(target, c_v=target.c_v + 1),
        "m_v": dataclasses.replace(target, m_v=target.m_v - 1),
        "r_i": dataclasses.replace(
            target,
            components=tuple(
                (r + (1 if i == 1 else 0), mu) for i, (r, mu) in enumerate(target.components)
            ),
        ),
        "l_factor": dataclasses.replace(target, l_factor=report.l_poly.__class__([1, -1])),
    }
    for label, mutant in mutations.items():
        assert detects(others + [mutant]), f"mutation of {label} went unnoticed"
    # a_v: corrupt a good-place trace seen by the L-function (the place must
    # live in the model's own field context)
    from ellsurf.ffield import Poly, place_finite
    from ellsurf.tatefiber import make_fiber

    fq = model.field
    bad_good = make_fiber(place_finite(Poly(fq, [-1, 1])), 5, "I0", None, a_v=1)
    assert detects(fibers + [bad_good])
    print("criterion 9 PASS: every single-datum mutation flips a check to FAIL")


def test_criterion_10_determinism(capsys):
    outputs = []
    for args in (
        ["report", "--catalog", "legendre_f5"],
        ["report", "--catalog", "legendre_f5"],
        ["report", "--catalog", "legendre_f5", "--threads", "4"],
    ):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    a, b = json.loads(outputs[0]), json.loads(outputs[2])
    a["flags"]["threads"] = b["flags"]["threads"]
    assert json.dumps(a, separators=(",", ":")) == json.dumps(b, separators=(",", ":"))
    print("criterion 10 PASS: byte-identical JSON, including under --threads")
