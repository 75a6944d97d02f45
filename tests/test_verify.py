import dataclasses

import numpy as np
import pytest

from ellsurf.exactalg import RatPoly, SpecialValue, leading_term
from ellsurf.tatefiber import (
    WeierstrassModel,
    bad_fibers,
    global_invariants,
)
from ellsurf.verify import (
    CONDITIONAL,
    FAIL,
    PASS,
    SKIPPED,
    Limits,
    Metadata,
    check_flach_siebel,
    check_flach_siebel_aggregate,
    check_good_place_sanity,
    check_q2_closed_form,
    check_special_value,
    order_flags,
    run_verification,
    tamagawa_product,
)
from ellsurf.zeta import bad_correction, lefschetz_counts, surface_counts
from fiber_cases import F5, GENERIC_I1, LEGENDRE, X3T, model, synthetic_fiber

META = {
    "x3t": Metadata(0, 1),
    "legendre": Metadata(0, 4),
    "generic": Metadata(1, 1),
}


@pytest.fixture(scope="module")
def x3t_report():
    return run_verification(X3T, META["x3t"])


@pytest.fixture(scope="module")
def legendre_report():
    return run_verification(LEGENDRE, META["legendre"])


@pytest.fixture(scope="module")
def generic_report():
    return run_verification(GENERIC_I1, META["generic"])


def by_name(report, name):
    return next(c for c in report.checks if c.name == name)


def test_x3t_all_unconditional_pass(x3t_report):
    rep = x3t_report
    assert not rep.has_failure()
    assert by_name(rep, "p2_dual_route").status == PASS
    assert by_name(rep, "special_value_product").status == PASS
    assert by_name(rep, "tate_shioda").status == CONDITIONAL
    assert by_name(rep, "ns_discriminant_product").status == PASS
    assert by_name(rep, "predicted_orders_match").status == PASS
    assert rep.predicted_br == 1 and rep.predicted_sha == 1
    assert rep.rho == 10 and rep.m == 8
    assert (rep.p2_star.value, rep.p2_star.log_power) == (1, 10)
    assert rep.q2_star.log_power == 8


def test_legendre_report(legendre_report):
    rep = legendre_report
    assert not rep.has_failure()
    assert by_name(rep, "ns_discriminant_product").status == SKIPPED
    assert by_name(rep, "predicted_orders_match").status == CONDITIONAL
    assert rep.predicted_sha == 1 and rep.predicted_br is None
    assert rep.p2_counts == rep.p2_product
    # all ten inverse roots at q: the special values collapse to powers of log
    assert rep.p2_star.value == 1 and rep.p2_star.log_power == 10


def test_generic_i1_report(generic_report):
    rep = generic_report
    assert not rep.has_failure()
    assert rep.l_poly == RatPoly([1, -5])
    assert rep.l_star.order == 1
    assert rep.rank == 1
    assert by_name(rep, "tate_shioda").status == CONDITIONAL
    assert by_name(rep, "predicted_orders_match").status == SKIPPED


def test_special_value_fault_injection(x3t_report):
    rep = x3t_report
    bad_l = SpecialValue(1, 2, 1, 0, 0)  # pretend L* = 2
    res = check_special_value(rep.p2_star, bad_l, rep.q2_star)
    assert res.status == FAIL


def test_tate_shioda_mismatch_fails():
    rep = run_verification(X3T, Metadata(3, 1))  # wrong declared rank
    assert by_name(rep, "tate_shioda").status == FAIL
    assert rep.has_failure()


def test_flach_siebel_synthetic_all_types():
    """Criterion coverage: per-fiber identity over every Kodaira type,
    split and non-split, at degree 1 and degree 2 places."""
    kinds = []
    for n in range(1, 10):
        kinds.append((f"I{n}", "split"))
        kinds.append((f"I{n}", "nonsplit"))
    kinds += [("II", None), ("III", None), ("IV", "split"), ("IV", "nonsplit")]
    kinds += [("I0*", 0), ("I0*", 1), ("I0*", 3)]
    for mm in range(1, 5):
        kinds.append((f"I{mm}*", "split"))
        kinds.append((f"I{mm}*", "nonsplit"))
    kinds += [("IV*", "split"), ("IV*", "nonsplit"), ("III*", None), ("II*", None)]
    for deg in (1, 2):
        fibers = [synthetic_fiber(5, deg, kod, split) for kod, split in kinds]
        checks, agg_value, agg_power = check_flach_siebel(fibers)
        assert all(c.status == PASS for c in checks), [
            (c.name, c.lhs, c.rhs) for c in checks if c.status != PASS
        ]
        _, q2_star, _ = bad_correction(fibers, 5)
        agg = check_flach_siebel_aggregate(tamagawa_product(fibers), q2_star, agg_value, agg_power)
        assert agg.status == PASS


def test_order_flags_exact_squares():
    from fractions import Fraction

    big = (2**60 - 1) ** 2  # a float square root misjudges it
    assert order_flags(Fraction(big)) == "perfect square"
    assert order_flags(Fraction(big + 1)) == "integer, not a perfect square"
    assert order_flags(Fraction(10**400)) == "perfect square"  # above float range
    assert order_flags(Fraction(10**400 + 1)) == "integer, not a perfect square"
    assert order_flags(Fraction(1, 4)) == "non-integral!"


def test_q2_closed_form_synthetic_types():
    for kod, split in [("I5", "nonsplit"), ("I0*", 1), ("IV*", "nonsplit"), ("I3*", "split")]:
        fibers = [synthetic_fiber(5, d, kod, split) for d in (1, 2)]
        q2_star = bad_correction(fibers, 5)[1]
        assert check_q2_closed_form(fibers, q2_star).status == PASS
        # the closed form of the degree-1 fiber alone has half the grading
        assert check_q2_closed_form(fibers[:1], q2_star).status == FAIL


def test_corrupted_identity_orbit_fails_checks_not_the_pipeline():
    """legendre_f5 with its I2 fiber at t = 0 given an identity orbit of two
    components: Q* leaves the identity orbit out and the closed form reads
    it, so they differ.  The report is assembled, and q2_closed_form,
    p2_dual_route (the counts read the orbit) and the fiber's Flach-Siebel
    check FAIL, with no pipeline FAIL."""
    _, fibers = global_invariants(LEGENDRE)
    corrupt = [
        dataclasses.replace(f, components=((2, 1),) + f.components[1:])
        if f.place.label() == "(t)" else f
        for f in fibers
    ]
    rep = run_verification(LEGENDRE, META["legendre"], fibers=corrupt)
    failed = {c.name for c in rep.checks if c.status == FAIL}
    assert failed == {"q2_closed_form", "p2_dual_route", "flach_siebel_local[(t):I2]"}
    assert "pipeline" not in {c.name for c in rep.checks}


@pytest.mark.xfail(
    strict=True,
    reason="with a vanishing middle coefficient l_function takes the + completion, "
    "and nothing checks it against counts",
)
def test_half_expanded_l_sign_matches_counts():
    # L has degree 10 and middle coefficient 0; counts to n = 8 pick sign -
    m = model(F5, [0, 0, 1, 0, 0, 4], [0] * 8 + [2])
    report = run_verification(m, limits=Limits(n_max=2))
    counts = surface_counts(m, report.fibers, 8)
    assert lefschetz_counts(report.p2_product, 5, 8) == list(counts)


# ---------------------------------------------------------------------------
# mutation sensitivity: perturbing any single fiber datum flips a check


@pytest.fixture(scope="module")
def x3t_parts():
    inv, fibers = global_invariants(X3T)
    counts = surface_counts(X3T, fibers, 5)
    return inv, fibers, counts


def _rerun_with(fibers, counts, metadata=Metadata(0, 1)):
    try:
        rep = run_verification(X3T, metadata, fibers=fibers, counts=counts)
        return rep.has_failure()
    except Exception:
        return True  # hard pipeline errors count as detection


def test_mutation_c_v(x3t_parts):
    inv, fibers, counts = x3t_parts
    mut = [dataclasses.replace(f, c_v=f.c_v + 1) if f.kodaira == "II*" else f for f in fibers]
    assert _rerun_with(mut, counts)


def test_mutation_r_i(x3t_parts):
    inv, fibers, counts = x3t_parts
    def bump(f):
        comps = tuple([(r + 1, mu) if i == 1 else (r, mu) for i, (r, mu) in enumerate(f.components)])
        return dataclasses.replace(f, components=comps)
    mut = [bump(f) if f.kodaira == "II*" else f for f in fibers]
    assert _rerun_with(mut, counts)


def test_mutation_m_v(x3t_parts):
    inv, fibers, counts = x3t_parts
    mut = [dataclasses.replace(f, m_v=f.m_v - 1) if f.kodaira == "II*" else f for f in fibers]
    assert _rerun_with(mut, counts)


def test_mutation_a_v(x3t_parts):
    """Perturb a good-place trace by injecting a corrupted good fiber that
    the L-function lookup will consume."""
    from ellsurf.ffield import Poly, place_finite
    from ellsurf.tatefiber import make_fiber

    inv, fibers, counts = x3t_parts
    bad_good = make_fiber(place_finite(Poly(F5, [-1, 1])), 5, "I0", None, a_v=1)
    assert bad_good.a_v != 0  # true trace at t=1 is 0
    mut = fibers + [bad_good]
    assert _rerun_with(mut, counts)
    # the good-place audit reads the same local factors as the L-function
    assert check_good_place_sanity(X3T, mut).status == FAIL
    assert check_good_place_sanity(X3T, fibers).status == PASS


def test_mutation_a_v_at_a_degree_2_place(x3t_parts):
    """A wrong trace at the good degree-2 place t^2 + 2, which the audit
    recounts in its shared GF(25) model: the audit FAILs at that place."""
    from ellsurf.ffield import Poly, place_finite
    from ellsurf.tatefiber import make_fiber

    inv, fibers, counts = x3t_parts
    bad_good = make_fiber(place_finite(Poly(F5, [2, 0, 1])), 5, "I0", None, a_v=9)
    mut = fibers + [bad_good]  # the true trace there is 10
    assert _rerun_with(mut, counts)
    result = check_good_place_sanity(X3T, mut)
    assert (result.status, result.lhs, result.rhs) == (FAIL, "17", "16")
    assert result.details == "at (t^2 + 2)"
    assert check_good_place_sanity(X3T, fibers).status == PASS


def test_good_place_audit_without_a_root_raises_a_typed_error(monkeypatch, capsys):
    """A place the root list drops is caught by the necklace count as an
    internal inconsistency of the oracle: exit 4 with one line, not a
    good_place_lfactor FAIL blamed on the kernel."""
    from ellsurf import oracle
    from ellsurf.cli import main
    from ellsurf.errors import InternalInconsistency

    place_model = oracle.place_model

    def without_a_root(field, d):
        F, roots = place_model(field, d)
        return F, roots[1:]

    monkeypatch.setattr(oracle, "place_model", without_a_root)
    with pytest.raises(InternalInconsistency, match="holds 4 places, not 5"):
        check_good_place_sanity(GENERIC_I1, global_invariants(GENERIC_I1)[1])
    assert main(["verify", "--catalog", "x3_plus_t_f5"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: InternalInconsistency: place list of degree 1 over GF(5)")


@pytest.mark.parametrize("change", ["drop", "add"])
def test_good_place_audit_checks_the_kernel_place_set(monkeypatch, change):
    """A kernel that omits a degree-2 place, or invents one, makes
    good_place_lfactor FAIL (not raise)."""
    from ellsurf import zeta

    m = model(F5, [0, 1], [0, 1])
    inv, fibers = global_invariants(m)
    good_traces = zeta._CharSums.good_traces

    def corrupt(self, d):
        t, a_v = good_traces(self, d)
        if d == 2 and change == "drop":
            return t[1:], a_v[1:]
        if d == 2:
            # t = 0 is the root of no place of degree 2
            return np.append(t, 0), np.append(a_v, 0)
        return t, a_v

    monkeypatch.setattr(zeta._CharSums, "good_traces", corrupt)
    result = check_good_place_sanity(m, fibers)
    assert result.status == FAIL
    assert ("1 missing, 0 extra" if change == "drop" else "0 missing, 1 extra") in result.details


def test_mutation_l_factor(x3t_parts):
    inv, fibers, counts = x3t_parts
    mut = [
        dataclasses.replace(f, l_factor=RatPoly([1, -1])) if f.kodaira == "II" else f
        for f in fibers
    ]
    assert _rerun_with(mut, counts)


def test_removing_any_fiber_flips_a_check(x3t_parts):
    inv, fibers, counts = x3t_parts
    for drop in range(len(fibers)):
        mut = [f for i, f in enumerate(fibers) if i != drop]
        assert _rerun_with(mut, counts), f"dropping fiber {drop} went unnoticed"


def test_counts_injection_detects_corruption(x3t_parts):
    inv, fibers, counts = x3t_parts
    bad_counts = tuple(c + (1 if i == 3 else 0) for i, c in enumerate(counts))
    assert _rerun_with(fibers, bad_counts)


@pytest.mark.slow
def test_good_infinity_with_degree_two_bad_place():
    """y^2 = x^3 + t^3 + t^6 keeps good reduction at infinity and has a bad
    place of degree 2; exercises the d_v > 1 paths end to end (including the
    sign-ambiguity recount at n = 6)."""
    m = model(F5, 0, [0, 0, 0, 1, 0, 0, 1])
    inv, fibers = global_invariants(m)
    assert inv.e == 12
    kinds = sorted((f.kodaira, f.d_v) for f in fibers)
    assert kinds == [("I0*", 1), ("II", 1), ("II", 2)]
    assert all(not f.place.is_infinity for f in fibers)
    rep = run_verification(m, Metadata(None, None))
    assert not rep.has_failure()
    assert by_name(rep, "p2_dual_route").status == PASS


def test_sign_not_fixed_within_budget_is_conditional():
    """y^2 + 2t xy = x^3 + 3x + 2 over GF(5): P2 has t^4, t^5 and t^6
    coefficients zero, so the two self-dual completions first differ at t^7,
    past the count budget; the dual route is CONDITIONAL, not an error."""
    m = WeierstrassModel(F5, [0, 2], [0], [0], [3], [2])
    rep = run_verification(m, Metadata(None, None))
    assert rep.invariants.b2 == 10 and len(rep.counts) == 6
    dual = by_name(rep, "p2_dual_route")
    assert dual.status == CONDITIONAL
    assert dual.details.startswith("count budget too small to fix the functional-equation sign")
    assert not rep.has_failure()


def test_field_over_the_point_budget_stops_before_tate(monkeypatch):
    """Over GF(1000003^2) a good infinity would make Tate's algorithm count
    10^12 points: q alone is over the budget, so nothing runs."""
    from ellsurf import verify
    from ellsurf.errors import PlaceBudgetExceeded
    from ellsurf.ffield import field_make

    def no_tate(*args):
        raise AssertionError("bad_fibers called")

    monkeypatch.setattr(verify, "bad_fibers", no_tate)
    m = model(field_make(1000003, [1, 0, 1]), 0, [0, 0, 0, 1, 0, 0, 1])
    with pytest.raises(PlaceBudgetExceeded, match="q = 1000006000009 exceeds point budget"):
        run_verification(m)


def test_l_depth_over_the_budget_raises_before_any_level(monkeypatch):
    """The K3 y^2 = x^3 + x + t^7 (deg L = 12) needs places of degree 14 for
    full expansion at place cap 14, and of degree 6 for half expansion:
    5^14 is over the default budget and 5^6 over a budget of 124, so
    ``run_verification`` raises before any coded field is built."""
    from ellsurf import zeta
    from ellsurf.errors import PlaceBudgetExceeded

    def no_level(*args):
        raise AssertionError("coded_field called")

    monkeypatch.setattr(zeta, "coded_field", no_level)
    k3 = model(F5, 1, [0] * 7 + [1])
    with pytest.raises(PlaceBudgetExceeded, match="d = 14: q\\^d = 6103515625 exceeds point budget 25000"):
        run_verification(k3, limits=Limits(place_degree_cap=14))
    with pytest.raises(PlaceBudgetExceeded, match="d = 6: q\\^d = 15625 exceeds point budget 124"):
        run_verification(k3, limits=Limits(point_budget=124))


def test_long_form_model_with_a1_a3():
    """Completing the square: y^2 + xy + ty = x^3 + t x^2 + t must verify
    exactly like its short form."""
    m = WeierstrassModel(F5, [1], [0, 1], [0, 1], [0], [0, 1])
    rep = run_verification(m, Metadata(None, None))
    assert not rep.has_failure()
    assert by_name(rep, "p2_dual_route").status == PASS


# ---------------------------------------------------------------------------
# one pass per report: each object is built once and shared

SWEEP_F7 = (
    "[field]\np = 7\n[model]\na4 = 0, 0, 4\na6 = 0, 0, 0, 4\n"
    "[metadata]\nmw_rank = 0\nmw_torsion_order = 1\n[limits]\nn_max = 2\n"
)


@pytest.mark.parametrize("source", ["x3_plus_t_f7", "sweep_f7"])
def test_a_report_reads_the_euler_data_and_eliminates_ns_once(monkeypatch, tmp_path, capsys, source):
    """One report (two I0* over GF(7) for the sweep config, II* and II for
    x3_plus_t_f7) reads the kernel's good traces once per degree for L, its
    order-independence re-run and the good-place audit together, and runs
    one elimination of the NS Gram matrix, the largest matrix it meets,
    for both its determinant and its signature."""
    import json

    from ellsurf import lattice, zeta
    from ellsurf.cli import main

    degrees, sizes = [], []
    good_traces, cleared = zeta._CharSums.good_traces, lattice._cleared
    monkeypatch.setattr(zeta._CharSums, "good_traces",
                        lambda self, d: degrees.append(d) or good_traces(self, d))
    monkeypatch.setattr(lattice, "_cleared", lambda rows: sizes.append(len(rows)) or cleared(rows))
    if source == "sweep_f7":
        (tmp_path / "s.cfg").write_text(SWEEP_F7)
        argv = ["report", "--config", str(tmp_path / "s.cfg")]
    else:
        argv = ["report", "--catalog", source]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c["status"] for c in report["checks"]}
    assert checks["ns_discriminant_product"] == checks["l_function_order_independence"] == PASS
    assert checks["good_place_lfactor"] == PASS
    assert sorted(degrees) == list(range(1, max(degrees) + 1)) and max(degrees) >= 2
    assert max(sizes) == report["rho"] and sizes.count(max(sizes)) == 1


def test_true_perturbed_and_true_fibers_on_one_model_match_fresh_models(x3t_parts):
    """Reports and reverse-order L-functions of X3T with its own fibers,
    then with a wrong good trace injected at a degree-1 and at a degree-2
    place, then with its own fibers again, all made on one model, equal
    those made on a fresh model each time: the model's Euler data follows
    the fibers it is given."""
    from ellsurf.ffield import Poly, place_finite
    from ellsurf.tatefiber import make_fiber
    from ellsurf.verify import compute_l

    from ellsurf.errors import EllsurfError

    def l_again(m, rep):
        try:
            return compute_l(m, rep.fibers, rep.invariants, Limits(), reverse=True)
        except EllsurfError as exc:
            return repr(exc)

    inv, fibers, counts = x3t_parts
    wrong_1 = make_fiber(place_finite(Poly(F5, [-1, 1])), 5, "I0", None, a_v=1)
    wrong_2 = make_fiber(place_finite(Poly(F5, [2, 0, 1])), 5, "I0", None, a_v=9)
    one = model(F5, 0, [0, 1])
    for given in (fibers, fibers + [wrong_1], fibers + [wrong_2], fibers):
        fresh = model(F5, 0, [0, 1])
        got = run_verification(one, META["x3t"], fibers=given, counts=counts)
        assert got == run_verification(fresh, META["x3t"], fibers=given, counts=counts)
        assert l_again(one, got) == l_again(fresh, got)
        assert got.has_failure() == (given is not fibers)


# ---------------------------------------------------------------------------
# the conditional big-surface path (counts budget below b2/2)


@pytest.mark.slow
def test_k3_conditional_path():
    """e = 24 fibration: counting to b2/2 = 11 is out of budget, so P2 comes
    from the product route and the partial counts are checked against it."""
    m = model(F5, 1, [0] * 7 + [1])  # y^2 = x^3 + x + t^7
    inv, fibers = global_invariants(m)
    assert inv.e == 24 and inv.b2 == 22
    limits = Limits(n_max=2, surplus_margin=0)
    rep = run_verification(m, Metadata(None, None), limits)
    dual = next(c for c in rep.checks if c.name == "p2_dual_route")
    assert dual.status == CONDITIONAL
    assert not rep.has_failure()
    assert rep.p2_counts is None
    assert rep.p2_product.degree == 22
