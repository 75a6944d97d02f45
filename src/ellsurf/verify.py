"""Named identity checks and the verification report.

Every check is an exact statement in Q or in the graded algebra
Q * (log q)^k; there are no tolerances.  Outcomes are PASS, FAIL,
CONDITIONAL (holds but rests on declared Mordell-Weil data or on a
truncated count budget) or SKIPPED (inputs outside the computable class,
e.g. a Neron-Severi basis with nontrivial Mordell-Weil group).

Sign conventions: discriminants of indefinite lattices carry signs that the
special-value identities do not pin down; every comparison here is made on
absolute values, with the sign agreement recorded alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    EllsurfError,
    NoConsistentSign,
    NontrivialMW,
    PlaceBudgetExceeded,
)
from .exactalg import QQ, SpecialValue, leading_term
from .ffield import Poly
from .lattice import discriminant_and_signature, ns_lattice_build
from .oracle import place_lists, recount
from .tatefiber import (
    FiberData,
    SurfaceInvariants,
    WeierstrassModel,
    arithmetic_component_discriminant,
    bad_fibers,
    component_lattice_base_gram,
    global_invariants,
)
from .zeta import (
    bad_correction,
    euler_factors,
    l_function,
    lefschetz_counts,
    p2_from_counts,
    p2_from_product,
    place_keys,
    surface_counts,
)

PASS, FAIL, CONDITIONAL, SKIPPED = "PASS", "FAIL", "CONDITIONAL", "SKIPPED"


@dataclass
class CheckResult:
    name: str
    status: str
    lhs: object = None
    rhs: object = None
    sign_agrees: bool | None = None
    details: str = ""


@dataclass
class Limits:
    """The run's limits and their defaults.  ``zeta`` computes to the count
    depth and expansion order it is given; ``run_verification`` picks them
    (``_l_order``) and alone holds them against the point budget.  The field
    order is the order of the report's ``flags`` echo."""

    n_max: int | None = None
    place_degree_cap: int = 8
    surplus_margin: int = 2
    point_budget: int = 25_000
    threads: int = 0


@dataclass
class Metadata:
    mw_rank: int | None = None
    mw_torsion_order: int | None = None
    notes: str = ""


@dataclass
class Report:
    q: int
    model_coeffs: list
    invariants: SurfaceInvariants
    fibers: list
    counts: tuple | None
    p2_counts: Poly | None
    p2_product: Poly
    l_poly: Poly
    q2_star: SpecialValue | None
    p2_star: SpecialValue
    l_star: SpecialValue
    m: int
    rho: int
    rank: int | None
    rank_source: str
    predicted_br: Fraction | None
    predicted_sha: Fraction | None
    checks: list = field(default_factory=list)

    def has_failure(self) -> bool:
        return any(c.status == FAIL for c in self.checks)


def _sv_str(sv) -> str:
    if sv is None:
        return "-"
    if isinstance(sv, SpecialValue):
        s = "+" if sv.sign > 0 else "-"
        return f"{s}{sv.num}/{sv.den}*(log q)^{sv.log_power}"
    return str(sv)


def _abs_match(a: SpecialValue, b: SpecialValue) -> tuple[bool, bool]:
    """(absolute values and grading agree, signs agree too)."""
    same_abs = (a.num, a.den, a.log_power) == (b.num, b.den, b.log_power)
    return same_abs, same_abs and a.sign == b.sign


def check_p2_dual_route(p2_counts, p2_product, counts, q) -> CheckResult:
    """Coefficientwise comparison of the two reconstructions of P2."""
    name = "p2_dual_route"
    if p2_counts is None:
        if counts:
            predicted = lefschetz_counts(p2_product, q, len(counts))
            if list(counts) == predicted:
                reason = (
                    "count budget below b2/2"
                    if 2 * len(counts) < p2_product.degree
                    else "count budget too small to fix the functional-equation sign"
                )
                return CheckResult(
                    name,
                    CONDITIONAL,
                    str(list(counts)),
                    str(predicted),
                    None,
                    f"{reason}; partial counts match the product route",
                )
            return CheckResult(
                name, FAIL, str(list(counts)), str(predicted), None, "partial counts disagree"
            )
        return CheckResult(name, SKIPPED, details="no counts available")
    if p2_counts == p2_product:
        return CheckResult(
            name,
            PASS,
            str([str(c) for c in p2_counts.coeffs]),
            str([str(c) for c in p2_product.coeffs]),
            True,
        )
    diff = next(
        i
        for i in range(max(p2_counts.degree, p2_product.degree) + 1)
        if p2_counts.coeff(i) != p2_product.coeff(i)
    )
    return CheckResult(
        name,
        FAIL,
        str(p2_counts.coeff(diff)),
        str(p2_product.coeff(diff)),
        None,
        f"first differing coefficient at t^{diff}",
    )


def check_special_value(p2_star, l_star, q2_star) -> CheckResult:
    """P2* = L* x Q* x ((s-1) log q)^2 in absolute value."""
    two = SpecialValue(1, 1, 1, 2, 2)
    rhs = l_star.mul(q2_star).mul(two)
    same_abs, same_sign = _abs_match(p2_star, rhs)
    return CheckResult(
        "special_value_product",
        PASS if same_abs else FAIL,
        _sv_str(p2_star),
        _sv_str(rhs),
        same_sign,
        "orders: lhs %d rhs %d" % (p2_star.order, rhs.order),
    )


def check_q2_closed_form(fibers, q2_star) -> CheckResult:
    """Q*, the leading term at t = 1/q of ``bad_correction``'s product,
    against its closed form prod_v d_v^(m_v - 1) * prod r_i * (log q)^m,
    m = sum (m_v - 1) over the bad fibers, compared whole: sign, value,
    grading and order."""
    bad = [f for f in fibers if not f.is_good]
    m = sum(f.m_v - 1 for f in bad)
    closed = SpecialValue(1, math.prod(f.d_v ** (f.m_v - 1) * f.r_product() for f in bad), 1, m, m)
    return CheckResult(
        "q2_closed_form",
        PASS if q2_star == closed else FAIL,
        _sv_str(q2_star),
        _sv_str(closed),
        q2_star.sign == closed.sign,
    )


def check_tate_shioda(rho, rank, rank_source, m, ord_l) -> list[CheckResult]:
    out = []
    ok = rho - 2 - m == ord_l
    out.append(
        CheckResult(
            "p2_order_vs_l_order",
            PASS if ok else FAIL,
            str(rho - 2 - m),
            str(ord_l),
            None,
            "ord P2 - 2 - m against ord L (unconditional)",
        )
    )
    if rank is None:
        out.append(CheckResult("tate_shioda", SKIPPED, details="no rank available"))
        return out
    ok = rho == 2 + rank + m
    status = FAIL if not ok else (CONDITIONAL if rank_source != "proved" else PASS)
    out.append(
        CheckResult(
            "tate_shioda",
            status,
            str(rho),
            str(2 + rank + m),
            None,
            f"rank {rank} ({rank_source})",
        )
    )
    return out


def check_flach_siebel(fibers):
    """Per-fiber |disc| = c_v (log q_v)^(m_v - 1) prod r_i (two routes: the
    dual-graph Gram matrix vs the Tamagawa table), and the aggregate
    c(J) * Q* = prod |disc(R_v)|."""
    out = []
    agg_value = Fraction(1)
    agg_power = 0
    all_ok = True
    for f in fibers:
        if f.is_good:
            continue
        sv = arithmetic_component_discriminant(f)
        expected_value = Fraction(f.c_v * f.d_v ** (f.m_v - 1) * f.r_product())
        expected_power = f.m_v - 1
        ok = sv.value == expected_value and sv.log_power == expected_power
        all_ok = all_ok and ok
        out.append(
            CheckResult(
                f"flach_siebel_local[{f.place.label()}:{f.kodaira}]",
                PASS if ok else FAIL,
                _sv_str(sv),
                f"{expected_value}*(log q)^{expected_power}",
                sv.sign == 1,
            )
        )
        agg_value *= sv.value
        agg_power += sv.log_power
    return out, agg_value, agg_power


def tamagawa_product(fibers) -> int:
    """c(J): the product of the Tamagawa numbers of the bad fibers."""
    return math.prod(f.c_v for f in fibers if not f.is_good)


def check_flach_siebel_aggregate(c_j, q2_star, agg_value, agg_power) -> CheckResult:
    lhs_value = c_j * q2_star.value
    lhs_power = q2_star.log_power
    ok = lhs_value == agg_value and lhs_power == agg_power
    return CheckResult(
        "flach_siebel_aggregate",
        PASS if ok else FAIL,
        f"{lhs_value}*(log q)^{lhs_power}",
        f"{agg_value}*(log q)^{agg_power}",
        None,
        f"c(J) = {c_j}",
    )


def build_ns(inv, fibers, metadata):
    """Neron-Severi Gram rows, or None with a reason."""
    if metadata.mw_rank is None or metadata.mw_torsion_order is None:
        return None, "Mordell-Weil data not declared"
    try:
        blocks = [component_lattice_base_gram(f) for f in fibers if not f.is_good]
        ns = ns_lattice_build(inv.chi, blocks, metadata.mw_rank, metadata.mw_torsion_order)
        return ns, ""
    except NontrivialMW as exc:
        return None, str(exc)


def check_ns_discriminant(ns, ns_reason, agg_value, agg_power) -> tuple[CheckResult, SpecialValue | None]:
    """disc(NS) against prod |disc(R_v)| * (log q)^2, the product being
    ``check_flach_siebel``'s aggregate (agg_value, agg_power), and NS of
    signature (1, rho - 1): both from one elimination of the Gram matrix."""
    name = "ns_discriminant_product"
    if ns is None:
        return CheckResult(name, SKIPPED, details=ns_reason), None
    sv, (pos, neg, zero) = discriminant_and_signature(ns, 1)
    rho_ns = len(ns)
    rhs_value, rhs_power = agg_value, 2 + agg_power
    ok = sv.value == rhs_value and sv.log_power == rhs_power
    sig_ok = (pos, zero) == (1, 0) and neg == rho_ns - 1
    details = f"signature ({pos},{neg},{zero})"
    return (
        CheckResult(
            name,
            PASS if (ok and sig_ok) else FAIL,
            _sv_str(sv),
            f"{rhs_value}*(log q)^{rhs_power}",
            sv.sign == 1,
            details,
        ),
        sv,
    )


def check_lie_euler(inv) -> CheckResult:
    via_alpha = -inv.alpha + inv.dim_b
    via_surface = 1 - inv.chi
    return CheckResult(
        "lie_euler_characteristic",
        PASS if via_alpha == via_surface else FAIL,
        str(via_alpha),
        str(via_surface),
        None,
        "dim B - alpha against 1 - chi(O_X)",
    )


def order_flags(x) -> str:
    """Integrality and squareness of a predicted group order."""
    if x is None:
        return ""
    if x.denominator != 1:
        return "non-integral!"
    n = x.numerator
    return "perfect square" if math.isqrt(n) ** 2 == n else "integer, not a perfect square"


def predict_orders(p2_star, l_star, ns_disc, inv, c_j, rank, metadata, q):
    """(br_pred, sha_pred, CheckResult): the group orders forced by the two
    special-value formulas, compared (the sectioned case makes them equal)."""
    br = sha = None
    notes = []
    if ns_disc is not None and p2_star.log_power == ns_disc.log_power:
        br = p2_star.value / (ns_disc.value * Fraction(q) ** (-inv.alpha))
    elif ns_disc is not None:
        notes.append("br side skipped (gradings disagree: data corrupt)")
    else:
        notes.append("br side skipped (no Neron-Severi basis)")
    if rank == 0 and metadata.mw_torsion_order is not None:
        delta_nt = Fraction(1, metadata.mw_torsion_order**2)
        if l_star.log_power != 0:
            notes.append("L* grading does not match declared rank 0")
            sha = None
        else:
            sha = l_star.value / (delta_nt * c_j * Fraction(q) ** inv.chi_lie)
    else:
        notes.append("sha side skipped (height regulator not computable here)")

    if br is not None and sha is not None:
        ok = br == sha
        status = PASS if ok else FAIL
        details = "; ".join(filter(None, [order_flags(br), order_flags(sha)]))
    elif br is not None or sha is not None:
        status = CONDITIONAL
        details = "; ".join(notes + [order_flags(br if br is not None else sha)])
    else:
        status = SKIPPED
        details = "; ".join(notes)
    return br, sha, CheckResult(
        "predicted_orders_match",
        status,
        str(br) if br is not None else "-",
        str(sha) if sha is not None else "-",
        None,
        details,
    )


AUDIT_DEGREE = 2  # the good-place audit's depth, fixed whatever the point budget


def check_good_place_sanity(model, fibers) -> CheckResult:
    """L_v(1) = #E(k(v)) at every finite place of degree <= AUDIT_DEGREE
    without a bad fiber: the local factor the L-function uses (the same
    ``euler_factors`` copy, built once per model and fibers) against the
    pure-Python recount of ``oracle`` on the minimal short model.  The
    oracle's place lists must give exactly the finite places of the Euler
    product, keyed by ``zeta.place_keys``."""
    name = "good_place_lfactor"
    field = model.field
    bad = {f.place.sort_key() for f in fibers if not f.is_good}
    fiber_factors, good = euler_factors(model, fibers, AUDIT_DEGREE)
    factors = {key: f.eval(1) for key, (_, f) in fiber_factors.items()}
    for d, (t, a_v) in good.items():
        at_one = (1 - a + field.q**d for a in a_v.tolist())
        factors.update(zip(place_keys(model, d, t), at_one))
    lists = place_lists(field, AUDIT_DEGREE)
    places = {root[0] for _, _, roots in lists for root in roots}
    extra = [k for k in factors if k != (0,) and k not in places]
    missing = [k for k in places if k not in factors]
    if extra or missing:
        return CheckResult(
            name,
            FAIL,
            str(len(factors) - 1),
            str(len(places)),
            None,
            f"finite places of the Euler product against the place list: "
            f"{len(missing)} missing, {len(extra)} extra",
        )
    checked, wrong = recount(field, lists, *model.minimal_short, factors, bad)
    if wrong:
        at_one, points, label = wrong
        return CheckResult(name, FAIL, str(at_one), str(points), None, f"at {label}")
    return CheckResult(name, PASS, details=f"{checked} good places recounted")


def _l_order(inv, limits: Limits) -> tuple[int, bool]:
    """(order, half): the degree L's Euler product is expanded to, and
    whether that is half of deg L, completed by the weight-2 functional
    equation, which it is when full expansion to deg L + surplus needs
    places past the degree cap."""
    full = inv.deg_l + limits.surplus_margin
    if full > limits.place_degree_cap:
        return (inv.deg_l + 1) // 2, True
    return full, False


def compute_l(model, fibers, inv, limits: Limits, reverse: bool = False):
    """L by full expansion when the places fit the degree cap, otherwise by
    half expansion plus weight-2 functional-equation completion; ``reverse``
    reverses the order of the local factors."""
    order, half = _l_order(inv, limits)
    return l_function(model, fibers, inv, order, use_functional_equation=half, reverse=reverse)


def check_l_order_independence(model, fibers, inv, limits: Limits, l_poly) -> CheckResult:
    """L again, dividing by the local factors in reverse order (the Euler
    data cached on the model is reused), against ``l_poly``."""
    name = "l_function_order_independence"
    try:
        l_again = compute_l(model, fibers, inv, limits, reverse=True)
    except EllsurfError as exc:
        return CheckResult(name, FAIL, details=str(exc))
    return CheckResult(
        name,
        PASS if l_again == l_poly else FAIL,
        str([str(c) for c in l_poly.coeffs]),
        str([str(c) for c in l_again.coeffs]),
    )


def l_places_depth(inv, limits: Limits) -> int:
    """The largest place degree ``compute_l`` expands over (at least 1)."""
    return max(1, _l_order(inv, limits)[0])


# ---------------------------------------------------------------------------
# the orchestrator


def require_q_in_budget(q: int, limits: Limits) -> None:
    """PlaceBudgetExceeded unless the field size q is within the point budget."""
    if q > limits.point_budget:
        raise PlaceBudgetExceeded(f"q = {q} exceeds point budget {limits.point_budget}")


def run_verification(
    model: WeierstrassModel,
    metadata: Metadata | None = None,
    limits: Limits | None = None,
    fibers: list[FiberData] | None = None,
    counts=None,
) -> Report:
    """Full pipeline: fibers, counts, both P2 routes, L, special values and
    every identity check; the last, L's re-run in reverse order, is made
    after a pipeline FAIL too.  ``fibers`` and ``counts`` can be injected (the
    mutation-sensitivity tests perturb them).  Raises PlaceBudgetExceeded,
    before any kernel work, when the L-series needs places of a
    degree d with q^d over the point budget, and before Tate's algorithm
    (which counts points at a good infinity) when q itself is over it."""
    metadata = metadata or Metadata()
    limits = limits or Limits()
    q = model.field.q
    require_q_in_budget(q, limits)
    inv, fibers = global_invariants(
        model, fibers if fibers is not None else bad_fibers(model, limits.threads)
    )
    depth = l_places_depth(inv, limits)
    if q**depth > limits.point_budget:
        raise PlaceBudgetExceeded(
            f"deg L = {inv.deg_l} needs places of degree d = {depth}: "
            f"q^d = {q**depth} exceeds point budget {limits.point_budget}"
        )

    half = (inv.b2 + 1) // 2
    n_target = half if limits.n_max is None else limits.n_max
    n_feasible = n_target
    while n_feasible > 0 and q**n_feasible > limits.point_budget:
        n_feasible -= 1
    if counts is None:
        counts = surface_counts(model, fibers, n_feasible)

    # placeholders for the failure report when the pipeline below raises
    l_poly, l_star = Poly(QQ, [1]), SpecialValue(1, 1, 1, 0, 0)
    p2_product, p2_star = Poly(QQ, [1]), SpecialValue(1, 1, 1, 0, 0)
    rho, q2_star, p2_counts = 0, None, None
    rank = metadata.mw_rank
    rank_source = "declared" if rank is not None else "unknown"
    br = sha = None
    try:
        l_poly = compute_l(model, fibers, inv, limits)
        l_star = leading_term(l_poly, q)
        correction, q2, _ = bad_correction(fibers, q)
        p2_product = p2_from_product(l_poly, correction, inv, q)
    except EllsurfError as exc:
        # the report cannot be assembled beyond this point; record and bail
        checks = [CheckResult("pipeline", FAIL, details=f"{type(exc).__name__}: {exc}")]
    else:
        q2_star = q2  # only here: the failure report leaves Q* None
        checks = []
        ord_l = l_star.order
        while p2_counts is None and len(counts) >= half:
            try:
                p2_counts = p2_from_counts(counts, inv, q)
            except NoConsistentSign:
                # vanishing middle coefficients: further counts separate the
                # two self-dual completions, budget permitting
                deeper = len(counts) + 1
                if q**deeper > limits.point_budget:
                    break
                counts = surface_counts(model, fibers, deeper)
        checks.append(check_p2_dual_route(p2_counts, p2_product, counts, q))

        p2_star = leading_term(p2_product, q)
        rho = p2_star.order
        checks.append(check_special_value(p2_star, l_star, q2_star))
        checks.append(check_q2_closed_form(fibers, q2_star))

        if rank is None:
            rank, rank_source = ord_l, "inferred from ord L"
        checks.extend(check_tate_shioda(rho, rank, rank_source, inv.m, ord_l))

        c_j = tamagawa_product(fibers)
        local_checks, agg_value, agg_power = check_flach_siebel(fibers)
        checks.extend(local_checks)
        checks.append(check_flach_siebel_aggregate(c_j, q2_star, agg_value, agg_power))

        ns, ns_reason = build_ns(inv, fibers, metadata)
        ns_check, ns_disc = check_ns_discriminant(ns, ns_reason, agg_value, agg_power)
        checks.append(ns_check)
        checks.append(check_lie_euler(inv))

        br, sha, order_check = predict_orders(
            p2_star, l_star, ns_disc, inv, c_j, rank, metadata, q
        )
        checks.append(order_check)
        checks.append(check_good_place_sanity(model, fibers))
    checks.append(check_l_order_independence(model, fibers, inv, limits, l_poly))

    return Report(
        q=q,
        model_coeffs=_echo(model),
        invariants=inv,
        fibers=fibers,
        counts=counts,
        p2_counts=p2_counts,
        p2_product=p2_product,
        l_poly=l_poly,
        q2_star=q2_star,
        p2_star=p2_star,
        l_star=l_star,
        m=inv.m,
        rho=rho,
        rank=rank,
        rank_source=rank_source,
        predicted_br=br,
        predicted_sha=sha,
        checks=checks,
    )


def _echo(model: WeierstrassModel):
    def poly_ints(p):
        out = []
        for c in p.coeffs:
            key = model.field.raw_key(c)
            out.append(key[0] if len(key) == 1 else list(key))
        return out

    return [poly_ints(a) for a in model.coeff_list()]
