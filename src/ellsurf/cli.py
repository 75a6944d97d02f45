"""Configuration parsing, report serialization and the command-line tool.

Config files are INI-like: ``[section]`` headers with ``key = value`` lines
and ``#`` comments.  Sections: field, model, metadata, limits.  Model
coefficients are comma-separated lists in t, lowest degree first; each entry
is an integer or a parenthesized vector ``(c0 c1 ...)`` over GF(p) for
extension fields.  Unknown sections or keys, and integers in [metadata] or
[limits] below their minimum, are rejected with their line number.

The config's [limits] and [metadata] keys, and the command-line flags
(``_apply_flags``), are set directly on the ``verify.Limits`` and
``verify.Metadata`` that ``Config`` holds.

Commands: ``analyze`` prints the fiber table, ``verify`` the table of
checks, ``report`` the canonical JSON report and ``catalog`` the built-in
fixtures.

Exit statuses: 0 success, 2 configuration error (config file or command
line), 3 unsupported model, 4 at least one FAILed check or an internal
inconsistency; each error class names its status (``exit_status``).  Every
status other than 0 comes with one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field as dc_field

from .catalog import CATALOG, DIGESTS
from .errors import (
    BadField,
    EllsurfError,
    NotIrreducible,
    NotPrime,
    ParseError,
    UnknownKey,
)
from .ffield import field_make
from .tatefiber import WeierstrassModel
from .verify import (
    CheckResult,
    Limits,
    Metadata,
    Report,
    compute_l,
    run_verification,
)

SCHEMA_VERSION = "1"

_SECTIONS = {
    "field": {"p", "modulus"},
    "model": {"a1", "a2", "a3", "a4", "a6"},
    "metadata": {"mw_rank", "mw_torsion_order", "notes"},
    "limits": {"n_max", "place_degree_cap", "surplus_margin", "point_budget"},
}

# least allowed value of each integer in [metadata] and [limits]
_MINIMUM = {
    "mw_rank": 0,
    "mw_torsion_order": 1,
    "n_max": 0,
    "place_degree_cap": 1,
    "surplus_margin": 0,
    "point_budget": 1,
}


@dataclass
class Config:
    p: int = None
    modulus: list | None = None
    a: dict = dc_field(default_factory=dict)  # "a1".."a6" -> list of coeffs
    limits: Limits = dc_field(default_factory=Limits)
    metadata: Metadata = dc_field(default_factory=Metadata)


def _parse_coeff(tok: str, lineno: int):
    tok = tok.strip()
    if tok.startswith("("):
        if not tok.endswith(")"):
            raise ParseError("unterminated coefficient vector", lineno)
        try:
            return [int(x) for x in tok[1:-1].split()]
        except ValueError:
            raise ParseError(f"bad coefficient vector {tok!r}", lineno)
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad coefficient {tok!r}", lineno)


def _split_top_level(value: str):
    out, depth, cur = [], 0, []
    for ch in value:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_config(text: str) -> Config:
    cfg = Config()
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownKey(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ParseError("expected key = value", lineno)
        if section is None:
            raise ParseError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTIONS[section]:
            raise UnknownKey(f"unknown key {key!r} in [{section}]", lineno)
        if section == "field":
            if key == "p":
                cfg.p = _int_field(value, lineno)
            else:
                cfg.modulus = [
                    _int_field(x.strip(), lineno) for x in value.split(",")
                ]
        elif section == "model":
            cfg.a[key] = [_parse_coeff(tok, lineno) for tok in _split_top_level(value)]
        elif key == "notes":
            cfg.metadata.notes = value
        else:
            target = cfg.limits if section == "limits" else cfg.metadata
            setattr(target, key, _at_least_minimum(key, _int_field(value, lineno), lineno))
    if cfg.p is None:
        raise BadField("missing field characteristic p", None)
    return cfg


def _int_field(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise BadField(f"expected an integer, got {value!r}", lineno)


def _at_least_minimum(key: str, n: int, lineno: int | None) -> int:
    if n < _MINIMUM[key]:
        raise BadField(f"{key} must be at least {_MINIMUM[key]}, got {n}", lineno)
    return n


def build_model(cfg: Config):
    try:
        fq = field_make(cfg.p, cfg.modulus)
    except (NotPrime, NotIrreducible) as exc:
        raise BadField(str(exc), None)

    def coeffs(key):
        entries = cfg.a.get(key, [0])
        for e in entries:
            if isinstance(e, list) and (fq.degree == 1 or len(e) > fq.degree):
                raise BadField(f"{key}: coefficient vector of length {len(e)} over GF({fq.q})", None)
        return [fq.raw(e) for e in entries]

    model = WeierstrassModel(
        fq, coeffs("a1"), coeffs("a2"), coeffs("a3"), coeffs("a4"), coeffs("a6")
    )
    return model, cfg.metadata, cfg.limits


# ---------------------------------------------------------------------------
# serialization


def _sv_json(sv):
    if sv is None:
        return None
    return {
        "sign": sv.sign,
        "num": str(sv.num),
        "den": str(sv.den),
        "log_power": sv.log_power,
        "order": sv.order,
    }


def _poly_json(poly):
    if poly is None:
        return None
    return [str(c) for c in poly.coeffs]


def _frac_json(x):
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def report_to_dict(report: Report, cfg: Config) -> dict:
    inv, limits = report.invariants, cfg.limits
    return {
        "schema_version": SCHEMA_VERSION,
        "q": report.q,
        "field": {"p": cfg.p, "modulus": cfg.modulus},
        "model": {k: report.model_coeffs[i] for i, k in enumerate(["a1", "a2", "a3", "a4", "a6"])},
        "flags": {
            "n_max": limits.n_max,
            "place_degree_cap": limits.place_degree_cap,
            "surplus_margin": limits.surplus_margin,
            "point_budget": limits.point_budget,
            "threads": limits.threads,
            "seed": limits.seed,
        },
        "invariants": {
            "e": inv.e,
            "chi": inv.chi,
            "b2": inv.b2,
            "deg_cond": inv.deg_cond,
            "deg_l": inv.deg_l,
            "m": inv.m,
            "alpha": inv.alpha,
            "chi_lie": inv.chi_lie,
        },
        "fibers": [
            {
                "place": f.place.label(),
                "degree": f.d_v,
                "kodaira": f.kodaira,
                "splitting": str(f.splitting),
                "m_v": f.m_v,
                "components": [[r, mu] for r, mu in f.components],
                "c_v": f.c_v,
                "f_v": f.f_v,
                "e_v": f.e_v,
                "a_v": f.a_v,
                "l_factor": _poly_json(f.l_factor),
            }
            for f in report.fibers
        ],
        "counts": [str(c) for c in (report.counts or ())],
        "p2_counts": _poly_json(report.p2_counts),
        "p2_product": _poly_json(report.p2_product),
        "l_poly": _poly_json(report.l_poly),
        "p2_star": _sv_json(report.p2_star),
        "l_star": _sv_json(report.l_star),
        "q2_star": _sv_json(report.q2_star),
        "m": report.m,
        "rho": report.rho,
        "rank": {"value": report.rank, "source": report.rank_source},
        "predicted_br": _frac_json(report.predicted_br),
        "predicted_sha": _frac_json(report.predicted_sha),
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "lhs": None if c.lhs is None else str(c.lhs),
                "rhs": None if c.rhs is None else str(c.rhs),
                "sign_agrees": c.sign_agrees,
                "details": c.details,
            }
            for c in report.checks
        ],
    }


def report_json(report: Report, cfg: Config) -> str:
    return json.dumps(report_to_dict(report, cfg), separators=(",", ":"))


def report_digest(json_text: str) -> str:
    return hashlib.sha256(json_text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# commands


def _load_config(args) -> Config:
    if getattr(args, "catalog", None):
        if args.catalog not in CATALOG:
            raise ParseError(f"unknown catalog entry {args.catalog!r}", None)
        return parse_config(CATALOG[args.catalog].config_text)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.config}: {exc}", None)
        return parse_config(text)
    raise ParseError("need --config FILE or --catalog NAME", None)


def _apply_flags(cfg: Config, args) -> None:
    flags = (
        (cfg.limits, "n_max", "nmax"),
        (cfg.limits, "place_degree_cap", "place_cap"),
        (cfg.metadata, "mw_rank", "assume_rank"),
    )
    for target, key, flag in flags:
        value = getattr(args, flag)
        if value is not None:
            setattr(target, key, _at_least_minimum(key, value, None))
    cfg.limits.threads = args.threads
    cfg.limits.seed = args.seed


def _fiber_table(report: Report) -> str:
    lines = ["place            kodaira  split     m_v c_v f_v e_v  L_v"]
    for f in report.fibers:
        lines.append(
            f"{f.place.label():<16} {f.kodaira:<8} {str(f.splitting):<9} "
            f"{f.m_v:<3} {f.c_v:<3} {f.f_v:<3} {f.e_v:<4} {_poly_json(f.l_factor)}"
        )
    return "\n".join(lines)


def _run(args):
    """(model, report, cfg) of the config with the flags applied."""
    cfg = _load_config(args)
    _apply_flags(cfg, args)
    model, metadata, limits = build_model(cfg)
    return model, run_verification(model, metadata, limits), cfg


def cmd_analyze(args) -> int:
    _, report, _ = _run(args)
    inv = report.invariants
    print(f"q = {report.q}")
    print(
        f"e = {inv.e}  chi = {inv.chi}  b2 = {inv.b2}  deg cond = {inv.deg_cond}"
        f"  deg L = {inv.deg_l}  m = {inv.m}"
    )
    print(_fiber_table(report))
    print(f"counts: {list(report.counts)}")
    print(f"P2 (product route): {_poly_json(report.p2_product)}")
    print(f"L: {_poly_json(report.l_poly)}  rho = {report.rho}")
    return 0


def _run_full(args):
    model, report, cfg = _run(args)
    limits = cfg.limits
    # independence of the L-function from the order of its local factors
    try:
        l_again = compute_l(model, report.fibers, report.invariants, limits, seed=limits.seed)
        ok = l_again == report.l_poly
        report.checks.append(
            CheckResult(
                "l_function_order_independence",
                "PASS" if ok else "FAIL",
                _poly_json(report.l_poly),
                _poly_json(l_again),
                None,
                f"seed {limits.seed}",
            )
        )
    except EllsurfError as exc:
        report.checks.append(
            CheckResult("l_function_order_independence", "FAIL", details=str(exc))
        )
    return report, cfg


def cmd_verify(args) -> int:
    report, _ = _run_full(args)
    for c in report.checks:
        extra = f"  [{c.details}]" if c.details else ""
        print(f"{c.status:<12} {c.name}{extra}")
    print(
        f"predicted orders: Br = {_frac_json(report.predicted_br)}, "
        f"Sha = {_frac_json(report.predicted_sha)}"
    )
    return 4 if report.has_failure() else 0


def cmd_report(args) -> int:
    report, cfg = _run_full(args)
    print(report_json(report, cfg))
    return 4 if report.has_failure() else 0


def cmd_catalog(_args) -> int:
    for name, entry in sorted(CATALOG.items()):
        print(f"{name}: {entry.summary}")
        for k, v in sorted(entry.expected.items()):
            print(f"    {k} = {v}")
        if name in DIGESTS:
            print(f"    digest = {DIGESTS[name]}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line configuration error."""

    def error(self, message):
        raise ParseError(message, None)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (about 1 ms each)."""
    parser = _Parser(
        prog="ellsurf",
        description="Exact zeta and L-function special-value checks for "
        "elliptic fibrations over P^1 over a finite field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("analyze", cmd_analyze),
        ("verify", cmd_verify),
        ("report", cmd_report),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--catalog", help="name of a built-in fixture")
        p.add_argument("--nmax", type=int, default=None, help="count points up to GF(q^n)")
        p.add_argument("--assume-rank", type=int, default=None, dest="assume_rank")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized cross-checks")
        p.add_argument("--place-cap", type=int, default=None, dest="place_cap")
        p.add_argument("--threads", type=int, default=0)
        p.set_defaults(fn=fn)
    pcat = sub.add_parser("catalog")
    pcat.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except EllsurfError as exc:
        # exit 4: an internal inconsistency is a failed check
        prefix = {2: "configuration error", 3: "unsupported model"}.get(
            exc.exit_status, f"internal error: {type(exc).__name__}"
        )
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(main())
