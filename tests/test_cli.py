import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsurf.catalog import CATALOG, DIGESTS
from ellsurf.cli import (
    _FLAGS,
    _MINIMUM,
    USAGE,
    build_model,
    main,
    parse_config,
    report_digest,
    report_json,
)
from ellsurf.errors import BadField, ParseError, UnknownKey
from ellsurf.ffield import Poly, PrimeField, find_irreducible
from ellsurf.verify import run_verification

F5 = PrimeField(5)


def test_parse_catalog_roundtrip():
    cfg = parse_config(CATALOG["x3_plus_t_f5"].config_text)
    assert cfg.p == 5
    assert cfg.a["a6"] == [0, 1]
    assert cfg.metadata.mw_rank == 0 and cfg.metadata.mw_torsion_order == 1
    model, metadata, limits = build_model(cfg)
    assert model.field.q == 5


def test_parse_rejects_nonprime_p():
    with pytest.raises(BadField):
        build_model(parse_config("[field]\np = 4\n"))


def test_parse_unknown_key_with_line_number():
    text = "[field]\np = 5\n[model]\nfoo = 3\n"
    with pytest.raises(UnknownKey) as exc:
        parse_config(text)
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "text,line",
    [
        ("[field]\np = 5\n[model]\na4 = 1\na6 = 0, 1\na4 = 3\n", 6),
        ("[field]\np = 5\np = 7\n", 3),
        ("[field]\np = 5\n[limits]\nn_max = 2\n[limits]\nn_max = 3\n", 6),
    ],
    ids=["model", "field", "across_headers"],
)
def test_parse_repeated_key_with_line_number(text, line):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == line and "repeated key" in str(exc.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_config("[field\np = 5\n")
    with pytest.raises(ParseError):
        parse_config("p = 5\n")  # key outside section
    with pytest.raises(BadField):
        parse_config("[field]\np = five\n")


def test_parse_extension_vector_coefficients():
    text = "[field]\np = 5\nmodulus = 2, 0, 1\n[model]\na6 = (1 2), 3\n"
    cfg = parse_config(text)
    assert cfg.modulus == [2, 0, 1]
    assert cfg.a["a6"] == [[1, 2], 3]
    model, _, _ = build_model(cfg)
    assert model.field.q == 25


def test_cli_verify_exit_zero(capsys):
    rc = main(["verify", "--catalog", "x3_plus_t_f5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("no FAIL", "")


def test_cli_wrong_rank_exits_4(capsys):
    rc = main(["verify", "--catalog", "x3_plus_t_f5", "--assume-rank", "5"])
    assert rc == 4


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\np = 4\n")
    assert main(["verify", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[field]\np = 5\nmodulus = 4, 0, 1\n[model]\na4 = 0, 1\na6 = 0, 1\n",
        "[field]\np = 5\n[model]\na6 = 0, 1\n[limits]\nn_max = -3\n",
        "[field]\np = 5\n[model]\na6 = 0, 1\n[limits]\nplace_degree_cap = 0\n",
        "[field]\np = 5\n[model]\na6 = 0, 1\n[metadata]\nmw_rank = -1\nmw_torsion_order = 0\n",
        "[field]\np = 5\n[model]\na6 = 0, 1\n[limits]\nsurplus_margin = -1\n",
        "[field]\np = 5\n[model]\na6 = 0, 1\n[limits]\npoint_budget = 0\n",
    ],
    ids=["reducible_modulus", "n_max", "place_degree_cap", "mw_data", "surplus_margin", "point_budget"],
)
def test_cli_bad_config_value_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_cli_bad_flag_value_exit_2(capsys):
    for argv in (["--catalog", "x3_plus_t_f5", "--nmax", "-3"],
                 ["--catalog", "legendre_f5", "--threads", "-3"]):
        assert main(["report", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv


def test_non_minimal_model_matches_its_minimal_twin(tmp_path, capsys):
    """y^2 = x^3 + u^4 x + u^6 (1 + t) is y^2 = x^3 + x + 1 + t scaled by
    u, for u = t and for irreducible u of degree 2 and 3: the fibers at
    u = 0 are good after minimalization, so every report field but the
    model echo is the twin's."""
    a4, a6 = Poly(F5, [1]), Poly(F5, [1, 1])

    def report(a4, a6):
        cfg = tmp_path / "m.cfg"
        csv = lambda f: ", ".join(map(str, f.coeffs))
        cfg.write_text(f"[field]\np = 5\n[model]\na4 = {csv(a4)}\na6 = {csv(a6)}\n")
        assert main(["report", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["model"]
        return out

    twin = report(a4, a6)
    assert twin["counts"][:2] == ["76", "876"]
    for u in (Poly(F5, [0, 1]), find_irreducible(F5, 2), find_irreducible(F5, 3)):
        assert report(u**4 * a4, u**6 * a6) == twin, u


VERIFY_LEGENDRE = ["verify", "--catalog", "legendre_f5"]


def _run_python(*args, timeout=300):
    """Run a fresh interpreter with ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_deep_l_series_exits_3_before_the_sieve(tmp_path):
    """y^2 = x^3 + t^17 x + t over GF(5) has deg L = 49 and L depth 25:
    q^d is far over the point budget, so it ends in exit 3 with one line
    instead of enumerating 5^25 polynomials."""
    cfg = tmp_path / "deep.cfg"
    a4 = ", ".join(["0"] * 17 + ["1"])
    cfg.write_text(f"[field]\np = 5\n[model]\na4 = {a4}\na6 = 0, 1\n")
    run = _run_python("-m", "ellsurf.cli", "verify", "--config", str(cfg), timeout=60)
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in run.stderr
    assert "deg L = 49" in lines[0] and "d = 25" in lines[0] and f"q^d = {5**25}" in lines[0]


def test_compute_l_error_is_a_pipeline_fail():
    """An EllsurfError raised inside compute_l ends in a FAIL check and exit
    4, not a traceback: the kernel's degree-2 traces are corrupted so the
    L-series tail does not vanish."""
    script = (
        "import sys\n"
        "from ellsurf import zeta\n"
        "from ellsurf.cli import main\n"
        "good_traces = zeta._CharSums.good_traces\n"
        "zeta._CharSums.good_traces = lambda self, d: (\n"
        "    (lambda t, a_v: (t, a_v + 1 if d == 2 else a_v))(*good_traces(self, d)))\n"
        f"sys.exit(main({VERIFY_LEGENDRE!r}))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stderr
    pipeline = [ln for ln in run.stdout.splitlines() if ln.split()[1:2] == ["pipeline"]]
    assert len(pipeline) == 1 and pipeline[0].startswith("FAIL")
    assert "NonPolynomialTail" in pipeline[0]



def test_non_primitive_modulus_exits_4_with_one_line():
    """A coded field whose modulus is irreducible but not primitive (t^2 + 2
    over GF(5)) fails its bijection check before any count reads it: exit 4
    with one line naming the internal error, nothing on stdout."""
    script = (
        "import sys\n"
        "from ellsurf import zeta\n"
        "from ellsurf.cli import main\n"
        "least = zeta._primitive_modulus\n"
        "zeta._primitive_modulus = lambda p, n: (2, 0) if (p, n) == (5, 2) else least(p, n)\n"
        f"sys.exit(main({VERIFY_LEGENDRE!r}))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 4, run.stderr
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in run.stderr
    assert "InternalInconsistency" in lines[0] and "GF(5^2)" in lines[0]


def test_cli_import_loads_no_hashlib():
    """``import ellsurf.cli`` loads neither hashlib nor _hashlib (and with
    it libcrypto): only ``report_digest`` imports it, and no report needs
    a digest."""
    script = (
        "import sys\n"
        "import ellsurf.cli\n"
        "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_import_and_a_report_load_no_argparse():
    """``import ellsurf.cli`` and one report load neither argparse nor the
    gettext and locale it imports: the command line is read off the table
    ``_FLAGS``."""
    script = (
        "import contextlib, io, sys\n"
        "from ellsurf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['report', '--catalog', 'legendre_f5'])\n"
        "print(rc, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0 []"


def test_verify_same_under_python_O():
    """No runtime check of the pipeline is an assert: -O changes nothing."""
    plain = _run_python("-m", "ellsurf.cli", *VERIFY_LEGENDRE)
    optimized = _run_python("-O", "-m", "ellsurf.cli", *VERIFY_LEGENDRE)
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


@pytest.mark.slow
def test_extension_base_field_surface_verifies(tmp_path, capsys):
    """y^2 = x^3 + t x + t over GF(25) = GF(5)[x]/(x^2 + 2), end to end."""
    cfg = tmp_path / "f25.cfg"
    cfg.write_text("[field]\np = 5\nmodulus = 2, 0, 1\n[model]\na4 = 0, 1\na6 = 0, 1\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS         good_place_lfactor  [323 good places recounted]" in out
    assert "FAIL" not in out


def test_cli_unsupported_model_exit_3(tmp_path, capsys):
    """An isotrivial model, and a characteristic below 5, exit 3 with one line."""
    for p, a6 in ((5, "1"), (3, "0, 1")):
        cfg = tmp_path / f"unsupported{p}.cfg"
        cfg.write_text(f"[field]\np = {p}\n[model]\na4 = 1\na6 = {a6}\n")
        assert main(["analyze", "--config", str(cfg)]) == 3, p
        err = capsys.readouterr().err
        assert err.startswith("unsupported model: ") and err.count("\n") == 1, err


def test_cli_analyze_prints_table(capsys):
    rc = main(["analyze", "--catalog", "legendre_f5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "I2*" in out and "b2 = 10" in out


def test_cli_catalog_lists_entries(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in CATALOG:
        assert name in out


def test_report_json_byte_identical(capsys):
    assert main(["report", "--catalog", "x3_plus_t_f5"]) == 0
    out1 = capsys.readouterr().out
    assert main(["report", "--catalog", "x3_plus_t_f5"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == "1"


def test_report_threads_flag_same_content(capsys):
    assert main(["report", "--catalog", "legendre_f5"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["report", "--catalog", "legendre_f5", "--threads", "3"]) == 0
    threaded = json.loads(capsys.readouterr().out)
    plain["flags"]["threads"] = threaded["flags"]["threads"]
    assert json.dumps(plain) == json.dumps(threaded)


def test_seed_flag_exits_2(capsys):
    """The order-independence re-run divides in a fixed (reverse) order, so
    there is no --seed: the flag is a one-line configuration error."""
    assert main(["report", "--catalog", "x3_plus_t_f5", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: ")


def test_report_checks_are_run_verifications(monkeypatch, capsys):
    """The command line adds no check: for each catalog surface the
    report's check names are those of the Report that run_verification
    returned, the L re-run last."""
    from ellsurf import cli

    returned = []

    def recording(*args, **kwargs):
        report = run_verification(*args, **kwargs)
        returned.append([c.name for c in report.checks])
        return report

    monkeypatch.setattr(cli, "run_verification", recording)
    for name in sorted(CATALOG):
        assert main(["report", "--catalog", name]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert names == returned.pop(), name
        assert names[-1] == "l_function_order_independence"


def test_report_digests_frozen(capsys):
    for name, digest in DIGESTS.items():
        if name == "x3_plus_t_f7":
            continue  # slow; covered by test_report_digest_f7
        assert main(["report", "--catalog", name]) in (0,)
        out = capsys.readouterr().out.strip()
        assert report_digest(out) == digest, f"digest drift for {name}"


@pytest.mark.slow
def test_report_digest_f7(capsys):
    assert main(["report", "--catalog", "x3_plus_t_f7"]) == 0
    out = capsys.readouterr().out.strip()
    assert report_digest(out) == DIGESTS["x3_plus_t_f7"]


REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version", "q", "field", "model", "flags", "invariants",
        "fibers", "counts", "p2_counts", "p2_product", "l_poly",
        "p2_star", "l_star", "q2_star", "m", "rho", "rank",
        "predicted_br", "predicted_sha", "checks",
    ],
    "properties": {
        "schema_version": {"const": "1"},
        "q": {"type": "integer"},
        "counts": {"type": "array", "items": {"type": "string", "pattern": "^[0-9]+$"}},
        "p2_product": {"type": "array", "items": {"type": "string"}},
        "p2_star": {
            "type": "object",
            "required": ["sign", "num", "den", "log_power", "order"],
        },
        "fibers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "place", "degree", "kodaira", "splitting", "m_v",
                    "components", "c_v", "f_v", "e_v", "a_v", "l_factor",
                ],
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "lhs", "rhs", "sign_agrees", "details"],
                "properties": {
                    "status": {"enum": ["PASS", "FAIL", "CONDITIONAL", "SKIPPED"]}
                },
            },
        },
    },
}


def test_report_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    assert main(["report", "--catalog", "generic_i1_f5"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# every input ends in a documented exit status with at most one line


def test_huge_characteristic_exits_3_promptly(tmp_path):
    """GF(1000003) is far over the point budget: exit 3 with one line, not a
    walk over the residue fields."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[field]\np = 1000003\n[model]\na4 = 1\na6 = 0, 1\n")
    run = _run_python("-m", "ellsurf.cli", "verify", "--config", str(cfg), timeout=10)
    assert run.returncode == 3, run.stderr
    assert len(run.stderr.splitlines()) == 1 and "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "field_lines,a4",
    [("p = 5", "(1 2)"), ("p = 5\nmodulus = 2, 0, 1", "0, (1 2 3)")],
    ids=["vector_over_prime_field", "vector_longer_than_degree"],
)
def test_vector_coefficient_not_in_the_field_exits_2(tmp_path, capsys, field_lines, a4):
    cfg = tmp_path / "vec.cfg"
    cfg.write_text(f"[field]\n{field_lines}\n[model]\na4 = {a4}\na6 = 0, 1\n")
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a4: ") and err.count("\n") == 1


def test_bad_command_line_is_a_one_line_configuration_error(capsys):
    bad = (
        ["verify", "--bogus"],
        ["verify", "--nmax", "x"],
        ["verify", "--catalog", "x3_plus_t_f5", "--json"],  # `report` prints the JSON
        ["frobnicate"],
        [],
        ["catalog", "--nmax", "3"],  # catalog takes no flags
        ["report", "--catalog"],
        ["report", "--catalog", "legendre_f5", "--nmax"],
        ["report", "--cat", "legendre_f5"],  # flags are spelled out in full
    )
    for argv in bad:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_flag_value_after_an_equals_sign_is_the_spaced_form(capsys):
    assert main(["report", "--catalog=legendre_f5", "--nmax=2"]) == 0
    joined = capsys.readouterr()
    assert json.loads(joined.out)["flags"]["n_max"] == 2
    assert main(["report", "--catalog", "legendre_f5", "--nmax", "2"]) == 0
    assert capsys.readouterr() == joined


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["report", "--catalog", "legendre_f5", "-h"], ["catalog", "--help"]],
)
def test_help_prints_the_usage_to_stdout_with_exit_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == USAGE and captured.err == ""
    assert captured.out.startswith("usage: ellsurf ")


README = Path(__file__).resolve().parents[1] / "README.md"


def _flag_drift(readme: str, flags: dict, minimum: dict) -> list:
    """The rows where README's flag table (under "## Command line") and a
    parser's flag table and minima disagree, as (flag, (key, least value))
    pairs, "-" for a flag with no least value: [] when they agree."""
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = set()
    for line in section.splitlines():
        if line.startswith("| `-"):
            flag, key, least = [cell.strip().strip("`") for cell in line.split("|")[1:4]]
            rows.add((flag.split()[0], (key, least)))
    parser = {(flag, (key, str(minimum.get(key, "-")))) for flag, (key, _) in flags.items()}
    return sorted(rows ^ parser)


def test_readme_flag_table_is_the_parsers():
    """README lists every flag of ``cli._FLAGS`` with the key it sets and
    its ``cli._MINIMUM``, and no other; one flag renamed on either side, or
    a minimum changed, shows as drift.  USAGE names every flag too."""
    readme = README.read_text(encoding="utf-8")
    assert _flag_drift(readme, _FLAGS, _MINIMUM) == []
    assert all(flag in USAGE for flag in _FLAGS)
    renamed_in_readme = readme.replace("`--place-cap D`", "`--place-limit D`")
    renamed_in_parser = {("--depth" if f == "--nmax" else f): v for f, v in _FLAGS.items()}
    assert _flag_drift(renamed_in_readme, _FLAGS, _MINIMUM) == [
        ("--place-cap", ("place_degree_cap", "1")),
        ("--place-limit", ("place_degree_cap", "1")),
    ]
    assert _flag_drift(readme, renamed_in_parser, _MINIMUM)
    assert _flag_drift(readme, _FLAGS, dict(_MINIMUM, mw_rank=1))


def test_config_and_catalog_exclude_each_other(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(CATALOG["legendre_f5"].config_text)
    for command in ("analyze", "verify", "report"):
        assert main([command, "--catalog", "x3_plus_t_f5", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("configuration error: ")


@pytest.mark.parametrize(
    "field_lines",
    ["p = 1000000000000000003", "p = 1000000000000000004", "p = 5\nmodulus = 2, 0, 0, 0, 0, 0, 0, 1"],
    ids=["prime", "composite", "extension"],
)
def test_q_over_budget_exits_3_before_the_field_is_checked(tmp_path, field_lines):
    """q = p^deg(modulus) over the point budget exits 3 with one line before
    p's primality (trial division ran past 20 s at 10^18 + 3) or the
    modulus's irreducibility is tested, so a composite p exits 3 too."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[field]\n{field_lines}\n[model]\na4 = 1\na6 = 0, 1\n")
    run = _run_python("-m", "ellsurf.cli", "analyze", "--config", str(cfg), timeout=10)
    assert run.returncode == 3, run.stderr
    assert run.stdout == "" and len(run.stderr.splitlines()) == 1
    assert "exceeds point budget 25000" in run.stderr


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


_INT_COEFF = st.lists(st.integers(-40, 40), min_size=1, max_size=13).map(
    lambda v: ", ".join(map(str, v))
)
_TOKEN = st.one_of(
    st.integers(-40, 40).map(str),
    st.lists(st.integers(-6, 6), max_size=3).map(lambda v: "(" + " ".join(map(str, v)) + ")"),
    st.sampled_from(["x", "(1", "2)", "", "1.5", "(a)", "--", "0x3"]),
)
_MODULUS = st.one_of(
    st.lists(st.integers(-3, 12), min_size=1, max_size=4).map(lambda v: ", ".join(map(str, v + [1]))),
    st.sampled_from(["2, 0, 1", "1, 1", "x", "", "1, (2)"]),
)
_FLAG = st.tuples(
    st.sampled_from(["--nmax", "--place-cap", "--assume-rank", "--threads"]),
    st.integers(-3, 8).map(str),
)
_BAD_FLAG = st.sampled_from([("--json",), ("--nmax", "two"), ("--bogus",)])
_KEYS = st.sampled_from(["a1", "a2", "a3", "a4", "a6"])
_MIXED_COEFF = st.lists(_TOKEN, min_size=1, max_size=13).map(", ".join)
# half the inputs are well formed (integer coefficients, no modulus, valid
# flag syntax); the rest mix in vectors, garbage tokens, moduli and bad flags
_INPUT = st.one_of(
    st.tuples(
        st.none(),
        st.dictionaries(_KEYS, _INT_COEFF, min_size=1, max_size=3),
        st.lists(_FLAG, max_size=2),
    ),
    st.tuples(
        st.one_of(st.none(), _MODULUS),
        st.dictionaries(_KEYS, st.one_of(_INT_COEFF, _MIXED_COEFF), min_size=1, max_size=3),
        st.lists(st.one_of(_FLAG, _BAD_FLAG), max_size=3),
    ),
)


@settings(derandomize=True, deadline=20_000, max_examples=50, database=None)
@given(
    command=st.sampled_from(["verify", "report", "analyze"]),
    p=st.sampled_from([5, 7, 11, 1000003]),
    case=_INPUT,
)
def test_fuzz_every_input_ends_in_a_documented_status(tmp_path_factory, command, p, case):
    """Random configs (1-3 coefficients of degree <= 12 drawn as ints,
    vectors or garbage, sometimes a bad modulus) and random flags: main
    returns 0, 2, 3 or 4, raises nothing and writes at most one line to
    stderr."""
    modulus, model, flags = case
    lines = ["[field]", f"p = {p}"] + ([f"modulus = {modulus}"] if modulus is not None else [])
    lines += ["[model]"] + [f"{k} = {v}" for k, v in model.items()]
    cfg = tmp_path_factory.mktemp("fuzz") / "f.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    argv = [command, "--config", str(cfg)] + [tok for flag in flags for tok in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), (argv, cfg.read_text())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
