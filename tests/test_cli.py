"""Command line round trips and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factoridiv
from factoridiv import certificate, cli, numtheory
from factoridiv.construct import (
    construct_quadratic,
    construct_quartic_cubic_linear,
)
from factoridiv.intpoly import IntPoly

PQ = 10007 * 10009  # semiprime just above the trial division bound


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_certs(path, entries):
    path.write_text(json.dumps(entries))
    return str(path)


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "certs.json"
    code, _, err = run(
        ["construct", "--class", "quadratic", "--poly", "1,0,1",
         "--count", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0 and err == ""
    data = json.loads(out.read_text())
    assert len(data) == 5
    first = data[0]
    assert first["v"] == 1
    assert first["class"] == "quadratic"
    assert first["n"] == "21"
    assert first["factors"] == ["2", "13", "17"]
    assert first["mode"] == "distinct"

    code, outtext, _ = run(["verify", str(out)], capsys)
    assert code == 0
    lines = outtext.strip().splitlines()
    assert len(lines) == 5
    assert all("ACCEPT rule=distinct" in line for line in lines)


def test_construct_writes_json_to_stdout(capsys):
    code, outtext, _ = run(
        ["construct", "--class", "binomial", "--m", "2", "--s", "2"], capsys
    )
    assert code == 0
    data = json.loads(outtext)
    assert data[0]["n"] == "64"
    assert data[0]["factors"] == ["3", "5", "13", "21"]


def test_verify_rejects_tampering(tmp_path, capsys):
    out = tmp_path / "certs.json"
    run(["construct", "--class", "quadratic", "--poly", "1,0,1",
         "--count", "2", "--out", str(out)], capsys)
    data = json.loads(out.read_text())
    data[1]["factors"][0] = "3"
    out.write_text(json.dumps(data))
    code, outtext, _ = run(["verify", str(out)], capsys)
    assert code == 1
    lines = outtext.strip().splitlines()
    assert "ACCEPT" in lines[0]
    assert "REJECT" in lines[1] and "product-mismatch" in lines[1]


def test_verify_version_and_field_handling(tmp_path, capsys):
    cert = construct_quadratic(IntPoly((1, 0, 1)), 1)[0]
    entry = cli.cert_to_dict(cert)
    roundtrip = cli.cert_from_dict(json.loads(json.dumps(entry)))
    assert roundtrip == cert

    extra = dict(entry)
    extra["annotation"] = "ignored"
    path = write_certs(tmp_path / "a.json", [extra])
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 0 and "ACCEPT" in outtext

    wrong = dict(entry)
    wrong["v"] = 2
    path = write_certs(tmp_path / "b.json", [wrong])
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 1 and "reason=malformed" in outtext

    missing = {k: v for k, v in entry.items() if k != "factors"}
    path = write_certs(tmp_path / "c.json", [missing])
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 1 and "reason=malformed" in outtext


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# lengths around the splits of numtheory.int_from_digits (640 * 2**j)
@settings(max_examples=150, deadline=None)
@given(
    length=st.sampled_from([0, 1, 5, 639, 640, 641, 1280, 1281, 2561, 5121]),
    seed=st.integers(0, 2**32),
    zeros=st.integers(0, 3),
    sign=st.sampled_from(["", "+", "-"]),
    pad=st.sampled_from(["", " ", "\t", "\n "]),
    underscore=st.booleans(),
    arabic_indic=st.booleans(),
)
def test_certificate_integers_parse_like_int(
    length, seed, zeros, sign, pad, underscore, arabic_indic
):
    rng = random.Random(seed)
    digits = "0" * zeros + "".join(rng.choices("0123456789", k=length))
    if underscore and len(digits) > 2:
        cut = rng.randrange(1, len(digits) - 1)
        digits = digits[:cut] + rng.choice(["_", "__"]) + digits[cut:]
    if arabic_indic:
        digits = digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    text = pad + sign + digits + pad
    assert _outcome(certificate._int, text) == _outcome(int, text)
    # n and the factors are read as Decimals, with the same verdicts
    assert _outcome(certificate._decimal, text) == _outcome(int, text)


def test_huge_certificates_under_the_default_limit():
    # a library caller keeps Python's 4300-digit int_max_str_digits; the
    # first quartic-cl certificate of 1+x+x^2+x^3 and 1+x has 6177 digits
    script = (
        "import sys\n"
        "from factoridiv import IntPoly, construct_quartic_cubic_linear\n"
        "from factoridiv.cli import cert_from_dict, cert_to_dict\n"
        "from factoridiv.numtheory import decimal_str\n"
        "cert = construct_quartic_cubic_linear(IntPoly((1, 1, 1, 1)),\n"
        "                                      IntPoly((1, 1)))[0]\n"
        "entry = cert_to_dict(cert)\n"
        "assert cert_from_dict(entry) == cert\n"
        "bigs = [0, -(7 * 10**6000 + 3), 10**4300, 10**5120 - 1,\n"
        "        -(7**47_350)]\n"
        "texts = [decimal_str(b) for b in bigs]\n"
        "sys.set_int_max_str_digits(0)\n"
        "assert entry['n'] == str(cert.n)\n"
        "assert entry['factors'] == [str(f) for f in cert.factors]\n"
        "assert texts == [str(b) for b in bigs]\n"
        "print(sys.flags.int_max_str_digits, len(entry['n']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-1 6177\n"


def test_verify_prints_exact_digits_of_huge_n(tmp_path, capsys):
    # the first quartic-cl certificate of 1+x+x^2+x^3 and 1+x
    cert = construct_quartic_cubic_linear(
        IntPoly((1, 1, 1, 1)), IntPoly((1, 1)))[0]
    path = write_certs(tmp_path / "a.json", [cli.cert_to_dict(cert)])
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 0
    assert f" n_digits={len(str(cert.n))} " in outtext
    assert len(str(cert.n)) == 6177


def test_verify_rejects_n_beyond_the_format_bound(tmp_path, capsys):
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    entry["n"] = "1" + "0" * cli.MAX_DIGITS
    code, outtext, _ = run(["verify", write_certs(tmp_path / "a.json", [entry])],
                           capsys)
    assert code == 1
    assert outtext == (
        "cert 0: REJECT reason=malformed (Exceeds the limit (2000000 digits) "
        "for integer string conversion: value has 2000001 digits; use "
        "sys.set_int_max_str_digits() to increase the limit)\n"
    )


def write_literal_n(path, entry, n_text):
    # the certificate with n as a bare JSON number literal, not a string
    path.write_text(json.dumps([dict(entry, n="@N@")]).replace('"@N@"', n_text))
    return str(path)


def test_verify_reads_a_literal_n_like_its_string(tmp_path, capsys):
    cert = construct_quartic_cubic_linear(
        IntPoly((1, 1, 1, 1)), IntPoly((1, 1)))[0]
    entry = cli.cert_to_dict(cert)
    for n_text in (entry["n"], "-" + entry["n"]):
        literal = write_literal_n(tmp_path / "l.json", entry, n_text)
        string = write_certs(tmp_path / "s.json", [dict(entry, n=n_text)])
        got = run(["verify", literal], capsys)
        assert got == run(["verify", string], capsys)
        assert got[0] == (0 if n_text == entry["n"] else 1)


def test_verify_parses_a_literal_n_by_its_digits(tmp_path, capsys, monkeypatch):
    seen = []

    def spy(digits):
        seen.append(digits)
        return numtheory.int_from_digits(digits)

    monkeypatch.setattr(certificate, "int_from_digits", spy)
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    code, _, _ = run(["verify", write_literal_n(tmp_path / "l.json", entry,
                                                entry["n"])], capsys)
    assert code == 0
    assert entry["n"] in seen


def test_verify_literal_beyond_the_format_bound_is_a_usage_error(tmp_path, capsys):
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    path = write_literal_n(tmp_path / "l.json", entry, "-1" + "0" * cli.MAX_DIGITS)
    assert run(["verify", path], capsys) == (64, "", (
        "factoridiv: error: Exceeds the limit (2000000 digits) for integer "
        "string conversion: value has 2000001 digits; use "
        "sys.set_int_max_str_digits() to increase the limit\n"))


@pytest.mark.parametrize("field, value", [
    ("n", 21.9),  # int() would truncate it to the true n = 21
    ("factors", [2.0, 13.5, 17]),
    ("poly", [True, False, True]),
    ("poly", "101"),  # iterated, it would read as 1 + x**2
])
def test_verify_rejects_non_integer_json(field, value, tmp_path, capsys):
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    entry[field] = value
    code, outtext, _ = run(["verify", write_certs(tmp_path / "a.json", [entry])],
                           capsys)
    assert code == 1
    assert outtext.startswith("cert 0: REJECT reason=malformed (")
    assert outtext.count("\n") == 1


def test_verify_needs_an_array(tmp_path, capsys):
    path = tmp_path / "notarray.json"
    path.write_text('{"v": 1}')
    assert run(["verify", str(path)], capsys) == (
        64, "", "factoridiv: error: certificate file must hold a JSON array\n")


def test_verify_deeply_nested_json_is_a_usage_error(tmp_path):
    # json.load raises RecursionError; the verdict is a usage error, not
    # the REJECT exit code or a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "factoridiv.cli", "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr == (
        "factoridiv: error: certificate file is nested too deeply\n"
    )


@pytest.mark.parametrize("params", [
    {"q": 2},  # construct writes every value as a string
    {"q": {"nested": "2"}},
    [["q", "2"]],  # dict() would read it as {"q": "2"}
    "q",
    None,
])
def test_verify_rejects_params_that_are_not_strings(params, tmp_path, capsys):
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    entry["params"] = params
    code, outtext, _ = run(["verify", write_certs(tmp_path / "p.json", [entry])],
                           capsys)
    assert (code, outtext) == (1, (
        "cert 0: REJECT reason=malformed (certificate field 'params' must "
        "map names to strings)\n"))


@pytest.mark.parametrize("field, value", [
    ("class", 7),
    ("class", None),
    ("class", ["quadratic"]),
    ("class", {"name": "quadratic"}),
    ("mode", 1),
    ("mode", None),
    ("mode", True),
])
def test_verify_needs_class_and_mode_strings(field, value, tmp_path, capsys):
    # a format change: str() used to take any JSON value here
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    entry[field] = value
    code, outtext, _ = run(["verify", write_certs(tmp_path / "c.json", [entry])],
                           capsys)
    assert (code, outtext) == (1, (
        f"cert 0: REJECT reason=malformed (certificate field '{field}' must "
        "be a string)\n"))


def test_verify_rejects_a_huge_number_as_class(tmp_path, capsys):
    # str() of it would be quadratic in its 200 000 digits
    entry = cli.cert_to_dict(construct_quadratic(IntPoly((1, 0, 1)), 1)[0])
    path = tmp_path / "c.json"
    path.write_text(json.dumps([dict(entry, **{"class": "@C@"})])
                    .replace('"@C@"', "7" * 200_000))
    assert run(["verify", str(path)], capsys)[:2] == (1, (
        "cert 0: REJECT reason=malformed (certificate field 'class' must "
        "be a string)\n"))


def test_cert_from_dict_reads_n_and_factors_as_decimals():
    cert = construct_quadratic(IntPoly((1, 0, 1)), 1)[0]
    back = cli.cert_from_dict(cli.cert_to_dict(cert))
    assert back == cert
    assert {type(x) for x in (back.n, *back.factors)} == {Decimal}
    assert {type(c) for c in back.poly.coeffs} == {int}
    # and they write back the same
    assert cli.cert_to_dict(back) == cli.cert_to_dict(cert)


def test_usage_errors_exit_64(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["construct", "--class", "nonsense"])
    assert ei.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as ei:
        cli.main(["scan", "--poly", "1,0,1"])
    assert ei.value.code == 64
    capsys.readouterr()
    # handler-level usage problems return 64 without raising
    code, _, err = run(["construct", "--class", "quadratic"], capsys)
    assert code == 64 and "error" in err
    code, _, err = run(
        ["construct", "--class", "quadratic", "--poly", "oops"], capsys
    )
    assert code == 64
    code, _, err = run(["verify", str(tmp_path / "missing.json")], capsys)
    assert code == 64


@pytest.mark.parametrize("family, message", [
    (["binomial", "--m", "2", "--s", "2,x"], "bad integer list '2,x'"),
    (["quartic-cl", "--poly", "1,1,1,1", "--poly", "1,1,1,1"],
     "need a factor of degree 1"),
])
def test_construct_argument_errors_exit_64(family, message, capsys):
    code, out, err = run(["construct", "--class"] + family, capsys)
    assert (code, out) == (64, "")
    assert err == f"factoridiv: error: {message}\n"


def test_seed_flag_is_gone(tmp_path, capsys):
    # factoring and primality take no seed, so neither command has --seed
    out = tmp_path / "certs.json"
    assert cli.main(["construct", "--class", "quadratic", "--poly", "1,0,1",
                     "--out", str(out)]) == 0
    for argv in (
        ["construct", "--class", "quadratic", "--poly", "1,0,1", "--seed", "1"],
        ["verify", str(out), "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 64
        _, err = capsys.readouterr()
        assert "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["binomial", "--m", "2", "--s", "2", "--count", "3"], "count"),
    (["cubic", "--poly", "1,1,1,1", "--ratio", "2"], "ratio"),
    (["chebyshev", "--ms", "2", "--s", "2", "--poly", "1,1"], "poly"),
    (["quadratic", "--poly", "1,0,1", "--m", "2"], "m"),
    (["cyclotomic", "--m", "2", "--s", "2", "--ms", "2"], "ms"),
    (["quartic-qq", "--poly", "1,2,1", "--poly", "1,1,1", "--s", "2"], "s"),
])
def test_construct_rejects_unread_flags(argv, flag, capsys):
    code, out, err = run(["construct", "--class"] + argv, capsys)
    assert code == 64 and out == ""
    assert err == f"factoridiv: error: {argv[0]} does not take --{flag}\n"


def test_construct_count_must_be_positive(capsys):
    for family in (["quadratic", "--poly", "1,0,1"], ["cubic", "--poly", "1,1,1,1"]):
        code, out, err = run(["construct", "--class"] + family + ["--count", "0"],
                             capsys)
        assert code == 64 and out == ""
        assert err == "factoridiv: error: count must be positive\n"


def test_construct_budget_exit(tmp_path, capsys):
    out = tmp_path / "partial.json"
    # m = 7 needs 184 105 primes to pass its target; the search stops at
    # the digit budget instead, with a short report
    for m in ("3", "7"):
        code, _, err = run(
            ["construct", "--class", "cyclotomic", "--m", m, "--s", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert json.loads(out.read_text()) == []
        assert err.count("\n") == 1 and len(err) < 1024
        report = json.loads(err)
        assert "digits" in report["reason"]


def test_construct_internal_error_exit(tmp_path, monkeypatch, capsys):
    # a constructor that emits a bad certificate: construct still writes
    # every certificate, then names the failure and exits 1
    reads, check, complaint, build = cli.FAMILIES["quadratic"]

    def tampered(args, polys):
        *certs, last = build(args, polys)
        *factors, top = last.factors
        return certs + [last._replace(factors=(*factors, top + 2))]

    monkeypatch.setitem(cli.FAMILIES, "quadratic",
                        (reads, check, complaint, tampered))
    out = tmp_path / "c.json"
    code, stdout, err = run(
        ["construct", "--class", "quadratic", "--poly", "1,0,1",
         "--count", "2", "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (1, "")
    assert err == ("internal error: 1 emitted certificate(s) failed "
                   "verification (product-mismatch)\n")
    assert [entry["factors"] for entry in json.loads(out.read_text())] == [
        ["2", "13", "17"], ["2", "25", "39"]]


@pytest.mark.parametrize("m", ["2", "3", "4"])
@pytest.mark.parametrize("ratio", ["1/10", "1/2", "3/4"])
def test_binomial_ratio_below_one_exits_with_a_report(m, ratio, capsys):
    # a ratio below 1 can leave a cyclotomic value above n with nothing to
    # merge; that is a budget stop with a report, not a failed certificate
    code, out, err = run(
        ["construct", "--class", "binomial", "--m", m, "--s", "2,3",
         "--ratio", ratio],
        capsys,
    )
    assert code == 2
    assert json.loads(out) == []
    report = json.loads(err)
    assert report["class"] == "binomial_power" and report["s"] == "2"
    assert report["reason"] == "factor merging could not stay below n"


@pytest.mark.parametrize("argv", [
    ["construct", "--class", "binomial", "--m", "4", "--s", "2",
     "--ratio", "1/0"],
    ["construct", "--class", "cyclotomic", "--m", "2", "--s", "2",
     "--ratio", "3/0"],
    ["construct", "--class", "chebyshev", "--ms", "2", "--s", "2",
     "--ratio", "1/0"],
    ["scan", "--poly", "1,0,1", "--from", "2", "--to", "10", "--theta", "1/0"],
])
def test_zero_denominator_is_a_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    flag, text = argv[-2:]
    assert code == 64 and out == ""
    assert err == f"factoridiv: error: {flag} has a zero denominator: {text!r}\n"


def test_other_bad_fractions_keep_their_messages(capsys):
    for argv in (
        ["construct", "--class", "binomial", "--m", "4", "--s", "2",
         "--ratio", "nan"],
        ["scan", "--poly", "1,0,1", "--from", "2", "--to", "10",
         "--theta", "nan"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 64 and out == ""
        assert err == "factoridiv: error: Invalid literal for Fraction: 'nan'\n"


def test_quartic_classes(capsys):
    code, outtext, _ = run(
        ["construct", "--class", "quartic-cl", "--poly", "1,1",
         "--poly", "1,1,1,1"],
        capsys,
    )
    assert code == 0
    data = json.loads(outtext)
    assert data[0]["class"] == "quartic_cubic_linear"
    assert data[0]["params"]["p"] == "69"

    code, outtext, _ = run(
        ["construct", "--class", "quartic-qq", "--poly", "1,2,1",
         "--poly", "1,1,1"],
        capsys,
    )
    assert code == 0
    data = json.loads(outtext)
    assert data[0]["class"] == "quartic_biquadratic"
    assert data[0]["factors"][0] == "279"


def test_scan_command(tmp_path, capsys):
    code, outtext, err = run(
        ["scan", "--poly", "1,0,1", "--from", "230", "--to", "250",
         "--theta", "14/25"],
        capsys,
    )
    assert code == 0
    lines = outtext.strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert any(r["n"] == "239" and r["p_plus"] == "13" for r in recs)
    summary = json.loads(err)
    assert summary["examined"] == 21
    assert summary["hits"] == len(lines)

    out = tmp_path / "records.jsonl"
    code, outtext, err2 = run(
        ["scan", "--poly", "1,0,1", "--from", "230", "--to", "250",
         "--theta", "14/25", "--jobs", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0 and outtext == ""
    assert out.read_text().strip().splitlines() == lines
    assert json.loads(err2) == summary


def test_table_command(capsys):
    code, outtext, _ = run(["table", "phi", "--max", "6"], capsys)
    assert code == 0
    lines = outtext.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "1\t-1,1"
    assert lines[5] == "6\t1,-1,1"

    code, outtext, _ = run(["table", "psi", "--max", "4"], capsys)
    assert outtext.strip().splitlines() == ["3\t1,1", "4\t0,1"]

    code, outtext, _ = run(["table", "chebyshev", "--max", "2"], capsys)
    assert outtext.strip().splitlines() == ["0\t1", "1\t0,1", "2\t-1,0,2"]


def budget_probe_entries():
    big = PQ * PQ
    return [
        {
            "v": 1,
            "class": "quadratic",
            "poly": [str(big)],
            "n": "20020",
            "factors": [str(PQ), str(PQ)],
            "mode": "legendre",
        }
    ]


def test_budget_env_and_flag(tmp_path, capsys, monkeypatch):
    path = write_certs(tmp_path / "dup.json", budget_probe_entries())
    # ample default budget: the duplicate pair factors fine
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 0 and "ACCEPT rule=legendre" in outtext
    # squeezed via environment
    monkeypatch.setenv("FACTORIDIV_BUDGET", "1")
    code, outtext, _ = run(["verify", path], capsys)
    assert code == 3 and "UNVERIFIABLE" in outtext
    assert str(PQ) in outtext
    # the flag wins over the environment
    monkeypatch.setenv("FACTORIDIV_BUDGET", "1000000")
    code, outtext, _ = run(["verify", path, "--budget", "1"], capsys)
    assert code == 3 and "UNVERIFIABLE" in outtext


def test_budget_parsing(tmp_path, capsys, monkeypatch):
    path = write_certs(tmp_path / "dup.json", budget_probe_entries())
    # --budget 0 is honoured, not dropped: no rho iteration is allowed
    code, outtext, _ = run(["verify", path, "--budget", "0"], capsys)
    assert code == 3 and "UNVERIFIABLE" in outtext
    code, _, err = run(["verify", path, "--budget", "-1"], capsys)
    assert code == 64 and "factoridiv: error:" in err
    code, _, err = run(
        ["scan", "--poly", "1,0,1", "--from", "2", "--to", "9",
         "--theta", "1/2", "--budget", "-5"],
        capsys,
    )
    assert code == 64 and "factoridiv: error:" in err
    for bad in ("abc", "-3"):
        monkeypatch.setenv("FACTORIDIV_BUDGET", bad)
        code, _, err = run(["verify", path], capsys)
        assert code == 64
        assert "factoridiv: error:" in err and "FACTORIDIV_BUDGET" in err


def test_scan_budget_and_jobs(capsys, monkeypatch):
    scan = ["scan", "--poly", "1,0,1", "--from", "230", "--to", "250",
            "--theta", "14/25"]
    # FACTORIDIV_BUDGET is the factoring budget; it does not cap the sieve
    monkeypatch.setenv("FACTORIDIV_BUDGET", "1")
    code, outtext, err = run(scan, capsys)
    assert code == 0 and json.loads(err)["unresolved"] == 0
    assert '"n":"239"' in outtext
    # --budget caps the sieve primes per value
    code, outtext, err = run(scan + ["--budget", "0"], capsys)
    assert code == 0 and outtext == ""
    assert json.loads(err)["unresolved"] == 21
    for jobs in ("0", "-2"):
        code, _, err = run(scan + ["--jobs", jobs], capsys)
        assert code == 64 and "factoridiv: error:" in err


def test_scan_sieve_bound_and_budget_tail(capsys):
    scan = ["scan", "--poly", "1,0,1", "--from", "2", "--theta", "1/2"]
    # a sieve bound above 2**28 is a usage error, raised before the sieve
    # is allocated: t_cap = 10**350, and 3.09e13 for a budget of 10**12
    for stop, budget in ((10**700, 10**400), (10**30, 10**12)):
        code, out, err = run(scan + ["--to", str(stop),
                                     "--budget", str(budget)], capsys)
        assert (code, out) == (64, "")
        assert err == ("factoridiv: error: the sieve bound is above "
                       "268435456, the largest the scan allocates\n")
    # budget 100 resolves n < 547**2; the rest of the range is counted
    code, out, err = run(scan + ["--to", str(10**30), "--budget", "100"],
                         capsys)
    assert code == 0 and json.loads(err)["unresolved"] == 10**30 - 299208
    assert run(scan + ["--to", "299208"], capsys)[1] == out


# stdout sha256 recorded before the comparisons avoided the big powers,
# when these took 13 s, 25 s and 903 s through the CLI (2 vCPUs, Python
# 3.11.7); each now takes well under a second
@pytest.mark.parametrize("theta, stop, sha", [
    ("99999/100000", "300",
     "de526e44349f9dd9df8c90e27f9b28e0fd246b105dc34affed393fc45094d2bb"),
    ("99999/100000", "1000",
     "ccc82293f71fd42af0452135e135362633dab02ffc956b6ed729c46b2eaa44d6"),
    ("999999/1000000", "1000",
     "ccc82293f71fd42af0452135e135362633dab02ffc956b6ed729c46b2eaa44d6"),
])
def test_scan_theta_with_large_terms(theta, stop, sha, capsys):
    code, outtext, _ = run(["scan", "--poly", "1,0,1", "--from", "2",
                            "--to", stop, "--theta", theta], capsys)
    assert code == 0
    assert hashlib.sha256(outtext.encode()).hexdigest() == sha


# bench seed-0 arguments of the families whose identity checks must not
# depend on assert statements
OPTIMIZED_ARGVS = [
    ["construct", "--class", "binomial", "--m", "4", "--s", "2,3",
     "--ratio", "6/5"],
    ["construct", "--class", "cyclotomic", "--m", "2", "--s", "2,3,5"],
    ["construct", "--class", "chebyshev", "--ms", "2", "--s", "2,3,4,5,6",
     "--ratio", "9/8"],
    ["table", "phi", "--max", "30"],
    ["construct", "--class", "quadratic", "--poly", "1,0,1", "--count", "50"],
    ["construct", "--class", "cubic", "--poly", "1,1,1,1", "--count", "6"],
    ["construct", "--class", "quartic-cl", "--poly", "1,1,1,1", "--poly", "1,1",
     "--count", "3"],
    ["construct", "--class", "quartic-qq", "--poly", "1,2,1", "--poly", "1,1,1",
     "--count", "5"],
]


def test_output_identical_under_python_O(capsys):
    # the same calls in this interpreter and in one run with asserts off;
    # each call's stdout is followed by an exit line
    want = "optimize 1\n"
    for argv in OPTIMIZED_ARGVS:
        code, out, _ = run(argv, capsys)
        want += f"{out}exit {code}\n"
    script = (
        "import sys\n"
        "from factoridiv import cli\n"
        "print('optimize', sys.flags.optimize)\n"
        f"for argv in {OPTIMIZED_ARGVS!r}:\n"
        "    code = cli.main(argv)\n"
        "    print('exit', code)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


@pytest.mark.parametrize("kind", ["phi", "psi", "chebyshev"])
@pytest.mark.parametrize("top", ["-1", "-2"])
def test_table_negative_max_is_a_usage_error(kind, top, capsys):
    # a negative --max once printed an empty table and exited 0
    assert run(["table", kind, "--max", top], capsys) == (
        64, "", "factoridiv: error: --max must be non-negative\n"
    )


def test_table_zero_max(capsys):
    # --max 0 is no error: chebyshev prints T_0, the other tables nothing
    assert run(["table", "chebyshev", "--max", "0"], capsys) == (0, "0\t1\n", "")
    assert run(["table", "phi", "--max", "0"], capsys) == (0, "", "")
