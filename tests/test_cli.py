"""End-to-end command-line behavior: output tables and exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import pytest

import hcpkit.classpoly
import hcpkit.cli
import hcpkit.finitefield
import hcpkit.harness
from hcpkit.cli import main
from hcpkit.errors import VerificationFailed
from hcpkit.harness import ExperimentRecord
from hcpkit.intpoly import IntPolynomial

HEADER = "experiment,D,h,param1,param2,value,pass"


@pytest.fixture
def run(capsys, cache_dir):
    def _run(*argv, cache=True):
        full = ["--cache-dir", str(cache_dir), *argv] if cache else list(argv)
        rc = main(full)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return _run


def rows_of(out):
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == HEADER.split(",")
    return parsed[1:]


class TestBasicCommands:
    def test_classnum(self, run):
        rc, out, _ = run("classnum", "-23")
        assert rc == 0
        assert rows_of(out) == [["classnum", "-23", "3", "", "", "3", ""]]

    def test_hpoly_constant_first(self, run):
        rc, out, _ = run("hpoly", "-15")
        assert rc == 0
        assert rows_of(out) == [["hpoly", "-15", "2", "", "", "-121287375,191025,1", ""]]

    def test_hpoly_writes_cache(self, run, cache_dir):
        rc, _, _ = run("hpoly", "-56")
        assert rc == 0
        assert (cache_dir / "hd_56.txt").exists()

    def test_local_cache_dir_overrides_global(self, run, tmp_path):
        rc, _, _ = run("hpoly", "-55", "--cache-dir", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "hd_55.txt").exists()

    def test_modpoly_term_rows(self, run):
        rc, out, _ = run("modpoly", "2")
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) == 11
        assert rows[0] == ["modpoly", "", "", "i=0", "j=0", "-157464000000000", ""]
        assert rows[-1] == ["modpoly", "", "", "i=3", "j=0", "1", ""]

    def test_modpoly_level_one(self, run):
        rc, out, _ = run("modpoly", "1")
        assert rc == 0
        assert [r[5] for r in rows_of(out)] == ["-1", "1"]

    def test_ss_coefficient_encodings(self, run):
        rc, out, _ = run("ss", "11")
        assert rc == 0
        assert rows_of(out) == [["ss", "", "", "p=11", "", "0,10,1", ""]]

    def test_ss_at_797_is_fast(self, run, time_limit):
        with time_limit(5):
            rc, out, _ = run("ss", "797")
        assert rc == 0
        [row] = rows_of(out)
        coeffs = row[5].split(",")
        assert len(coeffs) == 68  # degree 66 + 1 since 797 = 5 mod 12
        assert coeffs[-1] == "1"

    def test_json_output(self, run):
        rc, out, _ = run("--out", "json", "classnum", "-4")
        assert rc == 0
        assert json.loads(out) == [
            {
                "experiment": "classnum",
                "parameters": {},
                "D": -4,
                "h": 1,
                "value": 1,
                "pass": None,
            }
        ]


class TestVerifyingCommands:
    def test_prop23_grid(self, run):
        rc, out, _ = run("prop23", "--D", "-7", "--p", "2,3", "--n", "1")
        assert rc == 0
        rows = rows_of(out)
        assert rows[0] == ["prop23", "-7", "1", "p=2", "n=1", "1", "true"]
        assert rows[1] == ["prop23", "-7", "1", "p=3", "n=1", "4", "true"]

    def test_prop23_skips_square_divisor(self, run):
        rc, out, _ = run("prop23", "--D", "-12", "--p", "2", "--n", "1")
        assert rc == 0
        assert rows_of(out) == []
        assert out.strip() == HEADER

    def test_prop23_cap_exceeded_is_exit_3(self, run):
        rc, _, err = run("--h-cap", "10", "prop23", "--D", "-15", "--p", "7", "--n", "2")
        assert rc == 3
        assert "exceeds cap" in err

    @pytest.mark.parametrize(
        "name, fake, message",
        [
            ("unit_group_order", lambda D: 3, "not integral"),
            ("class_number", lambda D: 2, "disagrees with class number ratio"),
        ],
        ids=["exponent_not_integral", "exponent_not_class_number_ratio"],
    )
    def test_prop23_broken_identity_is_exit_2(self, run, monkeypatch, name, fake, message):
        monkeypatch.setattr(hcpkit.classpoly, name, fake)
        with pytest.raises(VerificationFailed, match=message):
            hcpkit.classpoly.verify_prop23(-7, 3, 1)
        rc, out, err = run("prop23", "--D=-7", "--p", "3", "--n", "1")
        assert rc == 2
        assert message in err

    def test_kronecker_congruence(self, run):
        rc, out, _ = run("kronecker-congruence", "--p", "2,3")
        assert rc == 0
        assert [r[6] for r in rows_of(out)] == ["true", "true"]

    def test_michel_histograms(self, run):
        rc, out, _ = run("michel", "--D-cap", "8", "--p", "7")
        assert rc == 0
        rows = rows_of(out)
        assert rows == [
            ["michel", "-4", "1", "p=7", "", "6:1", "true"],
            ["michel", "-8", "1", "p=7", "", "6:1", "true"],
        ]

    def test_michel_skips_assembly_without_an_inert_prime(self, run, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "michel", "--D-cap", "30", "--p", "3")
        rc, out, _ = run(*argv, cache=False)
        assert rc == 0
        assert "-8" not in [r[1] for r in rows_of(out)]  # 3 splits in Q(sqrt -2)
        assert (tmp_path / "hd_19.txt").exists()  # 3 is inert for D = -19
        assert not (tmp_path / "hd_8.txt").exists()

    def test_michel_h_cap_zero_means_no_cap(self, run):
        rc, out, _ = run("--h-cap", "0", "michel", "--D-cap", "8", "--p", "7")
        assert rc == 0
        assert [r[1] for r in rows_of(out)] == ["-4", "-8"]

    def test_thm54_rows(self, run):
        rc, out, _ = run("thm54", "--D-cap", "23")
        assert rc == 0
        rows = rows_of(out)
        assert [r[1] for r in rows] == ["-7", "-15", "-23"]
        assert all(r[3] == "forward=True" and r[4] == "backward=True" for r in rows)
        assert all(r[6] == "true" for r in rows)

    def test_thm54_h_cap_zero_means_no_cap(self, run):
        rc, out, _ = run("--h-cap", "0", "thm54", "--D-cap", "23")
        assert rc == 0
        assert [r[1] for r in rows_of(out)] == ["-7", "-15", "-23"]

    def test_gcd_growth_summary(self, run):
        rc, out, _ = run("gcd-growth", "--a", "2", "--b", "4", "--p", "2", "--D-cap", "40")
        assert rc == 0
        rows = rows_of(out)
        assert [r[1] for r in rows[:-1]] == ["-3", "-11", "-19", "-35"]
        assert rows[-1][0] == "gcd-growth-summary"
        assert rows[-1][6] == "true"


class TestScanCommands:
    def test_support_modular_self_is_clean(self, run):
        rc, out, _ = run("support-modular", "--j", "2", "--j2", "2", "--D-cap", "20")
        assert rc == 0
        assert all(r[6] == "true" for r in rows_of(out))

    def test_support_cyclotomic_violations_reported_not_fatal(self, run):
        rc, out, _ = run("support-cyclotomic", "--a", "2", "--b", "4", "--n-max", "6")
        assert rc == 0
        by_n = {r[3]: r for r in rows_of(out)}
        assert by_n["n=2"][5] == "3" and by_n["n=2"][6] == "false"
        assert by_n["n=4"][5] == "5" and by_n["n=4"][6] == "false"
        assert by_n["n=3"][6] == "true"
        assert all(r[4] == "ab=2,4" for r in rows_of(out))

    def test_support_cyclotomic_ignore_set(self, run):
        rc, out, _ = run(
            "support-cyclotomic", "--a", "2", "--b", "4", "--n-max", "6", "--S", "3"
        )
        assert rc == 0
        by_n = {r[3]: r for r in rows_of(out)}
        assert by_n["n=2"][6] == "true"
        assert by_n["n=4"][6] == "false"

    def test_support_multiplicative_clean_cube(self, run):
        rc, out, _ = run("support-multiplicative", "--a", "2", "--b", "8", "--n-max", "10")
        assert rc == 0
        assert all(r[6] == "true" for r in rows_of(out))

    def test_ordinary_scan_rows(self, run):
        rc, out, _ = run("ordinary-scan", "--j", "2", "--q-max", "12")
        assert rc == 0
        rows = rows_of(out)
        assert [(r[3], r[4], r[1]) for r in rows] == [
            ("j=2", "q=3", "-8"),
            ("j=2", "q=5", "-11"),
            ("j=2", "q=7", "-12"),
            ("j=2", "q=11", "-7"),
        ]

    def test_ordinary_scan_tight_cap_is_exit_2(self, run):
        rc, _, err = run("ordinary-scan", "--j", "2", "--q-max", "10", "--D-cap", "4")
        assert rc == 2
        assert "no Deuring discriminant" in err


class TestFiniteFieldCommands:
    def test_ff_find(self, run):
        rc, out, _ = run("ff-find", "--p", "2", "--A", "F2:0,1", "--B", "F2:0,0,1")
        assert rc == 0
        assert rows_of(out) == [
            ["ff-find", "-3", "1", "A=F2:0,1", "B=F2:0,0,1", "alpha=0;m=1;k=1", "true"]
        ]

    def test_ff_find_quadratic_point(self, run):
        rc, out, _ = run("ff-find", "--p", "2", "--A", "F2:0,1", "--B", "F2:1,1")
        assert rc == 0
        row = rows_of(out)[0]
        assert row[1] == "-15"
        assert row[5] == "alpha=2;m=2;k=1"

    def test_ff_growth(self, run):
        rc, out, _ = run(
            "ff-growth", "--p", "2", "--A", "F2:0,1", "--B", "F2:0,0,1",
            "--D0", "-3", "--k-max", "2",
        )
        assert rc == 0
        rows = rows_of(out)
        assert [r[1] for r in rows] == ["-3", "-12", "-48"]
        assert [r[5] for r in rows] == ["1/1", "1/1", "1/1"]
        assert all(r[6] == "true" for r in rows)

    def test_bad_poly_literal_is_usage_error(self, run):
        rc, _, err = run("ff-find", "--p", "2", "--A", "X2", "--B", "F2:0,1")
        assert rc == 1
        assert "polynomial literal" in err

    def test_field_mismatch_is_usage_error(self, run):
        rc, _, err = run("ff-find", "--p", "3", "--A", "F2:0,1", "--B", "F2:0,1")
        assert rc == 1
        assert "does not match" in err


class TestErrorHandling:
    def test_invalid_discriminant_is_exit_1(self, run):
        rc, _, err = run("classnum", "-5")
        assert rc == 1
        assert "discriminant" in err

    def test_failed_verification_is_exit_2(self, run, monkeypatch, tmp_path):
        real = hcpkit.classpoly.hilbert_class_polynomial
        h = real(-23)
        bad = IntPolynomial((h.coeffs[0] + 1,) + h.coeffs[1:])

        def patched(D, *args, **kwargs):
            return bad if D == -23 else real(D, *args, **kwargs)

        monkeypatch.setattr(hcpkit.classpoly, "hilbert_class_polynomial", patched)
        argv = ("--cache-dir", str(tmp_path), "michel", "--D-cap", "23", "--p", "5")
        rc, out, err = run(*argv, cache=False)
        assert rc == 2
        assert err == "hcpkit: H_-23 mod 5 is not a product of supersingular factors\n"
        assert [r[1] for r in rows_of(out)] == ["-3", "-7", "-8"]

    def test_hasse_bound_violation_is_exit_2(self, run, monkeypatch):
        # a point count far off the Hasse bound is a verification failure,
        # not a traceback out of main
        monkeypatch.setattr(hcpkit.finitefield, "_count_p_gt3_prime", lambda j0: 0)
        rc, _, err = run("ordinary-scan", "--j", "5", "--q-max", "30")
        assert rc == 2
        assert err == "hcpkit: trace exceeds the Hasse bound; counting bug\n"

    def test_unsupported_level_is_exit_1(self, run):
        rc, _, err = run("modpoly", "4")
        assert rc == 1

    def test_composite_prime_list_is_exit_1(self, run):
        rc, _, err = run("kronecker-congruence", "--p", "4")
        assert rc == 1
        assert "must be prime" in err

    def test_composite_ignore_set_is_exit_1(self, run):
        rc, _, err = run(
            "support-cyclotomic", "--a", "2", "--b", "4", "--n-max", "4", "--S", "6"
        )
        assert rc == 1

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_non_integer_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classnum", "abc"])
        assert exc.value.code == 1

    def test_malformed_int_list_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prop23", "--D", "-7;x", "--p", "2", "--n", "1"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["prop23", "--D=-7,x", "--p", "2", "--n", "1"])
        assert exc.value.code == 1
        assert "argument --D: not a comma-separated integer list: '-7,x'" in capsys.readouterr().err


def _fake_gcd_growth(a, b, p, D_cap, h_cap=2000, cache_dir=None, sink=None):
    summary = ExperimentRecord("gcd-growth-summary", {"p": p}, value=0.0, passed=False)
    sink(summary)
    return [summary]


# command, the module whose attribute is patched, the attribute, and its
# stand-in, which makes the command produce exactly one failing row
FAILING_ROWS = [
    pytest.param(
        ["prop23", "--D=-7", "--p", "2", "--n", "1"],
        hcpkit.cli,
        "verify_prop23",
        lambda *args, **kwargs: SimpleNamespace(k=7, congruence_holds=False),
        id="prop23",
    ),
    pytest.param(
        ["kronecker-congruence", "--p", "2"],
        hcpkit.cli,
        "kronecker_congruence_check",
        lambda p: False,
        id="kronecker-congruence",
    ),
    pytest.param(
        ["thm54", "--D-cap", "7"],
        hcpkit.cli,
        "verify_thm54",
        lambda *args, **kwargs: SimpleNamespace(forward=True, backward=False, both=False),
        id="thm54",
    ),
    pytest.param(
        ["ff-growth", "--p", "2", "--A", "F2:0,1", "--B", "F2:0,0,1"]
        + ["--D0", "-3", "--k-max", "0"],
        hcpkit.cli,
        "gcd_degree_growth",
        lambda *args, **kwargs: [
            SimpleNamespace(k=0, deg_gcd=0, h=1, ratio="0/1", bound_ok=False)
        ],
        id="ff-growth",
    ),
    pytest.param(
        ["gcd-growth", "--a", "2", "--b", "4", "--p", "2", "--D-cap", "3"],
        hcpkit.harness,
        "gcd_growth_rational",
        _fake_gcd_growth,
        id="gcd-growth",
    ),
]


def pass_column(fmt: str, out: str) -> list:
    if fmt == "csv":
        return [row[6] for row in rows_of(out)]
    return [rec["pass"] for rec in json.loads(out)]


class TestExitCodeRule:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, module, name, fake", FAILING_ROWS)
    def test_a_failing_row_is_exit_2(self, run, monkeypatch, fmt, argv, module, name, fake):
        monkeypatch.setattr(module, name, fake)
        rc, out, err = run("--out", fmt, *argv)
        assert rc == 2
        assert pass_column(fmt, out) == ["false" if fmt == "csv" else False]
        assert err == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["support-modular", "--j", "0", "--j2", "1728", "--D-cap", "8"],
            ["support-cyclotomic", "--a", "2", "--b", "4", "--n-max", "6"],
            ["support-multiplicative", "--a", "2", "--b", "3", "--n-max", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_support_scan_violations_are_exit_0(self, run, fmt, argv):
        rc, out, _ = run("--out", fmt, *argv)
        assert rc == 0
        assert ("false" if fmt == "csv" else False) in pass_column(fmt, out)



README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[str]]:
    """Argument lists of the `hcpkit ...` lines in the README's Command line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.strip()]


# exit code and sha256 of stdout as CSV and as JSON for every README example
README_OUTPUTS = {
    "classnum -47": (
        0,
        "7922953cad8256d56b8b2242f085037194db47bda7fc8c8a7e9bf13f331ccebd",
        "1b29cb23cfd735242ab7163e7b6ae4700fcc88e083029b6240acec4ccf16f588",
    ),
    "hpoly -15": (
        0,
        "e26f1a7dafb283a0b57f4675b29db4e049f447e81ae7ded56fca3939138ae4d7",
        "373ffbf6d741531dc0f4a275ad7c81e86c7795d239b52d545f5ee5fa9551551c",
    ),
    "modpoly 3": (
        0,
        "c8dc33c1aa42e2ec49e18b8b7831065a40e391a6872ba57f85d774fc8546f3ae",
        "dbefb44bba090dfecea9201b797b868af225f120f9ddb24723401338c80351b1",
    ),
    "ss 13": (
        0,
        "99fa1aefa478a1607601352211f9d2df675a8d7304efbedf7eba6c2d61724424",
        "f074086dff6008b4f988d59371f937dbde43607163593aa32fc6902bebe0dbe2",
    ),
    "prop23 --D=-7,-15 --p 2,3 --n 1,2": (
        0,
        "f7ecdf9479db24849335805f08654d67e6ba06655d735b61e9241555f7c61bfc",
        "1ae0c321a289ee49b9c6f5c98b728861ec811cc3ab5baa6196a72a62dba69b1b",
    ),
    "kronecker-congruence --p 2,3,5,7": (
        0,
        "659873f8c009be9dfa5f6d7e6736854f8cb82cacffc43302c36892ca0819c602",
        "45a160bcbe4e6aabaf53851ee223804d3f8fc7db9b5af7fdfe68f12ade5ae7e1",
    ),
    "michel --D-cap 500 --p 3,5,7": (
        0,
        "4a045c72fb5f4ddb79a70fb4fe407437c5f411b832c6a1d98826990bff267083",
        "1d450347b204e79c71d0b43f323216a9d1cb8351ac6899525bf06841ab3abc50",
    ),
    "gcd-growth --a 2 --b 4 --p 2 --D-cap 1000": (
        0,
        "888f59c4de0b4ad03de9a4104d264383b97e72565cad363156e5f43cc6d70049",
        "611fd5926957229769c4f271e9744cab0e68cac62d0db4f38684e9b99f67967a",
    ),
    "support-modular --j 2 --j2 3 --D-cap 150": (
        0,
        "bdd457f99036698100fa970fe36955e781aac0f8b692e825a5daff169f06ea8b",
        "fc939c6a0d419a21b73cd6d169efcd5b67d0a738362bc1148e299bb77038d153",
    ),
    "support-cyclotomic --a 2 --b 4 --n-max 50": (
        0,
        "1421e151c780d4d30a2c232994d8fb55597913eb27c9546f50a1eca05c986653",
        "0f35be7da751cd44ad3fbebe44c6a2b97c0c8cf5057b8ed76c4183e5b3ec33f6",
    ),
    "support-multiplicative --a 2 --b 8 --n-max 200": (
        0,
        "aa4414968f376b1d7cb7462d02d551f355848d5f10ddac92c8ebfcf740787683",
        "fa9d26eb50ba5988261b68b4ca80cb1661fa1d6d6fd508da836a5085ba828b51",
    ),
    "thm54 --D-cap 500": (
        0,
        "61e56d4915cd4d2280a0eebc01092bc150520f4c80546f5580cfdb81e9602afa",
        "716745253745d820148b186bfc271993fe9218f730d9a7bddbed9dd575bf87fd",
    ),
    "ff-find --p 2 --A F2:0,1 --B F2:0,0,1": (
        0,
        "9136c43c1bc39d08acac99e6d90ac3983ec1b7008c12547d00ebd232705bb969",
        "fbbdac272a4f85be1af6f21b77d30df603a5207920074e99f4968ed97955865f",
    ),
    "ff-growth --p 2 --A F2:0,1 --B F2:0,0,1 --D0 -3 --k-max 3": (
        0,
        "fba16544958adace6f546e6e2ba82f625644d030adb2c1a3df9933b0a51de40a",
        "db0f85b8e689c8cc9bde3ad8ed475ea2a2f48c739df8d5de334f0fc907bd3c6e",
    ),
    "ordinary-scan --j 2 --q-max 50": (
        0,
        "eb556e3c7583d9ee613db43b372be5c613abd1e38f0312ecd1254c7a3d8c8b7f",
        "acb2e95d21184614d7a8574f82e820a5c37df06a0b1be22c8be499f860348239",
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_output(argv, fmt, capsys, tmp_path):
    rc = main(["--out", fmt, "--cache-dir", str(tmp_path), *argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    code, csv_sha, json_sha = README_OUTPUTS[" ".join(argv)]
    assert (rc, digest) == (code, csv_sha if fmt == "csv" else json_sha)


def test_module_entry_point(tmp_path):
    """`python -m hcpkit.cli` runs main and exits with its return code."""
    src = str(README.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "hcpkit.cli", "classnum", "-47"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert rows_of(proc.stdout) == [["classnum", "-47", "5", "", "", "5", ""]]
