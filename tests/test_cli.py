"""End-to-end command-line behavior: output tables and exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from hcpkit.cli import main

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

