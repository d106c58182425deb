"""End-to-end command-line behaviour."""

import sysconfig
from pathlib import Path

import pytest

from sawenum import analysis, ckernel, flm, oracle
from sawenum.cli import main
from sawenum.modseries import (DEFAULT_MODULI, SeriesTable, read_series,
                               write_series)

SERIES_N43 = Path(__file__).resolve().parent.parent / "data" / \
    "saw_counts_n43.series"


def run(*argv):
    return main(list(argv))


class TestEnumerateOracleVerify:
    def test_enumerate_matches_oracle(self, tmp_path, capsys):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        assert run("enumerate", "--wmax", "3", "-o", str(a)) == 0
        assert run("oracle", "--nmax", "7", "-o", str(b)) == 0
        assert run("verify", str(a), str(b)) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_reports_first_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        write_series(SeriesTable([1, 4, 12]), a)
        write_series(SeriesTable([1, 4, 13, 36]), b)
        assert run("verify", str(a), str(b)) == 1
        assert "n=2" in capsys.readouterr().out

    def test_verify_compares_over_the_overlap_only(self, tmp_path):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        write_series(SeriesTable([1, 4]), a)
        write_series(SeriesTable([1, 4, 12, 36]), b)
        assert run("verify", str(a), str(b)) == 0

    def test_verify_warns_when_the_overlap_stops_short(self, tmp_path, capsys):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        write_series(SeriesTable([1, 4, 12], metadata={"nmax": "2"}), a)
        write_series(SeriesTable([1, 4, 12, 36], metadata={"nmax": "3"}), b)
        assert run("verify", str(a), str(b)) == 0
        out, err = capsys.readouterr()
        assert "OK: 3 coefficients agree" in out
        assert f"warning: {b} has nmax 3" in err
        assert str(a) not in err

    def test_verify_refuses_a_count_series_that_breaks_an_invariant(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.series"
        table = read_series(SERIES_N43)
        table.values[30] += 1
        write_series(table, bad)
        assert run("verify", str(SERIES_N43), str(SERIES_N43)) == 0
        assert run("verify", str(SERIES_N43), str(bad)) == 2
        out, err = capsys.readouterr()
        assert "OK: 44" in out
        assert f"error: {bad}: not a walk count series" in err
        assert "fails at n = 30" in err

    @pytest.mark.parametrize("a_values", [[1], []])
    def test_verify_refuses_an_overlap_of_n0_only(self, tmp_path, capsys,
                                                  a_values):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        write_series(SeriesTable(a_values), a)
        write_series(SeriesTable([1, 4, 12]), b)
        assert run("verify", str(a), str(b)) == 2
        out, err = capsys.readouterr()
        assert "OK" not in out
        assert "beyond n = 0" in err

    def test_exact_output_is_default_with_residues_opt_in(self, tmp_path):
        exact = tmp_path / "e.series"
        resid = tmp_path / "r.series"
        run("enumerate", "--wmax", "2", "-o", str(exact))
        run("enumerate", "--wmax", "2", "--residues", "-o", str(resid))
        assert read_series(exact).is_exact
        assert read_series(resid).moduli == DEFAULT_MODULI

    @pytest.mark.parametrize("moduli", [(2**64 + 13,), (2**62, 2**64 + 1)])
    def test_moduli_beyond_a_machine_word_reduce_the_series(self, tmp_path,
                                                            moduli):
        resid = tmp_path / "r.series"
        exact = tmp_path / "x.series"
        assert run("enumerate", "--wmax", "4", "--residues",
                   ",".join(map(str, moduli)), "-o", str(resid)) == 0
        want = list(oracle.count_walks(9).values)
        table = read_series(resid)
        assert table.moduli == moduli
        assert table.values == [tuple(v % m for m in moduli) for v in want]
        assert run("crt", str(resid), "-o", str(exact)) == 0
        assert read_series(exact).values == want

    def test_enumerate_refuses_non_coprime_moduli(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_sweep(job):
            raise AssertionError(f"width {job[0]} was swept")

        monkeypatch.setattr(flm, "_sweep_job", no_sweep)
        out = tmp_path / "e.series"
        assert run("enumerate", "--wmax", "2", "--residues", "6,10",
                   "-o", str(out)) == 2
        assert "error: moduli 6 and 10 are not coprime" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_no_prune_is_identical(self, tmp_path):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        run("enumerate", "--wmax", "2", "-o", str(a))
        assert run("enumerate", "--wmax", "2", "--no-prune", "-o", str(b)) == 0
        assert read_series(a).values == read_series(b).values

    def test_workers_give_byte_identical_files(self, tmp_path):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        run("enumerate", "--wmax", "3", "--workers", "1", "-o", str(a))
        run("enumerate", "--wmax", "3", "--workers", "2", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_metrics_writes_companion_files(self, tmp_path):
        out = tmp_path / "o.series"
        assert run("oracle", "--nmax", "5", "--metrics", "-o", str(out)) == 0
        for suffix in (".r2e", ".r2g", ".r2m"):
            t = read_series(str(out) + suffix)
            assert len(t) == 6 and t.is_exact


class TestBoxAndCrt:
    def test_box_engine_equals_box_oracle(self, tmp_path):
        a = tmp_path / "a.series"
        b = tmp_path / "b.series"
        assert run("box", "--width", "2", "--length", "3", "-o", str(a)) == 0
        assert run("box", "--width", "2", "--length", "3", "--oracle",
                   "-o", str(b)) == 0
        assert run("verify", str(a), str(b)) == 0

    @pytest.mark.parametrize("command", [
        ["oracle", "--nmax", "-1"],
        ["box", "--width", "2", "--length", "3", "--oracle", "--nmax", "-1"],
    ])
    def test_oracle_refuses_a_negative_nmax(self, tmp_path, capsys, command):
        out = tmp_path / "o.series"
        assert run(*command, "-o", str(out)) == 2
        assert "error: n_max must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("oracle_flag", [[], ["--oracle"]])
    def test_box_refuses_a_negative_width(self, tmp_path, capsys,
                                          oracle_flag):
        out = tmp_path / "b.series"
        assert run("box", "--width", "-1", "--length", "3", *oracle_flag,
                   "-o", str(out)) == 2
        assert "error: width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not ckernel.available(),
                        reason="no C compiler to build the kernel")
    def test_a_count_past_128_bits_is_an_error(self, tmp_path, capsys):
        # the 2 x 74 box's counts reach 2**130; the Python engine, run
        # without a compiler, would count them exactly
        out = tmp_path / "b.series"
        assert run("box", "--width", "2", "--length", "74",
                   "-o", str(out)) == 2
        assert "128 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_crt_refuses_moduli_too_small_for_the_counts(self, tmp_path,
                                                         capsys):
        resid = tmp_path / "r.series"
        exact = tmp_path / "x.series"
        assert run("enumerate", "--wmax", "5", "--residues", "7,11",
                   "-o", str(resid)) == 0
        assert run("crt", str(resid), "-o", str(exact)) == 2
        assert "error: moduli 7,11 cannot hold counts up to n = 11" in (
            capsys.readouterr().err)
        assert not exact.exists()

    def test_crt_reconstructs_residue_file(self, tmp_path):
        resid = tmp_path / "r.series"
        exact = tmp_path / "x.series"
        plain = tmp_path / "p.series"
        run("enumerate", "--wmax", "2", "--residues", "-o", str(resid))
        run("enumerate", "--wmax", "2", "-o", str(plain))
        assert run("crt", str(resid), "-o", str(exact)) == 0
        assert read_series(exact).values == read_series(plain).values


class TestAnalyzeFitRatios:
    def test_analyze_writes_csv(self, tmp_path, capsys):
        series = tmp_path / "s.series"
        csv = tmp_path / "da.csv"
        # exact (n+1) 3^n series: singular at 1/3 with exponent 2
        vals = [(n + 1) * 3**n for n in range(30)]
        write_series(SeriesTable(vals), series)
        assert run("analyze", "--series", str(series), "--order", "2",
                   "--inhomog", "0", "-o", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert any(line.startswith("inhomog_degree,") for line in lines)
        assert "0.3333333333333333" in capsys.readouterr().out

    def test_analyze_scans_a_list_of_inhomogeneous_degrees(self, tmp_path):
        series = tmp_path / "s.series"
        write_series(SeriesTable([(n + 1) * 3**n for n in range(30)]), series)

        def csv_lines(degrees):
            csv = tmp_path / f"da{degrees}.csv"
            assert run("analyze", "--series", str(series), "--order", "2",
                       "--inhomog", degrees, "-o", str(csv)) == 0
            return csv.read_text().splitlines()

        both = csv_lines("0,2")
        assert "# command: analyze --order 2 --inhomog 0,2" in both
        rows = [line for line in both if line[0].isdigit()]
        singles = [line for d in ("0", "2") for line in csv_lines(d)
                   if line[0].isdigit()]
        assert {r.split(",")[0] for r in rows} == {"0", "2"}
        assert sorted(rows) == sorted(singles)

    def test_analyze_rejects_a_bad_degree_list(self, tmp_path, capsys):
        series = tmp_path / "s.series"
        write_series(SeriesTable([3**n for n in range(20)]), series)
        assert run("analyze", "--series", str(series), "--inhomog", "0,x",
                   "-o", str(tmp_path / "da.csv")) == 2
        assert "bad --inhomog value" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_analyze_refuses_an_order_below_one(self, tmp_path, capsys, order):
        series = tmp_path / "s.series"
        csv = tmp_path / "da.csv"
        write_series(SeriesTable([(n + 1) * 3**n for n in range(30)]), series)
        assert run("analyze", "--series", str(series), "--order", order,
                   "-o", str(csv)) == 2
        assert f"error: approximant order {order} must be at least 1" in (
            capsys.readouterr().err)
        assert not csv.exists()

    def test_analyze_refuses_a_p_degree_below_minus_one(self, tmp_path,
                                                         capsys):
        series = tmp_path / "s.series"
        csv = tmp_path / "da.csv"
        write_series(SeriesTable([(n + 1) * 3**n for n in range(30)]), series)
        assert run("analyze", "--series", str(series), "--inhomog", "-2",
                   "-o", str(csv)) == 2
        assert "error: inhomogeneous degree -2 must be at least -1" in (
            capsys.readouterr().err)
        assert not csv.exists()

    def test_analyze_refuses_more_terms_than_the_series_has(self, tmp_path,
                                                             capsys):
        csv = tmp_path / "da.csv"
        assert run("analyze", "--series", str(SERIES_N43), "--min-terms",
                   "200", "-o", str(csv)) == 2
        assert "error: the series has 44 terms, fewer than the 200" in (
            capsys.readouterr().err)
        assert not csv.exists()

    def test_analyze_refuses_a_negative_term_count(self, tmp_path, capsys):
        csv = tmp_path / "da.csv"
        assert run("analyze", "--series", str(SERIES_N43), "--min-terms",
                   "-5", "-o", str(csv)) == 2
        assert "error: a window needs at least 1 term, not -5" in (
            capsys.readouterr().err)
        assert not csv.exists()

    def test_fit_refuses_an_unknown_model(self, tmp_path, capsys):
        csv = tmp_path / "fit.csv"
        assert run("fit", "--series", str(SERIES_N43), "--model", "nope",
                   "--k", "2", "--m", "1", "-o", str(csv)) == 2
        assert ("error: unknown model 'nope' (choose from count, r2e, r2g, "
                "r2m)") in capsys.readouterr().err
        assert not csv.exists()

    def test_fit_refuses_a_bad_shape(self, tmp_path, capsys):
        csv = tmp_path / "fit.csv"
        assert run("fit", "--series", str(SERIES_N43), "--model", "count",
                   "--k", "0", "--m", "0", "-o", str(csv)) == 2
        assert "error: need k >= 1 and m >= 0" in capsys.readouterr().err
        assert not csv.exists()

    def test_fit_writes_trajectory(self, tmp_path, capsys):
        series = tmp_path / "s.series"
        mu = 1 / 0.379052277752
        vals = [0] + [int(1.25 * mu**n * n ** (11 / 32)) for n in range(1, 30)]
        write_series(SeriesTable(vals), series)
        csv = tmp_path / "fit.csv"
        assert run("fit", "--series", str(series), "--model", "count",
                   "--k", "2", "--m", "1", "-o", str(csv)) == 0
        assert "inv_n,a0_estimate" in csv.read_text()

    def test_ratios_prints_f(self, capsys):
        assert run("ratios", "--A", "1.17704242", "--C", "0.771182",
                   "--D", "0.1081975", "--E", "0.339043") == 0
        out = capsys.readouterr().out
        f = float(out.strip().splitlines()[-1].split("=")[1])
        assert abs(f) < 1.5e-5


class TestErrorHandling:
    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            run("enumerate", "--bogus", "1", "-o", "x")
        assert exc.value.code != 0

    def test_unreadable_file(self, tmp_path, capsys):
        assert run("verify", str(tmp_path / "nope"), str(tmp_path / "nada")) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_series(self, tmp_path, capsys):
        bad = tmp_path / "bad.series"
        bad.write_text("0\tnot-a-number\n")
        assert run("crt", str(bad), "-o", str(tmp_path / "o")) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_c_rejected(self, capsys):
        assert run("ratios", "--A", "1", "--C", "0", "--D", "1", "--E", "1") == 2

    def test_zero_a_rejected(self, capsys):
        assert run("ratios", "--A", "0", "--C", "1", "--D", "1", "--E", "1") == 2
        assert "error: amplitude A must be nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["0", "-1"])
    def test_fit_refuses_a_nonpositive_mu(self, tmp_path, capsys, mu):
        csv = tmp_path / "fit.csv"
        assert run("fit", "--series", str(SERIES_N43), "--model", "count",
                   "--k", "2", "--m", "1", "--mu", mu, "-o", str(csv)) == 2
        assert "error: mu must be positive" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_enumerate_refuses_fewer_than_one_worker(self, tmp_path, capsys,
                                                     workers):
        out = tmp_path / "o.series"
        assert run("enumerate", "--wmax", "2", "--workers", workers,
                   "-o", str(out)) == 2
        assert "error: workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["inf", "nan"])
    def test_fit_refuses_a_non_finite_mu(self, tmp_path, capsys, mu):
        csv = tmp_path / "fit.csv"
        assert run("fit", "--series", str(SERIES_N43), "--model", "count",
                   "--k", "2", "--m", "1", "--mu", mu, "-o", str(csv)) == 2
        assert "error: mu must be positive and finite" in (
            capsys.readouterr().err)
        assert not csv.exists()

    @pytest.mark.parametrize("name", ["A", "C", "D", "E"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_ratios_refuses_a_non_finite_amplitude(self, capsys, name, value):
        amplitudes = {"A": "1", "C": "1", "D": "1", "E": "1", name: value}
        argv = [f"--{n}={v}" for n, v in amplitudes.items()]
        assert run("ratios", *argv) == 2
        captured = capsys.readouterr()
        assert f"error: amplitude {name} must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--wmax", "2"],
        ["oracle", "--nmax", "3"],
        ["analyze", "--series", str(SERIES_N43), "--min-terms", "44",
         "--inhomog", "2"],
    ], ids=lambda argv: argv[0])
    def test_an_unwritable_output_is_an_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out"
        assert run(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_a_failed_kernel_build_is_an_error(self, tmp_path, capsys,
                                               monkeypatch):
        cc = tmp_path / "bad-cc"
        cc.write_text("#!/bin/sh\necho 'ckernel.c:1: no such builtin' >&2\n"
                      "exit 1\n")
        cc.chmod(0o755)
        cache = tmp_path / "cache"
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_path",
                            lambda *sources: cache / "ckernel-test.so")
        out = tmp_path / "o.series"
        assert run("enumerate", "--wmax", "2", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cc} failed to build the kernel")
        assert "ckernel.c:1: no such builtin" in err
        assert list(cache.iterdir()) == []  # no temporary library is left
        assert not out.exists()

    def test_a_kernel_build_without_python_h_is_an_error(
            self, tmp_path, capsys, monkeypatch):
        cc = tmp_path / "cc"
        cc.write_text("#!/bin/sh\necho 'the compiler ran' >&2\nexit 1\n")
        cc.chmod(0o755)
        include = tmp_path / "include"
        include.mkdir()
        cache = tmp_path / "cache"
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setattr(sysconfig, "get_path",
                            lambda name, *args, **kwargs: str(include))
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_path",
                            lambda *sources: cache / "ckernel-test.so")
        out = tmp_path / "o.series"
        assert run("enumerate", "--wmax", "2", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {include / 'Python.h'} is missing")
        assert "the compiler ran" not in err
        assert list(cache.glob("*")) == []  # no temporary library is left
        assert not out.exists()

    def test_enumerate_refuses_a_width_past_the_key_layout_up_front(
            self, tmp_path, capsys, monkeypatch):
        def no_sweep(job):
            raise AssertionError(f"width {job[0]} was swept")

        monkeypatch.setattr(flm, "_sweep_job", no_sweep)
        out = tmp_path / "o.series"
        assert run("enumerate", "--wmax", "29", "-o", str(out)) == 2
        assert "error: width 29 overflows the packed key layout" in (
            capsys.readouterr().err)
        assert not out.exists()

    BEFORE_THE_WORK = [
        (["analyze", "--series", str(SERIES_N43), "--inhomog", "0,2"],
         analysis, "da_scan"),
        (["fit", "--series", str(SERIES_N43), "--model", "count", "--k", "2",
          "--m", "1"], analysis, "amplitude_trajectory"),
        (["enumerate", "--wmax", "9"], flm, "enumerate_series"),
        (["box", "--width", "2", "--length", "3"], flm, "box_counts"),
        (["box", "--width", "2", "--length", "3", "--oracle"], oracle,
         "box_spanning_counts"),
        (["oracle", "--nmax", "5"], oracle, "count_walks"),
    ]

    @pytest.mark.parametrize("argv, module, work", BEFORE_THE_WORK,
                             ids=[f"{argv[0]}-{work}"
                                  for argv, _, work in BEFORE_THE_WORK])
    def test_an_unwritable_output_fails_before_the_work(self, tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        module, work):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(module, work, no_work)
        out = tmp_path / "missing" / "out.csv"
        assert run(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_a_failed_scan_leaves_the_output_as_it_was(self, tmp_path,
                                                       capsys):
        series = tmp_path / "s.series"
        write_series(SeriesTable([1] + [0] * 29), series)  # all defective
        fresh = tmp_path / "fresh.csv"
        kept = tmp_path / "kept.csv"
        kept.write_text("an earlier result\n")
        for csv in (fresh, kept):
            assert run("analyze", "--series", str(series), "-o",
                       str(csv)) == 2
            assert "error: no surviving approximants" in (
                capsys.readouterr().err)
        assert not fresh.exists()
        assert kept.read_text() == "an earlier result\n"
