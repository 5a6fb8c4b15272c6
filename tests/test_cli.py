import csv
import io

import pytest

from sketchdescent import bench
from sketchdescent.cli import main, parse_gen


def run_cli(*argv):
    return main(list(argv))


BASE = ("--gen", "16x6", "--reps", "2", "--max-iters", "500",
        "--tol", "1e-8", "--seed", "3")


class TestParsers:
    def test_parse_gen(self):
        spec = parse_gen("100x20")
        assert (spec.kind, spec.m, spec.n) == ("gaussian", 100, 20)
        spd = parse_gen("40x20:spd")
        assert spd.kind == "gaussian-normal-equations"
        for bad in ("100", "axb", "10x", "10x20:weird"):
            with pytest.raises(Exception):
                parse_gen(bad)


class TestExitCodes:
    def test_negative_seed_refused_before_a_build(self, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built")
        monkeypatch.setattr(bench, "build_system", no_build)
        assert run_cli(*BASE, "--seed", "-1") == 1
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_cells_sharing_a_series_file_exit_one(self, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built")
        monkeypatch.setattr(bench, "build_system", no_build)
        assert run_cli(*BASE, "--rule", "uniform", "--rule", "greedy:1") == 1
        assert "gen-16x6_ssd_row_uniform_g0.csv" in capsys.readouterr().err
        assert run_cli(*BASE, "--method", "ssdm",
                       "--gamma", "0.3,0.3000001") == 1
        assert "gen-16x6_ssdm_row_uniform_g0.3.csv" in capsys.readouterr().err

    def test_success_writes_csv_and_meta(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli(*BASE, "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "run.csv.meta").exists()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["dataset"] == "gen:16x6"
        assert rows[0]["method"] == "ssd"

    def test_capped_rule_label_stays_one_field(self, tmp_path, capsys):
        # the capped label holds commas; both summary writers must quote it
        args = ("--gen", "60x10", "--rule", "capped:0.5,1,m,exact",
                "--reps", "1")
        out = tmp_path / "capped.csv"
        assert run_cli(*args, "--out", str(out)) == 0
        assert run_cli(*args) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            from_file = list(csv.DictReader(fh))
        from_stdout = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for rows in (from_file, from_stdout):
            assert len(rows) == 1
            assert rows[0]["rule"] == "capped:0.5,1,m,exact"
            assert rows[0]["gamma"] == "0.0"
            assert None not in rows[0]  # DictReader files surplus fields under None

    def test_stdout_summary_when_no_out(self, capsys):
        code = run_cli(*BASE)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("dataset,method,family,rule,gamma")
        assert len(lines) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "sketchbench" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert run_cli("--method", "newton", "--gen", "8x4") == 1
        assert run_cli("--gen", "not-a-size") == 1
        # a dataset source is required
        assert run_cli("--method", "ssd") == 1

    def test_missing_file_exits_one(self, capsys):
        code = run_cli("--matrix", "/nonexistent/nowhere.mtx", "--reps", "1")
        assert code == 1
        assert "sketchbench:" in capsys.readouterr().err

    @pytest.mark.parametrize("header, size", [
        ("coordinate real general", "-1 2 0"), ("array real general", "-1 -2")])
    def test_negative_matrix_size_exits_one(self, tmp_path, capsys, header,
                                            size):
        path = tmp_path / "neg.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n{size}\n")
        assert run_cli("--matrix", str(path), "--reps", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchbench: ") and "negative size" in err
        assert "Traceback" not in err

    def test_negative_seed_exits_one(self, capsys):
        assert run_cli("--gen", "20x5", "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchbench: ") and "seed" in err
        assert "Traceback" not in err

    def test_bad_family_exits_one(self, capsys):
        assert run_cli(*BASE, "--family", "diag") == 1

    @pytest.mark.parametrize("family", ["spectral", "full"])
    def test_non_spd_error_names_the_family(self, capsys, family):
        assert run_cli("--gen", "20x5", "--family", family, "--reps", "1") == 1
        err = capsys.readouterr().err
        assert err == (f"sketchbench: the {family} family needs an SPD matrix; "
                       "gen:20x5 is not\n")

    def test_rank_deficient_lsqcol_names_the_family(self, capsys):
        assert run_cli("--gen", "5x20", "--family", "lsqcol", "--reps", "1") == 1
        err = capsys.readouterr().err
        assert err == ("sketchbench: the lsqcol family needs an SPD A'A "
                       "(full column rank); gen:5x20 is not\n")

    @pytest.mark.parametrize("gen, why", [
        ("3x5:spd", "gaussian-normal-equations needs m >= n for an SPD product"),
        ("0x5", "m and n must be at least 1"),
    ])
    def test_bad_gen_size_says_why(self, capsys, gen, why):
        assert run_cli("--gen", gen) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --gen: {why}\n")
        assert "invalid parse_gen value" not in err

    def test_ssd_with_gamma_exits_one(self, capsys):
        assert run_cli(*BASE, "--gamma", "0.4") == 1
        assert "ssdm" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--tol", "nan"), ("--tol", "inf"),
                                       ("--method", "ssdm", "--gamma", "nan"),
                                       ("--method", "ssdm", "--gamma", "inf")])
    def test_non_finite_tol_or_gamma_exits_one(self, capsys, flags):
        assert run_cli("--gen", "30x10", "--reps", "1", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchbench: ") and "finite" in err

    def test_divergence_exits_two(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        code = run_cli("--gen", "12x5", "--method", "ssdm", "--gamma", "1.5",
                       "--reps", "1", "--max-iters", "3000", "--seed", "1",
                       "--out", str(out))
        assert code == 2
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["diverged"]) == 1


class TestGrid:
    def test_repeated_rules_and_gamma_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli("--gen", "16x6", "--method", "ssdm",
                       "--rule", "uniform", "--rule", "greedy:3",
                       "--gamma", "0.0,0.2", "--reps", "1",
                       "--max-iters", "400", "--tol", "1e-8",
                       "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["rule"], r["gamma"]) for r in rows] == [
            ("uniform", "0.0"), ("uniform", "0.2"),
            ("greedy:3", "0.0"), ("greedy:3", "0.2")]

    def test_plot_data_directory(self, tmp_path):
        series = tmp_path / "series"
        code = run_cli(*BASE, "--plot-data", str(series))
        assert code == 0
        files = list(series.iterdir())
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header == "k,residual,relerr,time:walltime"

    def test_theory_flag_appends_report(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(*BASE, "--theory", "--out", str(out))
        assert code == 0
        meta = (tmp_path / "t.csv.meta").read_text()
        assert "spectral_report[gen:16x6|uniform]" in meta
        assert "mu_hi=" in meta

    def test_x0_aliases_accepted(self, tmp_path):
        for preset in ("paper", "zero", "range"):
            code = run_cli("--gen", "12x5", "--reps", "1",
                           "--max-iters", "300", "--tol", "1e-8",
                           "--x0", preset)
            assert code == 0


class TestFileInputs:
    @pytest.mark.parametrize("flag, data", [
        ("--matrix", b"%%MatrixMarket matrix array real general\n1 1\n\xff\n"),
        ("--libsvm", b"1 1:1\n-1 2:\xff\n"),
    ])
    def test_undecodable_file_exits_one(self, tmp_path, capsys, flag, data):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        assert run_cli(flag, str(path), "--reps", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sketchbench: {path}: not UTF-8")
        assert "Traceback" not in err

    def test_negative_seed_refused_before_the_file_is_read(self, capsys):
        assert run_cli("--matrix", "/nonexistent/nowhere.mtx",
                       "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("sketchbench: data_seed must be an integer >= 0")

    def test_bad_gamma_list_exits_one(self, capsys):
        assert run_cli(*BASE, "--method", "ssdm", "--gamma", "0.1,x") == 1
        assert "bad gamma list '0.1,x'" in capsys.readouterr().err

    def test_libsvm_dataset_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "rows.txt"
        path.write_text("".join(f"{(-1) ** r} {r % 3 + 1}:1.5 4:{r + 1}\n"
                                for r in range(12)))
        assert run_cli("--libsvm", str(path), "--reps", "1",
                       "--max-iters", "2000", "--tol", "1e-6") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["dataset"] for r in rows] == ["libsvm:rows.txt"]
        assert rows[0]["success"] == "1"  # the one repetition converged
