import json

import pytest

from noisycc import Instance, load_instance, save_instance
from noisycc.cli import CSV_COLUMNS, main

THREE_ARM = Instance(3, [0.9, 0.1, 0.55])


def run_main(argv):
    return main(argv)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestGen:
    def test_planted_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run_main([
            "gen", "--kind", "planted", "--n", "8", "--k", "2",
            "--q", "0.1", "--seed", "7", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 8
        assert len(obj["sims"]) == 28
        assert len(obj["ground_truth"]) == 8
        load_instance(out)  # round-trips through the validator

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--kind", "planted", "--n", "8", "--k", "2", "--q", "0.1", "--seed", "7"]
        run_main(argv + ["--out", str(a)])
        run_main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_k_greater_than_n_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_main(["gen", "--kind", "planted", "--n", "8", "--k", "9",
                      "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_uniform_random_kind(self, tmp_path):
        out = tmp_path / "u.json"
        run_main(["gen", "--kind", "uniform_random", "--n", "5",
                  "--lo", "0.2", "--hi", "0.8", "--seed", "3", "--out", str(out)])
        inst = load_instance(out)
        assert inst.m == 10
        assert inst.sims.min() >= 0.2 and inst.sims.max() <= 0.8


@pytest.fixture
def noiseless_instance(tmp_path):
    path = tmp_path / "noiseless.json"
    run_main(["gen", "--kind", "planted", "--n", "6", "--k", "2",
              "--in-mean", "1.0", "--out-mean", "0.0", "--seed", "1", "--out", str(path)])
    return path


class TestRun:
    def test_kcfc_noiseless_rows(self, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "res.csv"
        run_main(["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
                  "--epsilon", "1.0", "--delta", "0.1", "--trials", "3",
                  "--mc-replays", "50", "--out", str(out)])
        header, rows = parse_csv(out.read_text())
        assert ",".join(header) == CSV_COLUMNS
        assert len(rows) == 3
        for row in rows:
            assert row["algo"] == "kcfc"
            assert float(row["cost"]) == 0.0
            assert row["success"] == "true"
            assert float(row["opt"]) == 0.0
            assert int(row["queries"]) > 0
            assert row["budget"] == ""
            assert row["wall_ms"] == ""

    def test_determinism_byte_identical(self, noiseless_instance, tmp_path):
        argv = ["run", "--algo", "kcfb", "--instance", str(noiseless_instance),
                "--epsilon", "0.5", "--budget", "150", "--trials", "4",
                "--mc-replays", "30", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(argv + ["--out", str(a)])
        run_main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_output(self, noiseless_instance, tmp_path):
        argv = ["run", "--algo", "kcfc-seq", "--instance", str(noiseless_instance),
                "--epsilon", "1.0", "--delta", "0.1", "--trials", "4",
                "--mc-replays", "20", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(argv + ["--out", str(a)])
        run_main(argv + ["--workers", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_kcfb_budget_too_small_usage_error(self, noiseless_instance):
        with pytest.raises(SystemExit) as exc:
            run_main(["run", "--algo", "kcfb", "--instance", str(noiseless_instance),
                      "--epsilon", "0.5", "--budget", "10"])
        assert exc.value.code == 2

    def test_missing_delta_usage_error(self, noiseless_instance):
        with pytest.raises(SystemExit) as exc:
            run_main(["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
                      "--epsilon", "1.0"])
        assert exc.value.code == 2

    def test_uniform_algos(self, noiseless_instance, tmp_path):
        out = tmp_path / "u.csv"
        run_main(["run", "--algo", "uniform-fc", "--instance", str(noiseless_instance),
                  "--epsilon", "3.0", "--delta", "0.3", "--trials", "2", "--out", str(out)])
        _, rows = parse_csv(out.read_text())
        for row in rows:
            assert float(row["cost"]) == 0.0
            assert row["success"] == "true"
            assert float(row["bound_ref"]) == float(row["queries"])
        run_main(["run", "--algo", "uniform-fb", "--instance", str(noiseless_instance),
                  "--epsilon", "0.5", "--budget", "60", "--trials", "2", "--out", str(out)])
        _, rows = parse_csv(out.read_text())
        for row in rows:
            assert int(row["queries"]) == 60
            assert row["delta"] == ""

    def test_stdout_when_no_out(self, noiseless_instance, capsys):
        run_main(["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
                  "--epsilon", "1.0", "--delta", "0.1", "--mc-replays", "10"])
        captured = capsys.readouterr().out
        assert captured.startswith(CSV_COLUMNS)

    def test_timing_flag_fills_wall_ms(self, noiseless_instance, tmp_path):
        out = tmp_path / "t.csv"
        run_main(["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
                  "--epsilon", "1.0", "--delta", "0.1", "--mc-replays", "10",
                  "--timing", "--out", str(out)])
        _, rows = parse_csv(out.read_text())
        assert float(rows[0]["wall_ms"]) > 0.0


class TestBadRunInputs:
    @staticmethod
    def usage_error(argv, capsys):
        """Run argv, expect exit code 2, return the one-line error message."""
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.strip().splitlines()[-1]

    def test_restarts_zero(self, noiseless_instance, capsys):
        line = self.usage_error(
            ["run", "--algo", "uniform-fb", "--instance", str(noiseless_instance),
             "--epsilon", "0.5", "--budget", "60", "--solver", "kwik_restarts",
             "--restarts", "0"], capsys)
        assert line.startswith("noisycc: error:") and "restarts" in line

    def test_gaussian_sigma_zero(self, noiseless_instance, capsys):
        line = self.usage_error(
            ["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
             "--epsilon", "1.0", "--delta", "0.1", "--noise", "gaussian", "--sigma", "0"],
            capsys)
        assert line.startswith("noisycc: error:") and "sigma" in line

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", "10"],
        ["analyze"],
    ])
    def test_nan_similarity(self, command, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n": 3, "sims": [0.9, float("nan"), 0.1]}))
        line = self.usage_error(command + ["--instance", str(path)], capsys)
        assert "cannot load instance" in line and "finite" in line

    def test_boolean_n(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"n": True, "sims": []}))
        line = self.usage_error(
            ["run", "--algo", "kcfb", "--instance", str(path), "--epsilon", "1.0",
             "--budget", "10"], capsys)
        assert "cannot load instance" in line and "'n' must be an integer" in line

    @pytest.mark.parametrize("algo,flags,word", [
        ("kcfc", ["--epsilon", "100", "--delta", "0.1"], "epsilon"),
        ("kcfc", ["--epsilon", "1.0", "--delta", "0.1", "--radius-scale", "0"], "radius_scale"),
        ("kcfc-seq", ["--epsilon", "1.0", "--delta", "1.5"], "delta"),
        ("uniform-fc", ["--epsilon", "1.0", "--delta", "1.5"], "delta"),
    ])
    def test_algorithm_parameter_error(
        self, algo, flags, word, noiseless_instance, tmp_path, capsys
    ):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(noiseless_instance), *flags,
             "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}):") and word in line
        assert not out.exists()

    @pytest.mark.parametrize("algo,flags,words", [
        ("kcfc", ["--delta", "0.1", "--radius-scale", "inf"],
         "trial 0 (kcfc): radius_scale must be positive and finite"),
        ("kcfb", ["--budget", "60", "--noise", "gaussian", "--sigma", "inf"], "finite sigma"),
        ("uniform-fb", ["--budget", "60", "--noise", "gaussian", "--sigma", "inf"],
         "finite sigma"),
        # Finite, but sigma * N(0, 1) overflows to an infinite reward.
        ("kcfc", ["--delta", "0.1", "--noise", "gaussian", "--sigma", "1e308"],
         "trial 0 (kcfc): gaussian noise with sigma=1e+308 drew a non-finite reward"),
        ("kcfb", ["--budget", "60", "--noise", "gaussian", "--sigma", "1e308"],
         "trial 0 (kcfb): gaussian noise with sigma=1e+308 drew a non-finite reward"),
    ])
    def test_non_finite_noise_or_radius(
        self, algo, flags, words, noiseless_instance, tmp_path, capsys
    ):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(noiseless_instance),
             "--epsilon", "1.0", *flags, "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith("noisycc: error:") and words in line
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("algo,flags", [
        ("kcfb", ["--budget", "60"]),
        ("uniform-fb", ["--budget", "60"]),
        ("kcfc", ["--delta", "0.1"]),
    ])
    def test_epsilon_not_positive_and_finite(
        self, algo, flags, epsilon, noiseless_instance, tmp_path, capsys
    ):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(noiseless_instance),
             f"--epsilon={epsilon}", *flags, "--mc-replays", "5", "--out", str(out)], capsys)
        assert line == "noisycc: error: --epsilon must be positive and finite"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551616"])
    def test_negative_seed(self, seed, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", "kcfb", "--instance", str(noiseless_instance),
             "--epsilon", "0.5", "--budget", "60", f"--seed={seed}", "--out", str(out)],
            capsys)
        assert line == "noisycc: error: --seed must be >= 0"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, workers, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", "kcfb", "--instance", str(noiseless_instance),
             "--epsilon", "0.5", "--budget", "60", "--workers", workers,
             "--out", str(out)], capsys)
        assert line == "noisycc: error: --workers must be >= 1"
        assert not out.exists()

    @pytest.mark.parametrize("algo,flags", [
        ("uniform-fc", ["--epsilon", "1.0", "--delta", "0.1"]),
        ("uniform-fb", ["--epsilon", "1.0", "--budget", "210"]),
    ])
    def test_exact_solver_too_large_fails_in_trial(self, algo, flags, tmp_path, capsys):
        path = tmp_path / "n15.json"
        run_main(["gen", "--kind", "planted", "--n", "15", "--k", "3", "--seed", "2",
                  "--out", str(path)])
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(path), *flags,
             "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}):") and "n <= 13" in line
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["kcfb", "uniform-fb"])
    def test_budget_below_m_fails_in_trial(self, algo, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(noiseless_instance),
             "--epsilon", "0.5", "--budget", "10", "--mc-replays", "5",
             "--out", str(out)], capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}):")
        assert "budget 10 < m = 15" in line
        assert not out.exists()

    def test_default_solver_does_not_gate_solver_free_algos(self, tmp_path):
        path = tmp_path / "n15.json"
        run_main(["gen", "--kind", "planted", "--n", "15", "--k", "3", "--seed", "2",
                  "--out", str(path)])
        out = tmp_path / "kcfb.csv"
        assert run_main(["run", "--algo", "kcfb", "--instance", str(path),
                         "--epsilon", "1.0", "--budget", "210", "--mc-replays", "5",
                         "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        assert rows[0]["opt"] == "" and rows[0]["queries"] != ""


class TestAnalyze:
    def test_three_arm_values(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        save_instance(THREE_ARM, path)
        run_main(["analyze", "--instance", str(path), "--epsilon", "0.2",
                  "--delta", "0.1", "--budget", "0"])
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ", 1) for line in out.strip().split("\n") if ": " in line
        )
        assert fields["n"] == "3"
        assert fields["m"] == "3"
        assert float(fields["delta_min"]) == pytest.approx(0.05)
        tilde = json.loads(fields["tilde_gaps"])
        assert tilde == pytest.approx([0.5, 0.5, 0.15])
        assert float(fields["fb_error_bound"]) == 1.0

    def test_min_gap_at_narrow_epsilon(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        save_instance(THREE_ARM, path)
        run_main(["analyze", "--instance", str(path), "--epsilon", "0.12"])
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ", 1) for line in out.strip().split("\n") if ": " in line
        )
        assert float(fields["fb_min_gap"]) == pytest.approx(0.05)

    def test_n1_instance(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_instance(Instance(1, []), path)
        run_main(["analyze", "--instance", str(path)])
        out = capsys.readouterr().out
        assert "delta_min: " in out

    def test_missing_file_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_main(["analyze", "--instance", str(tmp_path / "absent.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags,word", [
        (["--delta", "1.5"], "delta"),
        (["--delta", "0"], "delta"),
        (["--budget", "-1"], "budget"),
    ])
    def test_bad_parameter_usage_error(self, flags, word, tmp_path, capsys):
        path = tmp_path / "three.json"
        save_instance(THREE_ARM, path)
        with pytest.raises(SystemExit) as exc:
            run_main(["analyze", "--instance", str(path), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        line = captured.err.strip().splitlines()[-1]
        assert line.startswith("noisycc: error:") and word in line

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1", "0"])
    def test_bad_epsilon_usage_error(self, epsilon, tmp_path, capsys):
        path = tmp_path / "three.json"
        save_instance(THREE_ARM, path)
        with pytest.raises(SystemExit) as exc:
            run_main(["analyze", "--instance", str(path), f"--epsilon={epsilon}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1] == (
            "noisycc: error: --epsilon must be positive and finite"
        )
