import json

import pytest
from deadline import deadline

from noisycc import Instance, load_instance, save_instance
from noisycc import cli
from noisycc.cli import CSV_COLUMNS, build_parser, main
from noisycc.oracle import _BitTape

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

    def test_sample_bound_overflow_is_quiet(self, noiseless_instance, tmp_path, capsys):
        # epsilon / (12 m) squared underflows to 0: the bound is inf, with no warning.
        out = tmp_path / "res.csv"
        assert run_main(["run", "--algo", "kcfc", "--instance", str(noiseless_instance),
                         "--epsilon", "1e-300", "--delta", "0.1", "--mc-replays", "5",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, rows = parse_csv(out.read_text())
        assert rows[0]["bound_ref"] == "inf"

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

    @pytest.mark.parametrize("algo", [["uniform-fb", "--budget", "10"],
                                      ["uniform-fc", "--delta", "0.1"]])
    def test_uniform_kwik_restarts_on_one_element(self, algo, tmp_path):
        # n = 1 has no pair: the replays hand the solver an empty estimate.
        path = tmp_path / "one.json"
        save_instance(Instance(1, []), path)
        out = tmp_path / "u.csv"
        assert run_main(["run", "--algo", *algo, "--solver", "kwik_restarts",
                         "--instance", str(path), "--epsilon", "1.0", "--mc-replays", "5",
                         "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        assert rows[0]["queries"] == "0" and float(rows[0]["mc_expected_cost"]) == 0.0

    @pytest.mark.parametrize("algo", [
        ["kcfc", "--delta", "0.1"], ["kcfc-seq", "--delta", "0.1"], ["kcfb", "--budget", "10"],
        ["uniform-fc", "--delta", "0.1"], ["uniform-fb", "--budget", "10"],
    ])
    def test_no_pairs_no_bound(self, algo, tmp_path):
        # n = 1 has no pair, so no bound: every row leaves bound_ref empty.
        path = tmp_path / "one.json"
        save_instance(Instance(1, []), path)
        out = tmp_path / "u.csv"
        assert run_main(["run", "--algo", *algo, "--instance", str(path), "--epsilon", "1.0",
                         "--trials", "2", "--mc-replays", "5", "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        assert [row["bound_ref"] for row in rows] == ["", ""]

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


class TestParser:
    def test_main_reuses_one_parser(self, noiseless_instance, tmp_path, capsys):
        argv = ["run", "--algo", "kcfb", "--instance", str(noiseless_instance),
                "--epsilon", "1.0", "--budget", "300", "--mc-replays", "10"]
        # Options parsed before the bad flag must not carry over to the next call.
        with pytest.raises(SystemExit) as exc:
            run_main([*argv, "--seed", "5", "--trials", "2", "--no-such-flag"])
        assert exc.value.code == 2
        reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
        assert run_main([*argv, "--out", str(reused)]) == 0
        cli._parser.cache_clear()
        assert run_main([*argv, "--out", str(fresh)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


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

    @pytest.mark.parametrize("algo,restarts", [
        (["uniform-fb", "--budget", "60"], "-1"),
        (["kcfb", "--budget", "60"], "0"),
    ])
    def test_restarts_below_one_whatever_the_solver(
        self, algo, restarts, noiseless_instance, tmp_path, capsys
    ):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", *algo, "--instance", str(noiseless_instance),
             "--epsilon", "0.5", f"--restarts={restarts}", "--out", str(out)], capsys)
        assert line == "noisycc: error: --restarts must be >= 1"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", "10"],
        ["analyze"],
    ])
    @pytest.mark.parametrize("sims,message", [
        *[(sims, "'sims' must be a list of numbers") for sims in (
            {"a": 1}, "0.9", [{"a": 1}, 0.1, 0.2], [[0.9], 0.1, 0.2], ["0.5", 0.1, 0.2],
            [True, 0.1, 0.2], [None, 0.1, 0.2],
        )],
        ([10**400, 0.1, 0.2], "finite"),  # too large for a float
    ])
    def test_sims_not_numbers(self, command, sims, message, tmp_path, capsys):
        path = tmp_path / "sims.json"
        path.write_text(json.dumps({"n": 3, "sims": sims}))
        line = self.usage_error(command + ["--instance", str(path)], capsys)
        assert "cannot load instance" in line and message in line

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", "10"],
        ["analyze"],
    ])
    @pytest.mark.parametrize("labels", [
        [0.5, 1.7, 0.0], [True, False, True], ["0", "1", "0"], [None, 0, 1], [1e30, 0, 1],
    ])
    def test_ground_truth_not_integer(self, command, labels, tmp_path, capsys):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"n": 3, "sims": [0.9, 0.1, 0.2], "ground_truth": labels}))
        line = self.usage_error(command + ["--instance", str(path)], capsys)
        assert "cannot load instance" in line and "ground_truth labels must be integers" in line

    @pytest.mark.parametrize("algo", ["kcfc", "kcfc-seq"])
    @pytest.mark.parametrize("delta", ["1e-300", "5e-324"])
    def test_delta_too_small_for_a_finite_radius(self, algo, delta, tmp_path, capsys):
        # 4*m*k*k/delta overflows before the 0.9 and 0.1 arms can be classified.
        path = tmp_path / "planted.json"
        run_main(["gen", "--kind", "planted", "--n", "6", "--k", "2", "--seed", "1",
                  "--out", str(path)])
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(path),
             "--epsilon", "1.0", "--delta", delta, "--mc-replays", "5", "--out", str(out)],
            capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}): delta")
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["1e-300", "5e-324"])
    def test_sequential_delta_error_names_the_given_delta(self, delta, tmp_path, capsys):
        # The bandit runs at delta / n, which the message must say, naming
        # the --delta that was given, not the divided one.
        path = tmp_path / "planted.json"
        run_main(["gen", "--kind", "planted", "--n", "6", "--k", "2", "--seed", "1",
                  "--out", str(path)])
        line = self.usage_error(
            ["run", "--algo", "kcfc-seq", "--instance", str(path), "--epsilon", "1.0",
             "--delta", delta, "--mc-replays", "5", "--out", str(tmp_path / "res.csv")],
            capsys)
        assert line.startswith(f"noisycc: error: trial 0 (kcfc-seq): delta={float(delta)!r}"
                               " is too small for n=6: the bandit runs at delta / n")

    @pytest.mark.parametrize("delta,pair,pulls", [
        # Every bound is infinite from the first pull, so arm 0 holds both
        # minima, and its run stops at its first infinite bound.
        ("5e-324", 0, 3),
        # 4*m*k*k/delta first overflows at k = 1731 (m = 15), reached by
        # pair 3 in a run of two arms.
        ("1e-300", 3, 1731),
    ])
    def test_infinite_bound_error_names_the_first_such_pull(self, delta, pair, pulls,
                                                            tmp_path, capsys):
        path = tmp_path / "planted.json"
        run_main(["gen", "--kind", "planted", "--n", "6", "--k", "2", "--seed", "1",
                  "--out", str(path)])
        with deadline(5):
            line = self.usage_error(
                ["run", "--algo", "kcfc", "--instance", str(path), "--epsilon", "1",
                 "--delta", delta, "--mc-replays", "5", "--out", str(tmp_path / "res.csv")],
                capsys)
        assert line == (
            f"noisycc: error: trial 0 (kcfc): delta={float(delta)!r} leaves the confidence"
            f" bound of pair {pair} infinite after {pulls} pulls (radius_scale=1.0), so the"
            " bandit could never classify it"
        )

    @staticmethod
    def planted_n10(tmp_path):
        path = tmp_path / "planted.json"
        run_main(["gen", "--kind", "planted", "--n", "10", "--k", "3", "--q", "0.1",
                  "--seed", "0", "--out", str(path)])
        return path

    @pytest.mark.parametrize("algo", ["kcfc", "kcfc-seq"])
    def test_radius_too_wide_to_ever_classify(self, algo, tmp_path, capsys):
        # A Bernoulli mean lies in [0, 1]; this radius stays above
        # 0.5 + epsilon for 2**63 pulls, so the bandit would never stop.
        out = tmp_path / "res.csv"
        with deadline(5):
            line = self.usage_error(
                ["run", "--algo", algo, "--instance", str(self.planted_n10(tmp_path)),
                 "--epsilon", "1", "--delta", "0.1", "--radius-scale", "1e300",
                 "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}): radius_scale=1e+300 keeps")
        assert "2**63 pulls" in line
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["uniform-fb", "kcfb"])
    def test_budget_past_the_pull_counters(self, algo, tmp_path, capsys):
        # floor(T / m) is about 2.2e21 pulls per pair, more than the oracle's
        # int64 counters hold; drawing them would grow memory without end.
        out = tmp_path / "res.csv"
        with deadline(2):
            line = self.usage_error(
                ["run", "--algo", algo, "--instance", str(self.planted_n10(tmp_path)),
                 "--epsilon", "1", "--budget", "99999999999999999999999",
                 "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith(
            f"noisycc: error: trial 0 ({algo}): 2222222222222222222222 more pulls of pair"
        )
        assert line.endswith(
            "cannot be counted: the oracle counts at most 9223372036854775807 pulls per pair"
        )
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["uniform-fb", "kcfb"])
    def test_budget_past_the_float_range(self, algo, tmp_path, capsys):
        # The error bound computed 2.0 * T and raised OverflowError before any trial.
        out = tmp_path / "res.csv"
        with deadline(2):
            line = self.usage_error(
                ["run", "--algo", algo, "--instance", str(self.planted_n10(tmp_path)),
                 "--epsilon", "1", "--budget", str(10**400),
                 "--mc-replays", "5", "--out", str(out)], capsys)
        assert line.startswith(f"noisycc: error: trial 0 ({algo}): 2222222222")
        assert line.endswith("the oracle counts at most 9223372036854775807 pulls per pair")
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["uniform-fb", "kcfb"])
    def test_count_past_the_float_range_is_printed_by_its_size(self, algo, tmp_path, capsys):
        # The error line printed all 399 digits of the pull count.
        with deadline(2):
            line = self.usage_error(
                ["run", "--algo", algo, "--instance", str(self.planted_n10(tmp_path)),
                 "--epsilon", "1", "--budget", str(10**400), "--mc-replays", "5",
                 "--out", str(tmp_path / "res.csv")], capsys)
        assert len(line) < 200
        assert line.startswith(f"noisycc: error: trial 0 ({algo}): 2222222222... (399 digits)"
                               " more pulls of pair")

    @pytest.mark.parametrize("replays", [10**18, 2**63])
    def test_mc_replays_past_memory(self, replays, tmp_path, capsys):
        # Allocating the replays' costs raised numpy's MemoryError or ValueError.
        out = tmp_path / "res.csv"
        with deadline(5):
            line = self.usage_error(
                ["run", "--algo", "kcfc", "--instance", str(self.planted_n10(tmp_path)),
                 "--epsilon", "1", "--delta", "0.1", "--mc-replays", str(replays),
                 "--out", str(out)], capsys)
        assert line.startswith(
            f"noisycc: error: trial 0 (kcfc): cannot hold the costs of {replays} trials"
        )
        assert not out.exists()

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
        # Finite, but above the largest sigma: refused before any trial.
        ("kcfc", ["--delta", "0.1", "--noise", "gaussian", "--sigma", "1e308"],
         "gaussian noise requires a finite sigma in (0, 1e+100], got 1e+308"),
        ("kcfb", ["--budget", "60", "--noise", "gaussian", "--sigma", "1e308"],
         "gaussian noise requires a finite sigma in (0, 1e+100], got 1e+308"),
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

    @pytest.mark.parametrize("solver", ["exact", "kwik_restarts"])
    def test_sigma_whose_sums_overflow(self, solver, tmp_path, capsys):
        # sigma = 1e307 draws finite rewards, but their sums in exact OPT and
        # the cost overflow: it is refused before any trial, with no warning.
        inst, out = tmp_path / "n13.json", tmp_path / "res.csv"
        assert run_main(["gen", "--kind", "planted", "--n", "13", "--k", "3", "--q", "0.1",
                         "--seed", "5", "--out", str(inst)]) == 0
        line = self.usage_error(
            ["run", "--algo", "uniform-fb", "--noise", "gaussian", "--sigma", "1e307",
             "--budget", "78", "--epsilon", "1", "--trials", "1", "--seed", "1",
             "--solver", solver, "--instance", str(inst), "--out", str(out)], capsys)
        assert line == (
            "noisycc: error: gaussian noise requires a finite sigma in (0, 1e+100], got 1e+307"
        )
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

    @pytest.mark.parametrize("epsilon", ["1e-200", "1e-160"])
    def test_uniform_fc_epsilon_too_small(self, epsilon, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", "uniform-fc", "--instance", str(noiseless_instance),
             "--epsilon", epsilon, "--delta", "0.1", "--mc-replays", "5", "--out", str(out)],
            capsys)
        assert line == (f"noisycc: error: trial 0 (uniform-fc): epsilon={float(epsilon)!r}"
                        " is too small: the pull count is not finite")
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["nan", "0", "2"])
    def test_uniform_fc_delta_checked_without_pairs(self, delta, tmp_path, capsys):
        # n = 1 needs no pull, yet delta is still written to the CSV.
        path = tmp_path / "one.json"
        save_instance(Instance(1, []), path)
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", "uniform-fc", "--instance", str(path), "--epsilon", "1.0",
             "--delta", delta, "--mc-replays", "5", "--out", str(out)], capsys)
        assert line == (f"noisycc: error: trial 0 (uniform-fc): delta must lie in (0, 1),"
                        f" got {float(delta)}")
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["-1", "0", "nan"])
    @pytest.mark.parametrize("algo", ["kcfc", "kcfc-seq"])
    def test_radius_scale_checked_without_pairs(self, algo, scale, tmp_path, capsys):
        path = tmp_path / "one.json"
        save_instance(Instance(1, []), path)
        out = tmp_path / "res.csv"
        line = self.usage_error(
            ["run", "--algo", algo, "--instance", str(path), "--epsilon", "1.0",
             "--delta", "0.1", "--radius-scale", scale, "--mc-replays", "5",
             "--out", str(out)], capsys)
        assert line == (f"noisycc: error: trial 0 ({algo}): radius_scale must be positive"
                        f" and finite, got {float(scale)}")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["gen", "--kind", "planted", "--n", "6", "--k", "2"],
        ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", "60", "--mc-replays", "5"],
    ])
    def test_out_in_a_missing_directory(self, command, noiseless_instance, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        if command[0] == "run":
            command = command + ["--instance", str(noiseless_instance)]
        line = self.usage_error(command + ["--out", str(out)], capsys)
        assert line.startswith("noisycc: error: cannot write --out:") and str(out) in line

    @pytest.mark.parametrize("command", [
        ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", "10"],
        ["analyze"],
    ])
    def test_deeply_nested_instance(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        line = self.usage_error(command + ["--instance", str(path)], capsys)
        assert line == "noisycc: error: cannot load instance: instance file is nested too deeply"

    @pytest.mark.parametrize("kind", ["planted", "uniform_random"])
    def test_gen_too_large_for_memory(self, kind, tmp_path, capsys):
        # About 9 TB of pair arrays: the first allocation fails at once.
        out = tmp_path / "big.json"
        line = self.usage_error(["gen", "--kind", kind, "--n", "3000000", "--k", "3",
                                 "--out", str(out)], capsys)
        assert line == ("noisycc: error: n=3000000 is too large:"
                        " the instance does not fit in memory")
        assert not out.exists()

    @pytest.mark.parametrize("message, detail", [
        ("", ""), ("Unable to allocate 8.00 EiB", ": Unable to allocate 8.00 EiB"),
    ])
    def test_trial_out_of_memory(self, message, detail, monkeypatch, tmp_path, capsys):
        # A tape growth that raises MemoryError, as numpy's failed allocation
        # does, ends the run with one error line, not a traceback.
        def cover(tape, e, end):
            raise MemoryError(message)

        monkeypatch.setattr(_BitTape, "_cover", cover)
        out = tmp_path / "res.csv"
        with pytest.raises(SystemExit) as exc:
            run_main(["run", "--algo", "uniform-fb", "--instance", str(self.planted_n10(tmp_path)),
                      "--epsilon", "1", "--budget", "450", "--mc-replays", "5",
                      "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("noisycc: error:")]
        assert errors == [f"noisycc: error: trial 0 (uniform-fb): out of memory{detail}"]
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

    def test_budget_past_the_float_range(self, tmp_path, capsys):
        # fb_error_bound computed 2.0 * T and raised OverflowError.
        path = tmp_path / "three.json"
        save_instance(THREE_ARM, path)
        run_main(["analyze", "--instance", str(path), "--epsilon", "0.2",
                  "--budget", str(10**400)])
        assert "fb_error_bound: 0.0\n" in capsys.readouterr().out

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

    def test_sample_bound_overflows_to_inf(self, tmp_path, capsys):
        # Every pair at 0.5 and (epsilon / 2)^2 underflowing to 0.
        path = tmp_path / "half.json"
        save_instance(Instance(3, [0.5] * 3), path)
        assert run_main(["analyze", "--instance", str(path), "--epsilon", "1e-200"]) == 0
        out = capsys.readouterr().out
        assert "fc_sample_bound: inf\n" in out

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

    @pytest.mark.parametrize("instance,flags,message", [
        (Instance(1, []), ["--delta", "2"], "delta must lie in (0, 1), got 2.0"),
        (Instance(1, []), ["--delta", "0"], "delta must lie in (0, 1), got 0.0"),
        (Instance(1, []), ["--delta", "nan"], "delta must lie in (0, 1), got nan"),
        (Instance(1, []), ["--budget", "-5"], "budget must be >= 0, got -5"),
        # Neither epsilon nor epsilon / (12 m) lies in (0, 0.5): no line reads delta.
        (Instance(6, [0.9] * 15), ["--epsilon", "100", "--delta", "nan"],
         "delta must lie in (0, 1), got nan"),
    ])
    def test_bad_flag_whatever_the_lines_need(self, instance, flags, message, tmp_path, capsys):
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        with pytest.raises(SystemExit) as exc:
            run_main(["analyze", "--instance", str(path), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1] == f"noisycc: error: {message}"

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
