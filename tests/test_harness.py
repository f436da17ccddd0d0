import numpy as np
import pytest

from subreg.cli import main, parse_config_file
from subreg.harness import (
    ExperimentConfig,
    convert_labels,
    load_dataset,
    read_trace,
    run_experiment,
    save_dataset_csv,
    summary_means,
    synthesize_dataset,
    write_trace,
)
from subreg.problems import Dataset, NetworkSpec, classification_rate
from subreg.solver import SolverConfig, iteration_charge


class TestLoadDataset:
    def test_dense_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,0.25\n-1,0.1,0.2\n")
        ds = load_dataset(path, "csv", label_col=0)
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0])
        np.testing.assert_allclose(ds.features, [[0.5, 0.25], [0.1, 0.2]])

    def test_label_column_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1,0.25\n")
        ds = load_dataset(path, "csv", label_col=1)
        np.testing.assert_allclose(ds.features, [[0.5, 0.25]])
        assert ds.labels[0] == 1.0

    def test_sparse_format(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("-1 3:0.7\n")
        ds = load_dataset(path, "sparse", dim=5)
        assert ds.labels[0] == 0.0
        np.testing.assert_allclose(ds.features, [[0.0, 0.0, 0.7, 0.0, 0.0]])

    def test_sparse_dim_inferred(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2:1.5 4:2.0\n-1 1:3.0\n")
        ds = load_dataset(path, "sparse")
        assert ds.d == 4
        np.testing.assert_allclose(ds.features[1], [3.0, 0.0, 0.0, 0.0])

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,nan\n-1,0.1,0.2\n")
        with pytest.raises(ValueError, match="finite"):
            load_dataset(path, "csv")

    def test_nan_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("nan,0.5,0.1\n1,0.2,0.3\n")
        with pytest.raises(ValueError, match=r"d\.csv:1: non-finite label"):
            load_dataset(path, "csv")

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_sparse_non_finite_label_rejected(self, tmp_path, label):
        path = tmp_path / "d.txt"
        path.write_text(f"1 1:0.5\n{label} 2:0.1\n")
        with pytest.raises(ValueError, match=r"d\.txt:2: non-finite label"):
            load_dataset(path, "sparse")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5\n1,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(path, "csv")

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,0.2\n1,0.5\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(path, "csv")

    def test_minmax_scaling(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.0,5.0\n0,2.0,5.0\n1,4.0,5.0\n")
        ds = load_dataset(path, "csv", scale="minmax")
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(ds.features[:, 1], [0.0, 0.0, 0.0])

    def test_roundtrip_with_save(self, tmp_path):
        ds = synthesize_dataset(0, 20, 3, 1.0)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset(path, "csv")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_dataset(5, 100, 4, 2.0)
        b = synthesize_dataset(5, 100, 4, 2.0)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_separation_defeats_any_predictor(self):
        ds = synthesize_dataset(1, 10_000, 5, 0.0)
        rng = np.random.default_rng(2)
        rate = classification_rate(NetworkSpec(5), rng.standard_normal(5), ds)
        assert 0.45 <= rate <= 0.55

    def test_balanced_labels(self):
        ds = synthesize_dataset(3, 1000, 4, 1.0)
        assert abs(ds.labels.mean() - 0.5) <= 0.01

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            synthesize_dataset(0, 0, 4, 1.0)
        with pytest.raises(ValueError):
            synthesize_dataset(0, 10, 4, -1.0)


class TestConvert:
    def test_odd_even(self, tmp_path):
        src = tmp_path / "digits.csv"
        src.write_text("7,0.1\n4,0.2\n1,0.3\n0,0.4\n")
        dst = tmp_path / "parity.csv"
        convert_labels(src, dst, rule="odd-even")
        ds = load_dataset(dst, "csv")
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0, 1.0, 0.0])

    def test_sign(self, tmp_path):
        src = tmp_path / "pm.csv"
        src.write_text("-1,0.1\n1,0.2\n")
        dst = tmp_path / "out.csv"
        convert_labels(src, dst, rule="sign")
        ds = load_dataset(dst, "csv")
        np.testing.assert_array_equal(ds.labels, [0.0, 1.0])

    @pytest.mark.parametrize("rule", ["odd-even", "sign"])
    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_rejected(self, tmp_path, rule, label):
        src = tmp_path / "in.csv"
        src.write_text(f"1,0.1\n{label},0.2\n")
        with pytest.raises(ValueError, match=r"in\.csv:2: non-finite label"):
            convert_labels(src, tmp_path / "out.csv", rule=rule)

    @pytest.mark.parametrize("rule", ["odd-even", "sign"])
    def test_malformed_label_reports_line(self, tmp_path, rule):
        src = tmp_path / "in.csv"
        src.write_text("1,0.1\n2,0.2\nabc,0.3\n")
        with pytest.raises(ValueError, match=r"in\.csv:3: malformed row"):
            convert_labels(src, tmp_path / "out.csv", rule=rule)


def small_experiment(tmp_path, runs=2, budget=3.0, seed=5):
    full = synthesize_dataset(21, 360, 6, 4.0)
    train = Dataset(full.features[:300], full.labels[:300])
    test = Dataset(full.features[300:], full.labels[300:])
    return ExperimentConfig(
        train=train,
        network=NetworkSpec(6),
        solver=SolverConfig(budget_cm=budget, seed=seed),
        test=test,
        runs=runs,
        out_dir=tmp_path,
    )


class TestExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        config = small_experiment(tmp_path)
        summaries = run_experiment(config, verbose=False)
        assert len(summaries) == 2
        assert (tmp_path / "trace_seed5.csv").exists()
        assert (tmp_path / "trace_seed6.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_trace_roundtrip_and_charge_audit(self, tmp_path):
        config = small_experiment(tmp_path, runs=1)
        run_experiment(config, verbose=False)
        events = read_trace(tmp_path / "trace_seed5.csv")
        cm = 0.0
        for e in events:
            cm += iteration_charge(
                300, e.d1_size, e.d2_size, e.g_size, e.g_d1_overlap,
                e.h_size, e.h_g_overlap, e.hvp_props,
            )
            assert cm == e.cm
        assert events[-1].cm >= 3.0  # ran to the budget

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(small_experiment(out_a, runs=1), verbose=False)
        run_experiment(small_experiment(out_b, runs=1), verbose=False)
        a = (out_a / "trace_seed5.csv").read_bytes()
        b = (out_b / "trace_seed5.csv").read_bytes()
        assert a == b
        assert b"\r" not in a  # LF endings only

    def test_byte_identical_reruns_layered_net(self, tmp_path):
        # layered networks add a seeded initialisation stream; reruns must
        # still be reproducible byte for byte
        def config(out):
            cfg = small_experiment(out, runs=1, budget=2.0)
            cfg.network = NetworkSpec(6, (4,))
            return cfg

        run_experiment(config(tmp_path / "a"), verbose=False)
        run_experiment(config(tmp_path / "b"), verbose=False)
        assert (tmp_path / "a" / "trace_seed5.csv").read_bytes() == (
            tmp_path / "b" / "trace_seed5.csv"
        ).read_bytes()

    def test_failed_run_recorded_and_experiment_continues(self, tmp_path):
        # identical features with balanced labels zero the gradient at the
        # start, so the full-sample model predicts no decrease and the run
        # stalls; the experiment must log the error and continue
        flat = Dataset(np.ones((10, 2)), np.array([1.0, 0.0] * 5))
        config = ExperimentConfig(
            train=flat,
            network=NetworkSpec(2),
            solver=SolverConfig(eps1=0.0, kappa=1e9, stall_limit=5, max_iters=50),
            runs=2,
            out_dir=tmp_path,
        )
        summaries = run_experiment(config, verbose=False)
        assert len(summaries) == 2
        assert all(s.stop_reason.startswith("error:") for s in summaries)

    def test_summary_mean_matches_rows(self, tmp_path):
        config = small_experiment(tmp_path, runs=3)
        summaries = run_experiment(config, verbose=False)
        means = summary_means(summaries)
        manual = sum(s.total_cm for s in summaries) / 3.0
        assert abs(means["total_cm"] - manual) <= 1e-12 * max(1.0, abs(manual))
        text = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert text[-1].startswith("mean,")
        assert len(text) == 1 + 3 + 1  # header, rows, mean

    def test_trace_rewrite_is_identity(self, tmp_path):
        config = small_experiment(tmp_path, runs=1)
        run_experiment(config, verbose=False)
        path = tmp_path / "trace_seed5.csv"
        events = read_trace(path)
        write_trace(tmp_path / "again.csv", events)
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()

    @pytest.mark.parametrize("threshold", [100_000, 100])
    def test_final_losses_come_from_the_last_event(self, tmp_path, monkeypatch, threshold):
        # Below the exact-loss threshold the last event measured both losses
        # at the returned iterate, so no full pass follows minimize; above
        # it the summary computes them.  Either way they equal fresh ones.
        import subreg.harness as harness
        from subreg.finite_sum import full_value
        from subreg.problems import SquaredLossProblem, testing_loss

        calls, results = [], []
        value_mean = SquaredLossProblem.value_mean

        def counted_value_mean(self, indices, x):
            if np.asarray(indices).size == self.N:
                calls.append("value")
            return value_mean(self, indices, x)

        def counted_testing_loss(*args):
            calls.append("test")
            return testing_loss(*args)

        minimize = harness.minimize

        def recorded_minimize(*args, **kwargs):
            calls.append("minimize")
            results.append(minimize(*args, **kwargs))
            calls.append("returned")
            return results[-1]

        monkeypatch.setattr(SquaredLossProblem, "value_mean", counted_value_mean)
        monkeypatch.setattr(harness, "testing_loss", counted_testing_loss)
        monkeypatch.setattr(harness, "minimize", recorded_minimize)
        config = small_experiment(tmp_path, runs=2)
        config.solver.exact_loss_threshold = threshold
        summaries = run_experiment(config, verbose=False)
        monkeypatch.undo()

        # The calls made between one run's return and the next run's start.
        after = [tail.split("minimize")[0] for tail in " ".join(calls).split("returned")[1:]]
        assert len(after) == 2
        for tail in after:
            measured = "value" in tail or "test" in tail
            assert measured == (threshold < config.train.N)
        problem = SquaredLossProblem(config.train, config.network)
        for summary, result in zip(summaries, results):
            assert summary.final_train_loss == full_value(problem, result.x)
            assert summary.final_test_loss == testing_loss(config.network, result.x, config.test)

    def test_trace_thinning_keeps_final_row(self, tmp_path):
        config = small_experiment(tmp_path, runs=1)
        config.trace_every = 4
        run_experiment(config, verbose=False)
        thinned = read_trace(tmp_path / "trace_seed5.csv")
        assert all(e.k % 4 == 0 for e in thinned[:-1])
        full = small_experiment(tmp_path / "full", runs=1)
        run_experiment(full, verbose=False)
        reference = read_trace(tmp_path / "full" / "trace_seed5.csv")
        assert thinned[-1].cm == reference[-1].cm
        assert len(thinned) < len(reference)


class TestCli:
    def test_synth_train_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        assert main(["synth", "--seed", "1", "--n", "120", "--d", "4",
                     "--separation", "5", "--out", str(data)]) == 0
        out = tmp_path / "exp"
        code = main([
            "train", "--dataset", str(data), "--test-dataset", str(data),
            "--budget-cm", "2", "--runs", "1", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert (out / "trace_seed3.csv").exists()
        captured = capsys.readouterr()
        assert "mean classification rate" in captured.out

    def test_minmax_scales_test_set_by_training_ranges(self, tmp_path, monkeypatch):
        train = tmp_path / "train.csv"
        train.write_text("1,0\n0,10\n1,5\n")
        test = tmp_path / "test.csv"
        test.write_text("1,1.0\n0,5\n")
        seen = {}
        monkeypatch.setattr("subreg.cli.run_experiment", lambda config: seen.update(c=config))
        assert main([
            "train", "--dataset", str(train), "--test-dataset", str(test), "--scale", "minmax",
        ]) == 0
        config = seen["c"]
        np.testing.assert_array_equal(config.train.features[:, 0], [0.0, 1.0, 0.5])
        # Training range [0, 10]: 1.0 maps to 0.1, not to the test set's own 0.
        np.testing.assert_array_equal(config.test.features[:, 0], [0.1, 0.5])

    def test_train_requires_dataset(self, capsys):
        assert main(["train"]) == 2

    def test_config_file_and_override(self, tmp_path):
        data = tmp_path / "train.csv"
        main(["synth", "--seed", "2", "--n", "80", "--d", "3", "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset={data}\nbudget-cm=1.5\nseed=9\n# a comment\nruns=1\n"
        )
        out = tmp_path / "exp"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace_seed9.csv").exists()
        # explicit flag beats the file value
        out2 = tmp_path / "exp2"
        assert main(["train", "--config", str(cfg), "--seed", "11", "--out", str(out2)]) == 0
        assert (out2 / "trace_seed11.csv").exists()

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("sigma0=0.5\nkappa-eps=0.25 # trailing comment\n\n")
        values = parse_config_file(cfg)
        assert values == {"sigma0": "0.5", "kappa_eps": "0.25"}

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("nope=1\n")
        with pytest.raises(ValueError):
            main(["train", "--config", str(cfg)])

    def test_convert_cli(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("3,0.5\n2,0.25\n")
        dst = tmp_path / "out.csv"
        assert main(["convert", "--dataset", str(src), "--out", str(dst)]) == 0
        ds = load_dataset(dst, "csv")
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0])

    def test_audit_cli(self, capsys):
        code = main([
            "audit", "--nu", "0.5", "--kappa", "1.0", "--trials", "120",
            "--synth-n", "200", "--synth-d", "4", "--seed", "0",
        ])
        assert code == 0
        assert "failure rate" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "subreg", "synth", "--seed", "0", "--n", "10",
             "--d", "2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_sparse_train_cli(self, tmp_path):
        path = tmp_path / "sp.txt"
        rows = []
        rng = np.random.default_rng(0)
        for i in range(60):
            label = 1 if i % 2 else -1
            value = label * 2.0 + rng.normal()
            rows.append(f"{label} 1:{value} 2:{rng.normal()}")
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "exp"
        code = main([
            "train", "--dataset", str(path), "--format", "sparse",
            "--budget-cm", "2", "--runs", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.csv").exists()
