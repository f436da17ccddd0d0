import math
import os
import re

import numpy as np
import pytest

from oracles import load_dataset_reference

from subreg.cli import main, parse_config_file
from subreg.harness import (
    ExperimentConfig,
    convert_labels,
    load_dataset,
    minmax_scale,
    read_trace,
    RunSummary,
    run_experiment,
    save_dataset_csv,
    summary_means,
    synthesize_dataset,
    write_trace,
)
from subreg.problems import Dataset, NetworkSpec, classification_rate
from subreg.solver import SolverConfig, TraceEvent, iteration_charge


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
        features = minmax_scale(load_dataset(path, "csv").features)
        np.testing.assert_allclose(features[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(features[:, 1], [0.0, 0.0, 0.0])

    def test_minmax_reference_of_another_width_rejected(self):
        # Used to fail inside numpy: operands could not be broadcast together.
        with pytest.raises(ValueError, match="reference has 3 columns, features 2"):
            minmax_scale(np.ones((2, 2)), np.ones((4, 3)))

    def test_roundtrip_with_save(self, tmp_path):
        ds = synthesize_dataset(0, 20, 3, 1.0)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset(path, "csv")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestLoaderBits:
    """The loaders return the bytes of a parse one Python float at a time,
    and hold one float64 copy of the features."""

    @staticmethod
    def assert_matches_reference(path, fmt="csv", label_col=0, dim=None):
        ds = load_dataset(path, fmt, label_col, dim)
        features, labels = load_dataset_reference(path, fmt, label_col, dim)
        assert ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset_csv(synthesize_dataset(4, 300, 7, 1.5), path)
        self.assert_matches_reference(path)

    def test_label_column_2(self, tmp_path):
        path = tmp_path / "d.csv"
        # Signs, exponents, integers, a signed zero and a subnormal.
        path.write_text("0.5,-2,1,1e-3\n+.25,3,0,-4.5E+2\n1,0,-0.0,4.9e-324\n-7,1e300,-3.5,2\n")
        self.assert_matches_reference(path, label_col=2)

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", "\n1,0.5,0.25\n   \n-1,0.1,0.2\n\n\n0,3,4\n\n"),
            ("sparse", "\n1 2:0.5\n\n  \n-1 1:0.1 3:0.2\n\n"),
        ],
    )
    def test_blank_lines(self, tmp_path, fmt, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        self.assert_matches_reference(path, fmt)

    @pytest.mark.parametrize("dim", [None, 30])
    def test_sparse(self, tmp_path, dim):
        # Random rows of random density, a row with no entries and
        # unordered indices, written with shortest round-trip floats.
        rng = np.random.default_rng(6)
        lines = ["0", "1 5:2.5 2:-0.125 17:1e-9"]
        for _ in range(200):
            cols = rng.choice(25, size=rng.integers(0, 25), replace=False) + 1
            values = rng.standard_normal(cols.size) * 10.0 ** rng.integers(-5, 5, cols.size)
            pairs = " ".join(f"{i}:{v!r}" for i, v in zip(cols.tolist(), values.tolist()))
            lines.append(f"{rng.choice([-1, 1])} {pairs}")
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n")
        self.assert_matches_reference(path, "sparse", dim=dim)

    @pytest.mark.parametrize("fmt, text", [("csv", "1,0.5,2\n\n-1,3,4\n"), ("sparse", "1 2:0.5\n-1 1:3\n")])
    def test_pipe(self, tmp_path, fmt, text):
        # A pipe can be read only once, so both passes read its held lines.
        path = tmp_path / "d.txt"
        path.write_text(text)
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(text)
        try:
            ds = load_dataset(f"/dev/fd/{read_fd}", fmt)
        finally:
            os.close(read_fd)
        expected = load_dataset(path, fmt)
        assert ds.features.tobytes() == expected.features.tobytes()
        assert ds.labels.tobytes() == expected.labels.tobytes()

    def test_peak_is_the_features(self, tmp_path):
        import tracemalloc

        small, path = tmp_path / "small.csv", tmp_path / "d.csv"
        save_dataset_csv(synthesize_dataset(0, 2, 2, 1.0), small)
        save_dataset_csv(synthesize_dataset(5, 600, 2000, 1.0), path)
        load_dataset(small)  # first-call set-up inside numpy is not the call's
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Lists of Python floats read about 5x.
        assert peak <= 1.5 * ds.features.nbytes


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

    @pytest.mark.parametrize(
        "seed, N, d, separation",
        [
            (1, 1, 1, 2.0),
            (2, 6000, 50, 1.5),
            (3, 4, 7, -0.0),  # validation lets a signed zero through
            (4, 777, 13, 0.0),  # odd N: one more sample in the first blob
        ],
    )
    def test_bits_of_the_one_expression_construction(self, seed, N, d, separation):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        labels = np.zeros(N)
        labels[: (N + 1) // 2] = 1.0
        signs = np.where(labels == 1.0, 1.0, -1.0)
        features = rng.standard_normal((N, d)) + separation * signs[:, None] * u[None, :]
        order = rng.permutation(N)
        ds = synthesize_dataset(seed, N, d, separation)
        assert ds.features.tobytes() == features[order].tobytes()
        assert ds.labels.tobytes() == labels[order].tobytes()

    # numpy adds into a temporary in place only from 256 KB on, so the
    # smaller case shows whether the construction itself makes a second
    # N x d array.  Gathering a permuted copy of the rows read about 2.2x.
    @pytest.mark.parametrize("N, d", [(1000, 30), (20000, 50)])
    def test_peak_is_the_noise_alone(self, N, d):
        import tracemalloc

        synthesize_dataset(0, 1, 1, 1.0)  # first-call set-up inside numpy is not the call's
        tracemalloc.start()
        try:
            synthesize_dataset(0, N, d, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * N * d * 8


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

    @pytest.mark.parametrize("label", ["0.5", "1.5", "2.5", "3.5", "7.2"])
    def test_odd_even_rejects_non_integer_label(self, tmp_path, label):
        # Rounding used to give 0.5, 1.5, 2.5 and 3.5 class 0 and 7.2 class 1.
        src = tmp_path / "in.csv"
        src.write_text(f"1,0.1\n{label},0.2\n")
        with pytest.raises(ValueError, match=r"in\.csv:2: non-integer label"):
            convert_labels(src, tmp_path / "out.csv", rule="odd-even")
        assert not (tmp_path / "out.csv").exists()

    def test_sign_accepts_non_integer_label(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("0.5,0.1\n-2.5,0.2\n")
        convert_labels(src, tmp_path / "out.csv", rule="sign")
        assert (tmp_path / "out.csv").read_text() == "1.0,0.1\n0.0,0.2\n"

    @pytest.mark.parametrize("rule", ["odd-even", "sign"])
    @pytest.mark.parametrize("existing", [None, "keep,me\n"])
    def test_rejected_label_writes_nothing(self, tmp_path, rule, existing):
        # The first rows used to be left behind in a partial output file.
        src = tmp_path / "in.csv"
        src.write_text("1,0.1\n2,0.2\nabc,0.3\n")
        dst = tmp_path / "out.csv"
        if existing is not None:
            dst.write_text(existing)
        with pytest.raises(ValueError, match=r"in\.csv:3: malformed row"):
            convert_labels(src, dst, rule=rule)
        if existing is None:
            assert not dst.exists()
        else:
            assert dst.read_text() == existing

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
            solver=SolverConfig(eps1=0.0, kappa=1e9),
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

    def test_summary_mean_skips_failed_runs(self):
        # A failed run used to enter the mean of the columns it fills with
        # zeros and NaNs: iterations 2.5, total_cm and final_train_loss nan.
        done = RunSummary(5, "budget", 5, 3, 12.5, 0.25, 0.5, 0.75)
        failed = RunSummary(6, "error: stalled", 0, 0, math.nan, math.nan, None, None)
        assert summary_means([done, failed]) == {
            "iterations": 5.0, "successes": 3.0, "total_cm": 12.5,
            "final_train_loss": 0.25, "final_test_loss": 0.5, "classification_rate": 0.75,
        }

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
        monkeypatch.setattr("subreg.solver.EXACT_LOSS_THRESHOLD", threshold)
        config = small_experiment(tmp_path, runs=2)
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


class TestReadTrace:
    def write_sample(self, path):
        event = TraceEvent(0, 0.5, 0.1, 0.2, 1.5, -math.inf, 0, 10, 10, 20, 0, 5, 0, 0, 0.7, None, None)
        write_trace(path, [event, event])
        return path.read_text().splitlines()

    def test_roundtrip(self, tmp_path):
        self.write_sample(tmp_path / "t.csv")
        events = read_trace(tmp_path / "t.csv")
        assert len(events) == 2
        assert events[0].k == 0 and type(events[0].k) is int
        assert events[0].rho == -math.inf and events[0].train_loss is None

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row + ",999",  # used to be read without complaint
            lambda row: row.rsplit(",", 1)[0],  # used to raise a bare TypeError
            lambda row: "abc" + row[1:],  # used to raise a bare ValueError
            lambda row: "1.5" + row[1:],  # a float in the integer column k
        ],
        ids=["extra_field", "short_row", "non_numeric", "float_in_int_column"],
    )
    def test_malformed_row_rejected_with_its_line(self, tmp_path, edit):
        path = tmp_path / "t.csv"
        lines = self.write_sample(path)
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row")):
            read_trace(path)

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = self.write_sample(path)
        path.write_text("\n".join([lines[0].replace("cm", "cost")] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_trace(path)


class TestTestSetWidth:
    def test_experiment_config_rejects_another_width(self):
        train = synthesize_dataset(0, 20, 3, 1.0)
        test = synthesize_dataset(1, 10, 2, 1.0)
        with pytest.raises(ValueError, match="test set has 2 features, training set 3"):
            ExperimentConfig(train=train, network=NetworkSpec(3), solver=SolverConfig(), test=test)

    @pytest.mark.parametrize(
        "scale,message",
        [("none", "test set has 2 features, training set 3"),
         ("minmax", "reference has 3 columns, features 2")],
        ids=["none", "minmax"],
    )
    def test_cli_fails_before_any_run(self, tmp_path, scale, message):
        # Used to fail inside the first iteration and leave an empty --out.
        train = tmp_path / "train.csv"
        train.write_text("1,0.1,0.2,0.3\n0,0.4,0.5,0.6\n")
        test = tmp_path / "test.csv"
        test.write_text("1,0.1,0.2\n0,0.3,0.4\n")
        out = tmp_path / "exp"
        with pytest.raises(ValueError, match=message):
            main(["train", "--dataset", str(train), "--test-dataset", str(test),
                  "--scale", scale, "--budget-cm", "2", "--out", str(out)])
        assert not out.exists()


# The train flags that set SolverConfig fields, with a non-default value each.
SOLVER_VALUES = {
    "q": "2", "p": "2", "sigma0": "0.3", "sigma_min": "1e-4", "eps1": "0.01",
    "eps2": "0.002", "theta": "0.25", "eta": "0.7", "gamma": "3", "alpha": "0.4",
    "kappa_eps": "0.25", "gamma_eps": "0.25", "kappa": "0.05", "t": "0.1",
    "budget_cm": "7", "max_iters": "9", "seed": "4",
}
INT_SETTINGS = {"q", "p", "max_iters", "seed"}
# Settings that train refuses alone, with the ones that make them valid.
COMPANIONS = {"q": ("p", "eps2")}


def flags_in_help(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    return set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))


def train_solver(tmp_path, monkeypatch, argv, config_text=None):
    """The SolverConfig that ``train`` builds from ``argv`` and a config file."""
    seen = {}
    monkeypatch.setattr("subreg.cli.run_experiment", lambda config: seen.update(c=config))
    data = tmp_path / "d.csv"
    data.write_text("1,0.5\n0,0.25\n")
    argv = ["train", "--dataset", str(data)] + argv
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    return seen["c"].solver


class TestDerivedCommandLine:
    def test_train_flags_pinned(self, capsys):
        # A new SolverConfig field becomes a flag only through this list.
        solver_flags = {"--" + name.replace("_", "-") for name in SOLVER_VALUES}
        other = {"--help", "--config", "--dataset", "--format", "--label-col", "--dim",
                 "--scale", "--test-dataset", "--net", "--runs", "--out"}
        assert len(solver_flags) == 17
        assert flags_in_help(capsys, "train") == solver_flags | other

    def test_audit_flags_pinned(self, capsys):
        assert flags_in_help(capsys, "audit") == {
            "--help", "--dataset", "--format", "--label-col", "--dim", "--scale", "--synth-n",
            "--synth-d", "--synth-separation", "--order", "--nu", "--kappa", "--t", "--trials",
            "--seed",
        }

    def test_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        solver = train_solver(tmp_path, monkeypatch, [])
        assert solver == SolverConfig()
        assert solver.eps2 is None and solver.budget_cm == math.inf

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("name", sorted(SOLVER_VALUES))
    def test_setting_reaches_config_with_its_type(self, tmp_path, monkeypatch, name, source):
        raw = SOLVER_VALUES[name]
        names = (name, *COMPANIONS.get(name, ()))
        if source == "flag":
            argv = [tok for key in names
                    for tok in ("--" + key.replace("_", "-"), SOLVER_VALUES[key])]
            solver = train_solver(tmp_path, monkeypatch, argv)
        else:
            text = "".join(f"{key}={SOLVER_VALUES[key]}\n" for key in names)
            solver = train_solver(tmp_path, monkeypatch, [], text)
        kind = int if name in INT_SETTINGS else float
        value = getattr(solver, name)
        assert type(value) is kind and value == kind(raw)

    @pytest.mark.parametrize("before", [True, False])
    def test_explicit_flag_beats_file(self, tmp_path, monkeypatch, before):
        # The flag wins whether it comes before or after --config.
        flag = ["--sigma0", "0.7"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma0=0.3\nkappa-eps=0.25\n")
        argv = flag + ["--config", str(cfg)] if before else ["--config", str(cfg)] + flag
        solver = train_solver(tmp_path, monkeypatch, argv)
        assert solver.sigma0 == 0.7 and solver.kappa_eps == 0.25

    @pytest.mark.parametrize("key", ["nope", "config", "command", "record_iterates"])
    def test_unknown_key_rejected(self, tmp_path, monkeypatch, key):
        with pytest.raises(ValueError, match="unknown config key"):
            train_solver(tmp_path, monkeypatch, [], f"{key}=1\n")

    @pytest.mark.parametrize("line", ["seed=1.5", "sigma0=abc", "format=json", "scale=log"])
    def test_badly_typed_file_value_refused_by_the_parser(self, tmp_path, monkeypatch, line):
        # Used to raise ValueError from the field's type, or to fail later
        # in load_dataset for a value outside the flag's choices.
        with pytest.raises(SystemExit) as exit_info:
            train_solver(tmp_path, monkeypatch, [], line + "\n")
        assert exit_info.value.code == 2

    def test_audit_scales_its_dataset(self, tmp_path, monkeypatch):
        data = tmp_path / "d.csv"
        data.write_text("1,0,5\n0,10,5\n1,5,5\n")
        seen = {}

        def fake_audit(problem, *args):
            seen["features"] = problem.dataset.features
            return 0.0

        monkeypatch.setattr("subreg.cli.audit_accuracy", fake_audit)
        assert main(["audit", "--dataset", str(data), "--scale", "minmax",
                     "--nu", "0.5", "--kappa", "1.0"]) == 0
        np.testing.assert_array_equal(seen["features"], [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])


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

    @pytest.mark.parametrize("flags, message", [
        (["--p", "2", "--q", "2"], "q = 2 needs a nonnegative eps2"),
        (["--sigma0", "-1"], "need 0 < sigma_min < sigma0"),
        # Used to load the dataset and die with ExperimentConfig's ValueError.
        (["--runs", "0"], "--runs must be at least 1"),
        # Used to load the dataset and die with numpy's ValueError.
        (["--seed", "-1"], "seed must be nonnegative"),
        # Used to load the dataset and die with int()'s or NetworkSpec's ValueError.
        (["--net", "abc"], "--net must list positive hidden-layer widths, not 'abc'"),
        (["--net", "0"], "--net must list positive hidden-layer widths, not '0'"),
        (["--net", "5,-1"], "--net must list positive hidden-layer widths, not '5,-1'"),
    ])
    def test_invalid_solver_setting_refused_before_loading(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        # Used to load the dataset, create --out and die with a traceback.
        def no_load(*args):
            raise AssertionError("loaded the dataset")

        monkeypatch.setattr("subreg.cli.load_dataset", no_load)
        out = tmp_path / "results"
        code = main(["train", "--dataset", str(tmp_path / "d.csv"), "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"train: {message}\n"
        assert not out.exists()

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

    def test_config_value_may_contain_hash(self, tmp_path):
        data = tmp_path / "data#1.csv"
        main(["synth", "--seed", "2", "--n", "80", "--d", "3", "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# the run\ndataset={data}\t# training set\nruns=1 #one\nbudget-cm=1\n")
        assert parse_config_file(cfg) == {"dataset": str(data), "runs": "1", "budget_cm": "1"}
        out = tmp_path / "exp"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

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

    @pytest.mark.parametrize("command, flags, message", [
        ("audit", ["--trials", "50"], "audit needs at least 100 trials"),
        ("audit", ["--t", "1.5"], "t must lie in (0, 1)"),
        ("audit", ["--nu", "-1"], "nu must be nonnegative"),
        ("audit", ["--kappa", "0"], "kappa must be positive"),
        ("audit", ["--synth-n", "0"], "N and d must be positive"),
        ("synth", ["--n", "0"], "N and d must be positive"),
        ("synth", ["--separation", "-1"], "separation must be nonnegative"),
    ])
    def test_invalid_audit_and_synth_setting_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, flags, message
    ):
        # Used to build the data and die with a traceback and status 1.
        def no_data(*args):
            raise AssertionError("built the data")

        monkeypatch.setattr("subreg.cli.audit_accuracy", no_data)
        monkeypatch.setattr("subreg.cli.save_dataset_csv", no_data)
        out = tmp_path / "out.csv"
        base = {
            "audit": ["audit", "--nu", "0.5", "--kappa", "1.0", "--synth-n", "200"],
            "synth": ["synth", "--n", "10", "--d", "2", "--out", str(out)],
        }[command]
        assert main([*base, *flags]) == 2
        assert capsys.readouterr().err == f"{command}: {message}\n"
        assert not out.exists()

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
