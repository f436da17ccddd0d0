"""Command-line front-end.

Subcommands: ``train`` runs seeded experiments, ``synth`` writes a synthetic
dataset, ``convert`` remaps label columns, ``audit`` measures the empirical
failure rate of the Bernstein-sized estimators.  The solver flags of
``train`` are ``SolverConfig``'s fields.  Every ``train`` flag can also be
set from a flat ``key=value`` config file ('#' at the start of a line or
after whitespace starts a comment), parsed like the flags; command-line
flags win over file values.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from .harness import (
    ExperimentConfig,
    convert_labels,
    load_dataset,
    minmax_scale,
    run_experiment,
    save_dataset_csv,
    synthesize_dataset,
)
from .problems import Dataset, NetworkSpec, SquaredLossProblem
from .sampling import (
    audit_accuracy,
    bernstein_size,
    check_audit_settings,
    gradient_log_argument,
    value_log_argument,
)
from .solver import SolverConfig

__all__ = ["main", "build_parser", "parse_config_file"]


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_file(path) -> dict:
    """Flat key=value pairs; keys use the flag names without dashes.

    A '#' starts a comment only at the start of a line or after whitespace,
    so a value such as a path may contain one.
    """
    values = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT.split(line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# Every SolverConfig field is a train flag, with the field's default and
# type; recording iterates is for tests.
_SOLVER_FIELDS = [f for f in fields(SolverConfig) if f.name != "record_iterates"]


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    for f in _SOLVER_FIELDS:
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=float if f.default is None else type(f.default),
            default=f.default,
        )


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "sparse"), default="csv")
    parser.add_argument("--label-col", type=int, default=0)
    parser.add_argument("--dim", type=int, default=None, help="feature dimension (sparse format)")
    parser.add_argument("--scale", choices=("none", "minmax"), default="none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subreg",
        description="Adaptively regularised solvers for finite-sum minimisation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one or more seeded experiments")
    train.add_argument("--config", type=str, default=None, help="key=value config file")
    train.add_argument("--dataset", type=str, required=False)
    _add_dataset_flags(train)
    train.add_argument("--test-dataset", type=str, default=None)
    train.add_argument("--net", type=str, default="", help="comma list of hidden sizes; empty = no net")
    train.add_argument("--runs", type=int, default=1)
    train.add_argument("--out", type=str, default=None)
    _add_solver_flags(train)

    synth = sub.add_parser("synth", help="write a synthetic two-blob dataset")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--separation", type=float, default=5.0)
    synth.add_argument("--out", type=str, required=True)

    convert = sub.add_parser("convert", help="remap the label column of a CSV file")
    convert.add_argument("--dataset", type=str, required=True)
    convert.add_argument("--label-col", type=int, default=0)
    convert.add_argument("--rule", choices=("odd-even", "sign"), default="odd-even")
    convert.add_argument("--out", type=str, required=True)

    audit = sub.add_parser("audit", help="audit estimator accuracy on a dataset")
    audit.add_argument("--dataset", type=str, default=None)
    _add_dataset_flags(audit)
    audit.add_argument("--synth-n", type=int, default=5000)
    audit.add_argument("--synth-d", type=int, default=10)
    audit.add_argument("--synth-separation", type=float, default=2.0)
    audit.add_argument("--order", type=int, choices=(0, 1), default=1)
    audit.add_argument("--nu", type=float, required=True)
    audit.add_argument("--kappa", type=float, required=True)
    audit.add_argument("--t", type=float, default=0.2)
    audit.add_argument("--trials", type=int, default=1000)
    audit.add_argument("--seed", type=int, default=0)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: List[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        for key in file_values:
            if key not in vars(args) or key in ("config", "command"):
                raise ValueError(f"unknown config key {key!r}")
        # The file's values go right after the subcommand, so that argparse
        # types and checks them and explicit flags, parsed later, still win.
        at = argv.index(args.command) + 1
        tokens = [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()]
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _scaled(args: argparse.Namespace, dataset: Dataset, reference=None) -> Dataset:
    """``dataset`` with ``--scale`` applied by the reference Dataset's column ranges."""
    if args.scale == "none":
        return dataset
    reference = dataset if reference is None else reference
    return Dataset(minmax_scale(dataset.features, reference.features), dataset.labels)


def _refuse(command: str, message: str) -> int:
    """Report a bad argument on one line; the exit status of a usage error."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _cmd_train(args: argparse.Namespace) -> int:
    if args.dataset is None:
        return _refuse("train", "--dataset is required (directly or via --config)")
    solver = SolverConfig(**{f.name: getattr(args, f.name) for f in _SOLVER_FIELDS})
    try:
        solver.validate()
    except ValueError as exc:
        return _refuse("train", str(exc))
    if args.runs < 1:
        return _refuse("train", "--runs must be at least 1")
    try:
        hidden = tuple(int(tok) for tok in args.net.split(",") if tok.strip())
        NetworkSpec(1, hidden)  # checks the widths before any data is read
    except ValueError:
        message = f"--net must list positive hidden-layer widths, not {args.net!r}"
        return _refuse("train", message)
    train_set = load_dataset(args.dataset, args.format, args.label_col, args.dim)
    test_set = None
    if args.test_dataset is not None:
        test_set = load_dataset(
            args.test_dataset, args.format, args.label_col, args.dim or train_set.d
        )
        test_set = _scaled(args, test_set, reference=train_set)
    train_set = _scaled(args, train_set)
    spec = NetworkSpec(input_dim=train_set.d, hidden_sizes=hidden)
    config = ExperimentConfig(
        train=train_set,
        network=spec,
        solver=solver,
        test=test_set,
        runs=args.runs,
        out_dir=Path(args.out) if args.out else None,
    )
    run_experiment(config)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    try:  # it checks its arguments before it builds anything
        dataset = synthesize_dataset(args.seed, args.n, args.d, args.separation)
    except ValueError as exc:
        return _refuse("synth", str(exc))
    save_dataset_csv(dataset, args.out)
    print(f"wrote {args.n} samples of dimension {args.d} to {args.out}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    convert_labels(args.dataset, args.out, args.label_col, args.rule)
    print(f"wrote converted dataset to {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    try:  # before any data are read
        check_audit_settings(args.nu, args.kappa, args.t, args.trials)
    except ValueError as exc:
        return _refuse("audit", str(exc))
    if args.dataset is not None:
        dataset = _scaled(args, load_dataset(args.dataset, args.format, args.label_col, args.dim))
    else:
        try:
            dataset = synthesize_dataset(args.seed, args.synth_n, args.synth_d, args.synth_separation)
        except ValueError as exc:
            return _refuse("audit", str(exc))
    spec = NetworkSpec(input_dim=dataset.d)
    problem = SquaredLossProblem(dataset, spec)
    x = np.zeros(problem.n)
    rng = np.random.default_rng(args.seed)
    rate = audit_accuracy(problem, x, args.nu, args.kappa, args.t, args.order, args.trials, rng)
    log_arg = (
        value_log_argument(args.t) if args.order == 0 else gradient_log_argument(problem.n, args.t)
    )
    size = bernstein_size(args.kappa, args.nu, args.t, log_arg, problem.N)
    print(
        f"order={args.order} nu={args.nu:g} kappa={args.kappa:g} t={args.t:g}: "
        f"sample size {size} of {problem.N}, empirical failure rate {rate:.4f} "
        f"over {args.trials} trials"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = _apply_config_file(parser, list(sys.argv[1:] if argv is None else argv))
    commands = {
        "train": _cmd_train,
        "synth": _cmd_synth,
        "convert": _cmd_convert,
        "audit": _cmd_audit,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
