"""Command-line front-end.

Subcommands: ``train`` runs seeded experiments, ``synth`` writes a synthetic
dataset, ``convert`` remaps label columns, ``audit`` measures the empirical
failure rate of the Bernstein-sized estimators.  Every flag can also be set
from a flat ``key=value`` config file ('#' starts a comment); command-line
flags win over file values.
"""

from __future__ import annotations

import argparse
import math
import sys
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
from .sampling import audit_accuracy, bernstein_size, gradient_log_argument, value_log_argument
from .solver import SolverConfig

__all__ = ["main", "build_parser", "parse_config_file"]


def parse_config_file(path) -> dict:
    """Flat key=value pairs; keys use the flag names without dashes."""
    values = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    defaults = SolverConfig()
    parser.add_argument("--q", type=int, default=defaults.q, help="optimality order (1 or 2)")
    parser.add_argument("--p", type=int, default=defaults.p, help="model derivative order (1 or 2)")
    parser.add_argument("--sigma0", type=float, default=defaults.sigma0)
    parser.add_argument("--sigma-min", type=float, default=defaults.sigma_min)
    parser.add_argument("--eps1", type=float, default=defaults.eps1)
    parser.add_argument("--eps2", type=float, default=None)
    parser.add_argument("--theta", type=float, default=defaults.theta)
    parser.add_argument("--eta", type=float, default=defaults.eta)
    parser.add_argument("--gamma", type=float, default=defaults.gamma)
    parser.add_argument("--alpha", type=float, default=defaults.alpha)
    parser.add_argument("--kappa-eps", type=float, default=defaults.kappa_eps)
    parser.add_argument("--gamma-eps", type=float, default=defaults.gamma_eps)
    parser.add_argument("--kappa", type=float, default=defaults.kappa)
    parser.add_argument("--t", type=float, default=defaults.t)
    parser.add_argument("--budget-cm", type=float, default=math.inf)
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subreg",
        description="Adaptively regularised solvers for finite-sum minimisation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one or more seeded experiments")
    train.add_argument("--config", type=str, default=None, help="key=value config file")
    train.add_argument("--dataset", type=str, required=False)
    train.add_argument("--format", choices=("csv", "sparse"), default="csv")
    train.add_argument("--label-col", type=int, default=0)
    train.add_argument("--dim", type=int, default=None, help="feature dimension (sparse format)")
    train.add_argument("--test-dataset", type=str, default=None)
    train.add_argument("--net", type=str, default="", help="comma list of hidden sizes; empty = no net")
    train.add_argument("--scale", choices=("none", "minmax"), default="none")
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
    audit.add_argument("--format", choices=("csv", "sparse"), default="csv")
    audit.add_argument("--label-col", type=int, default=0)
    audit.add_argument("--dim", type=int, default=None)
    audit.add_argument("--scale", choices=("none", "minmax"), default="none")
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
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        train_parser = sub.choices["train"]
        known = {
            action.dest: action for action in train_parser._actions
            if action.dest not in ("help", "config")
        }
        defaults = {}
        for key, raw in file_values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            action = known[key]
            if action.type is not None:
                defaults[key] = action.type(raw)
            else:
                defaults[key] = raw
        train_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)  # explicit flags still win
    return args


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        q=args.q,
        p=args.p,
        sigma0=args.sigma0,
        sigma_min=args.sigma_min,
        eps1=args.eps1,
        eps2=args.eps2,
        theta=args.theta,
        eta=args.eta,
        gamma=args.gamma,
        alpha=args.alpha,
        kappa_eps=args.kappa_eps,
        gamma_eps=args.gamma_eps,
        kappa=args.kappa,
        t=args.t,
        budget_cm=args.budget_cm,
        max_iters=args.max_iters,
        seed=args.seed,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    if args.dataset is None:
        print("train: --dataset is required (directly or via --config)", file=sys.stderr)
        return 2
    train_set = load_dataset(args.dataset, args.format, args.label_col, args.dim)
    test_set = None
    if args.test_dataset is not None:
        test_set = load_dataset(
            args.test_dataset, args.format, args.label_col, args.dim or train_set.d
        )
    if args.scale == "minmax":
        # The test set is scaled by the training set's column ranges.
        if test_set is not None:
            test_set = Dataset(minmax_scale(test_set.features, train_set.features), test_set.labels)
        train_set = Dataset(minmax_scale(train_set.features), train_set.labels)
    hidden = tuple(int(tok) for tok in args.net.split(",") if tok.strip())
    spec = NetworkSpec(input_dim=train_set.d, hidden_sizes=hidden)
    config = ExperimentConfig(
        train=train_set,
        network=spec,
        solver=_solver_config(args),
        test=test_set,
        runs=args.runs,
        out_dir=Path(args.out) if args.out else None,
    )
    run_experiment(config)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = synthesize_dataset(args.seed, args.n, args.d, args.separation)
    save_dataset_csv(dataset, args.out)
    print(f"wrote {args.n} samples of dimension {args.d} to {args.out}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    convert_labels(args.dataset, args.out, args.label_col, args.rule)
    print(f"wrote converted dataset to {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.dataset is not None:
        dataset = load_dataset(args.dataset, args.format, args.label_col, args.dim, args.scale)
    else:
        dataset = synthesize_dataset(args.seed, args.synth_n, args.synth_d, args.synth_separation)
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
