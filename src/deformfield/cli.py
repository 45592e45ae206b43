"""Command line front end.

    deformfield simulate    --config run.cfg [--out DIR] [--seed N]
    deformfield estimate    --config run.cfg [--force]
    deformfield reconstruct --config run.cfg [--force]
    deformfield evaluate    --config run.cfg [--force]
    deformfield pipeline    --config run.cfg  (all four stages)

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import PipelineConfig, read_config, write_config
from .errors import ArtifactError, ConfigError, NumericalError
from . import pipeline

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deformfield",
        description="Simulate deformed random fields and recover the deformation.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", help="run directory (overrides out_dir in the config)")
        cmd.add_argument("--seed", type=int, help="override the configured seed")
        cmd.add_argument(
            "--force",
            action="store_true",
            help="run even if upstream artifacts carry a different config hash",
        )
        return cmd

    add("simulate", "draw a deformed-field realization")
    add("estimate", "estimate fractal index and local anisotropy")
    add("reconstruct", "rebuild the deformation from the estimates")
    add("evaluate", "compare the reconstruction with the configured truth")
    add("pipeline", "run all stages in order")

    init = sub.add_parser("init", help="write a default configuration file")
    init.add_argument("path", help="where to write the config")
    return parser


def _load_config(args: argparse.Namespace) -> tuple[PipelineConfig, str]:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    out_dir = args.out or cfg.out_dir
    return cfg, out_dir


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "init":
            write_config(args.path, PipelineConfig())
            print(f"wrote default config to {args.path}")
            return EXIT_OK
        cfg, out_dir = _load_config(args)
        if args.command == "simulate":
            pipeline.stage_simulate(cfg, out_dir)
            print(f"field written to {os.path.join(out_dir, 'field.grd')}")
        elif args.command == "estimate":
            est = pipeline.stage_estimate(cfg, out_dir, args.force)
            n_ok = int(est.ok_mask().sum())
            print(
                f"alpha = {est.alpha_used:.4f}; {n_ok}/{est.centers.size} blocks "
                f"estimated; estimates in {os.path.join(out_dir, 'estimates.csv')}"
            )
        elif args.command == "reconstruct":
            pipeline.stage_reconstruct(cfg, out_dir, args.force)
            print(f"map written to {os.path.join(out_dir, 'fhat.grd')}")
        elif args.command == "evaluate":
            metrics = pipeline.stage_evaluate(cfg, out_dir, args.force)
            print(f"d1 = {metrics['d1']:.6f}")
            print(f"d2 = {metrics['d2']:.6f}")
        else:
            metrics = pipeline.run_pipeline(cfg, out_dir, args.force)
            print(f"alpha = {metrics['alpha']:.4f}")
            print(f"d1 = {metrics['d1']:.6f}")
            print(f"d2 = {metrics['d2']:.6f}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ArtifactError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
