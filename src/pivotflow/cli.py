"""Command-line interface: validate, run, and compare scenarios."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ekf import SCHEMES
from .errors import PivotflowError
from .runner import export_artifacts, export_comparison, run_compare, run_scheme, run_truth
from .scenario import load_config, with_overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotflow",
        description="Soil-moisture twin experiments with performance-triggered reduced-order EKF estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", type=Path, help="scenario file (YAML or JSON)")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--stride", type=int, default=None, help="override the e_L evaluation stride")

    sub.add_parser("validate", parents=[common], help="parse and validate a scenario file")

    run_p = sub.add_parser("run", parents=[common], help="run the configured (or overridden) scheme")
    run_p.add_argument("--scheme", choices=SCHEMES, default=None)
    run_p.add_argument("--outdir", type=Path, default=Path("out"), help="artifact directory")

    cmp_p = sub.add_parser("compare", parents=[common], help="run all three schemes and a joined table")
    cmp_p.add_argument("--outdir", type=Path, default=Path("out"), help="artifact directory")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, seed=args.seed, stride=args.stride)
        if args.command == "validate":
            print(f"OK: {cfg.grid.n_r}x{cfg.grid.n_theta}x{cfg.grid.n_z} grid "
                  f"({cfg.n_x} nodes), {cfg.n_y} sensors, {cfg.steps} steps, scheme={cfg.scheme}")
            return 0
        if args.command == "run":
            cfg = with_overrides(cfg, scheme=args.scheme)
            runs = {args.outdir: run_scheme(cfg, run_truth(cfg))}
        else:  # compare: one directory per scheme, then the joined table
            runs = {args.outdir / scheme: art for scheme, art in run_compare(cfg).items()}
        for outdir, art in runs.items():
            files = export_artifacts(art, outdir)
            print(f"scheme={art.scheme} final %MAE={art.percent_mae[-1]:.4f} "
                  f"model changes={len(art.model_changes)}")
            for f in files:
                print(f"wrote {f}")
        if args.command == "compare":
            print(f"wrote {export_comparison({art.scheme: art for art in runs.values()}, args.outdir)}")
        return 0
    except PivotflowError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
