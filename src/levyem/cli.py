"""Command line front end.

``levyem run <config.json>`` executes one experiment described by a JSON
config and persists results to a run directory; ``levyem list`` prints the
built-in experiment catalog.  Exit codes: 0 success, 2 unreadable or
unparseable config, 3 precondition violation, 4 simulation failure.

The output directory is resolved in order of precedence: ``--out`` flag,
``LEVYEM_OUT`` environment variable, ``output_dir`` config field, then
``levyem-runs/<config-stem>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import default_workers
from .errors import ConfigurationError, StepFailureError
from .experiments import catalog, execute_config, write_run

OUT_ENV_VAR = "LEVYEM_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyem",
        description="Semi-implicit Euler-Maruyama experiments for SDEs with jumps.",
        epilog=f"The {OUT_ENV_VAR} environment variable overrides the default output directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--paths", type=int, default=None, metavar="N",
                     help="override the number of Monte Carlo paths")
    run.add_argument("--seed", type=int, default=None, metavar="S",
                     help="override the master seed")
    run.add_argument("--workers", type=int, default=None, metavar="W",
                     help="worker processes (default: available parallelism, "
                          "or 1 where the platform cannot fork)")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="output directory for this run")

    sub.add_parser("list", help="print the built-in experiment catalog")
    return parser


def _resolve_out_dir(flag_value, cfg: dict, config_path: Path) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env) / config_path.stem
    if cfg.get("output_dir"):
        return Path(cfg["output_dir"])
    return Path("levyem-runs") / config_path.stem


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: {config_path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2

    workers = args.workers if args.workers is not None else default_workers()
    try:
        result = execute_config(
            cfg, n_paths=args.paths, master_seed=args.seed, workers=workers
        )
    except ConfigurationError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return 3
    except StepFailureError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        where = exc.diagnostics or {}
        keys = ("path", "step", "t", "dt", "lane")
        context = [f"{key}={where[key]}" for key in keys if key in where]
        if context:
            print(f"  at {' '.join(context)}", file=sys.stderr)
        return 4

    out_dir = _resolve_out_dir(args.out, cfg, config_path)
    try:
        write_run(result, out_dir)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 3
    for line in result.lines():
        print(line)
    print(f"wrote {out_dir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for entry in catalog().values():
            print(entry.describe())
        return 0
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
