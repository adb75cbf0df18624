"""Command-line entry point (``spline-llt``).

Exit codes: 0 all embedded assertions passed, 1 an assertion or numerical
check failed, 2 configuration error.  The master seed comes from --seed,
falling back to the SPLINE_LLT_SEED environment variable, then to 1.
"""

import argparse
import os
import sys

from .errors import ConfigError, SplineLLTError
from .harness import EXPERIMENTS, ExperimentConfig, run


def _parse_int_list(values):
    out = []
    for v in values:
        for part in str(v).split(","):
            part = part.strip()
            if part:
                out.append(int(part))
    return out


def _parse_str_list(values):
    out = []
    for v in values:
        out.extend(p.strip() for p in str(v).split(",") if p.strip())
    return out


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spline-llt",
        description="Gaussian-limit experiments for B-splines on arbitrary knots",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--family", action="append", default=None,
                        help="knot family (repeatable or comma-separated)")
        sp.add_argument("--n", action="append", default=None,
                        help="knot count (repeatable or comma-separated)")
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--N", type=int, default=None, help="Monte Carlo sample count")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--grid-T", type=float, default=None)
        sp.add_argument("--grid-h", type=float, default=None)
        sp.add_argument("--out", default=None, help="CSV output path (JSON written next to it)")
    return parser


_CONFIG_KEYS = {
    "family": ("families", lambda v: _parse_str_list([v])),
    "n": ("n_list", lambda v: _parse_int_list([v])),
    "p": ("p", int),
    "q": ("q", int),
    "r": ("r", int),
    "N": ("N_mc", int),
    "seed": ("seed", int),
    "grid_T": ("grid_T", float),
    "grid_h": ("grid_h", float),
    "out": ("out", str),
}


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=args.experiment)
    file_cfg = read_config_file(args.config) if args.config else {}
    for key, val in file_cfg.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        try:
            setattr(cfg, attr, conv(val))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
    if args.family is not None:
        cfg.families = _parse_str_list(args.family)
    if args.n is not None:
        cfg.n_list = _parse_int_list(args.n)
    for flag in ("p", "q", "r"):
        v = getattr(args, flag)
        if v is not None:
            setattr(cfg, flag, v)
    if args.N is not None:
        cfg.N_mc = args.N
    if args.seed is not None:
        cfg.seed = args.seed
    elif "seed" not in file_cfg:
        env = os.environ.get("SPLINE_LLT_SEED")
        if env is not None:
            try:
                cfg.seed = int(env)
            except ValueError as exc:
                raise ConfigError(f"SPLINE_LLT_SEED={env!r} is not an integer") from exc
    if args.grid_T is not None:
        cfg.grid_T = args.grid_T
    if args.grid_h is not None:
        cfg.grid_h = args.grid_h
    if args.out is not None:
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        records, summary, code = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SplineLLTError as exc:
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _report(cfg, records, summary)
    return code


def _report(cfg, records, summary):
    print(f"experiment={cfg.experiment} seed={cfg.seed} records={len(records)}")
    details = summary.get("details", {})
    checks = summary.get("checks", {})
    for name in sorted(checks):
        ok = checks[name]
        line = f"  [{'ok' if ok else 'FAIL'}] {name}"
        d = details.get(name)
        if isinstance(d, dict) and "detail" in d:
            line += f": {d['detail']}"
        print(line)
    for fam, fit in (summary.get("slopes") or {}).items():
        if fit:
            print(f"  slope[{fam}] = {fit['slope']:.3f} (residual {fit['residual']:.3f})")
    print("PASS" if summary.get("passed") else "FAIL")


if __name__ == "__main__":
    sys.exit(main())
