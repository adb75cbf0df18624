"""Command-line entry point (``spline-llt``).

Exit codes: 0 all embedded assertions passed, 1 an assertion or numerical
check failed, 2 configuration error (a malformed value included).  The
master seed comes from --seed, then the config file, then the
SPLINE_LLT_SEED environment variable, then 1.
"""

import argparse
import os
import sys

from .errors import ConfigError, SplineLLTError
from .harness import EXPERIMENTS, ExperimentConfig, run


def _last(conv):
    """Parser of a scalar option: the last value given wins."""
    return lambda values: conv(values[-1])


def _comma_list(conv):
    """Parser of a list option: every value given, each comma-separated."""
    return lambda values: [conv(p.strip()) for v in values for p in v.split(",") if p.strip()]


# config-file key: (ExperimentConfig field, parser of the given strings, help);
# the flag is --key with "_" spelled "-"
OPTIONS = {
    "family": ("families", _comma_list(str), "knot family (repeatable or comma-separated)"),
    "n": ("n_list", _comma_list(int), "knot count (repeatable or comma-separated)"),
    "p": ("p", _last(int), None),
    "q": ("q", _last(int), None),
    "r": ("r", _last(int), None),
    "N": ("N_mc", _last(int), "Monte Carlo sample count"),
    "seed": ("seed", _last(int), None),
    "grid_T": ("grid_T", _last(float), None),
    "grid_h": ("grid_h", _last(float), None),
    "out": ("out", _last(str), "CSV output path (JSON written next to it)"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
        # values stay strings here and are parsed in config_from_args, so a
        # malformed one is a configuration error like any other
        for key, (_, _, help_text) in OPTIONS.items():
            sp.add_argument(_flag(key), dest=key, action="append", help=help_text)
    return parser


def config_from_args(args) -> ExperimentConfig:
    """Flags override the config file, which overrides SPLINE_LLT_SEED."""
    file_cfg = read_config_file(args.config) if args.config else {}
    given = {}
    env = os.environ.get("SPLINE_LLT_SEED")
    if env is not None:
        given["seed"] = ("SPLINE_LLT_SEED", [env])
    for key, val in file_cfg.items():
        if key not in OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        given[key] = (f"config key {key!r}", [val])
    for key in OPTIONS:
        values = getattr(args, key)
        if values is not None:
            given[key] = (_flag(key), values)
    cfg = ExperimentConfig(experiment=args.experiment)
    for key, (source, values) in given.items():
        attr, parse, _ = OPTIONS[key]
        try:
            setattr(cfg, attr, parse(values))
        except ValueError as exc:
            raise ConfigError(f"bad value for {source}: {','.join(values)!r}") from exc
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
