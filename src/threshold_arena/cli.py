"""Command-line front end for desk-scale experiments.

Subcommands:
  run         play one matchup over many seeded runs, export CSV + JSON
  complexity  sweep epsilon (and n) and estimate empirical query complexity
  breaker     build the breaker pair for a deterministic baseline and report
  replay      run an algorithm against an exported sample sequence file

Component specs are names with optional parameters, e.g. ``cdfest``,
``point-mass:1``, ``cdf-lb:epsilon=0.05,sigma=+``, ``quantile:tau=0.75``,
``boosted:delta=0.05,inner=meanest``. Experiment fields may also come from a
JSON config file (--config); explicit flags win. The master seed falls back
to the THRESHOLD_ARENA_SEED environment variable, then to 0.

Exit codes: 0 success, 1 a reported check failed, 2 invalid specification,
3 protocol violation (including nondeterminism where determinism is required).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .core import ArenaError, ProtocolError, ValidationError
from . import arena
from .adversaries import load_sample_sequence

SEED_ENV_VAR = "THRESHOLD_ARENA_SEED"

_POSITIONAL_PARAM = {
    "point-mass": "j",
    "quantile": "tau",
    "boosted": "delta",
    "sequence": "path",
    "cdf-lb": "epsilon",
}


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_component(text: str) -> tuple[str, dict]:
    """Parse 'name' or 'name:key=value,...' (one bare value allowed)."""
    name, _, rest = text.partition(":")
    name = name.strip()
    params: dict = {}
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                params[key.strip()] = _coerce(value.strip())
            else:
                key = _POSITIONAL_PARAM.get(name)
                if key is None:
                    raise ValidationError(
                        f"component {name!r} takes no positional parameter; use key=value"
                    )
                params[key] = _coerce(token)
    return name, params


def _spec(value):
    """A component spec from command-line text, whose `inner` may name another
    component; values from a config file that are not text pass through."""
    if not isinstance(value, str):
        return value
    name, params = parse_component(value)
    if isinstance(params.get("inner"), str):
        params["inner"] = arena.ComponentSpec(*parse_component(params["inner"]))
    return arena.ComponentSpec(name, params)


def _resolve(args, config_file: dict, *keys: str, default=None):
    """The flag named by keys[0] if given, else the first of keys found in the
    config file (which may spell a field as the flag, e.g. out-dir or T, or
    as its attribute, e.g. out_dir or horizon), else default."""
    value = getattr(args, keys[0].replace("-", "_"), None)
    if value is not None:
        return value
    for key in keys:
        if key in config_file:
            return config_file[key]
    return default


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"{SEED_ENV_VAR}={env!r} is not an integer seed")


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-arena",
        description="Online estimation from threshold queries: games, sweeps, breakers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags run and replay share
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--algo", help="algorithm spec, e.g. cdfest or quantile:tau=0.75")
    game.add_argument("--n", type=int, help="support parameter")
    game.add_argument("--T", type=int, dest="horizon",
                      help="rounds per run (replay: default the file's length)")
    game.add_argument("--runs", type=int, help="number of Monte Carlo runs")
    game.add_argument("--metric", choices=["cdf", "median", "mean", "quantile"])
    game.add_argument("--eps", type=float, help="success threshold for rate reporting")
    game.add_argument("--seed", type=int, help=f"master seed (default ${SEED_ENV_VAR} or 0)")
    game.add_argument("--out-dir", help="output directory (default arena-out)")
    game.add_argument("--reveal-samples", action="store_true", default=None,
                      help="include hidden samples in the trajectory CSV")
    game.add_argument("--config", help="JSON file with any of these fields")

    run = sub.add_parser("run", parents=[game], help="play one matchup over many seeded runs")
    run.add_argument("--adv", help="adversary spec, e.g. uniform or point-mass:1")
    run.add_argument("--workers", type=int, help="worker processes (default all cores)")

    comp = sub.add_parser("complexity", help="estimate empirical query complexity")
    comp.add_argument("--algo")
    comp.add_argument("--adv")
    comp.add_argument("--n", help="comma-separated support sizes, e.g. 8,16")
    comp.add_argument("--eps", help="comma-separated epsilons, e.g. 0.2,0.1")
    comp.add_argument("--runs", type=int)
    comp.add_argument("--target", type=float, help="required success probability (default 0.75)")
    comp.add_argument("--t-cap", type=int, dest="t_cap", help="largest horizon to probe")
    comp.add_argument("--metric", choices=["cdf", "median", "mean", "quantile"])
    comp.add_argument("--seed", type=int)
    comp.add_argument("--workers", type=int)
    comp.add_argument("--out-dir")
    comp.add_argument("--config")

    brk = sub.add_parser("breaker", help="defeat a registered deterministic baseline")
    brk.add_argument("--baseline", help="deterministic algorithm name (midpoint, halving)")
    brk.add_argument("--n", type=int)
    brk.add_argument("--T", type=int, dest="horizon")
    brk.add_argument("--out-dir")
    brk.add_argument("--config")

    rep = sub.add_parser(
        "replay", parents=[game], help="run an algorithm against an exported sample sequence"
    )
    rep.add_argument("--file", help="newline-delimited sample file")

    return parser


def _require(value, name: str):
    if value is None:
        raise ValidationError(f"missing required field --{name}")
    return value


def cmd_run(args) -> int:
    """run, and replay: run against a sequence adversary made of --file's samples.

    A replay plays on one worker, and its T defaults to the file's length.
    The CSV is written to <name>.partial and moved over <name> only once
    every run has succeeded, so a failed command leaves earlier outputs as
    they were.
    """
    file_cfg = _load_config_file(args.config)
    replay = args.command == "replay"
    path = _require(_resolve(args, file_cfg, "file"), "file") if replay else None
    algo = _require(_resolve(args, file_cfg, "algo"), "algo")
    adv = None if replay else _require(_resolve(args, file_cfg, "adv"), "adv")
    n = int(_require(_resolve(args, file_cfg, "n"), "n"))
    horizon = _resolve(args, file_cfg, "horizon", "T")
    if replay:
        samples = load_sample_sequence(path)
        adv = arena.AdversarySpec("sequence", {"samples": samples})
        horizon = len(samples) if horizon is None else horizon
    horizon = int(_require(horizon, "T"))
    runs = int(_resolve(args, file_cfg, "runs", default=1))
    seed = int(_resolve(args, file_cfg, "seed", default=_default_seed()))
    eps = _resolve(args, file_cfg, "eps")
    metric = _resolve(args, file_cfg, "metric")
    workers = 1 if replay else _resolve(args, file_cfg, "workers", default=arena.default_workers())
    reveal = bool(_resolve(args, file_cfg, "reveal-samples", "reveal_samples", default=False))
    out = _out_dir(_resolve(args, file_cfg, "out-dir", "out_dir", default="arena-out"))

    config = arena.GameConfig(
        n=n,
        horizon=horizon,
        algorithm=_spec(algo),
        adversary=_spec(adv),
        metric=metric,
        seed=seed,
    )
    arena.validate_config(config)

    names = ("replay.csv", "replay-summary.json") if replay else ("trajectory.csv", "summary.json")
    csv_path, json_path = (out / name for name in names)
    partial = csv_path.with_name(csv_path.name + ".partial")
    try:
        with open(partial, "w") as fh:
            fh.write(arena.trajectory_csv_header(reveal) + "\n")
            # the chunk workers format their runs' CSV text
            export = functools.partial(arena.trajectory_csv_text, reveal_samples=reveal)
            summary = arena.monte_carlo(
                config, runs, epsilon=eps, workers=int(workers), _export=(export, fh.write)
            )
        os.replace(partial, csv_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    arena.write_summary_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    if eps is not None and not replay:
        print(f"success rate at horizon: {summary.success_at_horizon:.3f}")
    return 0


def cmd_complexity(args) -> int:
    file_cfg = _load_config_file(args.config)
    algo = _require(_resolve(args, file_cfg, "algo"), "algo")
    adv = _require(_resolve(args, file_cfg, "adv"), "adv")
    n_field = _require(_resolve(args, file_cfg, "n"), "n")
    eps_field = _require(_resolve(args, file_cfg, "eps"), "eps")
    runs = int(_resolve(args, file_cfg, "runs", default=400))
    target = float(_resolve(args, file_cfg, "target", default=0.75))
    t_cap = int(_resolve(args, file_cfg, "t_cap", default=1 << 20))
    metric = _resolve(args, file_cfg, "metric")
    seed = int(_resolve(args, file_cfg, "seed", default=_default_seed()))
    workers = int(_resolve(args, file_cfg, "workers", default=arena.default_workers()))
    out = _out_dir(_resolve(args, file_cfg, "out-dir", "out_dir", default="arena-out"))

    ns = [int(v) for v in str(n_field).split(",")]
    epss = [float(v) for v in str(eps_field).split(",")]
    algo_spec = _spec(algo)
    adv_spec = _spec(adv)

    cells = []
    # one pool for every cell's probes
    shared = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with shared as pool:
        for n, eps in itertools.product(ns, epss):
            config = arena.GameConfig(
                n=n, horizon=1, algorithm=algo_spec, adversary=adv_spec, metric=metric, seed=seed
            )
            arena.validate_config(config)
            est = arena.estimate_query_complexity(
                config, eps, target=target, runs=runs, t_cap=t_cap, workers=workers, _pool=pool
            )
            cells.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "t_hat": est.t_hat,
                    "resolved": est.resolved,
                    "curve": est.curve,
                    "reference_cdf_budget": math.ceil(3 * n * math.log(8 * n) / eps**2),
                    "reference_mean_budget": math.ceil(1 / eps**2),
                }
            )
            print(f"n={n} eps={eps}: t_hat={est.t_hat}{'' if est.resolved else ' (unresolved)'}")

    table = {
        "algorithm": arena._jsonable(algo_spec),
        "adversary": arena._jsonable(adv_spec),
        "target": target,
        "runs": runs,
        "cells": cells,
    }
    path = out / "complexity.json"
    path.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_breaker(args) -> int:
    file_cfg = _load_config_file(args.config)
    baseline = _require(_resolve(args, file_cfg, "baseline"), "baseline")
    n = int(_require(_resolve(args, file_cfg, "n"), "n"))
    horizon = int(_require(_resolve(args, file_cfg, "horizon", "T"), "T"))

    report = arena.breaker_report(baseline, n, horizon)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    out_dir = _resolve(args, file_cfg, "out-dir", "out_dir")
    if out_dir is not None:
        path = _out_dir(out_dir) / "breaker.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0 if report.broken else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "complexity": cmd_complexity,
        "breaker": cmd_breaker,
        "replay": cmd_run,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"invalid specification: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 3
    except ArenaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
