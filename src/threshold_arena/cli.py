"""Command-line front end for desk-scale experiments.

Subcommands:
  run         play one matchup over many seeded runs, export CSV + JSON
  complexity  sweep epsilon (and n) and estimate empirical query complexity
  breaker     build the breaker pair for a deterministic baseline and report
  replay      run an algorithm against an exported sample sequence file

Component specs are names with optional parameters, e.g. ``cdfest``,
``point-mass:1``, ``cdf-lb:epsilon=0.05,sigma=+``, ``quantile:tau=0.75``,
``boosted:delta=0.05,inner=meanest``. Each field is typed, checked and
defaulted once, on its flag. A JSON config file (--config) may give any field,
spelled as its flag (out-dir, T) or as its attribute (out_dir, horizon); its
fields become defaults of those flags, so a flag given still wins. The master
seed falls back to THRESHOLD_ARENA_SEED when no seed is given, then to 0.

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


def _use_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Make a config file's fields the defaults of a subcommand's flags, as
    text that argparse converts with each flag's own type. Fields that no
    flag declares are ignored; a switch takes only true or false, and a spec
    object for a SPEC flag (algo, adv) passes through to _spec."""
    try:
        fields = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(fields, dict):
        parser.error(f"config file {path} does not hold a JSON object")
    defaults = {}
    for action in parser._actions:
        names = (action.dest, *(flag.lstrip("-") for flag in action.option_strings))
        name = next((name for name in names if name in fields), None)
        if name is None or action.default is argparse.SUPPRESS:  # --help takes no field
            continue
        value = fields[name]
        if action.nargs == 0:
            if not isinstance(value, bool):
                parser.error(f"config field {name}: expected true or false, got {value!r}")
        elif not (isinstance(value, dict) and action.metavar == "SPEC"):
            value = str(value)
        # argparse checks choices only on command-line values, not on defaults
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            parser.error(f"config field {name}: invalid choice: {value!r} (choose from {choices})")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _comma_list(cast):
    """The argparse type of a comma-separated list of cast values."""
    def parse(text: str) -> list:
        return [cast(value) for value in text.split(",")]
    parse.__name__ = f"comma-separated {cast.__name__}"  # argparse's error message names it
    return parse


def _seed(text: str) -> int:
    return int(text)


_seed.__name__ = f"seed (from --seed, --config or ${SEED_ENV_VAR})"  # argparse's error message names it


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshold-arena",
        description="Online estimation from threshold queries: games, sweeps, breakers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands share are declared once. argparse shares
    # their Action objects between the subcommands, so a subcommand that needs
    # another default (breaker's --out-dir) declares its own flag.
    config = _flags()
    config.add_argument("--config", help="JSON file with any of these fields; flags win")
    sizes = _flags()
    sizes.add_argument("--n", type=int, help="support parameter")
    sizes.add_argument("--T", type=int, dest="horizon",
                       help="rounds per run (replay: default the file's length)")
    matchup = _flags()
    matchup.add_argument("--algo", metavar="SPEC", help="algorithm spec, e.g. quantile:tau=0.75")
    matchup.add_argument("--metric", choices=["cdf", "median", "mean", "quantile"])
    # the variable's text is converted only when no seed is given
    matchup.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV_VAR, "0"),
                         help=f"master seed (default ${SEED_ENV_VAR}, else 0)")
    matchup.add_argument("--out-dir", default="arena-out", help="output directory (%(default)s)")
    pool = _flags()
    pool.add_argument("--adv", metavar="SPEC", help="adversary spec, e.g. point-mass:1")
    pool.add_argument("--workers", type=int, default=arena.default_workers(),
                      help="worker processes (the CPUs this process may run on, %(default)s)")
    game = _flags(config, sizes, matchup)
    game.add_argument("--runs", type=int, default=1, help="Monte Carlo runs (%(default)s)")
    game.add_argument("--eps", type=float, help="success threshold for rate reporting")
    game.add_argument("--reveal-samples", action="store_true",
                      help="include hidden samples in the trajectory CSV")

    run = sub.add_parser("run", parents=[game, pool], help="play one matchup over many seeded runs")
    run.set_defaults(handler=cmd_run, parser=run)

    comp = sub.add_parser("complexity", parents=[config, matchup, pool],
                          help="estimate empirical query complexity")
    comp.add_argument("--n", type=_comma_list(int), help="support sizes, e.g. 8,16")
    comp.add_argument("--eps", type=_comma_list(float), help="epsilons, e.g. 0.2,0.1")
    comp.add_argument("--runs", type=int, default=400, help="runs per probe (%(default)s)")
    comp.add_argument("--target", type=float, default=0.75,
                      help="required success probability (%(default)s)")
    comp.add_argument("--t-cap", type=int, default=1 << 20,
                      help="largest horizon to probe (%(default)s)")
    comp.set_defaults(handler=cmd_complexity, parser=comp)

    brk = sub.add_parser("breaker", parents=[config, sizes],
                         help="defeat a registered deterministic baseline")
    brk.add_argument("--baseline", help="deterministic algorithm name (midpoint, halving)")
    brk.add_argument("--out-dir", help="also write breaker.json to this directory")
    brk.set_defaults(handler=cmd_breaker, parser=brk)

    rep = sub.add_parser("replay", parents=[game], help="run against an exported sample sequence")
    rep.add_argument("--file", help="newline-delimited sample file")
    rep.set_defaults(handler=cmd_run, parser=rep)

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
    replay = args.command == "replay"
    path = _require(args.file, "file") if replay else None
    algo = _require(args.algo, "algo")
    adv = None if replay else _require(args.adv, "adv")
    n = _require(args.n, "n")
    horizon = args.horizon
    if replay:
        samples = load_sample_sequence(path)
        adv = arena.AdversarySpec("sequence", {"samples": samples})
        horizon = len(samples) if horizon is None else horizon
    horizon = _require(horizon, "T")
    reveal = args.reveal_samples
    out = _out_dir(args.out_dir)

    config = arena.GameConfig(
        n=n,
        horizon=horizon,
        algorithm=_spec(algo),
        adversary=_spec(adv),
        metric=args.metric,
        seed=args.seed,
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
                config, args.runs, epsilon=args.eps, workers=1 if replay else args.workers,
                _export=(export, fh.write),
            )
        os.replace(partial, csv_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    arena.write_summary_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    if args.eps is not None and not replay:
        print(f"success rate at horizon: {summary.success_at_horizon:.3f}")
    return 0


def cmd_complexity(args) -> int:
    algo = _require(args.algo, "algo")
    adv = _require(args.adv, "adv")
    ns = _require(args.n, "n")
    epss = _require(args.eps, "eps")
    workers = args.workers
    out = _out_dir(args.out_dir)
    algo_spec = _spec(algo)
    adv_spec = _spec(adv)

    cells = []
    # one pool for every cell's probes
    shared = arena._open_pool(workers) if workers > 1 else contextlib.nullcontext()
    with shared as pool:
        for n, eps in itertools.product(ns, epss):
            config = arena.GameConfig(
                n=n, horizon=1, algorithm=algo_spec, adversary=adv_spec, metric=args.metric,
                seed=args.seed,
            )
            arena.validate_config(config)
            est = arena.estimate_query_complexity(
                config, eps, target=args.target, runs=args.runs, t_cap=args.t_cap,
                workers=workers, _pool=pool,
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
        "target": args.target,
        "runs": args.runs,
        "cells": cells,
    }
    path = out / "complexity.json"
    path.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_breaker(args) -> int:
    baseline = _require(args.baseline, "baseline")
    n = _require(args.n, "n")
    report = arena.breaker_report(baseline, n, _require(args.horizon, "T"))
    payload = report.to_dict()
    print(json.dumps(payload, indent=2))
    if args.out_dir is not None:
        path = _out_dir(args.out_dir) / "breaker.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0 if report.broken else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        # the file's fields become defaults; parse again, so that they are
        # typed by their flags and a flag given still wins
        _use_config_file(args.parser, args.config)
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
