"""Command-line driver.

Subcommands: gen, solve, rrr, eval, oracle, netbound.  Every result
embeds the resolved configuration; outputs are canonical JSON (CSV for
gen) so identical flags and seeds reproduce identical bytes.  Wall-clock
timings go to stderr.

Exit codes: 0 success, 1 usage error, 2 guard or solver error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import datagen, evaluate, oracle, solver2d, solverhd
from .core import Dataset, RestrictedSpace

DEFAULT_SAMPLES = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _env_seed() -> int:
    raw = os.environ.get("RRK_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"RRK_SEED must be an integer, got {raw!r}") from None


def _load_space(path) -> RestrictedSpace | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data.get("halfspaces") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(h, list) for h in rows):
        raise ValueError(f'{path}: expected a JSON object {{"halfspaces": [[...], ...]}}')
    try:
        halfspaces = tuple(tuple(float(x) for x in h) for h in rows)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: halfspace entries must be numbers") from None
    return RestrictedSpace(halfspaces, description=str(path))


def _load_dataset(args) -> Dataset:
    return datagen.load_csv(args.input, normalize=not args.pre_normalized,
                            negate_columns=args.negate or ())


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{flag} expects integers, got {text!r}") from None


def _parse_index_set(text: str, n: int) -> list[int]:
    """Accepts "1,4,7" and ranges like "1..7"."""
    out: set[int] = set()
    for part in filter(None, map(str.strip, text.split(","))):
        ends = [_int(end, "--set") for end in part.split("..", 1)]
        # bounds first, so a huge range is refused before it is expanded
        if min(ends) < 1 or max(ends) > n:
            raise _UsageError(f"--set indices must lie in 1..{n}")
        if ends[0] > ends[-1]:
            raise _UsageError(f"--set range {part!r} runs backwards")
        out.update(range(ends[0], ends[-1] + 1))
    if not out:
        raise _UsageError("--set resolved to an empty index set")
    return sorted(out)


def _add_dataset_args(p) -> None:
    p.add_argument("--input", required=True, help="dataset CSV with header row")
    p.add_argument("--pre-normalized", action="store_true",
                   help="values are already in [0,1]; skip min-max normalization")
    p.add_argument("--negate", nargs="*", default=None,
                   help="header names of smaller-is-better columns to flip "
                        "before normalization")
    p.add_argument("--restrict", default=None,
                   help='JSON file {"halfspaces": [[...], ...]} with h.u >= 0 rows')


def build_parser() -> _Parser:
    parser = _Parser(prog="rankregret",
                     description="rank-regret minimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--family", required=True, choices=datagen.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strength", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="budget-r rank-regret minimization")
    _add_dataset_args(p)
    p.add_argument("--algo", required=True, choices=("2d", "hd"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=int, default=6)
    p.add_argument("--delta", type=float, default=0.03)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--linear-scan", action="store_true",
                   help="hd only: also report greedy cover sizes for every k")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rrr", help="minimum-size set under a rank threshold")
    _add_dataset_args(p)
    p.add_argument("--algo", required=True, choices=("2d", "hd"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=int, default=6)
    p.add_argument("--delta", type=float, default=0.03)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rrr)

    p = sub.add_parser("eval", help="Monte-Carlo metrics for a tuple set")
    _add_dataset_args(p)
    p.add_argument("--set", required=True, help='indices, e.g. "1,4,7" or "1..7"')
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--metrics", default="rank",
                   help="comma list from rank,ratk,regret-ratio")
    p.add_argument("--ks", default=None, help="comma list of thresholds for ratk")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="brute-force reference optimum")
    p.add_argument("--mode", required=True, choices=("exhaustive", "arc"))
    p.add_argument("--input", default=None, help="dataset CSV (exhaustive mode)")
    p.add_argument("--pre-normalized", action="store_true")
    p.add_argument("--negate", nargs="*", default=None)
    p.add_argument("--restrict", default=None)
    p.add_argument("--n", type=int, default=None, help="arc size (arc mode)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--candidates", default="skyline", choices=("skyline", "all"))
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("netbound", help="delta-net sample-size bound")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_netbound)

    return parser


def _resolved_seed(args) -> int:
    return args.seed if getattr(args, "seed", None) is not None else _env_seed()


def cmd_gen(args) -> int:
    seed = _resolved_seed(args)
    spec = datagen.GenSpec(args.family, args.n, args.d, seed, args.strength)
    D = datagen.generate(spec)
    _emit(datagen.csv_text(D), args.out)
    return 0


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _hd_params(args, r: int, seed: int) -> solverhd.HdParams:
    return solverhd.HdParams(r=r, gamma=args.gamma, delta_fail=args.delta, m=args.m,
                             seed=seed)


def _run_solver(args, key: str, solve_2d, solve_hd, extra=None) -> int:
    """Shared body of ``solve`` and ``rrr``: time ``solve_2d(D, space)`` or
    ``solve_hd(D, space, seed)``, then emit the result with its config and
    the untimed fields of ``extra(D, space, seed, result)``."""
    D = _load_dataset(args)
    space = _load_space(args.restrict)
    seed = _resolved_seed(args)
    config = _config_dict(args, ("algo", key, "input", "restrict", "gamma", "delta", "m"))
    config["seed"] = seed
    t0 = time.perf_counter()
    if args.algo == "2d":
        if D.d != 2:
            raise ValueError(f"--algo 2d requires a 2-attribute dataset, got d={D.d}")
        result = solve_2d(D, space)
    else:
        result = solve_hd(D, space, seed)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"solved in {elapsed_ms:.1f} ms", file=sys.stderr)
    payload = result.to_json_dict()
    payload["params"]["config"] = config
    if extra is not None:
        payload.update(extra(D, space, seed, result))
    _emit_json(payload, args.out)
    return 0


def cmd_solve(args) -> int:
    if args.linear_scan and args.algo != "hd":
        raise _UsageError("--linear-scan requires --algo hd")

    def linear_scan(D, space, seed, result) -> dict:
        scan = solverhd.linear_scan_cover_sizes(D, _hd_params(args, args.r, seed), space)
        agree = scan["smallest_fit_k"] == result.rank_regret
        if not agree or scan["non_monotone_pairs"]:
            print("linear scan: cover sizes are not monotone in k; "
                  "search result reported unchanged", file=sys.stderr)
        return {"linear_scan": {
            "smallest_fit_k": scan["smallest_fit_k"],
            "search_k": result.rank_regret,
            "agrees": agree,
            "non_monotone_pairs": [list(p) for p in scan["non_monotone_pairs"]],
        }}

    return _run_solver(
        args, "r",
        lambda D, space: solver2d.solve_rrm_2d(D, args.r, space),
        lambda D, space, seed: solverhd.solve_rrm_hd(D, _hd_params(args, args.r, seed), space),
        linear_scan if args.linear_scan else None)


def cmd_rrr(args) -> int:
    return _run_solver(
        args, "k",
        lambda D, space: solver2d.solve_rrr_2d(D, args.k, space),
        lambda D, space, seed: solverhd.solve_rrr_hd(D, args.k, _hd_params(args, D.d, seed),
                                                     space))


def cmd_eval(args) -> int:
    D = _load_dataset(args)
    space = _load_space(args.restrict)
    seed = _resolved_seed(args)
    S = _parse_index_set(args.set, D.n)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(metrics) - {"rank", "ratk", "regret-ratio"}
    if unknown:
        raise _UsageError(f"unknown metrics: {sorted(unknown)}")
    ks = [_int(x, "--ks") for x in args.ks.split(",")] if args.ks else []
    payload: dict = {
        "set": S,
        "config": {"samples": args.samples, "seed": seed, "metrics": metrics,
                   "ks": ks, "input": args.input, "restrict": args.restrict},
    }
    if "rank" in metrics or "ratk" in metrics:
        report = evaluate.estimate_rank_regret(S, D, args.samples, seed, space,
                                               ks=ks if "ratk" in metrics else ())
        payload["estimated_rank_regret"] = report.estimated_rank_regret
        payload["samples"] = report.samples
        payload["seed"] = report.seed
        if "ratk" in metrics:
            payload["rat_k"] = {str(k): v for k, v in sorted(report.rat_k.items())}
    if "regret-ratio" in metrics:
        payload["max_regret_ratio"] = evaluate.max_regret_ratio(
            S, D, args.samples, seed, space)
    _emit_json(payload, args.out)
    return 0


def cmd_oracle(args) -> int:
    seed = _resolved_seed(args)
    space = _load_space(args.restrict)
    if args.mode == "arc":
        if args.n is None:
            raise _UsageError("arc mode requires --n")
        D = oracle.arc_dataset(args.n)
    else:
        if args.input is None:
            raise _UsageError("exhaustive mode requires --input")
        D = _load_dataset(args)
    report = oracle.exhaustive_rrm(D, args.r, space, args.candidates,
                                   samples=args.samples, seed=seed)
    payload = report.to_json_dict()
    payload["config"] = _config_dict(args, ("mode", "n", "r", "candidates",
                                            "samples", "input", "restrict"))
    payload["config"]["seed"] = seed
    _emit_json(payload, args.out)
    return 0


def cmd_netbound(args) -> int:
    bound = solverhd.net_sample_bound(
        solverhd.NetBoundParams(c=args.c, d=args.d, epsilon_net=args.eps))
    _emit(f"{bound}\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError, oracle.GuardExceededError,
            solverhd.ConeSamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
