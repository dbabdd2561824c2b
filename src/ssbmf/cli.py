"""Command-line front end.

Subcommands: gen, gram, attack, recover, csp, probe, bench.  All randomness
flows from --seed; every output file is a deterministic function of the
arguments (timings go to stdout, never into files), so identical invocations
produce byte-identical artifacts.

Exit codes: 0 success, 2 parameter/usage error, 3 recovery or verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import csp as csp_mod
from . import probes
from .errors import SsbmfError, ParameterError
from .instance import (GramMatrix, SelectionMatrix, factorization_error,
                       gen_selection_matrix, gram, load_json, save_csv, save_json)
from .jennrich import RecoverConfig, _stage, tensor_recover
from .mu import mu_table, required_sample_size
from .recover import SyntheticDataset, recover_dataset

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_FAILURE = 3


def _emit(obj: dict, out: str, fmt: str) -> None:
    """obj as json, csv or pretty lines, in the file out or on stdout (out
    None or "-"); JSON is one line on stdout and indented in a file."""
    stdout = out is None or out == "-"
    if fmt == "csv":
        save_csv(sorted(obj.items()), sys.stdout if stdout else out)
    elif fmt == "pretty":
        text = "".join(f"{key}: {value}\n" for key, value in sorted(obj.items()))
        if stdout:
            sys.stdout.write(text)
        else:
            with open(out, "w") as fh:
                fh.write(text)
    elif stdout:
        print(json.dumps(obj, sort_keys=True))
    else:
        save_json(obj, out)


def _cmd_gen(args) -> int:
    W = gen_selection_matrix(args.m, args.r, args.k, args.seed)
    save_json(W.to_json(seed=args.seed), args.out)
    return EXIT_OK


def _cmd_gram(args) -> int:
    W = SelectionMatrix.from_json(load_json(args.infile))
    M = gram(W, args.arithmetic)
    save_json(M.to_json(), args.out)
    return EXIT_OK


def _cmd_attack(args) -> int:
    M = GramMatrix.from_json(load_json(args.gram))
    config = RecoverConfig(anchors=args.anchors, seed=args.seed)
    result = tensor_recover(M, args.r, args.k, config)
    report = result.report(include_timing=False)
    if args.out:
        save_json(report, args.out)
    if args.w_out and result.W_hat is not None:
        save_json(result.W_hat.to_json(), args.w_out)
    print(json.dumps({**report, "seconds": round(result.diagnostics["seconds"], 3)},
                     sort_keys=True))
    return EXIT_OK if result.success else EXIT_FAILURE


def _cmd_recover(args) -> int:
    M = GramMatrix.from_json(load_json(args.gram))
    Z = np.loadtxt(args.synthetic, delimiter=",", ndmin=2)
    synthetic = SyntheticDataset(Z=Z)
    config = RecoverConfig(anchors=args.anchors, seed=args.seed)
    dataset, report = recover_dataset(M, synthetic, args.r, args.k, recover_config=config)
    if dataset is not None and args.out:
        dataset.to_csv(args.out)
    printable = {"success": report["success"]}
    if "failure" in report:
        printable["failure"] = report["failure"]
    print(json.dumps(printable, sort_keys=True))
    return EXIT_OK if report["success"] else EXIT_FAILURE


def _cmd_csp(args) -> int:
    M = GramMatrix.from_json(load_json(args.gram))
    mode = {"int": "integer", "bool": "boolean"}[args.mode]
    inst = csp_mod.reduce_symmetric(M, args.r, args.k, mode)
    if args.solver == "exact":
        assignment = csp_mod.solve_exact(inst, budget=args.budget)
    else:
        assignment = csp_mod.solve_local(inst, restarts=args.restarts,
                                         iters=args.iters, seed=args.seed)
    _, residual = csp_mod.assignment_to_factors(inst, assignment)
    report = {"value": assignment.value, "edges": inst.n_edges,
              "gap": inst.n_edges - assignment.value,
              "off_diagonal_l0": residual}
    _emit(report, args.out, args.report)
    return EXIT_OK


def _cmd_probe(args) -> int:
    if args.what == "rank":
        if args.infile is None:
            raise ParameterError("probe rank needs --in, a selection-matrix JSON file")
        W = SelectionMatrix.from_json(load_json(args.infile))
        report = probes.rank_report(W, primes=args.primes, seed=args.seed)
        obj = {"rank_f2": report.rank_f2, "rank_real": report.rank_real,
               **{f"rank_mod_{q}": v for q, v in report.rank_modq.items()}}
    elif args.what == "krawtchouk":
        obj = probes.krawtchouk_bound_check(args.r, args.k)
    elif args.what == "singularity":
        obj = probes.singularity_experiment(args.m, args.r, args.k,
                                            args.trials, args.seed)
        obj = {"m": obj["m"], "r": obj["r"], "k": obj["k"],
               "f2_frequency": obj["f2"]["frequency"],
               "real_frequency": obj["real"]["frequency"],
               "real_ci_low": obj["real"]["ci_low"],
               "real_ci_high": obj["real"]["ci_high"]}
    else:  # anticoncentration
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        x = rng.integers(-5, 6, size=args.r)
        obj = probes.anticoncentration_estimate(
            x, args.r, args.k, q=args.q, samples=args.trials, seed=args.seed)
    _emit(obj, args.out, args.report)
    return EXIT_OK


def _cmd_bench(args) -> int:
    timings = {"suggested_m": required_sample_size(args.r, args.k, 3 * args.k, 0.1)}
    m = timings["suggested_m"] if args.m is None else args.m
    with _stage(timings, "gen_seconds"):
        W = gen_selection_matrix(m, args.r, args.k, args.seed)
    with _stage(timings, "gram_seconds"):
        M = gram(W, "boolean")
    with _stage(timings, "verify_seconds"):
        factorization_error(M, W)
    result = tensor_recover(M, args.r, args.k, RecoverConfig(seed=args.seed))
    timings["recover_success"] = result.success
    for key in ("fallback_rows", "eigen_gap"):
        if key in result.diagnostics:
            timings[f"recover_{key}"] = result.diagnostics[key]
    for stage, seconds in result.diagnostics["stages"].items():
        timings[f"recover_{stage}_seconds"] = seconds
    # Four significant digits, so that a small eigen-gap does not print as 0.0.
    print(json.dumps({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                      for k, v in timings.items()}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssbmf",
        description="Sparse symmetric Boolean matrix factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random selection matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gram", help="Gram matrix of a stored selection matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--arithmetic", choices=["boolean", "integer"],
                   default="boolean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("attack", help="recover W from a Boolean Gram matrix")
    p.add_argument("--gram", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--anchors", type=int, default=None, help="anchor rows; m uses all rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--w-out", default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("recover", help="recover heavy coordinates of a dataset")
    p.add_argument("--gram", required=True)
    p.add_argument("--synthetic", required=True, help="CSV of the m x d matrix")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--anchors", type=int, default=None, help="anchor rows; m uses all rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("csp", help="reduce to Max 2-CSP and solve")
    p.add_argument("--gram", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["int", "bool"], default="bool")
    p.add_argument("--solver", choices=["exact", "local"], default="exact")
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=["json", "csv", "pretty"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_csp)

    p = sub.add_parser("probe", help="validation probes")
    p.add_argument("what", choices=["rank", "krawtchouk", "singularity",
                                    "anticoncentration"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--q", default="real")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--primes", type=int, nargs="*", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=["json", "csv", "pretty"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bench", help="timing of the core kernels and of each recovery stage")
    p.add_argument("--m", type=int, default=None, help="default: suggested_m")
    p.add_argument("--r", type=int, default=12)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAM if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParameterError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except SsbmfError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
