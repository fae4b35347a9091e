"""Command-line surface: convert, train, encode, eval, gradcheck, toy, plot.

Every command writes a run manifest (resolved flags, seed, paths,
version) next to its primary output, so any artifact can be reproduced
from its manifest alone. Outputs are deterministic functions of
(inputs, flags, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, hamming, matrix_io, synth, svgplot
from .checks import check_gradients
from .network import forward_batch
from .trainer import LineSearchError, TrainConfig, fit, write_trace_csv
from .variants import KINDS, VariantConfig

GRADCHECK_TOLERANCE = 1e-5


def write_manifest(out_path, command: str, flags: dict) -> Path:
    path = Path(str(out_path) + ".manifest.json")
    doc = {
        "tool": "autojacobin",
        "version": __version__,
        "command": command,
        "flags": {k: (str(v) if isinstance(v, Path) else v)
                  for k, v in sorted(flags.items())},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_matrix(path) -> np.ndarray:
    path = str(path)
    if path.endswith(".fvecs"):
        return matrix_io.read_fvecs(path)
    if path.endswith(".bvecs"):
        return matrix_io.read_bvecs(path)
    return matrix_io.read_txt(path)


def write_matrix(path, X: np.ndarray) -> None:
    path = str(path)
    if path.endswith(".fvecs"):
        matrix_io.write_fvecs(path, X)
    elif path.endswith(".bvecs"):
        matrix_io.write_bvecs(path, X)
    else:
        matrix_io.write_txt(path, X)


def _flags(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "config")}


def cmd_convert(args) -> int:
    X = read_matrix(args.input)
    write_matrix(args.output, X)
    write_manifest(args.output, "convert", _flags(args))
    print(f"converted {args.input} -> {args.output} ({X.shape[0]}x{X.shape[1]})")
    return 0


def cmd_train(args) -> int:
    X_raw = read_matrix(args.input)
    if X_raw.size == 0:
        raise SystemExit(f"empty input {args.input}")
    method = VariantConfig(kind=args.method, alpha=args.alpha,
                           corruption_t=args.corrupt_t, lambda_c=args.lambda_c)
    D, N = X_raw.shape
    if method.trained and args.bits > D:
        raise SystemExit(f"--bits {args.bits} exceeds the dimension D={D} of "
                         f"{args.input}")
    if method.needs_tangents and N < D + args.bits:
        raise SystemExit(f"tangent estimation needs N >= D+d = {D + args.bits} "
                         f"points, got {N}")
    cfg = TrainConfig(bits=args.bits, epsilon=args.epsilon, epochs=args.epochs,
                      batch_size=args.batch, total_iterations=args.iterations,
                      seed=args.seed, method=method)
    try:
        params, report = fit(X_raw, cfg)
    except LineSearchError as err:
        matrix_io.write_model(args.out, err.params)
        write_manifest(args.out, "train", _flags(args))
        print(f"training stopped early at iteration {err.iteration}: {err}; "
              f"wrote the parameters accepted before it to {args.out}",
              file=sys.stderr)
        return 1
    matrix_io.write_model(args.out, params)
    if report is not None and args.trace:
        write_trace_csv(args.trace, report)
    write_manifest(args.out, "train", _flags(args))
    if report is not None:
        trace = report.cost_trace
        cost = (f"batch cost {trace[0].total:.6g} -> {trace[-1].total:.6g}" if trace
                else "the model is the untrained start")
        line = f"trained {args.method}: {len(trace)} iterations, {cost}, {report.wall_time:.1f}s"
        if report.tangent_ranks:
            r = report.tangent_ranks
            line += (f"; tangent rank min/mean/max {min(r)}/{np.mean(r):.1f}/{max(r)}, "
                     f"Jacobian weight {report.jacobian_weight:.3g}")
        print(line)
    else:
        print(f"generated {args.method} projection model")
    return 0


def cmd_encode(args) -> int:
    params = matrix_io.read_model(args.model)
    X = read_matrix(args.input) * params.scale
    codes = hamming.encode(params, X, use_bias=args.use_bias)
    matrix_io.write_codes(args.out, codes)
    write_manifest(args.out, "encode", _flags(args))
    print(f"encoded {codes.count} points at {codes.bits} bits -> {args.out}")
    return 0


def _cached_groundtruth(base_path, base: np.ndarray, queries: np.ndarray,
                        k: int) -> np.ndarray:
    """The k exact nearest neighbours of each query, read from a cache file
    beside the base when it holds a (Q, k) table of base indices, else
    built and written there, replacing a cut or foreign file."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(base))  # the bytes of tobytes(), uncopied
    h.update(np.ascontiguousarray(queries))
    h.update(str(k).encode())
    cache = Path(str(base_path) + f".{h.hexdigest()[:12]}.k{k}.ajbg")
    if cache.exists():
        Q, N = queries.shape[1], base.shape[1]
        try:
            gt = matrix_io.read_groundtruth(cache)
            if gt.shape != (Q, k) or not np.all(gt < N):
                raise matrix_io.FormatError(
                    f"{cache}: not a ({Q}, {k}) table of indices below {N}")
            return gt
        except matrix_io.FormatError as err:
            print(f"rebuilding the ground-truth cache: {err}", file=sys.stderr)
    gt = hamming.build_groundtruth(base, queries, k)
    matrix_io.write_groundtruth(cache, gt)
    return gt


def cmd_eval(args) -> int:
    params = matrix_io.read_model(args.model)
    base_raw = read_matrix(args.base)
    query_raw = read_matrix(args.query)
    K = args.max_retrieve
    if K > base_raw.shape[1]:
        raise SystemExit(f"K={K} exceeds base size {base_raw.shape[1]}")
    ks = [int(v) for v in args.k.split(",")]
    if max(ks) > base_raw.shape[1]:
        raise SystemExit(f"k={max(ks)} exceeds base size {base_raw.shape[1]}")
    base_codes = hamming.encode(params, base_raw * params.scale,
                                use_bias=args.use_bias)
    query_codes = hamming.encode(params, query_raw * params.scale,
                                 use_bias=args.use_bias)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each k's ground truth is the k-prefix of the largest k's (exact kNN),
    # so one ranking of every query serves all ks
    gt = _cached_groundtruth(args.base, base_raw, query_raw, max(ks))
    ranked = hamming.recall_curve(gt, base_codes, query_codes, K)
    summary = out_dir / "m_recall.csv"
    with open(summary, "w") as sf:
        sf.write("k,m_recall\n")
        for k in ks:
            curve = ranked.prefix(k)
            with open(out_dir / f"recall_k{k}.csv", "w") as f:
                f.write("i,recall\n")
                for i, v in enumerate(curve.values, 1):
                    f.write(f"{i},{float(v)!r}\n")
                f.write(f"m_recall,{float(curve.m_recall)!r}\n")
            sf.write(f"{k},{float(curve.m_recall)!r}\n")
            print(f"k={k}: m-Recall {curve.m_recall:.4f}")
    write_manifest(summary, "eval", _flags(args))
    return 0


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for term, err in check_gradients(args.method, D=args.dims, d=args.bits,
                                     n=args.points, seed=args.seed).items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{args.method} {term:12s} max rel error {err:.3e}  {status}")
        worst = max(worst, err)
    return 0 if worst < GRADCHECK_TOLERANCE else 1


def cmd_toy(args) -> int:
    rng = np.random.default_rng(args.seed)
    X_raw = synth.simplex_points(args.points, rng)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg = TrainConfig(bits=3, epochs=args.epochs, batch_size=args.batch, seed=args.seed,
                      method=VariantConfig(kind="auto-jacobin", alpha=args.alpha))
    params, report = fit(X_raw, cfg)
    Xn = X_raw * params.scale

    summary = out_dir / "toy_summary.csv"
    with open(summary, "w") as f:
        f.write("phase,distinct_codes,mean_abs_hidden\n")
        for phase, p in (("init", report.initial), ("trained", params)):
            codes = hamming.encode(p, Xn)
            distinct = len({bytes(row) for row in codes.packed})
            mean_abs = float(np.mean(np.abs(forward_batch(p, Xn)[0])))
            f.write(f"{phase},{distinct},{mean_abs!r}\n")
            print(f"{phase}: {distinct} distinct codes, mean |y| = {mean_abs:.3f}")
    matrix_io.write_model(out_dir / "toy.ajb", params)
    matrix_io.write_codes(out_dir / "toy.ajbc", codes)  # the loop's last: trained
    write_trace_csv(out_dir / "toy_trace.csv", report)
    write_manifest(summary, "toy", _flags(args))
    return 0


def _load_series(path):
    """(label, xs, ys) from a recall or trace CSV; summary rows skipped."""
    xs, ys = [], []
    with open(path) as f:
        header = f.readline().strip()
        if not header:
            raise SystemExit(f"{path}: empty CSV")
        for line in f:
            fields = line.strip().split(",")
            if not fields or not fields[0]:
                continue
            try:
                x = float(fields[0])
            except ValueError:
                continue  # trailing summary row such as m_recall
            xs.append(x)
            ys.append(float(fields[1]))
    if not xs:
        raise SystemExit(f"{path}: no data rows")
    return Path(path).stem, xs, ys


def cmd_plot(args) -> int:
    series = [_load_series(p) for p in args.inputs]
    svg = svgplot.render_chart(series, xlabel=args.xlabel, ylabel=args.ylabel,
                               title=args.title)
    Path(args.out).write_text(svg)
    write_manifest(args.out, "plot", _flags(args))
    print(f"wrote {args.out} ({len(series)} series)")
    return 0


def _int_at_least(low: int):
    """argparse type: an int of at least low; anything else is a usage
    error (exit 2) that names the flag."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _ks(text: str) -> str:
    """argparse type of eval's --k: comma-separated ints of at least 1,
    kept as the text the manifest records."""
    for v in text.split(","):
        _int_at_least(1)(v)
    return text


_ks.__name__ = "k list"  # argparse names the type in "invalid k list value"


def _iter_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _iter_parsers(sub)


def _apply_config(parser, argv):
    """Optional key=value config file (--config PATH or --config=PATH);
    flags override it. A switch reads true or false; any other value stays
    text, which argparse converts and checks like the flag's own value."""
    i = next((i for i, t in enumerate(argv) if t.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, inline, path = argv[i].partition("=")
    if not inline and i + 1 < len(argv):
        path = argv[i + 1]
    if not path:
        parser.error("argument --config: expected the path of a key=value config file")
    defaults = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    for p in _iter_parsers(parser):
        mine = {}
        for a in (a for a in p._actions if a.dest in defaults):
            value, a.required = defaults[a.dest], False
            if a.nargs == 0:  # a switch
                if value.lower() not in ("true", "false"):
                    parser.error(f"config {a.dest}={value}: a switch is true or false")
                value = value.lower() == "true"
            mine[a.dest] = value
        p.set_defaults(**mine)
    return argv[:i] + argv[i + (1 if inline else 2):]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="autojacobin", allow_abbrev=False)
    ap.add_argument("--config", help="key=value config file; flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between fvecs/bvecs/txt")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a hashing model")
    p.add_argument("--input", required=True)
    p.add_argument("--bits", type=_int_at_least(1), required=True)
    p.add_argument("--method", default="auto-jacobin", choices=KINDS)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--epochs", type=_int_at_least(0), default=5)
    p.add_argument("--batch", type=_int_at_least(1), default=1000)
    p.add_argument("--iterations", type=_int_at_least(1), default=None,
                   help="optional cap on total iterations")
    p.add_argument("--corrupt-t", type=float, default=0.1)
    p.add_argument("--lambda-c", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="cost-trace CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode vectors with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--use-bias", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="recall curves against Euclidean ground truth")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=_ks, default="1,5,10,50,100")
    p.add_argument("--max-retrieve", type=_int_at_least(1), default=10000)
    p.add_argument("--use-bias", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="validate analytic gradients")
    p.add_argument("--dims", type=_int_at_least(1), default=8)
    p.add_argument("--bits", type=_int_at_least(1), default=4)
    p.add_argument("--points", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="auto-jacobin",
                   choices=[k for k in KINDS if VariantConfig(kind=k).trained])
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("toy", help="simplex warping experiment")
    p.add_argument("--points", type=_int_at_least(6), default=1000)  # D+d
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--epochs", type=_int_at_least(0), default=300)
    p.add_argument("--batch", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("plot", help="render CSV series as an SVG line chart")
    p.add_argument("--out", required=True)
    p.add_argument("--xlabel", default="i")
    p.add_argument("--ylabel", default="value")
    p.add_argument("--title", default="")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    argv = _apply_config(ap, argv)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
