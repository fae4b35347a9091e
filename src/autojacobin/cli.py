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
import math
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


def available_memory() -> int | None:
    """Bytes this process can still take: the least of MemAvailable in
    /proc/meminfo and, where readable, its cgroup v2 memory.max less
    memory.current; None where neither can be read."""
    found = []
    try:
        with open("/proc/meminfo") as f:
            found += [int(line.split()[1]) * 1024 for line in f
                      if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/proc/self/cgroup") as f:
            group = next(line[3:].strip() for line in f if line.startswith("0::"))
        where = Path("/sys/fs/cgroup") / group.lstrip("/")
        limit = (where / "memory.max").read_text().strip()
        if limit != "max":
            found.append(int(limit) - int((where / "memory.current").read_text()))
    except (OSError, ValueError, StopIteration):
        pass
    return min(found, default=None)


def _flags(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "config")}


def cmd_convert(args) -> int:
    X = read_matrix(args.input)
    try:
        write_matrix(args.output, X)
    except ValueError as err:  # a value the output format cannot hold
        raise SystemExit(f"{args.input}: {err}") from None
    write_manifest(args.output, "convert", _flags(args))
    N, D = X.shape
    print(f"converted {args.input} -> {args.output} ({N}x{D})")
    return 0


def cmd_train(args) -> int:
    X_raw = read_matrix(args.input)
    if X_raw.size == 0:
        raise SystemExit(f"empty input {args.input}")
    method = VariantConfig(kind=args.method, alpha=args.alpha,
                           corruption_t=args.corrupt_t, lambda_c=args.lambda_c)
    N, D = X_raw.shape
    if method.trained and args.bits > D:
        raise SystemExit(f"--bits {args.bits} exceeds the dimension D={D} of "
                         f"{args.input}")
    # the tangents' neighborhoods take D+d points, init_params more than d
    least = D + args.bits if method.needs_tangents else args.bits + 1
    if method.trained and N < least:
        raise SystemExit(f"--method {args.method} --bits {args.bits} needs at least "
                         f"{least} training points, {args.input} has {N}")
    if method.needs_tangents:
        stack, free = N * D * min(args.bits, D) * 8, available_memory()
        if free is not None and stack > free:
            raise SystemExit(f"{args.input}: the tangent stack of {N} points takes "
                             f"{stack / 1e6:,.2f} MB, but only {free / 1e6:,.2f} MB "
                             f"of memory is available")
    cfg = TrainConfig(bits=args.bits, epsilon=args.epsilon, epochs=args.epochs,
                      batch_size=args.batch, total_iterations=args.iterations,
                      seed=args.seed, method=method)
    handed = [X_raw]  # fit pops it and drops the matrix once normalized
    del X_raw
    failed = None
    try:
        params, report = fit(handed.pop, cfg)
    except matrix_io.DegenerateScaleError as err:
        raise SystemExit(f"{args.input}: {err}") from None
    except LineSearchError as err:
        params, report, failed = err.params, err.report, err
    matrix_io.write_model(args.out, params)
    if report is not None and args.trace:
        write_trace_csv(args.trace, report)
    write_manifest(args.out, "train", _flags(args))
    if failed is not None:
        print(f"training stopped early at iteration {len(report.cost_trace) + 1}: {failed}; "
              f"wrote the parameters accepted before it to {args.out}",
              file=sys.stderr)
        return 1
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


def _read_for_model(args, flag: str, params) -> np.ndarray:
    """The vectors of the file that flag names, to be encoded with the
    model params read from args.model; an empty file, or one whose
    dimension is not the model's, ends the command."""
    path = getattr(args, flag.lstrip("-"))
    X = read_matrix(path)
    if X.size == 0:
        raise SystemExit(f"empty input {path}")
    if X.shape[1] != params.w1.shape[1]:
        raise SystemExit(f"{flag} {path} has dimension D={X.shape[1]}, but the "
                         f"model {args.model} takes D={params.w1.shape[1]}")
    return X


def cmd_encode(args) -> int:
    params = matrix_io.read_model(args.model)
    X = _read_for_model(args, "--input", params)
    codes = hamming.encode(params, X, use_bias=args.use_bias)
    matrix_io.write_codes(args.out, codes)
    write_manifest(args.out, "encode", _flags(args))
    print(f"encoded {codes.count} points at {codes.bits} bits -> {args.out}")
    return 0


def _groundtruth_cache(base_path, base: np.ndarray, queries: np.ndarray,
                       k: int) -> Path:
    """The ground-truth cache file of base, queries and k: beside the base,
    named by a hash of the C-order bytes of their (N, D) and (Q, D) rows."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(base))  # the bytes of tobytes(), uncopied
    h.update(np.ascontiguousarray(queries))
    h.update(str(k).encode())
    return Path(str(base_path) + f".{h.hexdigest()[:12]}.k{k}.ajbg")


def _cached_groundtruth(base: np.ndarray, queries: np.ndarray, k: int,
                        cache: Path) -> np.ndarray:
    """The k exact nearest neighbours of each query, read from the cache
    file when it holds a (Q, k) table of base indices, else built and
    written there, replacing a cut or foreign file."""
    if cache.exists():
        Q, N = len(queries), len(base)
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
    base_raw = _read_for_model(args, "--base", params)
    query_raw = _read_for_model(args, "--query", params)
    K = args.max_retrieve
    if K > len(base_raw):
        raise SystemExit(f"K={K} exceeds base size {len(base_raw)}")
    ks = [int(v) for v in args.k.split(",")]
    if max(ks) > len(base_raw):
        raise SystemExit(f"k={max(ks)} exceeds base size {len(base_raw)}")
    # each k's ground truth is the k-prefix of the largest k's (exact kNN),
    # so one ranking of every query serves all ks. This thread hashes the
    # cache name while the pool encodes the base.
    cache = []
    base_codes = hamming.encode(
        params, base_raw, use_bias=args.use_bias,
        meanwhile=lambda: cache.append(
            _groundtruth_cache(args.base, base_raw, query_raw, max(ks))))
    query_codes = hamming.encode(params, query_raw, use_bias=args.use_bias)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gt = _cached_groundtruth(base_raw, query_raw, max(ks), cache[0])
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
    Xn = X_raw * params.scale  # the network's input; encode scales its own

    summary = out_dir / "toy_summary.csv"
    with open(summary, "w") as f:
        f.write("phase,distinct_codes,mean_abs_hidden\n")
        for phase, p in (("init", report.initial), ("trained", params)):
            codes = hamming.encode(p, X_raw)
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
    """(label, xs, ys) from a recall or trace CSV, summary rows skipped; a
    data row without a numeric second field or finite values ends it."""
    xs, ys = [], []
    with open(path) as f:
        header = f.readline().strip()
        if not header:
            raise SystemExit(f"{path}: empty CSV")
        for n, line in enumerate(f, 2):
            fields = line.strip().split(",")
            try:
                x = float(fields[0])
            except ValueError:
                continue  # a blank line, or a summary row such as m_recall
            try:
                ys.append(float(fields[1]))
            except (IndexError, ValueError):
                raise SystemExit(f"{path}:{n}: a data row needs a numeric second "
                                 f"field, got {line.strip()!r}") from None
            if not (math.isfinite(x) and math.isfinite(ys[-1])):
                raise SystemExit(f"{path}:{n}: non-finite value in row {line.strip()!r}")
            xs.append(x)
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


def _number(kind, low, high=None, above=False):
    """argparse type: a finite kind (int or float) of at least low (above
    low if above) and at most high; anything else is a usage error
    (exit 2) that names the flag."""

    def parse(text):
        value = kind(text)
        if not -math.inf < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low or (above and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if above else 'at least'} {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _ks(text: str) -> str:
    """argparse type of eval's --k: comma-separated ints of at least 1,
    kept as the text the manifest records."""
    for v in text.split(","):
        _number(int, 1)(v)
    return text


_ks.__name__ = "k list"  # argparse names the type in "invalid k list value"


def _switch(text: str) -> bool:
    """argparse type of a switch given a value: true or false."""
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"a switch is true or false, got {text!r}")
    return text.lower() == "true"


def _apply_config(parser, argv):
    """Optional key=value config file (--config PATH or --config=PATH).
    Each line is read as the flag --key=value placed right after the
    command, so argparse converts and checks it like the flag itself,
    a key that names no flag of the command is a usage error, and a flag
    on the command line, parsed later, wins."""
    i = next((i for i, t in enumerate(argv) if t.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, inline, path = argv[i].partition("=")
    if not inline and i + 1 < len(argv):
        path = argv[i + 1]
    if not path:
        parser.error("argument --config: expected the path of a key=value config file")
    flags = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            # one token, so a value that starts with - stays the value
            flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    # --config is the only top-level option, so the command comes first
    argv = argv[:i] + argv[i + (1 if inline else 2):]
    return argv[:1] + flags + argv[1:]


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
    p.add_argument("--bits", type=_number(int, 1), required=True)
    p.add_argument("--method", default="auto-jacobin", choices=KINDS)
    p.add_argument("--alpha", type=_number(float, 0), default=0.1)
    p.add_argument("--epsilon", type=_number(float, 0, above=True), default=1e-4)
    p.add_argument("--epochs", type=_number(int, 0), default=5)
    p.add_argument("--batch", type=_number(int, 1), default=1000)
    p.add_argument("--iterations", type=_number(int, 1), default=None,
                   help="optional cap on total iterations")
    p.add_argument("--corrupt-t", type=_number(float, 0, 1), default=0.1)
    p.add_argument("--lambda-c", type=_number(float, 0), default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="cost-trace CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode vectors with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--use-bias", type=_switch, nargs="?", const=True, default=False)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="recall curves against Euclidean ground truth")
    p.add_argument("--model", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=_ks, default="1,5,10,50,100")
    p.add_argument("--max-retrieve", type=_number(int, 1), default=10000)
    p.add_argument("--use-bias", type=_switch, nargs="?", const=True, default=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="validate analytic gradients")
    p.add_argument("--dims", type=_number(int, 1), default=8)
    p.add_argument("--bits", type=_number(int, 1), default=4)
    p.add_argument("--points", type=_number(int, 1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="auto-jacobin",
                   choices=[k for k in KINDS if VariantConfig(kind=k).trained])
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("toy", help="simplex warping experiment")
    p.add_argument("--points", type=_number(int, 6), default=1000)  # D+d
    p.add_argument("--alpha", type=_number(float, 0), default=0.1)
    p.add_argument("--epochs", type=_number(int, 0), default=300)
    p.add_argument("--batch", type=_number(int, 1), default=1000)
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
    """Run one command; a file it cannot read ends it with one line, exit 1."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(_apply_config(ap, argv))
        return args.func(args)
    except (matrix_io.FormatError, OSError) as err:
        raise SystemExit(str(err)) from None


if __name__ == "__main__":
    sys.exit(main())
