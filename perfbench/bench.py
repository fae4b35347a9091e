"""Workloads, timed and traced runs, and correctness checks.

Imported by run.py after the BLAS thread variables are set. Every
workload drives the program through its public surface only:
`autojacobin.cli.main` with an argv list for each command, and
`autojacobin.hamming.hamming_topk` for single queries. The program
receives only files generated here from the workload seed.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from autojacobin import cli, hamming, matrix_io, synth

import spans

INTRINSIC_DIM = 8
NOISE = 0.01
K_NEIGHBORS = 10      # eval --k and the top-k of every query
MAX_RETRIEVE = 2000   # eval --max-retrieve
BATCH = 1000
SETUP_REPS = 5        # setup_s is the median over these
# After training, a cycle runs this many rounds of: encode, cold eval,
# encode, warm eval, encode, a slice of the query stream. Spreading the
# repetitions over the cycle samples the machine's speed at several times
# (see Speed).
ROUNDS = 3
MIN_CYCLES = 2        # the second cycle is the rerun-determinism check
MAX_CYCLES = 20
SAMPLED = 16          # queries checked against an exact oracle per eval or slice
PROBE_EVERY = 50      # queries between two speed probes in the query stream
# Mean probe time on the reference machine (2 cores, Python 3.11, numpy
# 2.4.6 with OpenBLAS, one BLAS thread); see Speed.
PROBE_REFERENCE_S = 0.0108
LONG_S = 1.0          # intervals longer than this use the run's mean probe
# Untimed pause after the train commands: for a few seconds after training
# frees its arrays (hundreds of MB on ajb_train), single queries on this
# machine showed bursts of slow calls that set the p99.
SETTLE_S = 2.0
GRADCHECK_METHODS = ("auto-jacobin", "autobin", "dautobin", "cautobin")

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "eval_warm_s": "s",
    "encode_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "m_recall": "fraction",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    bits: int
    n_train: int
    n_base: int
    n_query: int
    n_stream: int              # timed single queries per cycle
    methods: tuple[str, ...]   # trained each cycle; empty: the setup LSH model
    epochs: int = 1
    why: str = ""
    exercises: str = ""
    bypasses: str = ""
    should_move: str = ""
    should_not_move: str = ""

    def train_argv(self, method: str, train: Path, out: Path, seed: int) -> list[str]:
        argv = ["train", "--input", str(train), "--bits", str(self.bits),
                "--method", method, "--seed", str(seed), "--out", str(out)]
        if method != "lsh":
            argv += ["--batch", str(min(BATCH, self.n_train)),
                     "--epochs", str(self.epochs)]
        if method == "auto-jacobin":
            # cap at exactly one full epoch of mini-batches
            argv += ["--iterations", str(self.n_train // min(BATCH, self.n_train))]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ajb_train", dims=64, bits=32, n_train=2000, n_base=20000,
        n_query=200, n_stream=2100, methods=("auto-jacobin",),
        why="The criterion-8 proxy: auto-jacobin training for one epoch, "
            "then eval; the Jacobian term and tangent kNN/PCA do almost all "
            "the work.",
        exercises="tangent (kNN, local PCA, D x D projectors), network "
                  "(Jacobian term in objective and gradients), trainer",
        bypasses="variants objectives, large Hamming scans",
        should_move="train_s and peak_rss_mb under a fused loss, low-rank "
                    "tangents or GEMM kNN; trainer.self_s with the per-epoch "
                    "projs[perm] copy",
        should_not_move="query_p50_ms, query_p99_ms, encode_s"),
    Workload(
        name="baseline_train", dims=128, bits=64, n_train=20000, n_base=10000,
        n_query=200, n_stream=2100, methods=("autobin", "dautobin", "cautobin"),
        epochs=2,
        why="The D=128 scaling point: AutoBin, DAutoBin and CAutoBin over many "
            "cheap iterations, with no tangents and no Jacobian term.",
        exercises="trainer (line search, shuffling, packing), variants "
                  "(corruption, contractive term)",
        bypasses="tangent, network Jacobian term",
        should_move="train_s on a change to the shared loss path or the "
                    "optimiser",
        should_not_move="train_s under Jacobian or tangent changes; a shared "
                        "loss rewrite must not cost it"),
    Workload(
        name="retrieval", dims=64, bits=64, n_train=10000, n_base=30000,
        n_query=200, n_stream=2100, methods=(),
        why="A 64-bit LSH model built in set-up, then encode, cold and warm "
            "eval and single queries: ground truth, recall curve, popcount "
            "top-k and vector reads.",
        exercises="hamming (encode, ground truth, recall curve, top-k), "
                  "matrix_io reads, the eval ground-truth cache (a miss that "
                  "writes, then hits that read)",
        bypasses="trainer, network, tangent, variants objectives",
        should_move="eval_s with ground truth or recall-curve changes, "
                    "eval_warm_s with recall-curve, cache or read_fvecs "
                    "changes, query_p50_ms and query_p99_ms with top-k "
                    "changes, encode_s with read_fvecs changes",
        should_not_move="m_recall, train_s (the LSH build never enters "
                        "trainer)"),
)}


def smoke_variant(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds."""
    return replace(w, dims=w.dims // 4, bits=w.bits // 4,
                   n_train=max(200, w.n_train // 20), n_base=w.n_base // 20,
                   n_query=20, n_stream=100)


class Speed:
    """Scales wall times to the speed of a reference machine.

    On a shared machine a core's speed flips between about 1x and 1.4x
    (work on its sibling thread); a state lasts a few seconds, and the
    share of slow time drifts over minutes. That moves every time far more
    than the run-to-run noise of the work itself. So the benchmark times a
    fixed kernel, the probe, before every command, every PROBE_EVERY
    queries and around every set-up, never inside a timed interval. A time
    is reported as wall time x PROBE_REFERENCE_S / p, seconds at the
    reference machine's speed, where p is the mean of the probes next to
    the interval (the last before it, any inside, the first after it) or,
    for an interval longer than one speed state (LONG_S), the mean of all
    probes of the run. The kernel mixes what the program spends its time
    on (BLAS products, interpreter loops, small numpy sorts) and never
    calls the program, so a change to the program cannot move it. The
    results file keeps the raw intervals and every probe.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 256))
        self.x = rng.standard_normal(2000)
        self.at: list[float] = []    # probe start times
        self.took: list[float] = []  # probe durations

    def probe(self) -> None:
        t0 = time.perf_counter()
        for _ in range(6):
            self.a @ self.a
        for i in range(20000):
            struct.pack("<i", i)
        for _ in range(30):
            np.argsort(self.x, kind="stable")
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def scale(self, t0: float, t1: float) -> float:
        if t1 - t0 > LONG_S:
            return PROBE_REFERENCE_S / statistics.fmean(self.took)
        first = max(bisect.bisect_left(self.at, t0) - 1, 0)
        last = bisect.bisect_right(self.at, t1)
        return PROBE_REFERENCE_S / statistics.fmean(self.took[first:last + 1])

    def seconds(self, intervals) -> float:
        """Total of (start, end) intervals at reference speed."""
        return sum((t1 - t0) * self.scale(t0, t1) for t0, t1 in intervals)


class CycleFailed(RuntimeError):
    """A command failed, so the rest of the cycle cannot run."""


def _median(values):
    return float(statistics.median(values))


# --- independent readers and oracles used by the checks -----------------------

def read_fvecs_oracle(path: Path) -> np.ndarray:
    """(N, D) float64 from an fvecs file, parsed without the program."""
    raw = np.fromfile(path, dtype="<i4")
    dim = int(raw[0])
    return raw.reshape(-1, dim + 1)[:, 1:].view("<f4").astype(np.float64)


def read_codes_oracle(path: Path) -> np.ndarray:
    """(N, bits) boolean code matrix from an .ajbc file."""
    raw = Path(path).read_bytes()
    bits = int.from_bytes(raw[4:8], "little")
    count = int.from_bytes(raw[8:16], "little")
    packed = np.frombuffer(raw[16:], dtype=np.uint8).reshape(count, -1)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :bits].astype(bool)


def model_is_finite(path: Path) -> bool:
    raw = Path(path).read_bytes()
    values = np.frombuffer(raw[16:], dtype="<f8")  # scale, then W1 W2 b1 b2
    return raw[:4] == b"AJBN" and bool(np.all(np.isfinite(values)))


def same_files(a: Path, b: Path) -> bool:
    """Every model, code and CSV file under a is byte-identical under b."""
    names = sorted(p.relative_to(a) for p in a.rglob("*")
                   if p.suffix in (".ajb", ".ajbc", ".csv"))
    return bool(names) and all(
        (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes()
        for n in names)


def read_m_recall(out_dir: Path) -> float:
    for line in (out_dir / "m_recall.csv").read_text().splitlines()[1:]:
        k, value = line.split(",")
        if int(k) == K_NEIGHBORS:
            return float(value)
    raise ValueError(f"no k={K_NEIGHBORS} row in {out_dir / 'm_recall.csv'}")


# --- one benchmark process ------------------------------------------------------

class Bench:
    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, dict[str, int]] = {}
        self.first_lsh: bytes | None = None
        self.first_cycle: Path | None = None
        self.rng = np.random.default_rng(seed + 1)  # samples for the checks
        self.speed = Speed()

    def file(self, name: str) -> Path:
        return self.data / name

    # -- operations --

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def command(self, argv: list, probe: bool = True) -> tuple[float, float]:
        """Run one CLI command in-process; its (start, end) time."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        if probe:
            self.speed.probe()
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except (Exception, SystemExit) as e:
            self.fail(f"{' '.join(argv)}: {type(e).__name__}: {e}")
            raise CycleFailed(argv[0]) from e
        t1 = time.perf_counter()
        if rc != 0:
            self.fail(f"{' '.join(argv)}: exit code {rc}")
            raise CycleFailed(argv[0])
        return t0, t1

    def tally(self, name: str, ok: bool) -> None:
        counts = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        counts["passed" if ok else "failed"] += 1

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.tally(name, ok)
        if not ok:
            self.fail(f"check {name} {detail}".strip())

    # -- set-up: data, files, the LSH model, warm-up --

    def setup(self) -> tuple[float, float]:
        """Generate and write the inputs, build the LSH model, warm up."""
        w = self.w
        self.speed.probe()
        t0 = time.perf_counter()
        self.data.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        X, manifold = synth.curved_manifold(w.n_train, INTRINSIC_DIM, w.dims,
                                            rng, noise=NOISE)
        matrix_io.write_fvecs(self.file("train.fvecs"), X)
        for name, n in (("base", w.n_base), ("query", w.n_query),
                        ("stream", w.n_stream)):
            matrix_io.write_fvecs(self.file(f"{name}.fvecs"),
                                  synth.curved_manifold_more(n, manifold, rng))
        del X
        self.build_lsh(probe=False)
        # warm-up: the encode path once, so lazy set-up is not timed later
        self.command(["encode", "--model", self.file("lsh.ajb"), "--input",
                      self.file("query.fvecs"), "--out", self.file("warm.ajbc")],
                     probe=False)
        t1 = time.perf_counter()
        self.speed.probe()
        return t0, t1

    def build_lsh(self, probe: bool = True) -> tuple[float, float]:
        """The set-up's LSH model; every rebuild must match the first."""
        lsh = self.file("lsh.ajb")
        interval = self.command(self.w.train_argv(
            "lsh", self.file("train.fvecs"), lsh, self.seed), probe=probe)
        if self.first_lsh is None:
            self.first_lsh = lsh.read_bytes()
        else:
            self.check("rerun_identical", lsh.read_bytes() == self.first_lsh,
                       "lsh.ajb")
        return interval

    def gradcheck(self) -> None:
        """The gradcheck command (tolerance 1e-5) for every trained method."""
        for method in GRADCHECK_METHODS:
            try:
                self.command(["gradcheck", "--method", method,
                              "--seed", self.seed])
                ok = True
            except CycleFailed:
                ok = False  # already counted as a failed operation
            self.tally("gradcheck", ok)

    # -- one measured cycle: train, encode, cold/warm eval, query stream --

    def eval_argv(self, model: Path, out_dir: Path) -> list:
        return ["eval", "--model", model, "--base", self.file("base.fvecs"),
                "--query", self.file("query.fvecs"), "--k", K_NEIGHBORS,
                "--max-retrieve", min(MAX_RETRIEVE, self.w.n_base),
                "--out-dir", out_dir]

    def cycle(self, cdir: Path, same_as_first: str = "rerun_identical") -> dict:
        """Train, then ROUNDS rounds. Each train_s, eval_s, eval_warm_s and
        encode_s sample is a list of (start, end) intervals whose total is
        one value; latencies holds one interval per query."""
        w = self.w
        cdir.mkdir(parents=True)
        t: dict = {"train_s": []}
        if w.methods:
            models = [cdir / f"{m}.ajb" for m in w.methods]
            t["train_s"].append([
                self.command(w.train_argv(m, self.file("train.fvecs"), path,
                                          self.seed))
                for m, path in zip(w.methods, models)])
            time.sleep(SETTLE_S)
        else:
            models = [self.file("lsh.ajb")]
        for model in models:
            self.check("model_finite", model_is_finite(model), model.name)
        primary = models[0]

        base_codes = cdir / "base.ajbc"
        stream_codes = cdir / "stream.ajbc"
        self.command(["encode", "--model", primary, "--input",
                      self.file("stream.fvecs"), "--out", stream_codes])
        encode_base = ["encode", "--model", primary, "--input",
                       self.file("base.fvecs"), "--out", base_codes]
        n = w.n_stream
        t.update(encode_s=[], eval_s=[], eval_warm_s=[], latencies=[])
        for r in range(ROUNDS):
            if not w.methods:
                # nothing to train: train_s times the set-up's LSH build
                t["train_s"].append([self.build_lsh()])
            t["encode_s"].append([self.command(encode_base)])
            for cached in self.data.glob("base.fvecs.*.ajbg"):
                cached.unlink()  # untimed: the eval starts with a cold cache
            t["eval_s"].append(
                [self.command(self.eval_argv(primary, cdir / "eval_cold"))])
            self.check_groundtruth()
            t["encode_s"].append([self.command(encode_base)])
            t["eval_warm_s"].append(
                [self.command(self.eval_argv(primary, cdir / "eval_warm"))])
            t["encode_s"].append([self.command(encode_base)])
            t["latencies"] += self.query_stream(
                base_codes, stream_codes, range(r * n // ROUNDS, (r + 1) * n // ROUNDS))
        self.check("cache_consistent",
                   same_files(cdir / "eval_cold", cdir / "eval_warm"))
        recalls = [read_m_recall(cdir / "eval_cold")]
        for model in models[1:]:
            out_dir = cdir / f"{model.stem}_eval"
            self.command(self.eval_argv(model, out_dir))
            recalls.append(read_m_recall(out_dir))
        t["m_recall"] = min(recalls)
        self.speed.probe()  # the last queries need a probe after them

        if self.first_cycle is None:
            self.first_cycle = cdir
        else:
            self.check(same_as_first, same_files(self.first_cycle, cdir),
                       cdir.name)
        return t

    def query_stream(self, base_path: Path, query_path: Path,
                     rows: range) -> list[tuple[float, float]]:
        """Closed loop, one client: one hamming_topk per query row, in order."""
        base = matrix_io.read_codes(base_path)
        queries = matrix_io.read_codes(query_path)
        sampled = set(self.rng.choice(rows, replace=False,
                                      size=min(SAMPLED, len(rows))).tolist())
        latencies, kept = [], {}
        for j in rows:
            if (j - rows.start) % PROBE_EVERY == 0:
                self.speed.probe()
            q = queries.packed[j]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                r = hamming.hamming_topk(base, q, K_NEIGHBORS)
            except Exception as e:
                self.fail(f"query {j}: {type(e).__name__}: {e}")
                raise CycleFailed("query") from e
            latencies.append((t0, time.perf_counter()))
            if j in sampled:
                kept[j] = r.copy()  # r may view a base-sized array
        self.check_topk(base_path, query_path, kept)
        return latencies

    # -- exact oracles, untimed --

    def check_topk(self, base_path: Path, query_path: Path, kept: dict) -> None:
        base_bits = read_codes_oracle(base_path)
        query_bits = read_codes_oracle(query_path)
        for j, result in kept.items():
            dist = np.count_nonzero(base_bits != query_bits[j], axis=1)
            expect = np.argsort(dist, kind="stable")[:K_NEIGHBORS]
            self.check("topk_oracle", np.array_equal(result, expect), f"query {j}")

    def check_groundtruth(self) -> None:
        cached = list(self.data.glob(f"base.fvecs.*.k{K_NEIGHBORS}.ajbg"))
        if len(cached) != 1:
            self.check("groundtruth_exact", False,
                       f"{len(cached)} ground-truth cache files")
            return
        raw = cached[0].read_bytes()
        k, nq = np.frombuffer(raw[4:12], dtype="<u4")
        gt = np.frombuffer(raw[12:], dtype="<u4").reshape(nq, k)
        base = read_fvecs_oracle(self.file("base.fvecs"))
        queries = read_fvecs_oracle(self.file("query.fvecs"))
        for j in self.rng.choice(nq, size=min(SAMPLED, int(nq)), replace=False):
            dist = np.sum((base - queries[j]) ** 2, axis=1)
            row = gt[j].astype(np.int64)
            # exact up to rounding: the row holds k distinct indices whose
            # distances, in order, are the k smallest distances
            ok = (len(set(row.tolist())) == k
                  and np.allclose(dist[row], np.sort(dist)[:k], rtol=1e-9, atol=0))
            self.check("groundtruth_exact", bool(ok), f"query {j}")

    # -- the two kinds of run --

    def run_timed(self, seconds: float) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPS)]
        self.gradcheck()
        cycles = []
        t0 = time.perf_counter()
        try:
            while len(cycles) < MIN_CYCLES or (
                    time.perf_counter() - t0 < seconds and len(cycles) < MAX_CYCLES):
                cycles.append(self.cycle(self.work / f"cycle{len(cycles) + 1}"))
        except CycleFailed:
            pass
        if not cycles:
            return {}
        speed = self.speed
        samples = {name: [speed.seconds(ivs) for c in cycles for ivs in c[name]]
                   for name in ("train_s", "eval_s", "eval_warm_s", "encode_s")}
        samples["setup_s"] = [speed.seconds([iv]) for iv in setups]
        metrics = {name: _median(v) for name, v in samples.items()}
        lat_ms = np.array([speed.seconds([iv]) for c in cycles
                           for iv in c["latencies"]]) * 1e3
        metrics["query_p50_ms"] = float(np.percentile(lat_ms, 50))
        metrics["query_p99_ms"] = float(np.percentile(lat_ms, 99))
        metrics["m_recall"] = _median([c["m_recall"] for c in cycles])
        metrics["peak_rss_mb"] = peak_rss_mb()
        return {"metrics": {n: metrics[n] for n in END_TO_END},
                "units": END_TO_END,
                "samples": {**samples, "query_count": int(lat_ms.size),
                            "cycles": len(cycles)},
                "raw": {"setups": setups, "cycles": cycles,
                        "probe_at": speed.at, "probe_took": speed.took}}

    def run_traced(self) -> dict:
        """Untraced cycle, traced set-up and cycle, untraced cycle.

        The per-layer numbers come from the traced cycle; the tracing
        overhead compares it with the untraced cycle that follows it (the
        first cycle only warms the allocator and is the reference for the
        byte-identity check of the traced outputs).
        """
        self.setup()
        self.gradcheck()
        rec = spans.Recorder()
        try:
            self.cycle(self.work / "untraced1")
            with spans.instrument(rec):
                with rec.span("bench.setup") as s_setup:
                    self.setup()
                with rec.span("bench.cycle") as s_cycle:
                    traced = self.cycle(self.work / "traced",
                                        same_as_first="trace_transparent")
            after = self.cycle(self.work / "untraced2")
        except CycleFailed:
            return {}

        def at_reference(c, name):  # see Speed
            return [self.speed.seconds(ivs) for ivs in c[name]]

        # raw wall time, like the spans it is compared with
        train_wall = sum(t1 - t0 for ivs in traced["train_s"] for t0, t1 in ivs)
        tree = spans.SpanTree(rec.spans)
        metrics = spans.layer_metrics(tree, s_cycle[spans.ID], s_setup[spans.ID],
                                      train_wall)
        metrics["trace.overhead_train"] = (sum(at_reference(traced, "train_s"))
                                           / sum(at_reference(after, "train_s")))
        metrics["trace.overhead_eval"] = (_median(at_reference(traced, "eval_s"))
                                          / _median(at_reference(after, "eval_s")))
        return {"metrics": {n: metrics[n] for n in spans.PER_LAYER},
                "units": spans.PER_LAYER, "spans": rec.dump()}


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 prints only
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_variables": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("THREADS")},
        "numpy": np.__version__,
        "blas": blas,
        "python": sys.version,
        "platform": platform.platform(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out_dir: Path) -> int:
    w = WORKLOADS[name]
    if smoke:
        w = smoke_variant(w)
    work = out_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(w, seed, work)
    try:
        result = bench.run_traced() if trace else bench.run_timed(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if not result:
        print(f"{name}: no complete cycle; failures: {bench.failures}",
              file=sys.stderr)
        return 1

    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        (results_dir / f"{tag}.spans.json").write_text(
            json.dumps(result.pop("spans")) + "\n")
    correct = bench.failed == 0
    doc = {
        "workload": asdict(w), "seed": seed, "trace": trace, "smoke": smoke,
        "seconds": seconds, "environment": environment(seed),
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "failures": bench.failures, "checks": bench.checks, **result,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n")

    samples = result.get("samples", {})
    print(f"{name} seed {seed}: "
          + (f"{samples['cycles']} cycles, {samples['query_count']} timed queries, "
             if samples else "traced cycle, ")
          + f"{bench.attempted} operations, {bench.failed} failed")
    for metric, value in result["metrics"].items():
        print(f"  {metric:28s} {value:14.6g} {result['units'][metric]}")
    print("  checks: " + ", ".join(
        f"{c} {v['passed']}/{v['passed'] + v['failed']}"
        for c, v in bench.checks.items()))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": result["units"][m]}
                    for m, v in result["metrics"].items()},
    }))
    return 0
