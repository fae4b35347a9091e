"""The thread pool of the blocked numpy loops, and its size.

Exact kNN (neighbors), local PCA (tangent), the Jacobian term (network),
encoding and the recall curve's query blocks (hamming) split their work
into fixed-size blocks that do not depend on each other, run them here,
and combine the results in block order, so their output has the same
bits at any worker count. numpy releases the interpreter lock inside
the products, the partitions and sorts, the `eigh`, the comparisons and
the copies that dominate most blocks. The kNN's per-row re-rank holds
it, so kNN on a small base, where the re-rank dominates, stays on the
calling thread.

Blocks that need work arrays (the kNN's distances, encode's tiles, the
recall curve's keys) get them from ordered_map's `buffers` factory: one
set per worker, allocated on the calling thread, because memory a worker
thread allocates stays with that thread's heap after the thread ends.
Each block takes a free set and gives it back when it returns or raises.

The calling thread waits for the blocks' results in order. It can work
while they run: ordered_map calls its `meanwhile` there once the blocks
are queued, so eval hashes its ground-truth cache name on the calling
thread while the base's encode tiles run, and no thread is started
beyond the pool's. The pool lives for one call; there is no setting of
the program's own (see workers()).
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor


# the least work per block for which threads pay: see workers()
_MIN_BLOCK_BYTES = 1 << 18


def workers(tasks: int, block_bytes: int) -> int:
    """Threads for `tasks` independent blocks whose largest work array
    takes block_bytes: the CPUs in this process's affinity mask
    (os.cpu_count() where the platform has none) over the threads BLAS
    runs each product on, at most one per block and at least one.

    BLAS threads and these workers would otherwise contend for the same
    cores: on a 2-core box with 2 OpenBLAS threads, two workers took
    1.5-2x as long as one. One worker, too, below _MIN_BLOCK_BYTES: a
    small block's numpy calls are too short for the time they spend
    outside the interpreter lock to repay the hand-offs between threads.
    On that box the Jacobian term ran 1.1-1.3x slower on two threads at
    D x d <= 256 and 1.1-1.6x faster at D x d >= 512, where its
    (64, D, d) arrays reach 256 KiB.
    """
    if block_bytes < _MIN_BLOCK_BYTES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus // _blas_threads(cpus), tasks))


def _blas_threads(cpus: int) -> int:
    """Threads per BLAS call, from the variables BLAS reads when numpy
    loads; every CPU, OpenBLAS's default, when none is set."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def ordered_map(fn, starts, block_bytes: int, buffers=None, meanwhile=None):
    """Yield fn(s) for each s in starts, in order; block_bytes as in
    workers().

    The calls run on a pool of workers(len(starts), block_bytes) threads
    that lives for the length of the iteration; with one worker they run
    on the calling thread and no pool starts. buffers, if given, is
    called with no arguments on the calling thread once per worker, and
    each call is fn(s, buf) with a buf that no other running call holds.
    meanwhile, if given, is called with no arguments on the calling
    thread once every call is queued on the pool (before the first call,
    with one worker), so the calling thread works while the pool does.
    Each result is read as it is yielded, so an error raised in a worker
    is raised here.
    """
    n = workers(len(starts), block_bytes)
    call = fn
    if buffers is not None:
        free = queue.SimpleQueue()
        for _ in range(n):
            free.put(buffers())

        def call(s):
            buf = free.get()
            try:
                return fn(s, buf)
            finally:  # a block that raises gives its buffer back too
                free.put(buf)

    if n == 1:
        if meanwhile is not None:
            meanwhile()
        yield from map(call, starts)
        return
    with ThreadPoolExecutor(n) as pool:
        results = pool.map(call, starts)
        if meanwhile is not None:
            meanwhile()
        yield from results

