import functools
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from autojacobin import hamming, parallel
from autojacobin.network import NetworkParams

BIG = parallel._MIN_BLOCK_BYTES  # blocks large enough for threads


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def test_workers_share_the_cpus_with_blas_threads(four_cpus):
    assert parallel.workers(100, BIG) == 1  # no variable: BLAS takes every CPU
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    assert parallel.workers(100, BIG) == 4
    assert parallel.workers(3, BIG) == 3  # at most one per block
    assert parallel.workers(0, BIG) == 1
    four_cpus.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
    assert parallel.workers(100, BIG) == 2
    four_cpus.setenv("OPENBLAS_NUM_THREADS", "8")
    assert parallel.workers(100, BIG) == 1


def test_small_blocks_run_on_the_calling_thread(four_cpus):
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    assert parallel.workers(100, BIG - 1) == 1
    assert list(parallel.ordered_map(lambda s: s * s, range(5), BIG - 1)) == \
        [0, 1, 4, 9, 16]


@pytest.mark.parametrize("block_bytes", [BIG - 1, BIG])
def test_meanwhile_runs_on_the_calling_thread_before_any_result(four_cpus, block_bytes):
    # each block waits for meanwhile: it must run once the blocks are queued
    # on the pool (BIG), or before the first of them on this thread (BIG - 1)
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    done = threading.Event()
    caller, ran_on = threading.get_ident(), []

    def meanwhile():
        ran_on.append(threading.get_ident())
        done.set()

    def block(s):
        return done.wait(timeout=10.0), s, threading.get_ident() == caller

    got = list(parallel.ordered_map(block, range(6), block_bytes, meanwhile=meanwhile))
    assert ran_on == [caller]
    assert [(ok, s) for ok, s, _ in got] == [(True, s) for s in range(6)]
    assert all(on_caller for *_, on_caller in got) == (block_bytes < BIG)


def test_ordered_map_keeps_block_order_on_a_pool(four_cpus):
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    assert list(parallel.ordered_map(lambda s: s * s, range(50), BIG)) == \
        [s * s for s in range(50)]


def test_buffers_are_made_on_the_calling_thread_one_per_worker(four_cpus):
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    caller, made, held = threading.get_ident(), [], set()
    lock = threading.Lock()
    # the first 4 blocks wait for each other, so 4 blocks hold a buffer at once
    together = threading.Barrier(4)

    def buffers():
        made.append((threading.get_ident(), object()))
        return made[-1][1]

    def block(s, buf):
        with lock:
            shared = buf in held
            held.add(buf)
        if s < 4:
            together.wait(timeout=10.0)
        with lock:
            held.discard(buf)
        return shared, buf

    got = list(parallel.ordered_map(block, range(40), BIG, buffers))
    assert parallel.workers(40, BIG) == 4
    assert [on for on, _ in made] == [caller] * 4
    assert not any(shared for shared, _ in got)
    assert {buf for _, buf in got} <= {buf for _, buf in made}


def test_an_error_in_every_block_reaches_the_caller(four_cpus):
    # more blocks than workers, each failing: a block that kept its buffer
    # would leave the later ones waiting for one, and the pool would not end
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    errors = []

    def block(s, buf):
        raise RuntimeError(f"block {s}")

    def run():
        try:
            list(parallel.ordered_map(block, range(12), BIG, bytearray))
        except RuntimeError as e:
            errors.append(str(e))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=30.0)
    assert not t.is_alive(), "the pool did not finish within 30 s"
    assert errors == ["block 0"]


def test_the_pool_serves_the_next_call_after_every_block_of_one_raised(with_workers):
    def block(s, buf):
        if fail:
            raise RuntimeError(f"block {s}")
        return s * s

    fail = True
    with pytest.raises(RuntimeError, match="block 0"):
        with_workers(4, lambda: parallel.ordered_map(block, range(12), BIG, bytearray))
    fail = False
    assert with_workers(4, lambda: parallel.ordered_map(block, range(12), BIG, bytearray)) \
        == [s * s for s in range(12)]


def _threads_of(count):
    """The threads (objects, whose idents a new thread may reuse) that run
    a pooled call of `count` blocks that wait for each other, so that each
    of the call's `count` workers runs one."""
    together = threading.Barrier(count)

    def block(s):
        together.wait(timeout=10.0)
        return threading.current_thread()

    return set(parallel.ordered_map(block, range(count), BIG))


def test_pooled_calls_reuse_the_threads_of_their_worker_count(four_cpus):
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    four = _threads_of(4)
    assert len(four) == 4 and threading.current_thread() not in four
    assert _threads_of(4) == four
    two = _threads_of(2)
    assert len(two) == 2 and not two & four
    assert _threads_of(2) == two


def _encode_into(conn, p, X):
    conn.send(hamming.encode(p, X).packed)


# Python 3.12 warns on a fork while other threads (the parent's pool) run
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_a_forked_child_encodes_on_a_pool_of_its_own(four_cpus):
    # the parent's pool threads do not run in a forked child: a child that
    # queued its tiles on the pool it inherited would wait for ever
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    rng = np.random.default_rng(0)
    D, d = 16, 64
    p = NetworkParams(w1=rng.standard_normal((d, D)), w2=np.zeros((D, d)),
                      b1=np.zeros(d), b2=np.zeros(D))
    X = rng.standard_normal((D, 3 * hamming._ENCODE_TILE)).T  # 3 tiles, 3 workers
    assert parallel.workers(3, 8 * d * hamming._ENCODE_TILE) == 3
    packed = hamming.encode(p, X).packed
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_encode_into, args=(send, p, X))
    child.start()
    try:
        assert receive.poll(30.0), "the child did not encode within 30 s"
        np.testing.assert_array_equal(receive.recv(), packed)
    finally:
        if child.is_alive():
            child.kill()
        child.join()


class _SlowStarts(list):
    """Block starts that come 10 ms apart, so each block returns before
    the next is queued."""

    def __iter__(self):
        for s in super().__iter__():
            time.sleep(0.01)
            yield s


def test_a_fresh_pool_starts_all_its_threads(four_cpus):
    # the executor starts a thread on a submit only while none is idle:
    # blocks that return at once would otherwise leave a fresh pool short
    four_cpus.setenv("OMP_NUM_THREADS", "1")
    four_cpus.setattr(parallel, "_pool", functools.cache(parallel._pool.__wrapped__))
    assert parallel.ordered_map(lambda s: s, _SlowStarts(range(8)), BIG) == list(range(8))
    pool = parallel._pool(4)
    try:
        assert len(pool._threads) == 4
    finally:
        pool.shutdown()
