import sys
import threading

import pytest

from autojacobin import parallel


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance summary")
        for line in verdicts:
            terminalreporter.write_line(line)


@pytest.fixture
def with_workers(monkeypatch):
    """run(count, fn) -> fn() with every blocked loop on a pool of `count`
    threads (at most one per block, so a loop of one block runs on fn's
    thread), whatever the block size and the machine's cores, while the
    interpreter switches threads every microsecond; fn runs on a thread
    of its own and must finish within a minute."""

    def run(count, fn):
        monkeypatch.setattr(parallel, "workers", lambda tasks, block_bytes: count)
        out = []

        def target():
            try:
                out.append(fn())
            except BaseException as e:  # handed to the test thread below
                out.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=target, daemon=True)
            t.start()
            t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive(), f"not done within 60 s on {count} workers"
        if isinstance(out[0], BaseException):
            raise out[0]
        return out[0]

    return run
