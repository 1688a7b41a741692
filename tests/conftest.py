import contextlib
import signal

import pytest


@pytest.fixture(autouse=True)
def default_cache_outside_the_checkout(monkeypatch, tmp_path):
    """A CLI call without --cache-dir writes here, never to ./hd_cache."""
    monkeypatch.setenv("HCPKIT_CACHE", str(tmp_path / "hd_cache"))


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared on-disk polynomial cache so expensive scans reuse work."""
    return tmp_path_factory.mktemp("hd_cache")


@pytest.fixture
def time_limit():
    """Context manager factory: the block raises TimeoutError after `seconds`."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
