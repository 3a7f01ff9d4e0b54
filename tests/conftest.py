import signal
import sys
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from fpsystems import SystemSpec

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` raises TimeoutError after s seconds, so a
    loop that never ends fails its test instead of stalling the run."""
    return _deadline


@pytest.fixture
def int_digits_4300():
    """The interpreter's default limit on decimal digits of a printed
    int, set for one test whatever the environment set."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture
def spy(monkeypatch):
    """``spy(fn)`` swaps every reference an fpsystems module holds to
    ``fn`` for a wrapper and returns the list that gathers the
    arguments of each call."""
    def install(fn):
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "fpsystems" or name.startswith("fpsystems."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        return calls
    return install


@pytest.fixture
def sys_ap3() -> SystemSpec:
    """x1 + x2 + x3 = 0 over F_3: rows sum to zero, generic minors."""
    return SystemSpec.make([(1, 1, 1)], 3)


@pytest.fixture
def sys_531() -> SystemSpec:
    """x1 + 3x2 + x3 = 0 over F_5: 1 + 3 + 1 = 5 = 0, generic minors."""
    return SystemSpec.make([(1, 3, 1)], 5)


@pytest.fixture
def sys_k4() -> SystemSpec:
    """x1 + x2 + 2x3 + 2x4 = 0 over F_3: row sum 6 = 0, generic minors."""
    return SystemSpec.make([(1, 1, 2, 2)], 3)


@pytest.fixture
def sys_m2() -> SystemSpec:
    """Two equations, five variables over F_5, all 2x2 minors nonsingular."""
    return SystemSpec.make([(1, 1, 1, 1, 1), (1, 2, 3, 4, 0)], 5)
