import contextlib
import random
import signal
from fractions import Fraction

import pytest


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_rational(rng, bound=10_000):
    num = rng.randint(-bound, bound)
    while num == 0:
        num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the body by an AssertionError if it runs for more than seconds, so
    that a call which does not return fails instead of hanging the suite.
    The failure is raised here, without the frames the alarm interrupted:
    pytest cannot format some of them (a generator expression's, say)."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        raise AssertionError(f"no return within {seconds} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
