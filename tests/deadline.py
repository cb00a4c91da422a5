"""Fail a test, rather than hang the suite, when its body runs too long."""

import signal
from contextlib import contextmanager


class Overran(Exception):
    """The body was still running at its deadline.  Not an OSError or a
    ValueError, so that no handler in the package turns it into a usage
    error."""


@contextmanager
def deadline(seconds: int):
    """Raise ``Overran`` inside the body once it has run ``seconds`` s."""

    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
