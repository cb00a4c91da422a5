"""Reads of an oracle's tape for tests: its rewards, without pulling them."""


def peek(o, e, k):
    """The next k rewards of pair e as floats, without pulling them."""
    return o._tape.rewards(e, o._counts.item(e), k).tolist()


def pulled_mean(o, e):
    """The mean of pair e's rewards pulled so far: the mean of the array
    ``o.replay().pull_many(e, count)`` returns."""
    return o._tape.rewards(e, 0, o._counts.item(e)).mean()
