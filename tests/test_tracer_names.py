"""Every name the benchmark's tracer wraps exists in the package.

``perfbench/layers.py`` wraps layer boundaries by name (``owner.__dict__[attr]``),
so renaming or deleting one of them fails only a traced benchmark run, with a
``KeyError``.  This test installs and removes the tracer's wrappers, which
reads every one of those names.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import Tracer  # noqa: E402

from noisycc.oracle import Oracle  # noqa: E402


def test_every_wrapped_name_exists():
    pull = Oracle.__dict__["pull"]
    with Tracer().installed():
        assert Oracle.__dict__["pull"] is not pull
    assert Oracle.__dict__["pull"] is pull
