"""Every name the benchmark's tracer wraps exists in the package, and every
report field its hooks read.

``perfbench/layers.py`` wraps layer boundaries by name (``owner.__dict__[attr]``),
so renaming or deleting one of them fails only a traced benchmark run, with a
``KeyError``; its hooks read fields of the algorithms' reports, so renaming
one of those fails the same way, with an ``AttributeError``.  These tests
install and remove the tracer's wrappers, which reads every one of those
names, and run traced jobs of the algorithms whose reports the hooks read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import Tracer  # noqa: E402

from noisycc import Report, cli  # noqa: E402
from noisycc.oracle import Oracle  # noqa: E402


def test_every_wrapped_name_exists():
    pull = Oracle.__dict__["pull"]
    with Tracer().installed():
        assert Oracle.__dict__["pull"] is not pull
    assert Oracle.__dict__["pull"] is pull


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "n6.json"
    argv = ["gen", "--kind", "planted", "--n", "6", "--k", "2", "--q", "0.1", "--seed", "3"]
    assert cli.main([*argv, "--out", str(path)]) == 0
    return path


def test_hooks_read_the_reports(instance, tmp_path, monkeypatch):
    # Each run_* is wrapped first in a recorder, so the tracer's span wraps
    # the recorder and both see every call of a job, its MC replays too.
    reports = {"run_kcfc": [], "run_kcfc_sequential": [], "run_kcfb": []}
    for name, seen in reports.items():
        def record(*args, _run=getattr(cli, name), _seen=seen, **kwargs):
            report = _run(*args, **kwargs)
            _seen.append(report)
            return report

        monkeypatch.setattr(cli, name, record)
    tracer = Tracer()
    with tracer.installed():
        for algo in ("kcfc --delta 0.1", "kcfc-seq --delta 0.1", "kcfb --budget 600"):
            argv = ["run", "--algo", *algo.split(), "--instance", str(instance),
                    "--epsilon", "1.0", "--trials", "1", "--mc-replays", "5", "--seed", "1",
                    "--out", str(tmp_path / "out.csv")]
            assert cli.main(argv) == 0
    assert all(isinstance(r, Report) for seen in reports.values() for r in seen)
    kcfb = reports["run_kcfb"]
    assert len(kcfb) == 6  # the trial and its 5 replays
    facts = tracer.facts
    assert facts["kcfb.phases"] == sum(r.phases for r in kcfb) > 0
    assert facts["kcfb.queries"] == sum(r.queries_used for r in kcfb) > 0
    assert facts["kcfb.budget"] == sum(r.budget for r in kcfb) == 6 * 600
    fc = reports["run_kcfc"] + reports["run_kcfc_sequential"]
    assert facts["kcfc.good_pairs"] == sum(r.good_set_size for r in fc) > 0
