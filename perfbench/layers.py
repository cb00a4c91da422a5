"""Per-layer tracing from outside the package.

``Tracer.installed()`` wraps the package's layer boundaries in spans for the
duration of a ``with`` block and restores the originals afterwards.  A span
is placed on the name the caller looks up at call time: callers bind
imported functions at import time, so ``noisycc.kcfc.run_tbhs`` is wrapped
rather than ``noisycc.tbhs.run_tbhs``.  The Monte-Carlo step has no public
boundary; the private ``noisycc.cli._mc_expected_cost`` is wrapped for it.

Spans are aggregated as they close (calls, self time, inclusive time per
span name) instead of being stored: one job can make hundreds of thousands of
``Oracle.pull`` calls.  Self time is a span's duration minus the durations
of the spans it directly encloses.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import noisycc.analysis
import noisycc.cli
import noisycc.kcfc
import noisycc.offline
import noisycc.uniform
from noisycc.oracle import Oracle
from noisycc.uniform import OfflineSolver


def bell(n: int) -> int:
    """Number of set partitions of n elements (the brute-force OPT's search space)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.facts: Counter = Counter()  # counts taken from the layers' return values
        self._stack = [0.0]  # per open span: time covered by its direct children

    def _wrap(self, name, fn, hook=None):
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                calls[name] += 1
                self_s[name] += dur - child
                incl_s[name] += dur
            if hook is not None:
                hook(result, args)
            return result

        return span

    def _targets(self):
        facts = self.facts

        def tbhs(out, _):
            facts["tbhs.rounds"] += out.rounds
            facts["tbhs.pulls"] += out.pulls_used

        def kcfc(report, _):
            facts["kcfc.good_pairs"] += report.good_set_size or 0

        def kcfb(report, _):
            facts["kcfb.phases"] += report.phases
            facts["kcfb.queries"] += report.queries_used
            facts["kcfb.budget"] += report.budget

        def opt_instance(_, args):
            facts["offline.partitions"] += bell(args[0].n)

        def opt_sims(_, args):
            facts["offline.partitions"] += bell(args[1])

        def pull_many(rewards, _):
            facts["oracle.pulls"] += len(rewards)

        cli, kc, off, uni, ana = (
            noisycc.cli, noisycc.kcfc, noisycc.offline, noisycc.uniform, noisycc.analysis
        )
        return [
            (cli, "cmd_run", "cli.run", None),
            (cli, "load_instance", "instance.load", None),
            (cli, "_mc_expected_cost", "cli.mc", None),
            (cli, "brute_force_opt", "offline.opt", opt_instance),
            (uni, "min_cost_partition", "offline.opt", opt_sims),
            (cli, "expected_cost_mc", "offline.mc", None),
            (kc, "kwikcluster", "offline.kwik", None),
            (uni, "kwikcluster", "offline.kwik", None),
            (off, "kwikcluster", "offline.kwik", None),
            (off, "cost", "offline.cost", None),
            (off, "pairwise_cost", "offline.cost", None),
            (uni, "pairwise_cost", "offline.cost", None),
            (kc, "run_tbhs", "tbhs", tbhs),
            (cli, "run_kcfc", "kcfc", kcfc),
            (cli, "run_kcfc_sequential", "kcfc", kcfc),
            (cli, "run_kcfb", "kcfb", kcfb),
            (cli, "run_uniform_fb", "uniform", None),
            (cli, "run_uniform_fc", "uniform", None),
            (OfflineSolver, "solve", "uniform.solve", None),
            (Oracle, "pull", "oracle.pull", None),
            (Oracle, "pull_many", "oracle.pull_many", pull_many),
            (Oracle, "replay", "oracle.replay", None),
            (ana, "fc_sample_bound", "analysis", None),
            (ana, "fb_error_bound", "analysis", None),
            (ana, "success_check", "analysis", None),
            (cli, "uniform_fc_pulls", "analysis", None),
            (cli, "uniform_fb_error_bound", "analysis", None),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, jobs: int, job_s: float, queries_per_bound: float) -> dict:
        """Per-layer metrics per traced job, as name -> (value, unit).

        ``job_s`` is the time of the ``jobs`` traced jobs together.
        The ``_s`` metrics are self times, except ``offline.mc_s``,
        ``uniform.solve_s``, ``cli.mc_s`` and ``instance.load_s``, which are
        inclusive.  A ``.share`` is the layer's self time over job time.
        """
        c, s, i, f = self.calls, self.self_s, self.incl_s, self.facts

        def ratio(a, b):
            return a / b if b else 0.0

        pulls = c["oracle.pull"] + f["oracle.pulls"]
        pull_time = s["oracle.pull"] + s["oracle.pull_many"]
        layers = {
            "tbhs": s["tbhs"],
            "oracle": pull_time + s["oracle.replay"],
            "offline": s["offline.opt"] + s["offline.kwik"] + s["offline.cost"] + s["offline.mc"],
            "kcfc": s["kcfc"],
            "kcfb": s["kcfb"],
            "uniform": s["uniform"] + s["uniform.solve"],
            "analysis": s["analysis"],
            "cli": s["cli.run"] + s["cli.mc"] + s["instance.load"],
        }
        per_job = {
            "tbhs.calls": (c["tbhs"], "count"),
            "tbhs.rounds": (f["tbhs.rounds"], "count"),
            "tbhs.pulls": (f["tbhs.pulls"], "count"),
            "tbhs.self_s": (s["tbhs"], "s"),
            "oracle.pull_calls": (c["oracle.pull"], "count"),
            "oracle.pull_s": (s["oracle.pull"], "s"),
            "oracle.pull_many_calls": (c["oracle.pull_many"], "count"),
            "oracle.pull_many_s": (s["oracle.pull_many"], "s"),
            "oracle.pulls": (pulls, "count"),
            "oracle.replays": (c["oracle.replay"], "count"),
            "offline.opt_calls": (c["offline.opt"], "count"),
            "offline.opt_s": (s["offline.opt"], "s"),
            "offline.partitions": (f["offline.partitions"], "count"),
            "offline.kwik_calls": (c["offline.kwik"], "count"),
            "offline.kwik_s": (s["offline.kwik"], "s"),
            "offline.cost_calls": (c["offline.cost"], "count"),
            "offline.cost_s": (s["offline.cost"], "s"),
            "offline.mc_s": (i["offline.mc"], "s"),
            "kcfc.calls": (c["kcfc"], "count"),
            "kcfc.self_s": (s["kcfc"], "s"),
            "kcfb.calls": (c["kcfb"], "count"),
            "kcfb.phases": (f["kcfb.phases"], "count"),
            "kcfb.self_s": (s["kcfb"], "s"),
            "uniform.calls": (c["uniform"], "count"),
            "uniform.self_s": (layers["uniform"], "s"),
            "uniform.solve_s": (i["uniform.solve"], "s"),
            "analysis.s": (s["analysis"], "s"),
            "cli.mc_s": (i["cli.mc"], "s"),
            "cli.self_s": (s["cli.run"] + s["cli.mc"], "s"),
            "instance.load_s": (i["instance.load"], "s"),
            "trace.job_s": (job_s, "s"),
        }
        out = {name: (value / jobs, unit) for name, (value, unit) in per_job.items()}
        out["tbhs.us_per_pull"] = (1e6 * ratio(s["tbhs"], f["tbhs.pulls"]), "us")
        out["oracle.pulls_per_s"] = (ratio(pulls, pull_time), "1/s")
        out["kcfc.good_pairs"] = (ratio(f["kcfc.good_pairs"], c["kcfc"]), "count")
        out["kcfc.queries_per_bound"] = (queries_per_bound, "ratio")
        out["kcfb.budget_use"] = (ratio(f["kcfb.queries"], f["kcfb.budget"]), "share")
        out["cli.mc_share"] = (ratio(i["cli.mc"], job_s), "share")
        for layer, busy in layers.items():
            out[f"{layer}.share"] = (ratio(busy, job_s), "share")
        return out
