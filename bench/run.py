"""condatom benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload {levels,events,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; condatom is imported from ./src. The
inputs of one round are generated from the seed. The run repeats whole
rounds, timing each operation, until S seconds of wall-clock time have
passed. The first round is checked against the benchmark's own exact
oracle, and every later round must reproduce the first one exactly.
--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from an untraced pass, a pass with span wrappers on the same
number of rounds, and one round under cProfile. The last line of stdout
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORKDIR = os.path.join(BENCH, "_work")
MIN_ROUNDS = 3
MAX_REPORTED_PROBLEMS = 10


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    (clock ticks since boot); interpreter start-up is therefore included."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Rounds:
    """Runs whole rounds of a workload and keeps the failure tally."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.reference = None
        self.failing: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.correct = True

    def run(self) -> list[list[float]]:
        """One round; returns, for each operation, the time of each of its
        steps in seconds."""
        from workloads import Raised

        wl, clock = self.workload, time.perf_counter
        times, raws = [], []
        for inp in self.inputs:
            marks = [clock()]
            try:
                raw = wl.run(inp, lambda: marks.append(clock()))
            except Exception as e:
                raw = Raised(type(e).__name__, str(e))
            marks.append(clock())
            times.append([b - a for a, b in zip(marks, marks[1:])])
            raws.append(raw)
        results = [wl.finish(inp, raw) for inp, raw in zip(self.inputs, raws)]
        if self.reference is None:
            self.reference = results
            for k, (inp, res) in enumerate(zip(self.inputs, results)):
                found = [f"raised {res}"] if isinstance(res, Raised) else wl.check(inp, res)
                if found:
                    self.failing.add(k)
                    self._report(inp, found)
        else:
            for k, (inp, res) in enumerate(zip(self.inputs, results)):
                if res != self.reference[k] and k not in self.failing:
                    self.failing.add(k)
                    self._report(inp, [f"operation {k} gave another result than in round 1"])
        self.attempted += len(self.inputs)
        self.failed += len(self.failing)
        return times

    def _report(self, inp, found):
        if getattr(inp, "fault", None) is None:
            self.correct = False
        self.problems += found[: MAX_REPORTED_PROBLEMS - len(self.problems)]

    def until(self, seconds, min_rounds=MIN_ROUNDS, max_rounds=None):
        """Whole rounds until the given wall-clock seconds have passed
        (checks and comparisons included). Returns the number of rounds
        and each operation's time: the sum of its steps' best times over
        those rounds.

        Other tenants of the host only ever add time, and their load
        shifts within milliseconds, so the best of many spread-out
        repeats of a short step is what the code costs; a step of a few
        tenths of a millisecond finds an undisturbed repeat far more
        often than a whole operation of several milliseconds does. Only
        the running minima are kept, so the harness's own memory does
        not grow with the number of rounds."""
        best, rounds, start = None, 0, time.perf_counter()
        while rounds < min_rounds or (
            time.perf_counter() - start < seconds and rounds != max_rounds
        ):
            times = self.run()
            if best is None:
                best = times
            else:
                for op_best, op_times in zip(best, times):
                    op_best[:] = map(min, op_best, op_times)
            rounds += 1
        return rounds, [sum(steps) for steps in best]


def end_to_end(rounds_obj: Rounds, seconds, setup_s) -> dict:
    with rounds_obj.workload.steps():
        _, per_op = rounds_obj.until(seconds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rounds_obj: Rounds, seconds) -> dict:
    from spans import Tracer, metric_names

    n_plain, plain = rounds_obj.until(seconds / 4, min_rounds=2)
    with Tracer() as tracer:
        n_traced, traced = rounds_obj.until(0, min_rounds=n_plain, max_rounds=n_plain)
    values = tracer.metrics(n_traced)
    values["trace.overhead_s"] = sum(traced) - sum(plain)
    profile = cProfile.Profile()
    profile.enable()
    try:
        rounds_obj.run()
    finally:
        profile.disable()
    values["fractions.self_s"] = sum(
        tottime
        for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profile).stats.items()
        if os.path.basename(filename) == "fractions.py"
    )
    units = dict(metric_names(), **{"trace.overhead_s": "s", "fractions.self_s": "s"})
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import condatom
    except ImportError as e:
        print(f"bench: cannot import condatom from {SRC}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(condatom.__file__)) != os.path.join(SRC, "condatom"):
        print(f"bench: condatom came from {condatom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        workload = WORKLOADS[args.workload]
        rounds = Rounds(workload, workload.make_inputs(args.seed, workdir))
        setup_s = process_age()
        if args.trace:
            metrics = per_layer(rounds, args.seconds)
        else:
            metrics = end_to_end(rounds, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in rounds.problems:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": rounds.correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
