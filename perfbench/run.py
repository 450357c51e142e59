"""qsteer benchmark: seeded CLI workloads, wall time at matched accuracy, layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload cone_steer --seed 1 --seconds 12 --trace 0

One client drives ``cli.load_scenario`` -> ``cli.run`` for every member of the
workload, back to back in this process (a closed loop, no ``--jobs``). With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass; see perfbench/README.md. The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
MIN_PASSES = 3

# A fresh interpreter: package import, the scipy modules the program loads
# lazily on its first schedule or spline, and parsing every member, timed in
# the child between two speed probes so interpreter start-up is left out.
SETUP_CHILD = """
import sys, time
import speed
texts = sys.stdin.read().split("\\0")
k0 = speed.kernel_seconds()
t0 = time.perf_counter()
import qsteer.cli
import scipy.interpolate, scipy.integrate
for text in texts:
    qsteer.cli.load_scenario(text)
wall = time.perf_counter() - t0
print(wall, k0, speed.kernel_seconds())
"""


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qsteer.cli

    if Path(qsteer.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"qsteer was imported from {qsteer.cli.__file__}, not {src}")
    return qsteer.cli


def setup_seconds(members) -> tuple:
    """Median (raw, normalised) set-up time over fresh processes, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    payload = "\0".join(m.text for m in members)
    raw, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=payload, text=True,
                             env=env, cwd=ROOT, check=True, timeout=120, capture_output=True)
        wall, k0, k1 = (float(v) for v in out.stdout.split())
        if i:
            raw.append(wall)
            norm.append(speed.normalised([wall], [k0, k1]))
    return statistics.median(raw), statistics.median(norm)


def run_pass(cli, members, out_dir):
    """Every member once through the public API, each timed between two speed probes.

    An exception is that member's outcome: failures are counted, never fatal.
    """
    outcomes, walls, kernels = [], [], [speed.kernel_seconds()]
    for m in members:
        t0 = time.perf_counter()
        try:
            outcomes.append(cli.run(cli.load_scenario(m.text), out_dir=out_dir))
        except Exception as exc:
            outcomes.append(exc)
        walls.append(time.perf_counter() - t0)
        kernels.append(speed.kernel_seconds())
    return outcomes, walls, kernels


def collect(outcomes):
    """Per member: its CSV texts, or the reason it failed. Reads artifacts from disk."""
    out = []
    for res in outcomes:
        if isinstance(res, Exception):
            out.append(f"raised {type(res).__name__}: {res}")
            continue
        meta = res.run_dir / "metadata.json"
        status = json.loads(meta.read_text()).get("status") if meta.exists() else "missing"
        missing = [f.name for f in res.files if not f.exists()]
        if status != "ok" or missing:
            out.append(f"status {status!r}, missing {missing}")
            continue
        out.append({f.name: f.read_text() for f in res.files})
    return out


class Session:
    """Warm pass plus timed passes of one workload, with output bookkeeping."""

    def __init__(self, cli, members, work):
        self.cli, self.members, self.work = cli, members, work
        self.passes = 0
        self.attempted = 0
        self.failures = {}
        self.final_err = 0.0
        self.csv_bytes = 0
        self.consistent = True
        self._first = None

    def run(self, tracer=None) -> tuple:
        """One pass; returns its (raw, normalised) wall time. ``tracer`` is active only in it."""
        out_dir = self.work / f"pass{self.passes}"
        if tracer is not None:
            tracer.clear()
            tracer.install()
        try:
            outcomes, walls, kernels = run_pass(self.cli, self.members, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outputs = collect(outcomes)
        shutil.rmtree(out_dir, ignore_errors=True)
        if self._first is None:
            self._first = outputs
            self.csv_bytes = sum(
                len(t.encode()) for o in outputs if isinstance(o, dict) for t in o.values()
            )
        else:
            self.attempted += len(self.members)
            for m, o, first in zip(self.members, outputs, self._first):
                if isinstance(o, str):
                    self.failures.setdefault(m.name, o)
                elif o != first:
                    self.failures.setdefault(m.name, "outputs differ from the warm pass")
        self.passes += 1
        return sum(walls), speed.normalised(walls, kernels)

    def check(self):
        """Reference checks of the warm pass; a failed member fails in every pass."""
        import reference

        for m, o in zip(self.members, self._first):
            if isinstance(o, str):
                self.failures.setdefault(m.name, o)
                continue
            try:
                self.final_err = max(self.final_err, reference.check(m.params, o))
            except reference.CheckFailed as exc:
                self.failures.setdefault(m.name, str(exc))

    @property
    def failed(self) -> int:
        return len(self.failures) * (self.attempted // len(self.members))


def timed_passes(session, seconds, tracer=None):
    """Untimed warm pass, then passes until ``seconds`` are used (at least MIN_PASSES).

    With a tracer, untraced and traced passes alternate. Returns the
    (raw, normalised) walls of both kinds and the per-layer summary of each traced pass.
    """
    session.run()
    plain, traced, summaries = [], [], []
    while True:
        plain.append(session.run())
        if tracer is not None:
            traced.append(session.run(tracer))
            summaries.append(tracer.summary())
        used = sum(raw for raw, _ in plain + traced)
        if len(plain) >= MIN_PASSES and used * (1 + 1 / len(plain)) > seconds:
            return plain, traced, summaries


def _median(walls, which):
    return statistics.median(w[which] for w in walls)


def end_to_end(session, seconds):
    setup_raw, setup = setup_seconds(session.members)
    walls, _, _ = timed_passes(session, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    session.check()
    print(f"passes, raw / normalised wall (s): "
          f"{' '.join(f'{raw:.4f}/{norm:.4f}' for raw, norm in walls)}")
    print(f"raw medians: wall {_median(walls, 0):.4f} s, setup {setup_raw:.4f} s")
    return {
        "wall_s": (_median(walls, 1), "s"),
        "final_err_digits": (-math.log10(max(session.final_err, 1e-300)), "digits"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def unit_of(key: str) -> str:
    last = key.rsplit(".", 1)[1]
    for tail in ("us", "ms"):
        if last == tail or last.endswith("_" + tail):
            return tail
    return "ratio" if last == "frames_per_rhs" else "count"


def per_layer(session, seconds, spans_path):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, summaries = timed_passes(session, seconds, tracer)
    session.check()
    counts = [{k: v for k, v in s.items() if unit_of(k) == "count"} for s in summaries]
    if any(c != counts[0] for c in counts):
        session.consistent = False
        print("span counts differ between traced passes")
    tracer.save(spans_path)
    if tracer.absent:
        print(f"absent (reported as zero): {', '.join(tracer.absent)}")
    print(f"untraced / traced normalised wall per pass (s): {_median(plain, 1):.4f} / "
          f"{_median(traced, 1):.4f} over {len(plain)} / {len(traced)} passes")
    metrics = {}
    for key in summaries[0]:
        metrics[key] = (statistics.median(s[key] for s in summaries), unit_of(key))
    metrics["cli.csv_bytes"] = (session.csv_bytes, "bytes")
    overhead = 100.0 * (_median(traced, 1) / _median(plain, 1) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    # positivity policy is report-never-clamp: purity warnings are expected output
    warnings.filterwarnings("ignore", message="purity exceeded", category=RuntimeWarning)

    members = workloads.generate(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    session = Session(cli, members, work)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}.npz"  # latest traced run only
            metrics = per_layer(session, args.seconds, spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            metrics = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = session.failed
    print(f"workload {args.workload} seed {args.seed}: {len(members)} members x "
          f"{session.attempted // len(members)} timed passes")
    for name, reason in session.failures.items():
        print(f"FAILED {name}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':34s} {failed / max(session.attempted, 1):>16.6g} "
          f"({failed}/{session.attempted})")
    print(json.dumps({
        "correct": session.consistent and not session.failures,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
