#!/usr/bin/env python3
"""natlib benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload series --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; natlib is imported from its ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's metadata.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass over the workload's input set.  The exit code is
0 only when every attempted item was checked and none failed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MODULES = ("trees", "perms", "nat_core", "formulas", "series", "natdk",
           "bijections", "treedoc")
# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3


def load_natlib(root: Path = ROOT) -> SimpleNamespace:
    """Import natlib afresh from ``root/src``, dropping any earlier copy."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "natlib" or m.startswith("natlib.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{
        name: importlib.import_module(f"natlib.{name}") for name in MODULES
    })
    where = Path(lib.trees.__file__).resolve()
    if root / "src" not in where.parents:
        raise ImportError(f"natlib was imported from {where}, not from {src}")
    return lib


def reference_kernel() -> int:
    """Fixed work that shares no code with natlib, in the two styles natlib
    spends its time in: a Fraction polynomial square over tuple-keyed dicts,
    then prefix tests between vertex path strings."""
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}
    square: dict[tuple[int, int], Fraction] = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            square[key] = square.get(key, 0) + c1 * c2
    paths = [""]
    for _ in range(6):
        paths = [p + step for p in paths for step in "LR"]
    left = [p for p in paths if p.endswith("L")][:44]
    return len(square) + sum(1 for p in left for q in left if q.startswith(p))


class Speed:
    """How fast the machine runs, sampled every EVERY_S of wall time.

    On a shared virtual CPU the speed can drop 1.6-1.9x for anything from
    under a second to minutes, so a whole run can fall in either state; a
    timer therefore interrupts the run every EVERY_S to time
    ``reference_kernel``, and every timing is also reported scaled by
    REFERENCE_S / (median kernel time of the samples during and around it):
    seconds at the speed where the kernel takes REFERENCE_S.  The kernel
    shares no code with natlib, so a change to natlib moves a scaled timing
    as much as the raw one.  Time spent sampling is subtracted from timings.
    """

    REFERENCE_S = 0.00035
    EVERY_S = 0.03

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # an alarm that arrived while sampling
            return
        self._busy = True
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        reference_kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(end)
        self.kernel_s.append(end - start)
        self.stolen += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / median kernel time over the samples from the last
        one before ``start`` to the first one after ``end``."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = bisect.bisect_left(self.times, end)
        window = self.kernel_s[first:last + 1] or self.kernel_s[-1:]
        return self.REFERENCE_S / median(window)


def setup(workload: str, seed: int, speed: Speed, repeats: int = SETUP_REPEATS):
    """Import natlib and build the inputs ``repeats`` times; keep the last.
    Returns the scaled and the raw duration of each repeat."""
    scaled, raw = [], []
    for _ in range(repeats):
        stolen = speed.stolen
        start = time.perf_counter()
        lib = load_natlib()
        w = WORKLOADS[workload](lib)
        inputs = w.generate(random.Random(seed))
        end = time.perf_counter()
        raw.append(end - start - (speed.stolen - stolen))
        scaled.append(raw[-1] * speed.factor(start, end))
    return lib, w, inputs, scaled, raw


class Tally:
    """Latencies and check results of the timed calls of one run."""

    def __init__(self, w):
        self.w = w
        # per call: input index, start, seconds (compact, so that the
        # tally's own memory hardly grows with the number of calls)
        self.inputs = array("l")
        self.starts = array("d")
        self.seconds = array("d")
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._items: dict[int, int] = {}
        self._verified: dict[int, object] = {}

    def record(self, idx: int, inp, out, error, start: float, elapsed: float) -> None:
        self.inputs.append(idx)
        self.starts.append(start)
        self.seconds.append(elapsed)
        self.timed += elapsed
        if idx not in self._items:
            self._items[idx] = self.w.items(inp)
        items = self._items[idx]
        self.attempted += items
        message = self._check(idx, inp, out, error)
        if message is not None:
            self.failed += items
            if len(self.errors) < 5:
                self.errors.append(f"input {idx}: {message}")

    def _check(self, idx: int, inp, out, error) -> str | None:
        if error is not None:
            return f"raised {error!r}"
        try:
            if idx in self._verified:
                if self.w.digest(out) != self._verified[idx]:
                    return "output differs from the verified output for this input"
                return None
            self.w.verify(inp, out)
            self._verified[idx] = self.w.digest(out)
        except Exception as exc:  # any failing check marks the items failed
            return f"{type(exc).__name__}: {exc}"
        return None

    def scaled(self, speed: Speed) -> list[float]:
        return [s * speed.factor(start, start + s)
                for start, s in zip(self.starts, self.seconds)]


def run_pass(w, inputs, tally: Tally, speed: Speed, seconds: float,
             whole_sets: bool, tracer=None) -> None:
    """Call the inputs in order, set after set, until ``seconds`` of timed
    work; checks run between calls, outside the timing."""
    gc.collect()
    clock = time.perf_counter
    while True:
        for idx, inp in enumerate(inputs):
            if w.whole_sets:
                # few long calls: each starts with an empty collector, so
                # which call pays for a collection does not depend on order
                gc.collect()
            if tracer is not None:
                tracer.begin_call(idx)
            stolen = speed.stolen
            start = clock()
            try:
                out, error = w.call(inp), None
            except Exception as exc:  # a raising call is a failed item
                out, error = None, exc
            elapsed = clock() - start - (speed.stolen - stolen)
            if tracer is not None:
                tracer.end_call(f"call.{w.name}")
                tracer.paused = True
            tally.record(idx, inp, out, error, start, elapsed)
            if tracer is not None:
                tracer.paused = False
            del out
            if not whole_sets and tally.timed >= seconds:
                return
        if tally.timed >= seconds:
            return


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = root / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            packed = (root / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + name))
        return ref
    except (OSError, StopIteration):
        return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def metadata(args, tally: Tally, speed: Speed) -> dict:
    factors = [Speed.REFERENCE_S / k for k in speed.kernel_s]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": src_lines(ROOT),
        "fail_ratio": tally.failed / tally.attempted if tally.attempted else None,
        "speed": {"reference_s": Speed.REFERENCE_S, "samples": len(factors),
                  "factor_min": min(factors), "factor_median": median(factors),
                  "factor_max": max(factors)},
        "errors": tally.errors,
    }


def end_to_end(w, tally: Tally, speed: Speed, setup_scaled, setup_raw):
    ok_items = tally.attempted - tally.failed
    scaled_ms = [x * 1000.0 for x in tally.scaled(speed)]
    raw_ms = [s * 1000.0 for s in tally.seconds]
    tail = percentile(scaled_ms, w.tail_pct)
    n = len(scaled_ms)
    metrics = {
        "items_per_s": (ok_items / (sum(scaled_ms) / 1000.0), "1/s"),
        "call_p50_ms": (percentile(scaled_ms, 50.0), "ms"),
        "call_tail_ms": (tail, "ms"),
        "setup_s": (median(setup_scaled), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    detail = {
        "items_per_s": {"samples": n, "items": ok_items,
                        "raw": ok_items / tally.timed},
        "call_p50_ms": {"samples": n, "raw": percentile(raw_ms, 50.0)},
        "call_tail_ms": {"samples": n, "percentile": w.tail_pct,
                         "samples_beyond": sum(1 for x in scaled_ms if x > tail),
                         "raw": percentile(raw_ms, w.tail_pct)},
        "setup_s": {"samples": len(setup_scaled), "raw": median(setup_raw)},
        "peak_rss_mib": {"samples": 1},
    }
    return metrics, detail


def traced(args, lib, w, inputs, tally: Tally, speed: Speed):
    """One untraced run of ``--seconds``, then one traced pass over the set."""
    from tracing import PER_LAYER, Tracer, layer_metrics

    run_pass(w, inputs, tally, speed, args.seconds, whole_sets=True)
    by_input: dict[int, list[float]] = {}
    for idx, s in zip(tally.inputs, tally.scaled(speed)):
        by_input.setdefault(idx, []).append(s)
    untraced = sum(median(v) for v in by_input.values())
    pass_tally = Tally(w)
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "natlib" or name.startswith("natlib.")]
    tracer.install(lib, modules)
    try:
        run_pass(w, inputs, pass_tally, speed, 0.0, whole_sets=True, tracer=tracer)
    finally:
        tracer.uninstall()
    tally.attempted += pass_tally.attempted
    tally.failed += pass_tally.failed
    tally.errors += pass_tally.errors
    tracer.dump(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    traced_s = sum(pass_tally.scaled(speed))
    # layer times are scaled by the pass's mean speed factor
    values = layer_metrics(tracer, pass_tally.attempted, traced_s / untraced,
                           scale=traced_s / pass_tally.timed)
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    detail = {"traced_items": pass_tally.attempted, "traced_s": traced_s,
              "untraced_set_s": untraced, "spans": len(tracer.spans)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = Speed()
    speed.start()
    try:
        try:
            lib, w, inputs, setup_scaled, setup_raw = setup(args.workload, args.seed, speed)
        except ImportError as exc:
            print(f"cannot import natlib from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if not inputs:
            print("the workload has no inputs", file=sys.stderr)
            return 1
        tally = Tally(w)
        if args.trace:
            metrics, detail = traced(args, lib, w, inputs, tally, speed)
        else:
            run_pass(w, inputs, tally, speed, args.seconds, w.whole_sets)
            metrics, detail = end_to_end(w, tally, speed, setup_scaled, setup_raw)
    finally:
        speed.stop()

    correct = tally.attempted > 0 and tally.failed == 0
    meta = metadata(args, tally, speed)
    meta["metrics"] = detail
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    for message in tally.errors:
        print(message, file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
