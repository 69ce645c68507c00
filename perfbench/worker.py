"""One run process of the benchmark: set up, generate inputs, time requests.

Started by run.py as a fresh single-threaded Python process with one
closed-loop client.  It prints one line, "RESULT <json>", and exits.

Set-up is everything from the parent's spawn time (--t-start, a monotonic
clock reading that the child's clock shares on Linux) until the fields and
planes are warm: interpreter start, the galoisplane import, make_field,
op_tables() and plane().  Input generation follows and is not counted.

The timed phase cycles through the workload's seeded pool of requests,
whole passes at a time, until the summed request time reaches --seconds, so
each request of the pool runs several times, spread over the run.  The time
of each execution covers only the library calls; the oracle check after it
runs with the clock stopped, and every execution is checked.

Times are scaled to a reference machine speed.  The host this benchmark was
written on runs the same Python code up to 2.5 times slower for stretches
of seconds to minutes, so raw times of one run measure the host more than
the program.  A fixed piece of the oracle's own arithmetic (the probe, which
shares no code with the library) is timed between executions, and each
execution's time is multiplied by REFERENCE_PROBE_MS over the mean of the
probes taken within one execution time of it, the probes just before and
after it always included; set-up time is scaled by a probe taken right
after set-up.  The figures read as on a machine that runs the probe in
REFERENCE_PROBE_MS.  A request's latency is the median of its scaled
executions; requests_per_s, the median and the tail are taken over the
pool's requests.  Raw times are printed beside them.

With --trace 1 an untraced phase runs first, then a traced phase over a
fixed number of blocks, so that per-layer counts cover the same requests for
a given seed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path

import oracle as own
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

_FAILED = object()


def import_library():
    """Import galoisplane from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "galoisplane" / "__init__.py").is_file():
        raise SystemExit(f"no galoisplane sources under {src}")
    sys.path.insert(0, str(src))
    import galoisplane
    if Path(galoisplane.__file__).resolve().parent != (src / "galoisplane").resolve():
        raise SystemExit(f"galoisplane imported from {galoisplane.__file__}, not {src}")
    return galoisplane


# ms of the probe on the reference machine: about its time on the host the
# benchmark was written on (Intel Xeon, 2 vCPUs) when that host is not
# contended, so that scaled figures read close to that host's best.
REFERENCE_PROBE_MS = 0.2
SETUP_PROBES = 9


def make_probe():
    """The probe: determinants and projective images over GF(13) with the
    oracle's arithmetic, on fixed inputs; returns its time in ms."""
    F = own.Field(13)
    rng = random.Random(0)
    points = own.plane_points(F)
    triples = [tuple(rng.sample(points, 3)) for _ in range(60)]
    matrices = [own.random_invertible(F, rng) for _ in range(4)]

    def probe() -> float:
        t0 = time.perf_counter()
        for a, b, c in triples:
            own.det3(F, a, b, c)
        for m in matrices:
            for v in points[:10]:
                own.canonical(F, own.mat_vec(F, m, v))
        return (time.perf_counter() - t0) * 1e3

    return probe


class Phase:
    """Latencies and failures of one timed phase."""

    def __init__(self):
        self.runs: list[tuple] = []          # (pool position, start, time)
        self.labels: dict[tuple, str] = {}
        self.probe_starts: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.busy = 0.0
        self.blocks = 0
        self.passes = 0
        self.first_error = None

    @property
    def attempted(self) -> int:
        return len(self.runs)

    def scaled(self) -> dict[tuple, list[float]]:
        """Execution times per pool position, scaled by the probes around
        each execution (unscaled in a phase without probes)."""
        out: dict[tuple, list[float]] = {}
        starts = self.probe_starts
        prefix = list(itertools.accumulate(self.probes, initial=0.0))
        for key, t0, dt in self.runs:
            scale = 1.0
            if starts:
                lo = min(bisect_left(starts, t0 - dt), bisect_right(starts, t0) - 1)
                hi = max(bisect_right(starts, t0 + 2 * dt), bisect_left(starts, t0 + dt) + 1)
                scale = REFERENCE_PROBE_MS * (hi - lo) / (prefix[hi] - prefix[lo])
            out.setdefault(key, []).append(dt * scale)
        return out

    def summary(self) -> dict:
        per_request = {key: statistics.median(xs) for key, xs in self.scaled().items()}
        lat = sorted(per_request.values())
        n = len(lat)
        passed = 1 - self.failed / self.attempted if self.attempted else 0.0
        # the highest percentile with at least ten samples beyond it
        tail_index = max(n - 11, 0)
        kinds: dict[str, list[float]] = {}
        for key, label in self.labels.items():
            kinds.setdefault(label, []).append(per_request[key])
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "blocks": self.blocks,
            "passes": self.passes,
            "pool": n,
            "busy_s": self.busy,
            "probe_ms_p50": statistics.median(self.probes) if self.probes else 0.0,
            "raw_requests_per_s": (self.attempted - self.failed) / self.busy
                                  if self.busy else 0.0,
            "raw_request_ms_p50": statistics.median(dt for _, _, dt in self.runs) * 1e3
                                  if self.runs else 0.0,
            "requests_per_s": passed * n / sum(lat) if n else 0.0,
            "request_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
            "request_ms_tail": lat[tail_index] * 1e3 if lat else 0.0,
            "tail_percentile": 100.0 * (tail_index + 1) / n if n else 0.0,
            "tail_beyond": n - tail_index - 1 if n else 0,
            "kinds": {label: [len(xs), statistics.median(xs) * 1e3, sum(xs)]
                      for label, xs in sorted(kinds.items())},
        }


def run_phase(blocks, execute, check, *, label, seconds=None, max_blocks=None,
              tracer=None, probe=None) -> Phase:
    """Closed loop over whole passes of the pool `blocks` (or over
    `max_blocks` blocks); exceptions and failed checks are counted.  `label`
    names a request's kind for the per-kind latency breakdown.  With a
    `probe`, execution times are scaled to REFERENCE_PROBE_MS."""
    phase = Phase()
    clock = time.perf_counter

    def take_probe():
        phase.probe_starts.append(clock())
        phase.probes.append(probe())

    if probe:
        take_probe()
    while True:
        for b, block in enumerate(blocks):
            for i, request in enumerate(block):
                if tracer is not None:
                    tracer.request = phase.attempted
                t0 = clock()
                try:
                    answer = execute(request)
                except Exception:
                    answer = _FAILED
                    if phase.first_error is None:
                        phase.first_error = traceback.format_exc()
                dt = clock() - t0
                phase.busy += dt
                if probe:
                    take_probe()
                key = (b, i)
                phase.runs.append((key, t0, dt))
                if key not in phase.labels:
                    phase.labels[key] = label(request)
                ok = False
                if answer is not _FAILED:
                    try:
                        ok = check(request, answer)
                    except Exception:
                        if phase.first_error is None:
                            phase.first_error = traceback.format_exc()
                if ok is not True:
                    phase.failed += 1
            phase.blocks += 1
            if max_blocks is not None and phase.blocks >= max_blocks:
                return phase
        phase.passes += 1
        if max_blocks is None and (seconds is None or phase.busy >= seconds):
            return phase


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-start", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    gp = import_library()
    workload = WORKLOADS[args.workload](gp, tiny=args.tiny)
    tracer = Tracer(gp) if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    setup_raw_s = time.monotonic() - args.t_start
    if tracer:
        tracer.uninstall()
    probe = make_probe()
    setup_probe = statistics.median(probe() for _ in range(SETUP_PROBES))
    result = {"setup_s": setup_raw_s * REFERENCE_PROBE_MS / setup_probe,
              "setup_raw_s": setup_raw_s, "setup_probe_ms": setup_probe}
    if args.setup_only:
        print("RESULT " + json.dumps(result), flush=True)
        return 0

    blocks = workload.blocks(args.seed)
    gc.collect()
    gc.freeze()

    phase = run_phase(blocks, workload.execute, workload.check, label=workload.label,
                      seconds=args.seconds, probe=probe)
    result.update(phase.summary())
    result["reference_probe_ms"] = REFERENCE_PROBE_MS
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = [phase.first_error]

    if tracer:
        workload.draws = workload.pairs = 0
        tracer.install()
        traced = run_phase(blocks, workload.execute, workload.check, label=workload.label,
                           max_blocks=1 if args.tiny else workload.trace_blocks,
                           tracer=tracer)
        tracer.uninstall()
        errors.append(traced.first_error)
        result["traced"] = traced.summary()
        result["layers"] = tracer.metrics(workload.draws, workload.pairs)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}.spans.tsv"
        tracer.write_spans(path)
        result["spans"] = len(tracer.spans)
        result["spans_file"] = str(path.relative_to(ROOT))

    for err in errors:
        if err:
            print("first failure:\n" + err, file=sys.stderr)
            break
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
