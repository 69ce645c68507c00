"""galoisplane benchmark: three closed-loop workloads against the public API.

    python3 perfbench/run.py --workload {certify,search,large_field} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
Each run starts fresh single-threaded Python processes (perfbench/worker.py),
one at a time, each with one closed-loop client: the next request is sent
when the previous one has returned and been checked.  Every answer is checked
by perfbench/oracle.py, which shares no code with the library; a request
that raises or fails its check counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: setup_s is the
median over several set-up-only processes and the measuring one; the others
come from the measuring process, which runs each request of its seeded pool
several times.  Times are scaled to a reference machine speed by a probe of
the oracle's own arithmetic timed between executions (see worker.py for why
and how); raw times are printed beside them.  --trace 1 prints the per-layer
metrics from a traced phase, and the tracing overhead against an untraced phase of
the same process.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.

--tiny runs each workload at q <= 5 with one block of requests, for the
smoke tests in perfbench/test_smoke.py:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up processes per run, the measuring one included
SETUP_RUNS = {"certify": 9, "search": 9, "large_field": 3}
TINY_SETUP_RUNS = 2
RUN_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--tiny"] if args.tiny else []), *extra]
    t_start = time.monotonic()
    proc = subprocess.Popen([*cmd, "--t-start", repr(t_start)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise SystemExit("benchmark worker printed no result")
    return json.loads(lines[-1][len("RESULT "):])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_RUNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="q <= 5 and one block of requests (smoke tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "galoisplane" / "__init__.py").is_file():
        print(f"error: no galoisplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    # the set-up-only processes run half before the measuring one and half
    # after it, so that one slow stretch of the host does not cover them all
    setups, after = [], 0
    if not args.trace:
        repeats = TINY_SETUP_RUNS if args.tiny else SETUP_RUNS[args.workload]
        after = (repeats - 1) // 2
        for _ in range(repeats - 1 - after):
            setups.append(spawn(args, deadline, "--setup-only"))
    res = spawn(args, deadline)
    setups.append(res)
    for _ in range(after):
        setups.append(spawn(args, deadline, "--setup-only"))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu": cpu_model(), "commit": git_commit(),
        "clients": 1, "loop": "closed",
    }
    print("meta " + json.dumps(meta))
    probe, ref = res["probe_ms_p50"], res["reference_probe_ms"]
    print(f"machine: the probe took {probe:.4f} ms (median) in the timed phase, "
          f"{probe / ref:.3f} times its reference {ref} ms")
    n = res["attempted"]
    print(f"requests: {n} attempted, {res['failed']} failed, {res['passes']} passes over "
          f"a pool of {res['pool']}, {res['busy_s']:.3f} s of request time; "
          f"every execution: {res['raw_requests_per_s']:.4f} per s, "
          f"p50 {res['raw_request_ms_p50']:.3f} ms")
    print(f"failed_ratio = {res['failed'] / n:.6g} (1; {res['failed']} of {n})")
    for label, (count, p50, total) in res["kinds"].items():
        print(f"  kind {label}: n={count}, p50 {p50:.3f} ms, {total:.3f} s in total (scaled)")

    if args.trace:
        traced = res["traced"]
        # every execution on both sides: the traced phase runs each request once
        untraced_rps, traced_rps = res["raw_requests_per_s"], traced["raw_requests_per_s"]
        print(f"tracing overhead: requests_per_s {untraced_rps:.4f} untraced, "
              f"{traced_rps:.4f} traced ({traced['attempted']} requests, "
              f"{traced['blocks']} blocks), difference {untraced_rps - traced_rps:.4f} 1/s "
              f"({100 * (1 - traced_rps / untraced_rps):.1f}%)")
        for name, unit, _, moves, on in PER_LAYER:
            print(f"{name} = {res['layers'][name]!r} {unit}   [moves {moves} on {on}]")
        print(f"spans: {res['spans']} written to {res['spans_file']}")
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        attempted = n + traced["attempted"]
        failed = res["failed"] + traced["failed"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "requests_per_s": res["requests_per_s"],
            "request_ms_p50": res["request_ms_p50"],
            "request_ms_tail": res["request_ms_tail"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"scaled median of {len(setups)} set-ups; raw: "
                       + ", ".join(f"{r['setup_raw_s']:.4f}" for r in setups),
            "requests_per_s": f"{res['pool']} requests at the median of their "
                              f"{res['passes']} or more scaled executions, "
                              f"{n - res['failed']} of {n} executions passed",
            "request_ms_p50": f"p50, n={res['pool']}",
            "request_ms_tail": f"p{res['tail_percentile']:.2f}, n={res['pool']}, "
                               f"{res['tail_beyond']} samples beyond",
            "peak_rss_mb": "ru_maxrss of the measuring process",
        }
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']} ({notes[m['name']]})")
        attempted, failed = n, res["failed"]

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
