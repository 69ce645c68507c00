"""Smoke tests of the benchmark at tiny size (q <= 5, one block per phase).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle as own
import worker
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def gp():
    return worker.import_library()


def run_bench(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    text = "\n".join(lines[:-1])
    for m in wanted:
        assert f"{m['name']} = " in text and f" {m['unit']}" in text
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert "failed_ratio = 0 " in text
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    assert {"nproc", "python", "cpu", "commit", "seed"} <= set(meta)
    if trace:
        assert "tracing overhead" in text
    else:
        assert "samples beyond" in text and "n=" in text


def test_per_layer_table_matches_benchmark_json():
    assert [(n, u, b) for n, u, b, _, _ in PER_LAYER] == \
        [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("certify", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt(workload, request, answer):
    kind, payload = request
    if kind in ("oval", "reconstruct"):
        text, conic = answer
        cert = json.loads(text)
        cert["conic"][0] = (cert["conic"][0] + 1) % payload["q"]
        cert["oracle_conic"] = cert["conic"]
        return json.dumps(cert), conic
    if kind == "search":
        return answer[:-1] if answer else [object()]
    if kind == "wilson":
        return workload.specs[payload["q"]].zero()
    if kind == "inverses":
        return answer[1:] + answer[:1]
    if kind == "variety":
        return answer[0][1:], answer[1]
    if kind == "transform":
        return answer[0], answer[1][1:] + answer[1][:1]
    if kind == "desargues":
        tri1, tri2, result = answer
        m = result.meets
        return tri1, tri2, dataclasses.replace(result, meets=(m[1], m[0], m[2]))
    raise AssertionError(kind)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_answers_are_counted_not_raised(gp, name):
    w = WORKLOADS[name](gp, tiny=True)
    w.setup()
    blocks = w.blocks(5)
    clean = worker.run_phase(blocks, w.execute, w.check, label=w.label, max_blocks=1)
    assert clean.attempted >= 1 and clean.failed == 0

    corrupted = worker.run_phase(
        blocks, lambda r: _corrupt(w, r, w.execute(r)), w.check, label=w.label, max_blocks=1)
    assert corrupted.failed == corrupted.attempted

    def boom(request):
        raise RuntimeError("injected")

    raised = worker.run_phase(blocks, boom, w.check, label=w.label, max_blocks=1)
    assert raised.failed == raised.attempted and raised.first_error


def test_collinear_search_result_is_caught(gp):
    w = WORKLOADS["search"](gp, tiny=True)
    w.setup()
    request = next(r for r in w.blocks(1)[0] if r[1]["limit"] is None and r[1]["expected"])
    arcs = w.execute(request)
    spec = w.specs[request[1]["q"]]
    line = gp.plane(spec).line_points[0]
    bad = gp.Arc([gp.plane(spec).points[i] for i in line[:request[1]["size"]]], _trusted=True)
    assert w.check(request, arcs)
    assert not w.check(request, [bad] + arcs[1:])


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_oracle_field_matches_library_tables(gp, q):
    spec = gp.make_field(*own.prime_power(q))
    F = own.Field(*own.prime_power(q))
    assert F.modulus == tuple(spec.modulus)
    add, mul, neg, inv = spec.op_tables()
    for a in range(q):
        assert neg[a] == F.neg(a)
        for b in range(q):
            assert add[a][b] == F.add(a, b) and mul[a][b] == F.mul(a, b)
        if a:
            assert inv[a] == F.inv(a)


def test_tracer_rebinds_imported_names_and_restores_them(gp):
    from galoisplane import pg2, segre
    original = pg2.join
    tracer = Tracer(gp)
    tracer.install()
    try:
        assert segre.join is pg2.join is gp.join and pg2.join is not original
        spec = gp.make_field(5)
        one, zero = spec.one(), spec.zero()
        tracer.request = 0
        gp.join(gp.ProjPoint((one, zero, zero)), gp.ProjPoint((zero, one, zero)))
    finally:
        tracer.uninstall()
    assert pg2.join is original and segre.join is original
    calls, _, _ = tracer.span_stats()
    assert calls["pg2.join"] == 1 and calls["linalg.nullspace"] == 1
    assert tracer.metrics(0, 0)["gf.elem_ops"] > 0
