"""Command line behavior: output shape, exit codes, and reproducibility."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from galoisplane.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _run_text(*argv):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run(*argv):
    """In-process invocation; returns (exit_code, stdout_lines)."""
    code, out, _ = _run_text(*argv)
    return code, out.splitlines()


def _run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "galoisplane", *argv],
        capture_output=True, text=True,
    )


def test_plane_info_text():
    code, lines = _run("plane", "info", "--field", "q=5")
    assert code == 0
    assert "points: 31" in lines
    assert "lines: 31" in lines
    assert "axioms_ok: True" in lines


def test_plane_info_json_skips_beyond_cap():
    code, lines = _run("plane", "info", "--field", "q=17", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["points"] == 17 * 17 + 17 + 1
    assert payload["axioms_ok"] is None
    code2, lines2 = _run("plane", "info", "--field", "q=17", "--max-order", "17",
                         "--format", "json")
    assert code2 == 0
    assert json.loads("\n".join(lines2))["axioms_ok"] is True


def test_conic_variety_json():
    code, lines = _run("conic", "variety", "--field", "q=5",
                       "--conic", "[1:0:0:0:0:-1]", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["variety_size"] == 6
    assert payload["nondegenerate"] is True
    assert payload["conic"] == [1, 0, 0, 0, 0, 4]
    assert set(payload["points"]) == {
        "[0:1:0]", "[0:0:1]", "[1:1:1]", "[1:2:3]", "[1:3:2]", "[1:4:4]"}
    assert all(len(t) == 1 for t in payload["tangents"])


def test_oval_search_counts():
    code, lines = _run("oval", "search", "--field", "q=3", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["count"] == 234
    assert payload["size"] == 4


def test_oval_search_limit_and_size():
    code, lines = _run("oval", "search", "--field", "q=5", "--size", "4",
                       "--limit", "3", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["count"] == 3
    assert all(len(a) == 4 for a in payload["arcs"])


def test_desargues_demo_classic():
    code, lines = _run("desargues", "demo", "--field", "q=5")
    assert code == 0
    text = "\n".join(lines)
    assert "center: [1:1:1]" in text
    assert "axis: [1:1:1]" in text
    assert "meets: [1:4:0] [1:0:4] [0:1:4]" in text


def test_desargues_demo_random_seeded():
    code, lines = _run("desargues", "demo", "--field", "q=7",
                       "--random", "3", "--seed", "9", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["seed"] == 9
    assert len(payload["pairs"]) == 3


def test_segre_verify_exhaustive_q3():
    code, lines = _run("segre", "verify", "--field", "q=3", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["mode"] == "exhaustive"
    assert payload["ovals"] == 234
    assert payload["ok"] == 234


def test_segre_verify_sampled():
    code, lines = _run("segre", "verify", "--field", "q=9",
                       "--samples", "4", "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads("\n".join(lines))
    assert payload["mode"] == "sampled"
    assert payload["ok"] == 4


def test_segre_reconstruct_inline_json_key_order():
    code, lines = _run(
        "segre", "reconstruct", "--field", "q=5", "--points",
        "[1:1:1] [1:2:3] [1:3:2] [1:4:4] [0:1:0] [0:0:1]")
    assert code == 0
    payload = json.loads("\n".join(lines), object_pairs_hook=list)
    keys = [k for k, _ in payload]
    assert keys == ["field", "oval", "base_triple", "frame_matrix", "slopes",
                    "conic", "oracle_conic", "identities_ok", "all_points_ok"]
    d = dict(payload)
    assert d["conic"] == [1, 0, 0, 0, 0, 4]
    assert d["conic"] == d["oracle_conic"]
    assert d["identities_ok"] is True and d["all_points_ok"] is True

    # comma separated inline points give the same certificate
    code2, lines2 = _run(
        "segre", "reconstruct", "--field", "q=5", "--points",
        "[1:1:1],[1:2:3],[1:3:2],[1:4:4],[0:1:0],[0:0:1]")
    assert code2 == 0
    assert lines2 == lines


def test_segre_reconstruct_stdin_and_base(tmp_path):
    pts = "[1:1:1]\n[1:2:3]\n[1:3:2]\n[1:4:4]\n[0:1:0]\n[0:0:1]\n"
    f = tmp_path / "oval.txt"
    f.write_text("# comment line\n" + pts)
    code, lines = _run("segre", "reconstruct", "--field", "q=5",
                       "--points", str(f), "--base", "0,4,5",
                       "--format", "text")
    assert code == 0
    assert lines[0] == "conic: [1:0:0:0:0:4]"
    proc = subprocess.run(
        [sys.executable, "-m", "galoisplane", "segre", "reconstruct",
         "--field", "q=5", "--points", "-"],
        input=pts, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conic"] == [1, 0, 0, 0, 0, 4]


def test_byte_identical_reruns():
    argv = ("segre", "verify", "--field", "q=7", "--samples", "3",
            "--seed", "123", "--format", "json")
    a = _run_proc(*argv)
    b = _run_proc(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    argv2 = ("desargues", "demo", "--field", "q=9", "--random", "2",
             "--seed", "5", "--format", "json")
    c = _run_proc(*argv2)
    d = _run_proc(*argv2)
    assert c.stdout == d.stdout and c.returncode == 0


def test_exit_code_guarded_inputs():
    cases = [
        ("plane", "info", "--field", "q=6"),
        ("segre", "verify", "--field", "q=4"),
        ("desargues", "demo", "--field", "q=5", "--random", "2"),
        ("desargues", "demo", "--field", "q=4"),
        ("segre", "verify", "--field", "q=5", "--samples", "3"),
        ("segre", "reconstruct", "--field", "q=5",
         "--points", "[1:1:1] [1:2:3] [1:3:2] [1:4:4] [0:1:0]"),
        ("segre", "reconstruct", "--field", "q=5",
         "--points", "[1:1:1] [1:2:3] [1:3:2] [1:4:4] [0:1:0] [0:0:1]",
         "--base", "0,1"),
        ("conic", "variety", "--field", "q=5", "--conic", "[0:0:0:0:0:0]"),
    ]
    for argv in cases:
        proc = _run_proc(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("k", ["0", "-2"])
def test_sample_counts_below_one_are_rejected(k):
    """A K below 1 for --samples or --random exits 2 with an error and
    prints nothing, as `oval search --limit 0` does."""
    for argv, flag in ((("segre", "verify", "--field", "q=5"), "--samples"),
                       (("desargues", "demo", "--field", "q=5"), "--random")):
        code, out, err = _run_text(*argv, flag, k, "--seed", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be positive, got {int(k)}\n"


@pytest.mark.parametrize("conic, reason", [
    ("[1:0:0:0:0:x]", "invalid literal for int() with base 10: 'x'"),
    ("1,0,0,0,0,9", "element code 9 out of range for GF(7)"),
])
def test_bad_conic_coefficient_names_the_conic(conic, reason):
    """A coefficient that is no element code is reported with the conic's
    text, as a bad point coordinate is, and exits 2 with nothing printed."""
    code, out, err = _run_text("conic", "variety", "--field", "q=7", "--conic", conic)
    assert (code, out) == (2, "")
    assert err == f"error: bad coefficient in {conic!r}: {reason}\n"


def test_exit_code_bound_exceeded():
    proc = _run_proc("oval", "search", "--field", "q=9")
    assert proc.returncode == 3
    proc2 = _run_proc("segre", "verify", "--field", "q=11")
    assert proc2.returncode == 3
    proc3 = _run_proc("plane", "info", "--field", "q=16411")
    assert proc3.returncode == 3


def test_missing_points_file():
    proc = _run_proc("segre", "reconstruct", "--field", "q=5",
                     "--points", "/nonexistent/path.txt")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv, lines_read", [
    # about 149 kB, more than a pipe holds: the reader goes mid-output
    (("oval", "search", "--field", "q=5"), 1),
    # a few lines, still in stdout's buffer when the run ends
    (("plane", "info", "--field", "q=5"), 0),
])
def test_closed_stdout_exits_141_quietly(argv, lines_read):
    """A reader that closes stdout early, as `| head -1` or `| true` does,
    ends the run with exit code 141 (128 + SIGPIPE) and nothing on stderr,
    with stdout block-buffered as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "galoisplane", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


def test_console_script_entry():
    proc = _run_proc("--help")
    assert proc.returncode == 0
    assert "plane" in proc.stdout and "segre" in proc.stdout


@pytest.mark.parametrize("field, conic", [
    ("q=7", "[1:0:0:0:0:-1]"),    # non-degenerate: one tangent per point
    ("q=7", "[0:0:0:1:0:0]"),     # line pair xy
    ("q=7", "[1:1:0:0:0:0]"),     # x^2 + y^2: the single point [0:0:1]
    ("q=8", "[1:1:0:0:0:0]"),     # (x + y)^2: a double line
    ("q=9", "[1:0:0:0:0:1]"),
])
def test_conic_variety_tangents_match_combinatorial_tangents(field, conic):
    """The CLI lists each point's tangents from one line count over the
    variety; they are `combinatorial_tangents` of that point, in the same
    order."""
    from galoisplane.conic import combinatorial_tangents, parse_conic
    from galoisplane.gf import parse_field

    c = parse_conic(parse_field(field), conic)
    code, out, _ = _run_text("conic", "variety", "--field", field,
                             "--conic", conic, "--format", "json")
    assert code == 0
    got = json.loads(out)["tangents"]
    assert got == [[l.to_text() for l in combinatorial_tangents(c, p)]
                   for p in c.variety()]


@pytest.mark.parametrize(
    "case", json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")),
    ids=lambda case: case["name"],
)
def test_golden_output(case):
    """Exit code, stdout and stderr of every README example, the q=5
    certificate, a degenerate variety, three rejected inputs, five
    extension-field runs, three more arc searches, three varieties over
    GF(121), GF(128) and GF(32), a sampled `segre verify` over GF(121)
    (3 samples, seed 4), a JSON `segre reconstruct` at q=7 with the
    explicit base 6,1,3, two seeded `desargues demo` runs on the large
    planes (`--field q=121 --random 2 --seed 3`, and `--field q=128
    --random 2 --seed 3 --format json`) and the errors for an all-zero
    conic and an all-zero point, and the errors for a negative
    `segre verify --samples` and `desargues demo --random`, byte for byte as
    recorded in tests/golden/ (a missing .err file means no stderr)."""
    code, out, err = _run_text(*case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
    err_file = GOLDEN / f"{case['name']}.err"
    assert err == (err_file.read_bytes().decode("utf-8") if err_file.exists() else "")
