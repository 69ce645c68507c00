"""Command line interface.

Exit codes: 0 success, 1 a mathematical self-check failed, 2 rejected input,
3 a size bound was exceeded, 141 stdout closed by its reader.  Randomized
modes require an explicit seed and produce byte-identical output for the same
arguments and seed; exhaustive modes are the default whenever they fit within
the configured bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .arcs import Arc, search_maximal_arcs
from .conic import parse_conic
from .errors import BoundExceeded, GuardedInputError, InternalCheckFailed
from .gf import parse_field
from .pg2 import ProjPoint, parse_point, plane, verify_axioms
from .segre import (
    desargues_axis,
    lemma_of_tangents,
    reconstruct_conic,
    sample_perspective_triangles,
    tangent_frame,
)

_STANDARD_CONIC = "[1:0:0:0:0:-1]"


def _read_points(spec, value) -> list:
    """Points from an inline "[a:b:c] [d:e:f] ..." string, stdin, or a file."""
    if "[" in value:
        # separators between "[a:b:c]" groups may be spaces or commas
        tokens = [t.strip(",") for t in value.replace("]", "] ").split()]
        return [parse_point(spec, tok) for tok in tokens if tok]
    if value == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(value, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    pts = []
    for raw in lines:
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        pts.append(parse_point(spec, s))
    return pts


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_plane_info(args) -> int:
    spec = parse_field(args.field)
    pl = plane(spec)
    payload = {
        "field": spec.to_text(),
        "order": spec.q,
        "points": len(pl.points),
        "lines": len(pl.lines),
        "points_per_line": spec.q + 1,
        "lines_per_point": spec.q + 1,
    }
    rc = 0
    if args.no_verify or spec.q > args.max_order:
        payload["axioms_ok"] = None
        note = f"skipped (q > {args.max_order}; raise --max-order to force)" \
            if not args.no_verify else "skipped (--no-verify)"
        payload["axioms_note"] = note
    else:
        report = verify_axioms(spec, max_order=args.max_order)
        payload["axioms_ok"] = report.ok
        if not report.ok:
            rc = 1
    lines = [f"{k}: {v}" for k, v in payload.items()]
    _emit(args, payload, lines)
    return rc


def _cmd_conic_variety(args) -> int:
    spec = parse_field(args.field)
    conic = parse_conic(spec, args.conic)
    pts = conic.variety()
    report = conic.nondegeneracy()
    pl = plane(spec)
    tangents = [[pl.lines[li].to_text() for li in tl]
                for tl in pl.tangents([pl.index(p) for p in pts])]
    payload = {
        "field": spec.to_text(),
        "conic": conic.to_ints(),
        "variety_size": len(pts),
        "points": [p.to_text() for p in pts],
        "tangents": tangents,
        "combinatorial_ok": report.combinatorial_ok,
        "gradient_ok": report.gradient_ok,
        "nondegenerate": report.verdict,
    }
    lines = [
        f"field: {payload['field']}",
        f"conic: {conic.to_text()}",
        f"variety_size: {len(pts)}",
    ]
    for p, tl in zip(payload["points"], tangents):
        lines.append(f"point {p} tangents: {' '.join(tl) if tl else '(none)'}")
    lines += [
        f"combinatorial_ok: {report.combinatorial_ok}",
        f"gradient_ok: {report.gradient_ok}",
        f"nondegenerate: {report.verdict}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_oval_search(args) -> int:
    spec = parse_field(args.field)
    size = args.size if args.size is not None else spec.q + 1
    arcs = search_maximal_arcs(spec, size, limit=args.limit, max_order=args.max_order)
    payload = {
        "field": spec.to_text(),
        "size": size,
        "count": len(arcs),
        "arcs": [[p.to_text() for p in a.points] for a in arcs],
    }
    lines = [
        f"field: {payload['field']}",
        f"size: {size}",
        f"count: {len(arcs)}",
    ] + [" ".join(row) for row in payload["arcs"]]
    _emit(args, payload, lines)
    return 0


def _classic_pair(spec):
    """e1, e2, e3 and (-1, 1, 1), (1, -1, 1), (1, 1, -1), as canonical codes;
    the code of -1 is p - 1."""
    m = spec.p - 1
    tri1 = tuple(ProjPoint._of(spec, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    tri2 = tuple(ProjPoint._of(spec, v) for v in ((1, m, m), (1, m, 1), (1, 1, m)))
    return tri1, tri2


def _pair_payload(tri1, tri2) -> dict:
    result = desargues_axis(tri1, tri2)
    return {
        "triangle1": [p.to_text() for p in tri1],
        "triangle2": [p.to_text() for p in tri2],
        "center": result.center.to_text(),
        "meets": [m.to_text() for m in result.meets],
        "axis": result.axis.to_text(),
    }


def _cmd_desargues_demo(args) -> int:
    spec = parse_field(args.field)
    if args.random is not None and args.seed is None:
        raise GuardedInputError("--random requires --seed")
    if args.random is not None and args.random < 1:
        raise GuardedInputError(f"--random must be positive, got {args.random}")
    payload = {"field": spec.to_text()}
    pairs = []
    if args.random is None:
        if spec.p == 2:
            raise GuardedInputError(
                "the fixed demo configuration degenerates in characteristic 2 "
                "(-1 = 1); use --random K --seed S instead"
            )
        pairs.append(_pair_payload(*_classic_pair(spec)))
    else:
        payload["seed"] = args.seed
        rng = random.Random(args.seed)
        for _ in range(args.random):
            pairs.append(_pair_payload(*sample_perspective_triangles(spec, rng)))
    payload["pairs"] = pairs
    lines = [f"field: {payload['field']}"]
    if "seed" in payload:
        lines.append(f"seed: {payload['seed']}")
    for i, pr in enumerate(pairs):
        lines.append(f"pair {i}:")
        for k in ("triangle1", "triangle2", "meets"):
            lines.append(f"  {k}: {' '.join(pr[k])}")
        lines.append(f"  center: {pr['center']}")
        lines.append(f"  axis: {pr['axis']}")
    _emit(args, payload, lines)
    return 0


def _cmd_segre_verify(args) -> int:
    spec = parse_field(args.field)
    if spec.q % 2 == 0:
        raise GuardedInputError(f"tangent slope checks need odd q, got q={spec.q}")
    if args.samples is not None and args.seed is None:
        raise GuardedInputError("--samples requires --seed")
    if args.samples is not None and args.samples < 1:
        raise GuardedInputError(f"--samples must be positive, got {args.samples}")
    if args.samples is not None and args.exhaustive:
        raise GuardedInputError("--exhaustive and --samples are exclusive")
    payload = {"field": spec.to_text()}
    if args.samples is None:
        # exhaustive: every maximal oval found by search is reconstructed
        ovals = search_maximal_arcs(spec, spec.q + 1, max_order=args.max_order)
        # reconstruct_conic raises VerificationFailed on any failed check
        for oval in ovals:
            reconstruct_conic(oval)
        payload.update({"mode": "exhaustive", "ovals": len(ovals), "ok": len(ovals)})
    else:
        rng = random.Random(args.seed)
        oval = Arc(parse_conic(spec, _STANDARD_CONIC).variety(), _trusted=True)
        pts = oval.points
        ok = 0
        for _ in range(args.samples):
            base = [pts[i] for i in rng.sample(range(len(pts)), 3)]
            frame = tangent_frame(oval, base)
            lemma_of_tangents(frame)
            reconstruct_conic(oval, tuple(base))
            ok += 1
        payload.update({
            "mode": "sampled", "seed": args.seed,
            "oval_size": len(pts), "samples": args.samples, "ok": ok,
        })
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def _cmd_segre_reconstruct(args) -> int:
    spec = parse_field(args.field)
    oval = Arc(_read_points(spec, args.points))
    base = None
    if args.base:
        try:
            idx = [int(tok) for tok in args.base.split(",")]
        except ValueError:
            raise GuardedInputError(f"bad base index list {args.base!r}") from None
        if len(idx) != 3 or any(i < 0 or i >= oval.size for i in idx):
            raise GuardedInputError(f"base needs 3 indices in [0, {oval.size})")
        base = tuple(oval.points[i] for i in idx)
    conic, cert = reconstruct_conic(oval, base)
    if args.format == "text":
        print(f"conic: {conic.to_text()}")
        print(f"oracle_conic: [{':'.join(str(c) for c in cert.oracle_conic)}]")
        print(f"slopes: {','.join(str(k) for k in cert.slopes)}")
        print(f"identities_ok: {cert.identities_ok}")
        print(f"all_points_ok: {cert.all_points_ok}")
    else:
        print(cert.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galoisplane",
        description="Exact computations in PG(2, q): conics, arcs, ovals, "
                    "Desargues configurations, and conic reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="text"):
        p.add_argument("--format", choices=("text", "json"), default=default,
                       help=f"output format (default {default})")

    p_plane = sub.add_parser("plane", help="projective plane queries")
    plane_sub = p_plane.add_subparsers(dest="subcommand", required=True)
    p_info = plane_sub.add_parser("info", help="plane counts and axiom check")
    p_info.add_argument("--field", required=True, help="field, e.g. q=7 or q=3^2")
    p_info.add_argument("--no-verify", action="store_true",
                        help="skip the exhaustive axiom check")
    p_info.add_argument("--max-order", type=int, default=13,
                        help="cap for the axiom check (default 13)")
    add_format(p_info)
    p_info.set_defaults(func=_cmd_plane_info)

    p_conic = sub.add_parser("conic", help="conic queries")
    conic_sub = p_conic.add_subparsers(dest="subcommand", required=True)
    p_var = conic_sub.add_parser("variety", help="points, tangents, degeneracy")
    p_var.add_argument("--field", required=True)
    p_var.add_argument("--conic", required=True,
                       help="six coefficients [a:b:c:d:e:f] for "
                            "a*x^2+b*y^2+c*z^2+d*xy+e*xz+f*yz")
    add_format(p_var)
    p_var.set_defaults(func=_cmd_conic_variety)

    p_oval = sub.add_parser("oval", help="arc and oval search")
    oval_sub = p_oval.add_subparsers(dest="subcommand", required=True)
    p_search = oval_sub.add_parser("search", help="exhaustive arc search")
    p_search.add_argument("--field", required=True)
    p_search.add_argument("--size", type=int, default=None,
                          help="arc size to search for (default q+1)")
    p_search.add_argument("--limit", type=int, default=None,
                          help="stop after this many arcs")
    p_search.add_argument("--max-order", type=int, default=7,
                          help="cap on q for exhaustive search (default 7)")
    add_format(p_search)
    p_search.set_defaults(func=_cmd_oval_search)

    p_des = sub.add_parser("desargues", help="perspective triangle pairs")
    des_sub = p_des.add_subparsers(dest="subcommand", required=True)
    p_demo = des_sub.add_parser(
        "demo", help="classic configuration, or seeded random pairs")
    p_demo.add_argument("--field", required=True)
    p_demo.add_argument("--random", type=int, default=None, metavar="K",
                        help="sample K random perspective pairs")
    p_demo.add_argument("--seed", type=int, default=None,
                        help="seed, required with --random")
    add_format(p_demo)
    p_demo.set_defaults(func=_cmd_desargues_demo)

    p_segre = sub.add_parser("segre", help="tangent slopes and reconstruction")
    segre_sub = p_segre.add_subparsers(dest="subcommand", required=True)
    p_verify = segre_sub.add_parser(
        "verify",
        help="reconstruct every oval (default) or seeded random base triples")
    p_verify.add_argument("--field", required=True)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="force exhaustive mode (the default)")
    p_verify.add_argument("--samples", type=int, default=None, metavar="K",
                          help="check K seeded random base triples instead")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed, required with --samples")
    p_verify.add_argument("--max-order", type=int, default=7,
                          help="cap on q for the exhaustive search (default 7)")
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_segre_verify)

    p_rec = segre_sub.add_parser(
        "reconstruct", help="recover the conic through a maximal oval")
    p_rec.add_argument("--field", required=True)
    p_rec.add_argument("--points", required=True,
                       help="file of points, '-' for stdin, or inline "
                            "\"[a:b:c] [d:e:f] ...\"")
    p_rec.add_argument("--base", default=None,
                       help="three comma-separated indices into the oval")
    add_format(p_rec, default="json")
    p_rec.set_defaults(func=_cmd_segre_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a reader gone early fails here, not at exit
        return rc
    except BrokenPipeError:
        # stdout's reader closed it (`| head`): silence the exit-time flush
        # and exit 128 + SIGPIPE, as a Unix filter killed by the signal does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
