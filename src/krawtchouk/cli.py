"""Command-line front door.

Subcommands: ``gen`` (emit a matrix), ``verify`` (run identity suites),
``pathsum``, ``transform``, ``snake``, ``macwilliams``, ``pyramid``.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import core, generalized, gf2, hadamard, pathsum, spectral, sympow, verify
from .core import DEFAULT_ORDER_BOUND
from .matrix import Matrix
from .rings import parse_rational

USAGE_ERROR = 2


def parse_phi(text: str) -> float:
    """Accept 'pi', 'pi/2', '3pi/4', or a plain decimal; refuse a zero
    divisor and an angle that is not finite."""
    text = text.strip().lower().replace(" ", "")
    if "pi" in text:
        head, _, tail = text.partition("pi")
        factor = float(head) if head not in ("", "+", "-") else float(head + "1")
        if tail.startswith("/"):
            divisor = float(tail[1:])
            if divisor == 0:
                raise ValueError(f"angle {text!r} divides by zero")
            factor /= divisor
        elif tail:
            raise ValueError(f"cannot parse angle {text!r}")
        phi = factor * math.pi
    else:
        phi = float(text)
    if not math.isfinite(phi):
        raise ValueError(f"angle {text!r} is not finite")
    return phi


def emit_matrix(mat: Matrix, fmt: str) -> str:
    if fmt == "pretty":
        return mat.pretty()
    if fmt == "json":
        return mat.to_json()
    return mat.to_csv().rstrip("\n")


def cmd_gen(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > DEFAULT_ORDER_BOUND:
        print(f"warning: order {n} beyond {DEFAULT_ORDER_BOUND}; "
              "output will be large", file=sys.stderr)
    if args.kind == "krawtchouk":
        mat = core.k_genfunc(n).mat
    elif args.kind == "symmetric":
        mat = core.k_symmetric(n)
    elif args.kind == "kac":
        mat = core.kac_matrix(n)
    elif args.kind == "lambda":
        mat = core.lambda_matrix(n)
    elif args.kind == "binomial":
        mat = spectral.binomial_matrix(n)
    elif args.kind == "sylvester":
        sympow.require_kron_order(n)  # before anything is allocated
        mat = sympow.kron_power(sympow.MAT_H, n)
    elif args.kind == "general":
        if args.alpha is None and args.beta is None:
            mat = generalized.k_general_symbolic(n)
        else:
            alpha = int(args.alpha if args.alpha is not None else 1)
            beta = int(args.beta if args.beta is not None else -1)
            mat = generalized.k_general(n, alpha, beta)
    else:  # phase
        mat = generalized.k_phase(n, parse_phi(args.phi))
    print(emit_matrix(mat, args.format))
    return 0


def cmd_verify(args) -> int:
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        print("no suites requested", file=sys.stderr)
        return USAGE_ERROR
    try:
        reports = verify.run_suites(names, n_max=args.n_max, seed=args.seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return USAGE_ERROR
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    all_ok = all(r.ok for r in reports)
    for r in reports:
        status = "pass" if r.ok else f"FAIL ({len(r.failures)} failures)"
        print(f"{r.suite}: {status}", file=sys.stderr)
    return 0 if all_ok else 1


def cmd_pathsum(args) -> int:
    print(pathsum.path_sum(args.n, args.p, args.q, args.alpha, args.beta))
    return 0


def _parse_vector(text: str):
    return [parse_rational(part) for part in text.split(",")]


def cmd_transform(args) -> int:
    if args.covector is not None:
        out = core.covector_transform(args.n, _parse_vector(args.covector))
    elif args.vector is not None:
        out = core.k_genfunc(args.n).mat.mul_vector(_parse_vector(args.vector))
    else:
        raise ValueError("need --covector or --vector")
    print(",".join(str(x) for x in out))
    return 0


def _out_path(outdir: str, name: str) -> str:
    """outdir/name spelled as pathlib spells it on POSIX: empty and '.'
    parts dropped, and a leading '//' kept only when exactly two."""
    root = outdir[:len(outdir) - len(outdir.lstrip("/"))]
    root = root if root == "//" else root[:1]
    parts = [part for part in outdir.split("/") if part not in ("", ".")]
    return root + "/".join(parts + [name])


def _write(outdir: str, name: str, text: str) -> str:
    path = _out_path(outdir, name)
    with open(path, "w") as out:
        out.write(text)
    return path


def cmd_snake(args) -> int:
    k = generalized.k_phase(args.n, parse_phi(args.phi))
    svg = generalized.snake_svg(k)  # refuses order 0 before any file exists
    os.makedirs(args.out or ".", exist_ok=True)
    written = [_write(args.out, f"snake_n{args.n}_col{q}.csv",
                      generalized.snake_csv(k, q))
               for q in range(1, args.n + 1)]
    written.append(_write(args.out, f"snake_n{args.n}.svg", svg))
    for path in written:
        print(path)
    return 0


def cmd_macwilliams(args) -> int:
    vectors = [s.strip() for s in args.basis.split(",") if s.strip()]
    space = gf2.subspace_from(vectors, args.n)
    report = gf2.macwilliams_check(space)
    char = gf2.weight_character(space)
    perp_char = gf2.weight_character(gf2.complement(space))
    mark = "ok" if report.ok else "MISMATCH"
    print(f"{2 ** space.dim}*{perp_char} = K*{char} ... {mark}")
    return 0 if report.ok else 1


def cmd_pyramid(args) -> int:
    plane = hadamard.pyramid_plane(args.direction, args.depth, args.rows)
    if args.format == "csv":
        for row in plane:
            print(",".join(str(x) for x in row))
    else:
        width = max(len(str(x)) for row in plane for x in row) + 1
        total = len(plane[-1])
        for row in plane:
            pad = " " * (width * (total - len(row)) // 2)
            print(pad + "".join(str(x).rjust(width) for x in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krawtchouk",
        description="Exact Krawtchouk matrices: generation, verification, "
                    "transforms, path sums, and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit one matrix")
    p.add_argument("kind", choices=["krawtchouk", "symmetric", "kac", "lambda",
                                    "binomial", "sylvester", "general", "phase"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", default="pretty",
                   choices=["pretty", "json", "csv"])
    p.add_argument("--alpha", default=None, help="integer alpha for 'general'")
    p.add_argument("--beta", default=None, help="integer beta for 'general'")
    p.add_argument("--phi", default="pi/2",
                   help="phase for 'phase': pi, pi/2, or a decimal")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suites", default="all",
                   help=f"comma list from: all, {', '.join(sorted(verify.SUITES))}")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pathsum", help="one Feynman-style path sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--beta", type=int, default=-1)
    p.set_defaults(func=cmd_pathsum)

    p = sub.add_parser("transform", help="apply K to a vector or covector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--covector", default=None,
                   help="comma-separated rationals, acted on from the right")
    p.add_argument("--vector", default=None,
                   help="comma-separated rationals, acted on from the left")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("snake", help="emit snake-figure CSV/SVG files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", default="pi/2")
    p.add_argument("--out", default="snakes")
    p.set_defaults(func=cmd_snake)

    p = sub.add_parser("macwilliams", help="check one binary subspace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", required=True,
                   help="comma-separated bitstrings, e.g. 110,001")
    p.set_defaults(func=cmd_macwilliams)

    p = sub.add_parser("pyramid", help="emit a Pascal-like pyramid plane")
    p.add_argument("--direction", required=True, choices=hadamard.DIRECTIONS)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--rows", type=int, default=6)
    p.add_argument("--format", default="pretty", choices=["pretty", "csv"])
    p.set_defaults(func=cmd_pyramid)

    return parser


def _join_phi(argv) -> list:
    """Write ``--phi VALUE`` as ``--phi=VALUE``.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number, such as ``-pi/2``, for an option and not for the angle.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--phi":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_phi(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValueError as exc:  # a value the command cannot take
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
