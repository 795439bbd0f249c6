"""Command line driver.

Three subcommands: `convergence` sweeps mesh sizes and writes a CSV of
mean errors and endpoint rates; `tail` estimates the error tail over
repeated noise draws; `mesh` writes a mesh in the plain text format.
Floats are written with 17 significant digits, so output bytes are
reproducible run to run.  Exit codes: 0 success, 2 invalid
configuration, 3 solver failure.  The environment variable
OBSFEM_THREADS caps the worker count for trial-parallel studies
(a positive integer, default 1, fully serial).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .analysis import estimate_rates, run_study, tail_study
from .mesh import _fmt, build_mesh, mesh_quality, read_mesh_text, write_mesh_text
from .observations import _SUB_BLOCK, NoiseModel
from .solver import SingularSystemError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


# A level holds at least the two coordinates of each mesh vertex (16 B),
# and a pass holds three window buffers (t, alpha and the work array,
# 24 B per site of a window).  A window holds min(sites, 2^16) sites, so
# min(sites, 2^15) is a lower bound on it.
_VERTEX_BYTES = 16
_WINDOW_SITE_BYTES = 24


def _level_bytes(vertices: float, sites: float) -> float:
    """A lower bound on the bytes one level of this many mesh vertices
    and observation sites holds."""
    return _VERTEX_BYTES * vertices + _WINDOW_SITE_BYTES * min(sites, _SUB_BLOCK // 2)


def _refuse_beyond_memory(what: str, need: float, detail: str) -> None:
    """Refuse `what` (a flag and its value) before anything is built if
    `need` bytes reach physical memory; `detail` names what they hold."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # unknown: refuse only infinite sizes
        memory = math.inf
    if not need < memory:
        raise ValueError(f"{what} needs at least {need / 1e9:.3g} GB ({detail}); physical memory is "
                         f"{memory / 1e9:.3g} GB")


def _mesh_sizes(args, workers: int) -> list[int]:
    """Map the comma-separated --h values to k = round(1/h).

    Each pool worker holds one level at a time, so an h whose level,
    times the workers, cannot fit in physical memory is refused here,
    before any mesh is built.
    """
    ks = []
    for part in args.h.split(","):
        try:
            h = float(part)
        except ValueError:
            raise ValueError(f"--h: {part!r} is not a number") from None
        if not (0.0 < h <= 0.5):
            raise ValueError(f"--h: mesh parameter h={h} out of range (0, 0.5]")
        k = 1.0 / h
        # Sizes beyond float range become inf (products, not powers).
        vertices = (k + 1.0) * (k + 1.0)  # no more than either domain has
        if args.n is not None:
            sites = float(args.n) if args.n <= sys.float_info.max else math.inf
        else:
            sites = math.prod([k] * args.i) if args.i in (1, 2, 3, 4) else 0.0
        _refuse_beyond_memory(f"--h: h={h:g}", workers * _level_bytes(vertices, sites),
                              f"{vertices:.3g} vertices, {sites:.3g} sites, {workers} worker(s)")
        ks.append(int(round(k)))
    if len(set(ks)) != len(ks):
        raise ValueError("--h: mesh parameters collapse to duplicate sizes")
    return ks


def _workers() -> int:
    """Worker count from OBSFEM_THREADS: a positive integer, default 1."""
    text = os.environ.get("OBSFEM_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"OBSFEM_THREADS must be a positive integer, got {text!r}")
    return workers


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line (exit 2), like
    every other configuration error, instead of usage text."""

    def error(self, message):
        raise ValueError(message)


def _noise_from_args(args) -> NoiseModel | None:
    if args.noise == "none":
        return None
    if args.noise == "gaussian":
        return NoiseModel.gaussian(args.sigma)
    return NoiseModel.mixture(args.sigma1, args.sigma2, args.p)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True, choices=["square", "disk"])
    p.add_argument("--h", required=True, help="comma-separated nominal mesh sizes, e.g. 0.1,0.05")
    p.add_argument("--i", type=int, default=None, help="observation count exponent: n = round(h^-i)")
    p.add_argument("--n", type=int, default=None, help="explicit observation count (overrides --i)")
    p.add_argument("--noise", choices=["none", "gaussian", "mixture"], default="gaussian")
    p.add_argument("--sigma", type=float, default=2.0, help="gaussian noise standard deviation")
    p.add_argument("--sigma1", type=float, default=1.0, help="mixture component 1 std")
    p.add_argument("--sigma2", type=float, default=10.0, help="mixture component 2 std")
    p.add_argument("--p", type=float, default=0.5, help="mixture probability of component 1")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_convergence(args) -> int:
    model = _noise_from_args(args)
    workers = _workers()
    ks = _mesh_sizes(args, workers)
    table = run_study(
        args.domain, ks, i=args.i, n=args.n, model=model,
        trials=args.trials, seed=args.seed, workers=workers,
    )
    sigma = model.std if model is not None else 0.0
    lines = ["domain,h,n,i,sigma,seed_count,l2_mean,l2_std,h1_mean,h1_std,lam_l2_mean,"
             "rate_l2_endpoint,rate_h1_endpoint"]
    rows = table.rows
    rate_l2 = rate_h1 = ""
    if len(rows) >= 2:
        hs = [r.h for r in rows]
        rate_l2 = _fmt(estimate_rates(hs, [r.l2_mean for r in rows]).endpoint)
        rate_h1 = _fmt(estimate_rates(hs, [r.h1_mean for r in rows]).endpoint)
    for idx, r in enumerate(rows):
        last = idx == len(rows) - 1
        lines.append(
            ",".join(
                [
                    args.domain,
                    _fmt(r.h),
                    str(r.n),
                    str(args.i) if args.i is not None else "",
                    _fmt(sigma),
                    str(r.trials),
                    _fmt(r.l2_mean),
                    _fmt(r.l2_std),
                    _fmt(r.h1_mean),
                    _fmt(r.h1_std),
                    _fmt(r.lam_l2_mean),
                    rate_l2 if last else "",
                    rate_h1 if last else "",
                ]
            )
        )
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_tail(args) -> int:
    model = _noise_from_args(args)
    workers = _workers()
    ks = _mesh_sizes(args, workers)
    if len(ks) != 1:
        raise ValueError("tail study takes exactly one mesh size")
    report = tail_study(
        args.domain, ks[0], i=args.i, n=args.n, model=model,
        trials=args.trials, seed=args.seed, workers=workers,
    )
    lines = ["z,survival,log_survival,fit_a,fit_b,r2"]
    if report.degenerate:
        sys.stderr.write("tail study degenerate: all errors identical (no noise?)\n")
    else:
        for z, s in zip(report.z, report.survival):
            lines.append(
                ",".join(
                    [_fmt(z), _fmt(s), _fmt(math.log(s)),
                     _fmt(report.fit_a), _fmt(report.fit_b), _fmt(report.r2)]
                )
            )
    _write(args.out, "\n".join(lines) + "\n")
    sys.stderr.write(
        f"trials={report.trials} median={report.median:.6g} p99={report.p99:.6g}\n"
    )
    return EXIT_OK


def cmd_mesh(args) -> int:
    if args.k < 2:
        raise ValueError(f"--k: mesh size parameter k={args.k} must be at least 2")
    side = args.k + 1.0 if args.k < sys.float_info.max else math.inf
    vertices = side * side  # no more than either domain has
    _refuse_beyond_memory(f"--k: k={args.k}", _VERTEX_BYTES * vertices, f"{vertices:.3g} vertices")
    mesh = build_mesh(args.domain, args.k)
    write_mesh_text(mesh, args.out)
    q = mesh_quality(read_mesh_text(args.out))
    sys.stdout.write(
        f"vertices={len(mesh.vertices)} triangles={len(mesh.triangles)} "
        f"boundary={q.boundary_elements} length={q.boundary_length:.12g} "
        f"max_aspect={q.max_aspect:.6g} diameter_ratio={q.diameter_ratio:.6g}\n"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="obsfem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convergence", help="mesh refinement study")
    _add_common(p_conv)
    p_conv.set_defaults(func=cmd_convergence)

    p_tail = sub.add_parser("tail", help="error tail study at one mesh size")
    _add_common(p_tail)
    p_tail.set_defaults(func=cmd_tail)

    p_mesh = sub.add_parser("mesh", help="write a mesh file")
    p_mesh.add_argument("--domain", required=True, choices=["square", "disk"])
    p_mesh.add_argument("--k", type=int, required=True, help="cells per side (square) or rings (disk)")
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=cmd_mesh)

    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help
        return EXIT_OK
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SingularSystemError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
