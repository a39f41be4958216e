"""Command-line front end: sampling, tracing, estimation scans, verification
and SVG rendering.

Outputs are byte-reproducible: no timestamps, sorted JSON keys, and every
report echoes the fully resolved run configuration.  Exit codes: 0 success,
1 runtime or degeneracy failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .estimators import (
    ArmEventSpec,
    CrossingEventSpec,
    correlation_estimate,
    crosses_circle_event,
    estimate_probability,
    h1_scan,
    arm_decay_scan,
    hits_disk_event,
    invasion_domination_check,
    parker_cowan_check,
    property_void_scan,
    run_trials,
)
from .events import invasion_sequence
from .exploration import DegeneracyError, TraceError, build_arrangement, trace_exploration
from .geometry import Annulus, Box, Point
from .measures import (
    BallShape,
    RadiusAtLeast,
    RadiusBelow,
    SegmentShape,
    lr1_measure,
    mu_double_circle,
    mu_hit,
)
from .reports import FitError
from .soup import (
    Configuration,
    DiskWindow,
    SoupParams,
    configuration_from_jsonl,
    configuration_to_jsonl,
    sample_configuration,
)


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # usage text on stderr, exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key = value): {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# types of config-file keys (mirror the flag spellings with - replaced by _)
_OPTION_TYPES: dict[str, type] = {
    "u": float, "alpha": float, "rmin": float, "seed": int, "trials": int,
    "window_radius": float, "window_cx": float, "window_cy": float,
    "l1": float, "l2": float, "l": float, "k": float, "m": int,
    "mmax": int, "scan_mmax": int, "r": float, "t": float, "size": float,
    "out": str, "csv": str, "svg": str, "infile": str, "balls": str,
    "shape": str, "range_kind": str,
}


def _parse_box(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


def _merge_config(args: argparse.Namespace):
    """Fill unset arguments from the --config file; explicit flags win."""
    file_values = _read_config_file(args.config)
    for key, raw in file_values.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if key == "box":
            setattr(args, key, _parse_box(raw))
        elif key == "k" and args.command == "estimate" and getattr(args, "estimator", "") == "h1":
            setattr(args, key, int(raw))
        else:
            setattr(args, key, _OPTION_TYPES.get(key, str)(raw))


def _common_output(config: dict, result) -> str:
    return json.dumps(
        {"config": config, "version": __version__, "result": result},
        sort_keys=True,
    ) + "\n"


def _write(path: str | None, payload: str):
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _need(args, *keys):
    missing = [k for k in keys if getattr(args, k, None) is None]
    if missing:
        raise ValueError(
            "missing required option(s): "
            + ", ".join("--" + k.replace("_", "-") for k in missing)
        )


def _window(args) -> DiskWindow:
    cx = args.window_cx if args.window_cx is not None else 0.0
    cy = args.window_cy if args.window_cy is not None else 0.0
    return DiskWindow(Point(cx, cy), args.window_radius)


def _box_from(args) -> Box:
    x0, y0, x1, y1 = args.box
    return Box(Point(x0, y0), Point(x1, y1))


def render_svg(c: Configuration | None, path, box: Box, out: str) -> None:
    """Write an SVG scene: box outline, clipped sticks, optional traced path.

    ``path`` is an ExplorationResult or None.  Elements appear in
    deterministic order (box, sticks by index, path).
    """
    pad = 0.03 * box.diagonal()
    x0, y0 = box.min.x - pad, box.min.y - pad
    w = box.width() + 2 * pad
    h = box.height() + 2 * pad
    flip = box.min.y + box.max.y  # SVG y grows downward

    def fy(y: float) -> float:
        return flip - y

    stroke = max(box.diagonal() / 900.0, 1e-6)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.6f} {flip - y0 - h:.6f} {w:.6f} {h:.6f}">',
        f'<rect x="{box.min.x:.6f}" y="{fy(box.max.y):.6f}" width="{box.width():.6f}" '
        f'height="{box.height():.6f}" fill="none" stroke="black" stroke-width="{2 * stroke:.6f}"/>',
    ]
    if c is not None:
        from .geometry import batch_clip_to_box

        keep, clipped = batch_clip_to_box(c.segments(), box)
        for xx1, yy1, xx2, yy2 in clipped:
            lines.append(
                f'<line x1="{xx1:.6f}" y1="{fy(yy1):.6f}" x2="{xx2:.6f}" y2="{fy(yy2):.6f}" '
                f'stroke="#555555" stroke-width="{stroke:.6f}"/>'
            )
    if path is not None:
        pts = " ".join(f"{x:.6f},{fy(y):.6f}" for x, y in path.path.coords)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="#cc0000" '
            f'stroke-width="{3 * stroke:.6f}"/>'
        )
    _write(out, "\n".join(lines) + "\n</svg>\n")


def _add_soup_options(p, window=True):
    p.add_argument("--config", type=str, default=None, help="key = value file")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rmin", dest="rmin", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    if window:
        p.add_argument("--window-radius", dest="window_radius", type=float, default=None)
        p.add_argument("--window-cx", dest="window_cx", type=float, default=None)
        p.add_argument("--window-cy", dest="window_cy", type=float, default=None)


def _fill_defaults(args):
    if getattr(args, "alpha", None) is None:
        args.alpha = 2.0
    if getattr(args, "seed", None) is None:
        args.seed = 0
    # the box-crossing threshold intensity is unknown; warn rather than validate
    if getattr(args, "u", None) is not None and args.u > 0.5:
        print(
            f"note: u = {args.u} may be above the crossing-property regime "
            "(u <= 0.5 suggested)",
            file=sys.stderr,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="sticksoup")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[], help="sample a configuration to JSONL")
    _add_soup_options(p)

    p = sub.add_parser("trace", help="sample, trace a box exploration, emit JSON")
    _add_soup_options(p, window=False)
    p.add_argument("--box", nargs=4, type=float, default=None, metavar=("X0", "Y0", "X1", "Y1"))
    p.add_argument("--svg", type=str, default=None)

    p = sub.add_parser("estimate", help="Monte Carlo estimators")
    est = p.add_subparsers(dest="estimator", required=True)

    q = est.add_parser("arm")
    _add_soup_options(q)
    q.add_argument("--l1", type=float, default=None)
    q.add_argument("--l2", type=float, default=None)
    q.add_argument("--scan-mmax", dest="scan_mmax", type=int, default=None)
    q.add_argument("--csv", type=str, default=None)

    q = est.add_parser("h1")
    _add_soup_options(q, window=False)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--mmax", dest="mmax", type=int, default=None)
    q.add_argument("--csv", type=str, default=None)

    q = est.add_parser("lr1")
    _add_soup_options(q, window=False)
    q.add_argument("--l", type=float, default=None)
    q.add_argument("--k", type=float, default=None)

    q = est.add_parser("crossing")
    _add_soup_options(q, window=False)
    q.add_argument("--box", nargs=4, type=float, default=None, metavar=("X0", "Y0", "X1", "Y1"))

    q = est.add_parser("correlation")
    _add_soup_options(q, window=False)
    q.add_argument("--l1", type=float, default=None)
    q.add_argument("--l2", type=float, default=None)

    q = est.add_parser("void")
    _add_soup_options(q, window=False)
    q.add_argument("--balls", type=str, default=None, help="x,y,r;x,y,r;...")

    p = sub.add_parser("verify", help="closed-form cross-checks")
    ver = p.add_subparsers(dest="check", required=True)

    q = ver.add_parser("parker-cowan")
    _add_soup_options(q)
    q.add_argument("--r", type=float, default=None)
    q.add_argument("--t", type=float, default=None)

    q = ver.add_parser("double-circle")
    q.add_argument("--config", type=str, default=None)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--out", type=str, default=None)

    q = ver.add_parser("mu-hit")
    q.add_argument("--config", type=str, default=None)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--shape", choices=["segment", "ball"], default=None)
    q.add_argument("--size", type=float, default=None)
    q.add_argument("--range", dest="range_kind", choices=["atleast", "below"], default=None)
    q.add_argument("--r", type=float, default=None)
    q.add_argument("--out", type=str, default=None)

    p = sub.add_parser("invasion", help="annulus-skipping records")
    _add_soup_options(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--domination", action="store_true",
                   help="paired first-gap domination check instead of raw records")

    p = sub.add_parser("render", help="render a sampled configuration as SVG")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--in", dest="infile", type=str, default=None)
    p.add_argument("--box", nargs=4, type=float, default=None, metavar=("X0", "Y0", "X1", "Y1"))
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--trace", action="store_true")
    return parser


def _cmd_sample(args) -> int:
    _need(args, "u", "rmin", "window_radius")
    params = SoupParams(args.u, args.alpha, args.seed)
    cfg = sample_configuration(params, _window(args), args.rmin, args.seed)
    _write(args.out, configuration_to_jsonl(cfg))
    return 0


def _cmd_trace(args) -> int:
    _need(args, "u", "rmin", "box")
    box = _box_from(args)
    window = DiskWindow(box.center(), box.diagonal() / 2.0)
    params = SoupParams(args.u, args.alpha, args.seed)
    cfg = sample_configuration(params, window, args.rmin, args.seed)
    res = trace_exploration(build_arrangement(cfg, box))
    config = {
        "command": "trace", "u": args.u, "alpha": args.alpha, "rmin": args.rmin,
        "seed": args.seed, "box": list(args.box),
    }
    result = {
        "outcome": res.outcome,
        "n_sticks": cfg.n_sticks,
        "vertices": [[float(x), float(y)] for x, y in res.path.coords],
    }
    _write(args.out, _common_output(config, result))
    if args.svg:
        render_svg(cfg, res, box, args.svg)
    return 0


def _cmd_estimate(args) -> int:
    if args.estimator == "arm":
        _need(args, "u", "rmin", "trials")
        params = SoupParams(args.u, args.alpha, args.seed)
        if args.scan_mmax is not None:
            rep = arm_decay_scan(params, args.rmin, args.scan_mmax, args.trials, args.seed)
            if args.csv:
                _write(args.csv, rep.to_csv())
            config = {"command": "estimate arm scan", "u": args.u, "alpha": args.alpha,
                      "rmin": args.rmin, "mmax": args.scan_mmax,
                      "trials": args.trials, "seed": args.seed}
            _write(args.out, _common_output(config, rep.to_json_dict()))
            return 0
        _need(args, "l1", "l2", "window_radius")
        ann = Annulus(Point(0.0, 0.0), args.l1, args.l2)
        rep = estimate_probability(
            ArmEventSpec(ann), params, _window(args), args.rmin, args.trials, args.seed
        )
        config = {"command": "estimate arm", "u": args.u, "alpha": args.alpha,
                  "rmin": args.rmin, "l1": args.l1, "l2": args.l2,
                  "window_radius": args.window_radius, "trials": args.trials,
                  "seed": args.seed}
        _write(args.out, _common_output(config, rep.to_json_dict()))
        return 0
    if args.estimator == "h1":
        _need(args, "u", "rmin", "trials", "k", "mmax")
        params = SoupParams(args.u, args.alpha, args.seed)
        rep = h1_scan(params, args.rmin, args.k, args.mmax, args.trials, args.seed)
        if args.csv:
            _write(args.csv, rep.to_csv())
        config = {"command": "estimate h1", "u": args.u, "alpha": args.alpha,
                  "rmin": args.rmin, "k": args.k, "mmax": args.mmax,
                  "trials": args.trials, "seed": args.seed}
        _write(args.out, _common_output(config, rep.to_json_dict()))
        return 0
    if args.estimator == "lr1":
        _need(args, "u", "l", "k", "trials")
        rep = lr1_measure(args.alpha, args.l, args.k, args.trials, args.u, args.seed)
        config = {"command": "estimate lr1", "u": args.u, "alpha": args.alpha,
                  "l": args.l, "k": args.k, "trials": args.trials, "seed": args.seed}
        _write(args.out, _common_output(config, rep.to_json_dict()))
        return 0
    if args.estimator == "crossing":
        _need(args, "u", "rmin", "trials", "box")
        params = SoupParams(args.u, args.alpha, args.seed)
        box = _box_from(args)
        window = DiskWindow(box.center(), box.diagonal() / 2.0)
        rep = estimate_probability(
            CrossingEventSpec(box), params, window, args.rmin, args.trials, args.seed
        )
        config = {"command": "estimate crossing", "u": args.u, "alpha": args.alpha,
                  "rmin": args.rmin, "box": list(args.box), "trials": args.trials,
                  "seed": args.seed}
        _write(args.out, _common_output(config, rep.to_json_dict()))
        return 0
    if args.estimator == "correlation":
        _need(args, "u", "rmin", "trials", "l1", "l2")
        params = SoupParams(args.u, args.alpha, args.seed)
        rep = correlation_estimate(
            hits_disk_event(args.l1), crosses_circle_event(args.l2),
            params, args.rmin, args.trials, args.seed,
        )
        config = {"command": "estimate correlation", "u": args.u, "alpha": args.alpha,
                  "rmin": args.rmin, "l1": args.l1, "l2": args.l2,
                  "trials": args.trials, "seed": args.seed}
        result = {
            "cov_estimate": rep.cov_estimate, "std_error": rep.std_error,
            "bound": rep.bound, "p1": rep.p1, "p2": rep.p2,
            "degenerate": rep.degenerate,
        }
        _write(args.out, _common_output(config, result))
        return 0
    if args.estimator == "void":
        _need(args, "u", "rmin", "trials", "balls")
        params = SoupParams(args.u, args.alpha, args.seed)
        balls = []
        for part in args.balls.split(";"):
            x, y, r = (float(v) for v in part.split(","))
            balls.append(((x, y), r))
        rep = property_void_scan(params, args.rmin, balls, args.trials, args.seed)
        config = {"command": "estimate void", "u": args.u, "alpha": args.alpha,
                  "rmin": args.rmin, "balls": args.balls, "trials": args.trials,
                  "seed": args.seed}
        _write(args.out, _common_output(config, rep.to_json_dict()))
        return 0
    raise ValueError(f"unknown estimator {args.estimator}")


def _cmd_verify(args) -> int:
    if args.check == "parker-cowan":
        _need(args, "u", "r", "t", "trials")
        if args.window_radius is None:
            args.window_radius = 1.0
        params = SoupParams(args.u, args.alpha, args.seed)
        rep = parker_cowan_check(
            params, _window(args), args.r, args.t, args.trials, args.seed
        )
        config = {"command": "verify parker-cowan", "u": args.u, "alpha": args.alpha,
                  "r": args.r, "t": args.t, "window_radius": args.window_radius,
                  "trials": args.trials, "seed": args.seed}
        result = {"empirical_mean": rep.empirical_mean, "std_error": rep.std_error,
                  "oracle": rep.oracle, "z_score": rep.z_score}
        _write(args.out, _common_output(config, result))
        return 0
    if args.check == "double-circle":
        _need(args, "alpha")
        val = mu_double_circle(args.alpha)
        config = {"command": "verify double-circle", "alpha": args.alpha}
        result = {"value": "infinite" if math.isinf(val) else val}
        _write(args.out, _common_output(config, result))
        return 0
    if args.check == "mu-hit":
        _need(args, "alpha", "shape", "size", "range_kind", "r")
        shape = SegmentShape(args.size) if args.shape == "segment" else BallShape(args.size)
        rng = RadiusAtLeast(args.r) if args.range_kind == "atleast" else RadiusBelow(args.r)
        val = mu_hit(args.alpha, shape, rng)
        config = {"command": "verify mu-hit", "alpha": args.alpha, "shape": args.shape,
                  "size": args.size, "range": args.range_kind, "r": args.r}
        result = {"value": "infinite" if math.isinf(val) else val}
        _write(args.out, _common_output(config, result))
        return 0
    raise ValueError(f"unknown check {args.check}")


def _cmd_invasion(args) -> int:
    _need(args, "u", "rmin", "m")
    if args.domination:
        _need(args, "trials")
    params = SoupParams(args.u, args.alpha, args.seed)
    n_trials = args.trials if args.trials is not None else 1
    config = {"command": "invasion", "u": args.u, "alpha": args.alpha,
              "rmin": args.rmin, "m": args.m, "trials": n_trials, "seed": args.seed,
              "domination": bool(args.domination)}
    if args.domination:
        rep = invasion_domination_check(params, args.m, args.rmin, n_trials, args.seed)
        result = {
            "t_values": rep.t_values,
            "mean_invasion_sums": rep.mean_invasion_sums,
            "mean_iid_sums": rep.mean_iid_sums,
            "diff_means": rep.diff_means,
            "diff_std_errors": rep.diff_std_errors,
            "dominated": rep.dominated,
            "truncated_records": rep.truncated_records,
        }
        _write(args.out, _common_output(config, result))
        return 0
    radius = args.window_radius if args.window_radius is not None else 2.0 ** args.m
    window = DiskWindow(Point(0.0, 0.0), radius)

    def record(cfg):
        rec = invasion_sequence(cfg, args.m)
        return {"m": rec.m, "I": rec.I, "L": rec.L, "T": rec.T, "truncated": rec.truncated}

    records, _ = run_trials(params, window, args.rmin, n_trials, args.seed, record)
    _write(args.out, _common_output(config, records))
    return 0


def _cmd_render(args) -> int:
    _need(args, "infile", "box", "out")
    with open(args.infile, "r", encoding="utf-8") as fh:
        cfg = configuration_from_jsonl(fh)
    box = _box_from(args)
    res = None
    if args.trace:
        res = trace_exploration(build_arrangement(cfg, box))
    render_svg(cfg, res, box, args.out)
    return 0


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            _merge_config(args)
        if hasattr(args, "alpha") or hasattr(args, "seed"):
            _fill_defaults(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "invasion":
            return _cmd_invasion(args)
        if args.command == "render":
            return _cmd_render(args)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, TypeError) as exc:
        print(f"sticksoup: error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyError, TraceError, FitError, OSError) as exc:
        print(f"sticksoup: failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
