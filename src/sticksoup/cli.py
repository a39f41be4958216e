"""Command-line front end: sampling, tracing, estimation scans, verification
and SVG rendering.

Outputs are byte-reproducible: no timestamps, sorted JSON keys, and every
report echoes the fully resolved run configuration.  Exit codes: 0 success,
1 runtime or degeneracy failure, 2 argument errors.

Each command is one entry of ``_COMMANDS``: the flags it reads, the ones it
requires and its handler.  The parser, the ``--config`` merge, the required
check and the echoed configuration all come from that table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

from . import __version__
from .estimators import (
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
from .events import arm_event, invasion_sequence
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
    def error(self, message):  # the same first line as run's errors, exit code 2
        print(f"sticksoup: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(2)


def _finite_float(text: str) -> float:
    """Type of the float flags: NaN and infinities are argument errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _scale_index(text: str) -> int:
    """Type of the scale flags m: radii 2^m must be finite floats."""
    try:
        m = int(text)
    except ValueError:
        m = None
    if m is None or m >= sys.float_info.max_exp:
        raise argparse.ArgumentTypeError(
            f"expected an integer below {sys.float_info.max_exp}, got {text!r}"
        )
    return m


# every flag "--<name>" and its add_argument keywords; no type means a string
_FLAGS: dict[str, dict] = {
    "config": {"help": "key = value file"},
    "u": {"type": _finite_float},
    "alpha": {"type": _finite_float, "default": 2.0},
    "rmin": {"type": _finite_float},
    "seed": {"type": int, "default": 0},
    "trials": {"type": int},
    "out": {},
    "window-radius": {"type": _finite_float},
    "window-cx": {"type": _finite_float, "default": 0.0},
    "window-cy": {"type": _finite_float, "default": 0.0},
    "box": {"nargs": 4, "type": _finite_float, "metavar": ("X0", "Y0", "X1", "Y1")},
    "svg": {},
    "csv": {},
    "l1": {"type": _finite_float},
    "l2": {"type": _finite_float},
    "scan-mmax": {"type": _scale_index, "dest": "mmax", "metavar": "SCAN_MMAX"},
    "mmax": {"type": _scale_index},
    "l": {"type": _finite_float},
    "k": {"type": _finite_float},
    "balls": {"help": "x,y,r;x,y,r;..."},
    "r": {"type": _finite_float},
    "t": {"type": _finite_float},
    "shape": {"choices": ["segment", "ball"]},
    "size": {"type": _finite_float},
    "range": {"choices": ["atleast", "below"]},
    "m": {"type": _scale_index},
    "domination": {"action": "store_true",
                   "help": "paired first-gap domination check instead of raw records"},
    "in": {"dest": "infile"},
    "trace": {"action": "store_true"},
}

# flags that name files rather than describe the run; the report does not echo them
_NOT_ECHOED = {"config", "out", "csv", "svg", "in"}


def _dest(name: str) -> str:
    return _FLAGS[name].get("dest", name.replace("-", "_"))


def _config_flags(cmd: _Command, path: str) -> list[str]:
    """The ``key = value`` lines of a --config file as flags of ``cmd``.

    Keys are flag names, spelled with ``-`` or ``_``.  A key the command does
    not read, and a switch, is skipped, so one file can serve several commands.
    """
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key = value): {line!r}")
            key, _, value = line.partition("=")
            name = key.strip().replace("_", "-")
            if name == "config" or name not in cmd.options.split() or "action" in _FLAGS[name]:
                continue
            if "nargs" in _FLAGS[name]:
                flags += ["--" + name, *value.replace(",", " ").split()]
            else:
                flags.append(f"--{name}={value.strip()}")
    return flags


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


def _need(args, *names):
    missing = [name for name in names if getattr(args, _dest(name)) is None]
    if missing:
        raise ValueError(
            "missing required option(s): " + ", ".join("--" + name for name in missing)
        )


def _params(args) -> SoupParams:
    return SoupParams(args.u, args.alpha)


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


def _sample(args) -> None:
    window = DiskWindow(Point(args.window_cx, args.window_cy), args.window_radius)
    cfg = sample_configuration(_params(args), window, args.rmin, args.seed)
    _write(args.out, configuration_to_jsonl(cfg))


def _trace(args) -> dict:
    box = _box_from(args)
    window = DiskWindow(box.center(), box.diagonal() / 2.0)
    cfg = sample_configuration(_params(args), window, args.rmin, args.seed)
    res = trace_exploration(build_arrangement(cfg, box))
    if args.svg:
        render_svg(cfg, res, box, args.svg)
    return {
        "outcome": res.outcome,
        "n_sticks": cfg.n_sticks,
        "vertices": [[float(x), float(y)] for x, y in res.path.coords],
    }


def _estimate_arm(args) -> dict:
    params = _params(args)
    if args.mmax is not None:
        args.command += " scan"
        rep = arm_decay_scan(params, args.rmin, args.mmax, args.trials, args.seed)
        if args.csv:
            _write(args.csv, rep.to_csv())
        return rep.to_json_dict()
    _need(args, "l1", "l2", "window-radius")
    ann = Annulus(Point(0.0, 0.0), args.l1, args.l2)
    window = DiskWindow(Point(0.0, 0.0), args.window_radius)
    rep = estimate_probability(
        "ArmEventSpec", lambda c: arm_event(c, ann),
        params, window, args.rmin, args.trials, args.seed,
    )
    return rep.to_json_dict()


def _estimate_h1(args) -> dict:
    rep = h1_scan(_params(args), args.rmin, args.k, args.mmax, args.trials, args.seed)
    if args.csv:
        _write(args.csv, rep.to_csv())
    return rep.to_json_dict()


def _estimate_lr1(args) -> dict:
    rep = lr1_measure(args.alpha, args.l, args.k, args.trials, args.u, args.seed)
    return rep.to_json_dict()


def _estimate_crossing(args) -> dict:
    params = _params(args)
    box = _box_from(args)
    window = DiskWindow(box.center(), box.diagonal() / 2.0)
    rep = estimate_probability(
        "CrossingEventSpec",
        lambda c: trace_exploration(build_arrangement(c, box)).outcome == "Right",
        params, window, args.rmin, args.trials, args.seed,
    )
    return rep.to_json_dict()


def _check_result(rep) -> dict:
    """A check report's fields less its provenance, which the echoed config
    carries (--trials, --seed and the command's flags)."""
    return {k: v for k, v in asdict(rep).items()
            if k not in ("n_trials", "master_seed", "params")}


def _estimate_correlation(args) -> dict:
    rep = correlation_estimate(
        hits_disk_event(args.l1), crosses_circle_event(args.l2),
        _params(args), args.rmin, args.trials, args.seed,
    )
    return _check_result(rep)


def _estimate_void(args) -> dict:
    params = _params(args)
    balls = []
    for part in args.balls.split(";"):
        x, y, r = (float(v) for v in part.split(","))
        balls.append(((x, y), r))
    rep = property_void_scan(params, args.rmin, balls, args.trials, args.seed)
    return rep.to_json_dict()


def _verify_parker_cowan(args) -> dict:
    window = DiskWindow(Point(0.0, 0.0), args.window_radius)
    rep = parker_cowan_check(_params(args), window, args.r, args.t, args.trials, args.seed)
    return _check_result(rep)


def _verify_double_circle(args) -> dict:
    val = mu_double_circle(args.alpha)
    return {"value": "infinite" if math.isinf(val) else val}


def _verify_mu_hit(args) -> dict:
    shape = SegmentShape(args.size) if args.shape == "segment" else BallShape(args.size)
    rng = RadiusAtLeast(args.r) if args.range == "atleast" else RadiusBelow(args.r)
    val = mu_hit(args.alpha, shape, rng)
    return {"value": "infinite" if math.isinf(val) else val}


def _invasion(args):
    if args.domination:
        _need(args, "trials")
    if args.trials is None:
        args.trials = 1
    params = _params(args)
    if args.domination:
        rep = invasion_domination_check(params, args.m, args.rmin, args.trials, args.seed)
        return _check_result(rep)
    window = DiskWindow(Point(0.0, 0.0), 2.0 ** args.m)
    records, _ = run_trials(
        params, window, args.rmin, args.trials, args.seed,
        lambda cfg: asdict(invasion_sequence(cfg, args.m)), dyadic_only=True,
    )
    return records


def _render(args) -> None:
    with open(args.infile, "r", encoding="utf-8") as fh:
        cfg = configuration_from_jsonl(fh)
    box = _box_from(args)
    res = None
    if args.trace:
        res = trace_exploration(build_arrangement(cfg, box))
    render_svg(cfg, res, box, args.out)


@dataclass(frozen=True)
class _Command:
    name: str  # the words that select it, e.g. "estimate h1"
    handler: Callable  # args -> the report's result, or None if it writes its own output
    options: str  # the flags it reads, in --help order
    required: str = ""
    help: str | None = None
    overrides: dict = field(default_factory=dict)  # flag -> add_argument keywords


_COMMANDS = [
    _Command("sample", _sample,
             "config u alpha rmin seed out window-radius window-cx window-cy",
             required="u rmin window-radius", help="sample a configuration to JSONL"),
    _Command("trace", _trace, "config u alpha rmin seed out box svg",
             required="u rmin box", help="sample, trace a box exploration, emit JSON"),
    _Command("estimate arm", _estimate_arm,
             "config u alpha rmin seed trials out window-radius l1 l2 scan-mmax csv",
             required="u rmin trials"),
    _Command("estimate h1", _estimate_h1, "config u alpha rmin seed trials out k mmax csv",
             required="u rmin trials k mmax", overrides={"k": {"type": int}}),
    _Command("estimate lr1", _estimate_lr1, "config u alpha seed trials out l k",
             required="u l k trials"),
    _Command("estimate crossing", _estimate_crossing,
             "config u alpha rmin seed trials out box", required="u rmin trials box"),
    _Command("estimate correlation", _estimate_correlation,
             "config u alpha rmin seed trials out l1 l2", required="u rmin trials l1 l2"),
    _Command("estimate void", _estimate_void, "config u alpha rmin seed trials out balls",
             required="u rmin trials balls"),
    _Command("verify parker-cowan", _verify_parker_cowan,
             "config u alpha seed trials out window-radius r t", required="u r t trials",
             overrides={"window-radius": {"default": 1.0}}),
    _Command("verify double-circle", _verify_double_circle, "config alpha out"),
    _Command("verify mu-hit", _verify_mu_hit, "config alpha shape size range r out",
             required="shape size range r"),
    _Command("invasion", _invasion, "config u alpha rmin seed trials out m domination",
             required="u rmin m", help="annulus-skipping records"),
    _Command("render", _render, "config in box out trace", required="in box out",
             help="render a sampled configuration as SVG"),
]

# command groups: the dest and help of their subcommand choice
_GROUPS = {
    "estimate": ("estimator", "Monte Carlo estimators"),
    "verify": ("check", "closed-form cross-checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="sticksoup")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for cmd in _COMMANDS:
        group, _, leaf = cmd.name.rpartition(" ")
        if group not in subparsers:
            dest, text = _GROUPS[group]
            p = subparsers[""].add_parser(group, help=text)
            subparsers[group] = p.add_subparsers(dest=dest, required=True)
        p = subparsers[group].add_parser(leaf, **({"help": cmd.help} if cmd.help else {}))
        for name in cmd.options.split():
            p.add_argument("--" + name, **{**_FLAGS[name], **cmd.overrides.get(name, {})})
        p.set_defaults(cmd=cmd)
    return parser


def _echo(cmd: _Command, args) -> dict:
    config = {"command": args.command}
    for name in cmd.options.split():
        value = getattr(args, _dest(name))
        if name not in _NOT_ECHOED and value is not None:
            config[_dest(name)] = value
    return config


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cmd = args.cmd
        if args.config:
            # file values go before the command line's own flags, so flags win
            n = len(cmd.name.split())
            args = parser.parse_args(argv[:n] + _config_flags(cmd, args.config) + argv[n:])
        # the box-crossing threshold intensity is unknown; warn rather than validate
        if getattr(args, "u", None) is not None and args.u > 0.5:
            print(
                f"note: u = {args.u} may be above the crossing-property regime "
                "(u <= 0.5 suggested)",
                file=sys.stderr,
            )
        _need(args, *cmd.required.split())
        args.command = cmd.name
        result = cmd.handler(args)
        if result is not None:
            _write(args.out, _common_output(_echo(cmd, args), result))
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
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
