"""Command-line front end.

Subcommands:

* ``oswr run <config> [--out DIR] [--times LIST]``
  runs the windowed OSWR solver; writes per-subdomain solution
  snapshots, the residual history and a run manifest, which holds each
  window's sweep residuals, those of each directed interface and whether
  it converged; a window that did not prints a warning.  Given a
  manifest, it re-runs with the manifest's --times unless the command
  line gives them.  Keys of older manifests that this version no
  longer reads, such as the interface-formulation flag, are ignored.
* ``oswr study <config> --axis time|space|spacetime --levels N``
  convergence-order study; writes a study table CSV with a slopes
  footer row and optionally a gnuplot script.
* ``oswr sweep <config> --p LIST --q LIST [--seed S]``
  iteration counts over a transmission-parameter grid.

Exit codes: 0 success, 2 configuration/validation error, 3 solver
failure.  Each command computes everything before it creates --out, so
a command that fails writes nothing.  All outputs are deterministic for
fixed config and flags; the manifest embeds the resolved config so a
run can be reproduced bit-identically from it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from oswr import analysis as ana
from oswr import problem as prb
from oswr.dgsolver import SolverError
from oswr.driver import DivergenceError, build_multidomain, run_windows

__all__ = ["main", "cmd_run", "cmd_study", "cmd_sweep"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(v):
    return f"{float(v):.17g}"


def _real(flag, text):
    """A flag's number, read as the config reads one (`problem._to_float`):
    inf and nan come back for the caller to reject."""
    try:
        return prb._to_float(text.strip())
    except ValueError:
        raise prb.ConfigError(f"{flag} {text!r}: not a number") from None


def _read_config(path):
    """Read a config file, or extract the embedded config of a manifest.

    Returns (config, manifest), the manifest an empty dict for a config
    file."""
    text = Path(path).read_text()
    doc = {}
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        if "config" not in doc:
            raise prb.ConfigError("manifest file has no embedded config")
        for key in ("config", "times"):
            if not isinstance(doc.get(key, ""), str):
                raise prb.ConfigError(f"manifest {key!r} is not a string: {doc[key]!r}")
        text = doc["config"]
    return prb.parse_config(text), doc


def _validate_or_fail(cfg):
    diags = prb.validate_problem(cfg)
    for d in diags:
        if d.severity == "warning":
            print(f"warning: {d.message}", file=sys.stderr)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        for d in errors:
            print(f"error: {d.message}", file=sys.stderr)
        raise prb.ConfigError("validation failed")
    return diags


def _snapshot_times(text, T):
    """The snapshot times of a --times list (T alone if empty); each must
    be a finite time in [0, T], given once."""
    if not text:
        return [T]
    times = [_real("--times", t) for t in text.split(",")]
    bad = [t for t in times if not 0.0 <= t <= T]  # NaN fails too
    if bad:
        raise prb.ConfigError(
            f"--times {', '.join(_fmt(t) for t in bad)} outside the horizon [0, {_fmt(T)}]"
        )
    repeated = sorted({t for t in times if times.count(t) > 1})
    if repeated:
        raise prb.ConfigError(
            f"--times {', '.join(_fmt(t) for t in repeated)} given more than once"
        )
    return times


def _csv(header, rows):
    """CSV text: numbers as `_fmt` writes them, strings as they are."""
    lines = [header] + [[v if isinstance(v, str) else _fmt(v) for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _window_history(hist):
    """One window's sweep residuals, those of each directed interface
    ("i->j"), and whether it converged."""
    return {
        "converged": hist.converged,
        "residuals": hist.residuals,
        "pair_residuals": {
            f"{i}->{j}": [r[(i, j)] for r in hist.pair_residuals]
            for (i, j) in hist.pair_residuals[0]
        },
    }


def _warn_unconverged(cfg, histories, where=""):
    """One warning line per window of `histories` that ran out of sweeps."""
    bounds = np.linspace(0.0, cfg.T, cfg.windows + 1)
    for w, hist in enumerate(histories):
        if not hist.converged:
            print(f"warning: {where}window {w} [{_fmt(bounds[w])}, {_fmt(bounds[w + 1])}] "
                  f"not converged after {hist.iterations} sweeps, last residual "
                  f"{hist.residuals[-1]:.3e}", file=sys.stderr)


def _write_outputs(out, files, command, cfg, wall, residuals, **flags):
    """Create the directory `out` and write `files` (name -> text) and the
    manifest into it.  The only writer: a command calls it once everything
    is computed, so a command that fails writes nothing."""
    manifest = {
        "command": command,
        "config": prb.serialize_config(cfg),
        "outputs": sorted(files),
        "wall_time_s": wall,
        "residual_history": residuals,
        **flags,
    }
    files = {**files, "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    return EXIT_OK


def cmd_run(args):
    cfg, manifest = _read_config(args.config)
    times_arg = args.times or manifest.get("times", "")
    _validate_or_fail(cfg)
    times = _snapshot_times(times_arg, cfg.T)
    t0 = time.perf_counter()
    md = build_multidomain(cfg)
    sol = run_windows(cfg, md=md)
    wall = time.perf_counter() - t0
    _warn_unconverged(cfg, sol.histories)

    files = {}
    for sid in sorted(sol.trajectories):
        mesh = md.assemblies[sid].mesh
        values = sol.view(sid).values(times, left=True)
        files[f"solution_{sid}.csv"] = _csv(
            ["x", "y"][: mesh.dim] + [f"u_t{_fmt(t)}" for t in times],
            np.column_stack([mesh.coords, values.T]),
        )
    files["residuals.csv"] = _csv(["window", "iteration", "residual"], [
        (w, it, r) for w, hist in enumerate(sol.histories)
        for it, r in enumerate(hist.residuals, start=1)
    ])
    return _write_outputs(args.out, files, "run", cfg, wall,
                          [_window_history(hist) for hist in sol.histories], times=times_arg)


def _study_columns(table):
    """The study CSV's columns as (name, row key): the level, h and k per
    subdomain, then each error norm per subdomain."""
    sizes = [(f"{kind}_{sid}", (kind, sid)) for sid in table.sids for kind in ("h", "k")]
    norms = [(f"{name}_{sid}", (name, sid)) for name in table.NORMS for sid in table.sids]
    return [("level", "level"), *sizes, *norms]


_GNUPLOT = """set logscale xy
set key left top
set xlabel "{xlabel}"
set ylabel "error"
set datafile separator ","
plot \\
{plots}
"""


def cmd_study(args):
    cfg, _ = _read_config(args.config)
    _validate_or_fail(cfg)
    levels, tol = prb._read_int("--levels", args.levels.strip(), None), _real("--tol", args.tol)
    if levels < 3:
        raise prb.ConfigError("a study needs at least 3 levels (slope fit)")
    if not tol > 0:
        raise prb.ConfigError("--tol must be a positive real")
    t0 = time.perf_counter()
    table = ana.convergence_study(cfg, args.axis, levels, tol=tol)
    wall = time.perf_counter() - t0
    for level, histories in enumerate(table.histories):
        _warn_unconverged(cfg, histories, f"level {level}, ")

    cols = _study_columns(table)
    rows = [[row[key] for _, key in cols] for row in table.rows]
    slopes = ["slopes"] + [table.slopes.get(key, "") for _, key in cols[1:]]
    files = {"study.csv": _csv([name for name, _ in cols], rows + [slopes])}
    if args.plot:
        # x: the first subdomain's step along the axis; y: every fitted norm
        kind = "k" if args.axis == "time" else "h"
        x = [key for _, key in cols].index((kind, table.sids[0])) + 1
        plots = [f"  'study.csv' every ::1::{len(rows)} using {x}:{y}"
                 f" with linespoints title '{name}'"
                 for y, (name, key) in enumerate(cols, start=1) if key in table.slopes]
        files["study.gp"] = _GNUPLOT.format(xlabel=kind, plots=", \\\n".join(plots))
    return _write_outputs(args.out, files, f"study --axis {args.axis} --levels {levels}", cfg,
                          wall, [[_window_history(h) for h in level] for level in table.histories])


def cmd_sweep(args):
    cfg, _ = _read_config(args.config)
    _validate_or_fail(cfg)
    if not cfg.interfaces():
        raise prb.ConfigError("the config has no interface, so there is no transmission "
                              "parameter to sweep")
    p_values = [_real("--p", v) for v in args.p.split(",") if v.strip()]
    q_values = [_real("--q", v) for v in args.q.split(",") if v.strip()] if args.q else [0.0]
    target, seed = _real("--target", args.target), prb._read_int("--seed", args.seed.strip(), None)
    if not p_values or not all(math.isfinite(p) and p > 0 for p in p_values):
        raise prb.ConfigError("--p needs a list of positive reals")
    if not all(math.isfinite(q) and q >= 0 for q in q_values):
        raise prb.ConfigError("--q needs a list of nonnegative reals")
    if not target > 0:
        raise prb.ConfigError("--target must be a positive real")
    if seed < 0:
        raise prb.ConfigError("--seed must be a nonnegative integer")
    t0 = time.perf_counter()
    table = ana.sweep_parameters(
        cfg, p_values, q_values, target, mode=args.mode, seed=seed
    )
    wall = time.perf_counter() - t0
    rows = [(row["p"], row["q"], row["iterations"], int(row["converged"]), int(i == table.best))
            for i, row in enumerate(table.rows)]
    files = {"sweep.csv": _csv(["p", "q", "iterations", "converged", "best"], rows)}
    return _write_outputs(args.out, files, f"sweep --p {args.p} --q {args.q} --seed {seed}",
                          cfg, wall, [])


def build_parser():
    ap = argparse.ArgumentParser(
        prog="oswr",
        description="Optimized Schwarz waveform relaxation with DG time stepping",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the windowed OSWR solver")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--times", default="", help="comma-separated snapshot times")
    p_run.set_defaults(func=cmd_run)

    p_st = sub.add_parser("study", help="convergence-order study")
    p_st.add_argument("config")
    p_st.add_argument("--axis", required=True, choices=list(ana.AXES))
    p_st.add_argument("--levels", required=True)
    p_st.add_argument("--tol", default="1e-10")
    p_st.add_argument("--out", default=".")
    p_st.add_argument("--plot", action="store_true", help="emit a gnuplot script")
    p_st.set_defaults(func=cmd_study)

    p_sw = sub.add_parser("sweep", help="transmission-parameter sweep")
    p_sw.add_argument("config")
    p_sw.add_argument("--p", required=True, help="comma-separated p values")
    p_sw.add_argument("--q", default="0", help="comma-separated q values")
    p_sw.add_argument("--seed", default="0")
    p_sw.add_argument("--target", default="1e-6")
    p_sw.add_argument("--mode", choices=["error", "full"], default="error")
    p_sw.add_argument("--out", default=".")
    p_sw.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (prb.ConfigError, prb.EvalError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, DivergenceError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
