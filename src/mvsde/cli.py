"""Command line interface.

Exit codes: 0 success, 2 invalid input or usage, 3 numerical failure or
out of memory, 4 a verification gate did not pass.

Event grammar for --event:
    pin:V[,V...]:TOL     terminal pin to the point (V,...) within TOL
    path:FILE:TOL        whole-path pin to the path CSV within TOL
    half:W[,W...]:C      halfspace (W,...) . x(T) >= C
"""
from __future__ import annotations

import contextlib
import functools
import os
import pickle
import sys
import warnings
from dataclasses import asdict

import click
import numpy as np

from . import __version__
from .core import (
    Control,
    MdpControl,
    Path,
    make_time_grid,
    null_control,
    null_mdp_control,
)
from .dynamics import simulate_mvsde
from .errors import InvalidArgumentError, MvsdeError, NumericError, UnsupportedError
from .io import (
    ensemble_summary,
    load_control,
    load_path_csv,
    make_manifest,
    save_control,
    save_path_csv,
    save_report,
)
from .models import get_model, list_models
from .rate import EventSpec, OptimizerConfig, ldp_rate, mdp_rate
from .skeleton import solve_ldp_skeleton, solve_limit_ode, solve_mdp_skeleton
from .verify import (
    check_ldp,
    check_limit_convergence,
    check_mdp,
    demo_frozen_vs_selfconsistent,
)

_EXIT_GATE = 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InvalidArgumentError, UnsupportedError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except MvsdeError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(f"cannot parse {what}: {text!r}")


def _parse_floats(text: str, what: str) -> list[float]:
    return [
        _parse_float(tok, what) for tok in str(text).split(",") if tok.strip() != ""
    ]


def parse_event(text: str, dim: int) -> EventSpec:
    """Parse the --event grammar documented in the module docstring."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise InvalidArgumentError(
            f"event {text!r} does not match kind:values:number"
        )
    kind, body, tail = parts
    if kind == "pin":
        target = _parse_floats(body, "pin target")
        event = EventSpec.pin(target, tol=_parse_float(tail, "pin tolerance"))
    elif kind == "path":
        ref = load_path_csv(body)
        if ref.dim != dim:
            raise InvalidArgumentError(
                f"path file has {ref.dim} components, model has {dim}"
            )
        event = EventSpec.pin_path(ref, tol=_parse_float(tail, "pin tolerance"))
    elif kind == "half":
        normal = _parse_floats(body, "halfspace normal")
        event = EventSpec.halfspace(normal, _parse_float(tail, "halfspace level"))
    else:
        raise InvalidArgumentError(f"unknown event kind {kind!r} (pin, path, half)")
    event.check_dim(dim)
    return event


def _echo_warnings(warnings) -> None:
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)


def _finish(out, body: dict, passed: bool, command: str, **params) -> None:
    """Write {"manifest": ..., **body} to out when given, then exit 4 unless
    the command's gate passed."""
    if out is not None:
        save_report(out, {"manifest": make_manifest(command, **params), **body})
        click.echo(f"report written to {out}")
    if not passed:
        sys.exit(_EXIT_GATE)


def _echo_rows(report) -> None:
    for r in report.rows:
        a_part = "" if r.a is None else f"  a={r.a:.4g}"
        stat = "censored (0 hits)" if r.censored else f"stat={r.stat:.6f}"
        click.echo(
            f"  eps={r.eps:<8g} h={r.speed:<10.6g}{a_part}  "
            f"hits={r.hits}/{r.n_samples}  p={r.p_hat:.3e}  {stat}"
        )


model_option = click.option(
    "--model",
    "model_name",
    default="example11",
    show_default=True,
    help="Built-in model name or path to a .json model file.",
)
steps_option = click.option(
    "--steps", default=400, show_default=True, help="Euler grid cells."
)
horizon_option = click.option(
    "--horizon", default=1.0, show_default=True, help="Time horizon T."
)
seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True,
    help="Master seed, an integer >= 0.",
)
jobs_option = click.option(
    "--jobs",
    default=1,
    show_default=True,
    help="Integer >= 1, kept for compatibility: the ladder runs as one simulation.",
)
out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None, help="Write a JSON report here."
)


@click.group()
@click.version_option(version=__version__, prog_name="mvsde")
def main():
    """Small-noise mean-field jump diffusions: simulate, rate, verify."""


@main.command("models")
@_guarded
def models_cmd():
    """List the built-in models."""
    for name in list_models():
        click.echo(name)


@main.command("simulate")
@model_option
@click.option("--eps", default=0.01, show_default=True, help="Noise scale.")
@click.option("--particles", default=1000, show_default=True)
@steps_option
@horizon_option
@seed_option
@click.option(
    "--mean-out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the ensemble mean path as CSV; only then is each node's mean kept.",
)
@out_option
@_guarded
def simulate_cmd(model_name, eps, particles, steps, horizon, seed, mean_out, out):
    """Run the interacting particle system."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    record = "summary" if mean_out is None else "mean"
    ens = simulate_mvsde(spec, grid, eps, particles, seed, record=record)
    summary = ensemble_summary(ens)
    click.echo(
        f"{spec.name}: eps={eps:g} N={particles} steps={steps} "
        f"terminal mean={np.round(summary['terminal_mean'], 6).tolist()}"
    )
    _echo_warnings(ens.meta["warnings"])
    if mean_out is not None:
        save_path_csv(mean_out, Path(grid, ens.mean_path()))
        click.echo(f"mean path written to {mean_out}")
    _finish(
        out, {"summary": summary}, True, "simulate",
        model=model_name, eps=eps, particles=particles, steps=steps,
        horizon=horizon, seed=seed,
    )


@main.command("skeleton")
@model_option
@click.option(
    "--kind",
    type=click.Choice(["limit", "ldp", "mdp"]),
    default="ldp",
    show_default=True,
    help="limit ODE, deviation skeleton, or moderate skeleton.",
)
@click.option(
    "--control",
    "control_file",
    type=click.Path(dir_okay=False),
    default=None,
    help="Control JSON (defaults to the null control).",
)
@steps_option
@horizon_option
@click.option(
    "--path-out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the solution path as CSV.",
)
@_guarded
def skeleton_cmd(model_name, kind, control_file, steps, horizon, path_out):
    """Solve the deterministic limit or a controlled skeleton."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    if kind == "limit":
        path = solve_limit_ode(spec, grid)
        click.echo(f"limit terminal: {path.terminal.tolist()}")
    elif kind == "ldp":
        control = (
            load_control(control_file)
            if control_file
            else null_control(grid, spec.dim, spec.n_mark_cells)
        )
        if not isinstance(control, Control):
            raise InvalidArgumentError("the ldp skeleton needs an ldp control file")
        sol = solve_ldp_skeleton(spec, grid, control)
        path = sol.path
        click.echo(
            f"skeleton terminal: {path.terminal.tolist()} "
            f"(picard iterations={sol.iterations}, residual={sol.residual:.3e})"
        )
    else:
        control = (
            load_control(control_file)
            if control_file
            else null_mdp_control(grid, spec.dim, spec.n_mark_cells)
        )
        if not isinstance(control, MdpControl):
            raise InvalidArgumentError("the mdp skeleton needs an mdp control file")
        path = solve_mdp_skeleton(spec, grid, control)
        click.echo(f"moderate skeleton terminal: {path.terminal.tolist()}")
    if path_out is not None:
        save_path_csv(path_out, path)
        click.echo(f"path written to {path_out}")


@main.command("rate")
@model_option
@click.option(
    "--kind",
    type=click.Choice(["ldp", "mdp"]),
    default="ldp",
    show_default=True,
)
@click.option("--event", "event_text", required=True, help="Event spec (see --help).")
@steps_option
@horizon_option
@click.option("--cells", default=16, show_default=True, help="Coarse control cells.")
@click.option("--starts", default=5, show_default=True, help="Optimizer starts.")
@seed_option
@click.option(
    "--control-out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the optimal control as JSON.",
)
@out_option
@_guarded
def rate_cmd(
    model_name, kind, event_text, steps, horizon, cells, starts, seed, control_out, out
):
    """Optimize the deviation rate of an event."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    event = parse_event(event_text, spec.dim)
    if kind == "ldp":
        config = OptimizerConfig(n_starts=starts, control_cells=cells, seed=seed)
        result = ldp_rate(spec, grid, event, config)
    else:
        result = mdp_rate(spec, grid, event)
    click.echo(f"event: {event.describe()}")
    click.echo(
        f"{kind} rate value: {result.value:.9g} "
        f"(feasible={result.feasible}, residual={result.residual:.3e})"
    )
    if control_out is not None:
        save_control(control_out, result.control)
        click.echo(f"optimal control written to {control_out}")
    if not result.feasible:
        click.echo("the event is unreachable for this model/control class", err=True)
    _finish(
        out, {"result": result.to_dict()}, result.feasible, "rate",
        model=model_name, kind=kind, event=event_text, steps=steps,
        horizon=horizon, cells=cells, starts=starts, seed=seed,
    )


def _verify_common(fn):
    fn = click.option(
        "--eps-list",
        default="0.2,0.1,0.05",
        show_default=True,
        help="Comma-separated eps ladder.",
    )(fn)
    fn = click.option("--event", "event_text", required=True)(fn)
    fn = click.option("--particles", default=100_000, show_default=True)(fn)
    fn = click.option(
        "--target",
        default="auto",
        show_default=True,
        help="Rate target: a number, or 'auto' to optimize it while the ladder runs.",
    )(fn)
    fn = click.option("--tol", default=0.05, show_default=True)(fn)
    fn = jobs_option(fn)
    return fn


class _RemoteTraceback(Exception):
    """The traceback of an error raised in the --target auto process,
    shown as the cause of the error the parent raises again."""


@contextlib.contextmanager
def _resolve_target(target, compute):
    """Yield the --target value: the number given, or for 'auto' a
    zero-argument callable that returns compute()'s value. The ladder calls
    it once, after its simulation; a forked child computes the value while
    the with-block runs, and the callable waits for it. Where os.fork does
    not exist, or the fork or its pipe fails, the callable is compute itself.

    The fork is safe: no mvsde thread exists at fork time, because
    dynamics.simulate_lanes always joins its read-ahead worker before it
    returns. Python >= 3.12 still warns on a fork while a BLAS pool has
    threads; the warning is shown, but never raised, since by then the
    child exists. The child sends (ok, value or exception, traceback text)
    through a pipe and leaves by os._exit, past atexit handlers and
    inherited buffers. If the with-block raises, the child's error still
    comes first, as when the target ran before the ladder; an interrupt
    kills the child. The child is reaped on every path.
    """
    if str(target) != "auto":
        try:
            value = float(target)
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise InvalidArgumentError(
                f"--target must be a finite number or 'auto': {target!r}"
            )
        yield value
        return
    fds = None
    if hasattr(os, "fork"):
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            fds = os.pipe()
            with warnings.catch_warnings():
                warnings.simplefilter("always", DeprecationWarning)
                pid = os.fork()
        except OSError:  # no process or pipe to spare: compute inline
            for fd in fds or ():
                os.close(fd)
            fds = None
    if fds is None:
        yield compute
        return
    read_end, write_end = fds
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                result = (True, compute(), None)
            except BaseException as exc:
                import traceback

                result = (False, exc, traceback.format_exc())
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")
    outcome = []

    def wait():
        if not outcome:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            try:
                ok, value, text = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                ok, value, text = False, MvsdeError(
                    f"the --target auto process ended without a result (exit status {code})"
                ), None
            outcome.append((ok, value, text and _RemoteTraceback(f'\n"""\n{text}"""')))
        ok, value, remote = outcome[0]
        if not ok:
            raise value from remote
        return value

    try:
        yield wait
    except Exception:
        wait()
        raise
    finally:
        pipe.close()
        if not outcome:  # interrupted before the wait: stop the child
            import signal  # here, off every command's start-up (0.4 ms)

            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _finish_verify(report, out, command, **params):
    _echo_rows(report)
    click.echo(
        f"fit={report.fit_method}  extrapolated rate={report.intercept:.6f}  "
        f"target={report.target:.6f}  tol={report.tol:g}  "
        f"{'PASS' if report.passed else 'FAIL'}"
    )
    if report.details.get("censored_eps"):
        click.echo(
            f"censored eps (0 hits, excluded): {report.details['censored_eps']}"
        )
    _echo_warnings(report.details.get("warnings", ()))
    _finish(out, {"report": report.to_dict()}, report.passed, command, **params)


@main.command("verify-ldp")
@model_option
@_verify_common
@steps_option
@horizon_option
@seed_option
@click.option("--cells", default=16, show_default=True, help="Coarse control cells.")
@out_option
@_guarded
def verify_ldp_cmd(
    model_name, eps_list, event_text, particles, target, tol, jobs, steps,
    horizon, seed, cells, out,
):
    """Monte Carlo check of the small-noise rate against its optimizer."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    event = parse_event(event_text, spec.dim)
    eps_values = _parse_floats(eps_list, "--eps-list")
    config = OptimizerConfig(control_cells=cells, seed=seed)
    with _resolve_target(
        target, lambda: ldp_rate(spec, grid, event, config).value
    ) as target_value:
        report = check_ldp(
            spec, grid, eps_values, event, particles, seed,
            target=target_value, tol=tol, jobs=jobs,
        )
    _finish_verify(
        report, out, "verify-ldp",
        model=model_name, eps_list=eps_values, event=event_text,
        particles=particles, steps=steps, horizon=horizon, seed=seed, tol=tol,
        cells=cells, target=target,
    )


@main.command("verify-mdp")
@model_option
@_verify_common
@click.option(
    "--a-exp",
    default=0.25,
    show_default=True,
    help="Moderate scale exponent: a(eps) = eps**a_exp, in (0, 1/2).",
)
@steps_option
@horizon_option
@seed_option
@out_option
@_guarded
def verify_mdp_cmd(
    model_name, eps_list, event_text, particles, target, tol, jobs, a_exp,
    steps, horizon, seed, out,
):
    """Monte Carlo check of the moderate rate against its exact value."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    event = parse_event(event_text, spec.dim)
    eps_values = _parse_floats(eps_list, "--eps-list")
    with _resolve_target(
        target, lambda: mdp_rate(spec, grid, event).value
    ) as target_value:
        report = check_mdp(
            spec, grid, eps_values, event, particles, seed,
            a_exp=a_exp, target=target_value, tol=tol, jobs=jobs,
        )
    _finish_verify(
        report, out, "verify-mdp",
        model=model_name, eps_list=eps_values, event=event_text,
        particles=particles, a_exp=a_exp, steps=steps, horizon=horizon,
        seed=seed, tol=tol, target=target,
    )


@main.command("verify-limit")
@model_option
@click.option(
    "--eps-list", default="0.2,0.1,0.05,0.025", show_default=True,
    help="Comma-separated eps ladder.",
)
@click.option("--particles", default=2000, show_default=True)
@click.option("--tol", default=0.2, show_default=True, help="Slope tolerance.")
@jobs_option
@steps_option
@horizon_option
@seed_option
@out_option
@_guarded
def verify_limit_cmd(
    model_name, eps_list, particles, tol, jobs, steps, horizon, seed, out
):
    """Check convergence of the particle system to its limit flow."""
    spec = get_model(model_name)
    grid = make_time_grid(horizon, steps)
    eps_values = _parse_floats(eps_list, "--eps-list")
    report = check_limit_convergence(
        spec, grid, eps_values, particles, seed, tol=tol, jobs=jobs
    )
    for eps, value in zip(report.eps, report.values):
        click.echo(f"  eps={eps:<8g} E[sup|X - xbar|^2]={value:.6e}")
    click.echo(
        f"log-log slope={report.slope:.4f} (expected {report.expected_slope:g} "
        f"+/- {report.tol:g})  {'PASS' if report.passed else 'FAIL'}"
    )
    _echo_warnings(report.details.get("warnings", ()))
    _finish(
        out, {"report": asdict(report)}, report.passed, "verify-limit",
        model=model_name, eps_list=eps_values, particles=particles,
        steps=steps, horizon=horizon, seed=seed, tol=tol,
    )


@main.command("demo-example11")
@click.option("--eps", default=1e-4, show_default=True)
@click.option("--particles", default=10_000, show_default=True)
@click.option("--steps", default=800, show_default=True)
@seed_option
@out_option
@_guarded
def demo_cmd(eps, particles, steps, seed, out):
    """Frozen-law vs self-consistent controlled system, side by side."""
    report = demo_frozen_vs_selfconsistent(
        eps=eps, n_particles=particles, n_steps=steps, seed=seed
    )
    for line in report.narrative:
        click.echo(f"  {line}")
    click.echo(
        f"frozen center {report.frozen_center:.6f} vs e+1={report.frozen_target:.6f} "
        f"({'ok' if report.frozen_ok else 'off'}), "
        f"self-consistent {report.selfconsistent_center:.6f} vs "
        f"2e-1={report.selfconsistent_target:.6f} "
        f"({'ok' if report.selfconsistent_separates else 'off'}), "
        f"gap {report.gap:.3f} (>= {report.min_gap:g}: "
        f"{'ok' if report.gap_ok else 'off'})"
    )
    click.echo("PASS" if report.passed else "FAIL")
    _finish(
        out, {"report": asdict(report)}, report.passed, "demo-example11",
        eps=eps, particles=particles, steps=steps, seed=seed,
    )


if __name__ == "__main__":
    main()
