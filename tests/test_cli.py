import json
import os
import pickle
import re
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from mvsde import cli, dynamics, verify
from mvsde.cli import main, parse_event
from mvsde.errors import (
    DivergenceError,
    InvalidArgumentError,
    NoConvergenceError,
    NumericError,
)
from mvsde.rate import EventSpec


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_event_grammar(tmp_path):
    ev = parse_event("pin:1.5,2.5:0.1", dim=2)
    assert ev.kind == "pin_terminal" and ev.tol == 0.1
    np.testing.assert_allclose(ev.target, [1.5, 2.5])
    half = parse_event("half:1.0:3.0", dim=1)
    assert half.kind == "halfspace" and half.level == 3.0
    for bad in ("pin:1.0", "blob:1:2", "pin:1,2:0.1", "pin:abc:0.1"):
        with pytest.raises(InvalidArgumentError):
            parse_event(bad, dim=1)


def test_models_and_version(runner):
    out = runner.invoke(main, ["models"])
    assert out.exit_code == 0
    assert "example11" in out.output
    assert runner.invoke(main, ["--version"]).exit_code == 0


def test_simulate_writes_manifest(runner, tmp_path):
    report = tmp_path / "sim.json"
    out = runner.invoke(
        main,
        [
            "simulate", "--eps", "0.05", "--particles", "100", "--steps", "50",
            "--seed", "4", "--out", str(report),
        ],
    )
    assert out.exit_code == 0, out.output
    data = json.loads(report.read_text())
    assert data["manifest"]["command"] == "simulate"
    assert data["manifest"]["seed"] == 4
    assert "terminal_mean" in data["summary"]


def test_unknown_model_exits_2(runner):
    out = runner.invoke(main, ["simulate", "--model", "nope"])
    assert out.exit_code == 2
    assert "error:" in out.output


def test_skeleton_limit_and_path_out(runner, tmp_path):
    csv = tmp_path / "limit.csv"
    out = runner.invoke(
        main, ["skeleton", "--kind", "limit", "--steps", "200", "--path-out", str(csv)]
    )
    assert out.exit_code == 0, out.output
    assert "2.718281828" in out.output
    assert csv.read_text().startswith("t,x0")


def test_rate_pin_and_control_roundtrip(runner, tmp_path):
    ctl_file = tmp_path / "ctl.json"
    out = runner.invoke(
        main,
        [
            "rate", "--kind", "ldp", "--event", "pin:3.218281828:0.001",
            "--steps", "200", "--control-out", str(ctl_file),
        ],
    )
    assert out.exit_code == 0, out.output
    assert "rate value: 0.1245" in out.output
    # feed the optimized control back through the skeleton solver
    out2 = runner.invoke(
        main,
        ["skeleton", "--kind", "ldp", "--steps", "200", "--control", str(ctl_file)],
    )
    assert out2.exit_code == 0, out2.output
    assert "3.217" in out2.output  # lands on the pin ball boundary


def test_rate_mdp_value(runner):
    out = runner.invoke(
        main, ["rate", "--kind", "mdp", "--event", "pin:1.0:0.0", "--steps", "400"]
    )
    assert out.exit_code == 0, out.output
    assert "rate value: 0.5 " in out.output


def test_rate_unreachable_exits_4(runner):
    # pure jump paths cannot go below -T: the halfspace -x >= 2 is out of reach
    out = runner.invoke(
        main,
        [
            "rate", "--model", "pure_jump", "--event", "half:-1.0:2.0",
            "--steps", "60", "--cells", "6", "--starts", "2",
        ],
    )
    assert out.exit_code == 4, out.output
    assert "unreachable" in out.output


@pytest.mark.parametrize(
    "event, code, value",
    [
        ("pin:1,0:0.1", 0, "0.405 "),
        ("pin:0,1:0.1", 4, "inf "),
        ("pin:1,0:0", 0, "0.5 "),
        ("half:0,1:-0.1", 0, "0 "),
        ("half:0,1:0.5", 4, "inf "),
    ],
)
def test_rate_mdp_with_a_singular_response(runner, degenerate_file, event, code, value):
    out = runner.invoke(
        main,
        [
            "rate", "--kind", "mdp", "--model", str(degenerate_file), "--steps", "50",
            "--event", event,
        ],
    )
    assert out.exit_code == code, out.output
    assert f"mdp rate value: {value}" in out.output


def test_rate_mdp_rejects_path_events(runner, tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("t,x0\n0.0,0.0\n1.0,0.0\n")
    out = runner.invoke(
        main, ["rate", "--kind", "mdp", "--event", f"path:{ref}:0.1", "--steps", "50"]
    )
    assert out.exit_code == 2, out.output


@pytest.mark.parametrize("columns", [2, 0])
@pytest.mark.parametrize(
    "command", [["rate"], ["verify-ldp", "--eps-list", "0.2,0.1", "--particles", "100"]]
)
def test_path_event_must_match_model_dimension(runner, tmp_path, columns, command):
    # a path CSV on the run's own grid, with the wrong number of components
    ref = tmp_path / "ref.csv"
    header = ",".join(["t"] + [f"x{j}" for j in range(columns)])
    nodes = np.linspace(0.0, 1.0, 41).tolist()
    rows = [",".join([repr(t)] + ["1.0"] * columns) for t in nodes]
    ref.write_text("\n".join([header] + rows) + "\n")
    event = ["--model", "example11", "--event", f"path:{ref}:0.1", "--steps", "40"]
    out = runner.invoke(main, command + event)
    assert out.exit_code == 2, out.output
    assert f"path file has {columns} components, model has 1" in out.output


def test_verify_ldp_gate_and_jobs_stability(runner, tmp_path):
    args = [
        "verify-ldp", "--event", "half:1.0:3.218281828", "--eps-list", "0.3,0.2",
        "--particles", "2000", "--steps", "100", "--seed", "3",
        "--target", "0.125", "--tol", "0.5",
    ]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    out1 = runner.invoke(main, args + ["--jobs", "1", "--out", str(r1)])
    assert out1.exit_code == 0, out1.output
    assert "PASS" in out1.output
    out2 = runner.invoke(main, args + ["--jobs", "2", "--out", str(r2)])
    assert out2.exit_code == 0
    assert json.loads(r1.read_text()) == json.loads(r2.read_text())
    manifest = json.loads(r1.read_text())["manifest"]
    assert manifest["cells"] == 16 and manifest["target"] == "0.125"
    # absurd target with a tight tolerance trips the gate
    out3 = runner.invoke(
        main,
        args[:-4] + ["--target", "9.0", "--tol", "0.001"],
    )
    assert out3.exit_code == 4
    assert "FAIL" in out3.output


def test_verify_mdp_manifest_records_target(runner, tmp_path):
    report = tmp_path / "mdp.json"
    out = runner.invoke(
        main,
        [
            "verify-mdp", "--event", "half:1.0:0.5", "--eps-list", "0.01,0.004",
            "--particles", "2000", "--steps", "50", "--seed", "1",
            "--target", "auto", "--tol", "1.0", "--out", str(report),
        ],
    )
    assert out.exit_code == 0, out.output
    manifest = json.loads(report.read_text())["manifest"]
    assert manifest["command"] == "verify-mdp" and manifest["target"] == "auto"


@pytest.mark.parametrize(
    "args, code",
    [
        (["simulate", "--eps", "0.05", "--particles", "100", "--steps", "20"], 0),
        (["rate", "--kind", "mdp", "--event", "pin:1.0:0", "--steps", "50"], 0),
        (
            [
                "verify-ldp", "--event", "half:1.0:3.218281828", "--eps-list",
                "0.3,0.2", "--particles", "500", "--steps", "50",
                "--target", "0.125", "--tol", "0.5",
            ],
            0,
        ),
        (
            # a failed gate still writes its report
            [
                "verify-ldp", "--event", "half:1.0:3.218281828", "--eps-list",
                "0.3,0.2", "--particles", "500", "--steps", "50",
                "--target", "9.0", "--tol", "0.001",
            ],
            4,
        ),
        (
            [
                "verify-mdp", "--event", "half:1.0:0.5", "--eps-list", "0.01,0.004",
                "--particles", "500", "--steps", "50", "--tol", "1.0",
            ],
            0,
        ),
        (["verify-limit", "--eps-list", "0.2,0.05", "--particles", "300", "--steps", "40"], 0),
        (["demo-example11", "--particles", "200"], 0),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_report_commands_share_one_exit(runner, tmp_path, args, code):
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    for report in reports:
        out = runner.invoke(main, args + ["--seed", "3", "--out", str(report)])
        assert out.exit_code == code, out.output
        assert f"report written to {report}" in out.output
    assert json.loads(reports[0].read_text())["manifest"]["command"] == args[0]
    assert reports[0].read_bytes() == reports[1].read_bytes()


@pytest.mark.parametrize("mean_out, record", [(False, "summary"), (True, "mean")])
def test_simulate_keeps_node_means_only_for_mean_out(
    runner, tmp_path, monkeypatch, mean_out, record
):
    seen = []
    simulate = cli.simulate_mvsde

    def spy(*args, **kwargs):
        seen.append(kwargs["record"])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_mvsde", spy)
    args = ["simulate", "--particles", "50", "--steps", "20"]
    if mean_out:
        args += ["--mean-out", str(tmp_path / "mean.csv")]
    out = runner.invoke(main, args)
    assert out.exit_code == 0, out.output
    assert seen == [record]
    assert runner.invoke(main, ["simulate", "--record", "full"]).exit_code == 2


def test_verification_ladders_report_their_warnings(runner, tmp_path):
    report = tmp_path / "ldp.json"
    out = runner.invoke(
        main,
        [
            "verify-ldp", "--event", "half:1.0:3.218281828", "--eps-list", "0.9,0.6",
            "--particles", "200", "--steps", "20", "--target", "0.125",
            "--tol", "10", "--out", str(report),
        ],
    )
    assert out.exit_code == 0, out.output
    assert "warning: eps=0.9 is outside the small-noise regime" in out.stderr
    warnings = json.loads(report.read_text())["report"]["details"]["warnings"]
    assert [w.split(" ")[0] for w in warnings] == ["eps=0.9", "eps=0.6"]


def test_verify_limit_quick(runner):
    out = runner.invoke(
        main,
        [
            "verify-limit", "--eps-list", "0.2,0.05", "--particles", "300",
            "--steps", "80", "--jobs", "2",
        ],
    )
    assert out.exit_code == 0, out.output
    assert "slope" in out.output


def test_bad_event_grammar_exits_2(runner):
    out = runner.invoke(main, ["rate", "--event", "pin:1.0"])
    assert out.exit_code == 2


_CONFIG = "n_starts and control_cells must be >= 1"
_HALF = "halfspace normal and level must be finite"
_TARGET = "--target must be a finite number"
_TOL = "tol must be a finite number >= 0"
_DISTINCT = "eps values must be distinct"
_JOBS = "jobs must be an integer >= 1"
_SEED = "-1 is not in the range x>=0"


@pytest.mark.parametrize(
    "args, message",
    [
        (["rate", "--event", "half:1.0:1.0", "--cells", "0"], _CONFIG),
        (["rate", "--event", "half:1.0:1.0", "--cells", "-2"], _CONFIG),
        (["rate", "--event", "half:1.0:1.0", "--starts", "0"], _CONFIG),
        (["verify-ldp", "--event", "half:1.0:1.0", "--cells", "0"], _CONFIG),
        (["rate", "--event", "half:1.0:nan"], _HALF),
        (["rate", "--event", "half:nan:1.0"], _HALF),
        (["rate", "--kind", "mdp", "--event", "half:1.0:inf"], _HALF),
        (["rate", "--event", "half:1.0:abc"], "cannot parse halfspace level"),
        (["rate", "--event", "pin:nan:0.1"], "pin target must be finite"),
        (["rate", "--event", "pin:1.0:nan"], "pin tolerance must be a finite number"),
        (["verify-ldp", "--event", "half:1.0:1.0", "--target", "nan"], _TARGET),
        (["verify-mdp", "--event", "half:1.0:0.5", "--target", "nan"], _TARGET),
        (["verify-ldp", "--event", "half:1.0:1.0", "--target", "0.125", "--tol", "-1"],
         _TOL),
        (["verify-mdp", "--event", "half:1.0:0.5", "--target", "0.125", "--tol", "-1"],
         _TOL),
        (["verify-limit", "--tol", "-1"], _TOL),
        (["verify-ldp", "--event", "half:1.0:1.0", "--eps-list", "0.2,0.2",
          "--target", "0.125"], _DISTINCT),
        (["verify-mdp", "--event", "half:1.0:0.5", "--eps-list", "0.01,0.004,0.010",
          "--target", "0.125"], _DISTINCT),
        (["verify-limit", "--eps-list", "0.1,0.2,0.1"], _DISTINCT),
        (["verify-ldp", "--event", "half:1.0:1.0", "--target", "0.125", "--jobs", "0"],
         _JOBS),
        (["verify-ldp", "--event", "half:1.0:1.0", "--target", "0.125", "--jobs", "-2"],
         _JOBS),
        (["verify-mdp", "--event", "half:1.0:0.5", "--target", "0.125", "--jobs", "0"],
         _JOBS),
        (["verify-limit", "--jobs", "-1"], _JOBS),
        (["verify-ldp", "--event", "half:1.0:1.0", "--target", "0.125", "--seed", "-1"],
         _SEED),
        (["rate", "--event", "half:1.0:1.0", "--seed", "-1"], _SEED),
    ],
)
def test_invalid_numbers_exit_2(runner, args, message):
    out = runner.invoke(main, args)
    assert out.exit_code == 2, out.output
    assert message in out.output


@pytest.mark.parametrize(
    "args, name, body",
    [
        (["rate", "--event", "path:{f}:0.1"], "bad.csv", "t,x0\n0.0,1.0\n1.0,abc\n"),
        (["skeleton", "--control", "{f}"], "bad.json", "[1, 2]"),
        (["skeleton", "--model", "{f}"], "bad.json", '{"name": "x", "dim": "one", "initial": [0]}'),
        # bytes that are not UTF-8, and a directory (body None) in the file's place
        (["rate", "--event", "path:{f}:0.1"], "bad.csv", b"\xff\xfet,x0\n"),
        (["skeleton", "--control", "{f}"], "bad.json", b"\xff\xfe{}"),
        (["skeleton", "--model", "{f}"], "bad.json", b"\xff\xfe{}"),
        (["rate", "--event", "path:{f}:0.1"], "dir.csv", None),
        (["skeleton", "--control", "{f}"], "dir.json", None),
        (["skeleton", "--model", "{f}"], "dir.json", None),
    ],
)
def test_malformed_files_exit_2(runner, tmp_path, args, name, body):
    f = tmp_path / name
    if body is None:
        f.mkdir()
    elif isinstance(body, bytes):
        f.write_bytes(body)
    else:
        f.write_text(body)
    out = runner.invoke(main, [a.format(f=f) for a in args])
    assert out.exit_code == 2, out.output
    assert "Traceback" not in out.output


_QUICK_RATE = ["rate", "--event", "half:1.0:1.0", "--steps", "20", "--cells", "2", "--starts", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--particles", "10", "--steps", "10", "--out", "{f}"],
        ["simulate", "--particles", "10", "--steps", "10", "--mean-out", "{f}"],
        ["skeleton", "--kind", "limit", "--steps", "10", "--path-out", "{f}"],
        [*_QUICK_RATE, "--control-out", "{f}"],
    ],
)
def test_unwritable_outputs_exit_2(runner, tmp_path, args):
    # an output in a directory that does not exist
    f = tmp_path / "missing" / "out.file"
    out = runner.invoke(main, [a.format(f=f) for a in args])
    assert out.exit_code == 2, out.output
    assert "cannot write" in out.output
    assert "Traceback" not in out.output


# --target auto: the rate runs in a forked child while the ladder runs

_JUMP_AUTO = [
    "verify-ldp", "--model", "pure_jump", "--event", "half:1.0:1.0",
    "--eps-list", "0.2,0.1", "--particles", "300", "--steps", "20",
    "--seed", "3", "--tol", "10",
]
_MDP_AUTO = [
    "verify-mdp", "--event", "half:1.0:0.5", "--eps-list", "0.01,0.004",
    "--particles", "500", "--steps", "20", "--seed", "1", "--tol", "10",
]


@pytest.fixture
def forks(monkeypatch):
    """Spy on os.fork and os.waitpid; yields (forked pids, reaped pids)."""
    forked, reaped = [], []
    fork, waitpid = os.fork, os.waitpid

    def spy_fork():
        pid = fork()
        forked.append(pid)
        return pid

    def spy_waitpid(pid, options):
        out = waitpid(pid, options)
        if out[0] == pid:
            reaped.append(pid)
        return out

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(os, "waitpid", spy_waitpid)
    yield forked, reaped
    assert sorted(forked) == sorted(reaped)
    for pid in forked:
        with pytest.raises(ChildProcessError):
            waitpid(pid, os.WNOHANG)


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


@pytest.mark.parametrize("args", [_JUMP_AUTO, _MDP_AUTO], ids=["ldp", "mdp"])
def test_auto_target_inline_path_writes_the_forked_report(
    runner, tmp_path, monkeypatch, forks, args
):
    forked = tmp_path / "forked.json"
    out = runner.invoke(main, args + ["--out", str(forked)])
    assert out.exit_code in (0, 4), out.output
    assert len(forks[0]) == 1
    monkeypatch.delattr(os, "fork")
    inline = tmp_path / "inline.json"
    out2 = runner.invoke(main, args + ["--out", str(inline)])
    assert out2.exit_code == out.exit_code, out2.output
    assert inline.read_bytes() == forked.read_bytes()
    assert out2.output.replace("inline.json", "forked.json") == out.output


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_auto_target_error_exits_3_with_its_message(runner, monkeypatch, forks, fork):
    monkeypatch.setattr(cli, "ldp_rate", _raise(NumericError("optimizer blew up")))
    if not fork:
        monkeypatch.delattr(os, "fork")
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 3, out.output
    assert out.output == "numerical failure: optimizer blew up\n"


def test_auto_target_error_comes_before_the_ladder_error(runner, monkeypatch, forks):
    # the target used to run first, so its error wins over the ladder's
    monkeypatch.setattr(cli, "ldp_rate", _raise(NumericError("optimizer blew up")))
    monkeypatch.setattr(cli, "check_ldp", _raise(InvalidArgumentError("ladder broke")))
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 3
    assert out.output == "numerical failure: optimizer blew up\n"


def test_ladder_error_under_auto_target_keeps_its_message(runner, forks):
    out = runner.invoke(main, _JUMP_AUTO[:5] + ["--eps-list", "0.1"] + _JUMP_AUTO[7:])
    assert out.exit_code == 2, out.output
    assert out.output == "error: verification needs at least two eps values\n"
    assert len(forks[0]) == 1


def test_typed_errors_cross_the_pipe_with_their_attributes(runner, monkeypatch, forks):
    # BaseException pickles its __dict__ next to args, so step and residual
    # survive without a __reduce__ of their own
    for exc in (DivergenceError("went to infinity", step=5),
                NoConvergenceError("stalled", residual=0.25)):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and back.args == exc.args
        assert back.__dict__ == exc.__dict__
    monkeypatch.setattr(cli, "ldp_rate", _raise(DivergenceError("went to infinity", step=5)))
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 3
    assert out.output == "numerical failure: went to infinity\n"


def test_auto_target_child_without_a_result_exits_3(runner, monkeypatch, forks):
    monkeypatch.setattr(cli, "ldp_rate", lambda *args: os._exit(7))
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 3
    assert out.output == (
        "error: the --target auto process ended without a result (exit status 7)\n"
    )


def test_interrupted_ladder_kills_and_reaps_the_target(runner, monkeypatch, forks):
    monkeypatch.setattr(cli, "ldp_rate", lambda *args: time.sleep(60))
    monkeypatch.setattr(verify, "simulate_lanes", _raise(KeyboardInterrupt()))
    start = time.perf_counter()
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 1 and "Aborted!" in out.output
    assert time.perf_counter() - start < 30
    assert len(forks[0]) == 1


@pytest.mark.parametrize("where", ["ladder", "target"])
def test_out_of_memory_exits_3(runner, monkeypatch, forks, where):
    oom = _raise(MemoryError("Unable to allocate 8.00 GiB"))
    monkeypatch.setattr(cli, "check_ldp" if where == "ladder" else "ldp_rate", oom)
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 3
    assert out.output == "error: out of memory: Unable to allocate 8.00 GiB\n"


def test_auto_target_computes_inline_when_the_fork_fails(runner, tmp_path, monkeypatch):
    pipes = []
    pipe = os.pipe

    def spy_pipe():
        fds = pipe()
        pipes.extend(fds)
        return fds

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", spy_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    failed = tmp_path / "failed.json"
    out = runner.invoke(main, _JUMP_AUTO + ["--out", str(failed)])
    assert out.exit_code in (0, 4), out.output
    assert len(pipes) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    monkeypatch.delattr(os, "fork")
    inline = tmp_path / "inline.json"
    out2 = runner.invoke(main, _JUMP_AUTO + ["--out", str(inline)])
    assert out2.exit_code == out.exit_code, out2.output
    assert inline.read_bytes() == failed.read_bytes()


def test_fork_warning_is_shown_not_raised(runner, monkeypatch, forks):
    # Python >= 3.12 warns in the parent, after the child exists, when it
    # forks a process with threads; the suite turns warnings into errors
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with pytest.warns(DeprecationWarning, match="multi-threaded"):
        warnings.simplefilter("error", DeprecationWarning)
        out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code in (0, 4), out.output
    assert len(forks[0]) == 1


def _optimizer_with_a_bug(*args):
    return 1 / 0


def test_unexpected_target_error_keeps_the_child_traceback(runner, monkeypatch, forks):
    monkeypatch.setattr(cli, "ldp_rate", _optimizer_with_a_bug)
    out = runner.invoke(main, _JUMP_AUTO)
    assert out.exit_code == 1
    assert isinstance(out.exception, ZeroDivisionError)
    remote = out.exception.__cause__
    assert type(remote).__name__ == "_RemoteTraceback"
    assert "_optimizer_with_a_bug" in str(remote)
    assert "ZeroDivisionError: division by zero" in str(remote)


_OVER_BUDGET = [
    ["simulate", "--particles", "100000", "--steps", "2"],
    [
        "verify-ldp", "--model", "pure_jump", "--event", "half:1.0:1.0",
        "--eps-list", "0.2,0.1", "--particles", "100000", "--steps", "2", "--target", "0.4",
    ],
    [
        "verify-mdp", "--event", "half:1.0:0.5", "--eps-list", "0.01,0.004",
        "--particles", "100000", "--steps", "2", "--target", "0.1",
    ],
    ["verify-limit", "--eps-list", "0.2,0.1", "--particles", "100000", "--steps", "2"],
    ["demo-example11", "--particles", "100000", "--steps", "2"],
]


@pytest.mark.parametrize("args", _OVER_BUDGET, ids=lambda args: args[0])
def test_a_run_over_the_memory_budget_exits_2(runner, monkeypatch, args):
    monkeypatch.setattr(dynamics, "_memory_limit", lambda: 2**20)
    out = runner.invoke(main, args)
    assert out.exit_code == 2, out.output
    assert re.fullmatch(
        r"error: the run needs about [1-9][\d,]* MiB of memory, more than the 1 MiB this "
        r"process may use\n",
        out.output,
    )


def test_a_trillion_particles_exit_2_before_allocating(runner, monkeypatch):
    monkeypatch.setattr(dynamics, "_memory_limit", lambda: 8 * 2**30)
    out = runner.invoke(main, ["simulate", "--particles", "1000000000000", "--steps", "2"])
    assert out.exit_code == 2
    assert out.output == (
        "error: the run needs about 38,146,973 MiB of memory, more than the 8,192 MiB "
        "this process may use\n"
    )
