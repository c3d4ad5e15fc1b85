"""Kill a pool worker on purpose, in a child interpreter, for the pool tests.

A worker lost mid-batch must fail its batch at once. A regression back to
hanging must fail its test rather than stall the suite, so each kill runs
in a child interpreter (:func:`run_child`) that is killed, together with
its pool workers, when it overruns.

Inside the child, :func:`arm` swaps a pool's worker entry point for
:func:`kill_once`, which SIGKILLs the first worker that calls it and runs
the real entry point on every later call. The module uses only the
standard library, so a child interpreter need not import pytest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_armed: dict = {}


def arm(module, name: str, marker: str) -> None:
    """Replace the worker entry point ``module.name`` with :func:`kill_once`.

    Arm it before the pool starts: forked workers inherit the patch, and
    the pool pickles :func:`kill_once` by name. The first call creates the
    file ``marker``, so exactly one worker dies however many processes
    share it.
    """
    _armed.update(real=getattr(module, name), marker=marker)
    setattr(module, name, kill_once)


def kill_once(payload):
    """The armed entry point: SIGKILL this process on the first call."""
    try:
        os.close(os.open(_armed["marker"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _armed["real"](payload)
    os.kill(os.getpid(), signal.SIGKILL)


def run_child(script: str, cwd: Path, timeout: float = 60.0) -> dict:
    """Run ``script`` in a child interpreter; its last stdout line, as JSON.

    The child leads its own session. If it overruns ``timeout``, its whole
    process group, pool workers included, is killed and the test fails.
    Once it has exited, no process may be left in its group.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"no result after {timeout:.0f} s: the lost worker hung the pool"
        )
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("a pool worker outlived its parent")
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])
