"""Child-process hygiene: start, stop and account for every subprocess.

A run fails if any child outlives it.  Subprocesses write their output
to files, never to a pipe, so a stray child cannot hold the benchmark's
output open; on Linux they also get SIGTERM if the benchmark dies.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:  # runs in the child between fork and exec
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except OSError:
        pass


class Children:
    """The subprocesses one run started."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], log_path: Path,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[Path] = None) -> subprocess.Popen:
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                list(argv), stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=env, cwd=cwd,
                preexec_fn=_die_with_parent)
        self._procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
        """Wait up to ``grace_s`` for ``proc`` to exit, then end it."""
        try:
            proc.wait(timeout=grace_s)
            return
        except subprocess.TimeoutExpired:
            pass
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def stop_all(self) -> None:
        while self._procs:
            proc = self._procs.pop()
            if proc.poll() is None:
                proc.terminate()
            self.stop(proc, grace_s=5.0)


def _parent_of(pid: int) -> Optional[Tuple]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may contain spaces; fields resume after ")".
    fields = stat[stat.rfind(")") + 2:].split()
    return fields[0], int(fields[1])


def live_children() -> List[int]:
    """Pids of this process's children that are still running.

    Zombies (ended, not yet waited for) do not count.
    """
    me = os.getpid()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        info = _parent_of(int(entry))
        if info is not None and info[1] == me and info[0] != "Z":
            alive.append(int(entry))
    return alive


def end_stragglers(grace_s: float = 5.0) -> List[int]:
    """Kill every live child; return the pids that had to be killed."""
    stragglers = live_children()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in live_children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while live_children() and time.monotonic() < deadline + grace_s:
        time.sleep(0.05)
    return stragglers
