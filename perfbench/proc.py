"""Child processes of the benchmark: spawn, wait for ready, measure, stop.

Set-up time runs from spawning the program process to ready: the
``READY`` line of ``program.py``, or the first 200 on ``/healthz`` of a
``repro serve`` process.  Every child is stopped and waited for.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time

from loadgen import HttpError, get_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(ROOT, "perfbench", "program.py")

#: Longest wait for any child to become ready or to answer.
CHILD_TIMEOUT_S = 120.0


class ChildError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A child process whose stdout is read line by line with deadlines."""

    def __init__(self, argv: list[str]):
        self.is_program = PROGRAM in argv
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, bufsize=0,
        )
        self._buf = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self, timeout: float = CHILD_TIMEOUT_S) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ChildError(f"child {self.pid} timed out")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ChildError(f"child {self.pid} exited with {self.proc.wait()}")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def send(self, line: str) -> None:
        self.proc.stdin.write((line + "\n").encode("utf-8"))
        self.proc.stdin.flush()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ChildError("VmHWM missing")

    def stop(self, sig=signal.SIGTERM, timeout: float = 20.0) -> int:
        """Stop the child and wait for it.

        A ``program.py`` child exits by itself once its stdin closes; a
        ``repro serve`` child is sent ``sig``.  SIGTERM, not SIGINT: an
        interrupt that lands before the server's ``try`` block leaves its
        non-daemon serving thread running and the process alive.
        """
        self.proc.stdin.close()
        if self.is_program:
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def program(*args: str) -> Child:
    return Child([sys.executable, PROGRAM, *args])


def wait_ready(child: Child) -> float:
    """Seconds from spawn to the child's ``READY`` line."""
    while child.readline() != "READY":
        pass
    return time.perf_counter() - child.started


_URL = re.compile(r"on http://([0-9.]+):(\d+)")


def serve(*args: str) -> tuple[Child, int, float]:
    """Start ``repro serve``; return the child, its port and its set-up time."""
    child = Child([sys.executable, "-m", "repro", "serve", *args, "--port", "0"])
    try:
        while True:
            match = _URL.search(child.readline())
            if match:
                port = int(match.group(2))
                break
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            try:
                status, _ = get_json("127.0.0.1", port, "/healthz")
                if status == 200:
                    return child, port, time.perf_counter() - child.started
            except (OSError, HttpError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise ChildError("server never became healthy")
            time.sleep(0.002)
    except BaseException:
        child.stop(signal.SIGKILL)
        raise
