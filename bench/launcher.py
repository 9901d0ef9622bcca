"""Starts the benchmark's CLI invocations from a small helper process.

Linux charges a child's ``ru_maxrss`` with the resident size of the process
that forked it (the forked address space starts at the parent's size, and
``exec`` keeps that high-water mark). Children forked from the benchmark
itself, which holds the reference data, would therefore report the
benchmark's size instead of their own. The helper started here stays small:
it reads one JSON request per line on stdin, runs ``python -m basketflex.cli``
with the given arguments in a fresh interpreter and answers with the exit
code, the child's peak RSS and its wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path


class Launcher:
    """Client side: owns the helper process; ``close`` stops and reaps it."""

    def __init__(self, env: dict, cwd: Path):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, argv: list[str], log: Path) -> tuple[int, int, float]:
        """Run one invocation; stdout/stderr go to ``log`` + .out/.err.

        Returns (exit code, peak RSS in KiB, wall seconds from spawn to reap).
        """
        request = {"argv": argv, "stdout": str(log.with_suffix(".out")),
                   "stderr": str(log.with_suffix(".err"))}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        reply = json.loads(reply)
        return reply["code"], reply["maxrss_kib"], reply["wall_s"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "basketflex.cli", *request["argv"]],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "maxrss_kib": usage.ru_maxrss, "wall_s": wall}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
