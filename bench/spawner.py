"""CLI children run from a small helper process, so that their peak RSS is their own.

Linux carries a process's peak RSS across exec: a child that a big process
starts reports in `ru_maxrss` at least the peak its parent had reached when
it started the child. The benchmark process holds the program, numpy and the
workloads, so a child it started itself would report the benchmark's memory.
`Spawner` forks a helper before any of that is loaded; the helper starts each
child, times it and reads its rusage, and answers over a pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO


@dataclass
class Child:
    seconds: float
    code: int
    stdout: str
    rss_mb: float


def run_child(argv: list[str], env: dict[str, str], workdir: Path, timeout: float) -> Child:
    """Run one child process; wall time, exit code, stdout and peak RSS."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Child(seconds, proc.returncode, out.read().decode(), usage.ru_maxrss / 1024.0)


def _serve(requests: IO[str], replies: IO[str]) -> None:
    for line in requests:
        req = json.loads(line)
        try:
            child = run_child(req["argv"], req["env"], Path(req["workdir"]), req["timeout"])
            replies.write(json.dumps({"child": asdict(child)}) + "\n")
        except Exception as exc:  # reported to the benchmark, which raises it there
            replies.write(json.dumps({"error": repr(exc)}) + "\n")
        replies.flush()


class Spawner:
    """A helper process that runs children on request; `close` ends it and waits for it."""

    def __init__(self) -> None:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(down_w)
            os.close(up_r)
            code = 0
            try:
                _serve(os.fdopen(down_r), os.fdopen(up_w, "w"))
            except BaseException:
                code = 1
            os._exit(code)  # never run the benchmark's own exit handlers here
        os.close(down_r)
        os.close(up_w)
        self.pid = pid
        self.requests = os.fdopen(down_w, "w")
        self.replies = os.fdopen(up_r)

    def run(self, argv: list[str], env: dict[str, str], workdir: Path, timeout: float) -> Child:
        request = {"argv": argv, "env": env, "workdir": str(workdir), "timeout": timeout}
        self.requests.write(json.dumps(request) + "\n")
        self.requests.flush()
        line = self.replies.readline()
        if not line:
            raise RuntimeError("the child-spawning helper exited")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"could not run {argv}: {reply['error']}")
        return Child(**reply["child"])

    def close(self) -> None:
        self.requests.close()  # the helper ends at end of input
        os.waitpid(self.pid, 0)
        self.replies.close()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
