"""Small process that spawns benchmark jobs: ``python3 -I -S launcher.py``.

Linux charges a child's max-RSS with the RSS of the process it was spawned
from, so jobs spawned straight from the benchmark client would report the
client's memory.  The client starts this launcher once and sends it one
JSON request per line on stdin:

    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}

It answers each with one JSON line: {"wall_s", "maxrss_kb", "exit_code"},
timing the job from spawn to exit.  A job still running after ``timeout``
seconds is killed.  The launcher exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
        signal.alarm(int(req["timeout"]))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        signal.alarm(0)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
