"""Spawn processes on request; report wall time, peak RSS and exit code.

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path}``, runs it with this process's environment, and
writes one JSON reply per line, ``{"wall_s": ..., "rss_mb": ..., "code":
...}``.  Exits at end of input.

It runs as its own small process because on Linux a child's ru_maxrss
starts from the peak RSS of the address space it was spawned from.
Spawned straight from the benchmark, which holds parsed reports, every
child would report at least the benchmark's own peak.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def main() -> int:
    # Unwind on SIGTERM so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        request = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], FLAGS, 0o600),
                   (os.POSIX_SPAWN_OPEN, 2, request["stderr"], FLAGS, 0o600)]
        start = perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
        print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                          "code": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
