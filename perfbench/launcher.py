"""Lean launcher: spawns every measured process and reports its resource use.

On Linux a child's ru_maxrss starts from the RSS of the process that
forked it, even across exec, so a parent holding inputs or outputs would
inflate every peak_rss_mb reading.  This process holds nothing: it reads
one JSON request per line on stdin,

    {"argv": [...], "out": path, "err": path, "limit": seconds}

runs `sys.executable argv...` with stdout and stderr to those files, and
answers one JSON line

    {"exit": code or null, "timed_out": bool, "wall": s, "cpu": s, "rss_kb": n}

A process still running at its limit gets SIGTERM, then SIGKILL one second
later.  The launcher exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv, out, err, limit):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, FLAGS, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], limit)[0]
        wall = time.perf_counter() - t0
        if timed_out:
            os.kill(pid, signal.SIGTERM)
            if not select.select([pidfd], [], [], 1.0)[0]:
                os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return {
        "exit": None if timed_out else os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["out"], req["err"], req["limit"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
