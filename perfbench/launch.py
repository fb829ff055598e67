"""Run one command and record its wall time, peak memory, CPU time and exit code.

    python3 -S perfbench/launch.py LOG RESULT_JSON COMMAND...

The command's output goes to LOG; RESULT_JSON receives wall_s, rss_mb,
cpu_s and returncode.  On Linux a child's ru_maxrss also counts the
resident memory of the process it was started from, up to its exec.  This
launcher is a small fresh process, so the figure it reads is the
command's own peak and not that of the benchmark process.
"""
import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> None:
    log, result, cmd = argv[0], argv[1], argv[2:]
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "returncode": proc.returncode}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
