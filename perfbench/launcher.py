"""Start benchmark children from a small process and report their own rusage.

On Linux a child's ``ru_maxrss`` includes the high-water RSS of the process
that spawned it, so children spawned by the benchmark itself, which holds the
generated corpus and the reference ledger, would report its memory.  This
process is a plain Python interpreter of about 14 MiB.  It reads one JSON
request per line on standard input (argv, env, cwd, log, timeout), runs the
child to completion and answers with one JSON line: exit code, wall seconds,
CPU seconds and peak RSS in KiB.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=request["env"],
                cwd=request["cwd"],
            )
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        reply = {
            "exit": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "maxrss_kib": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
