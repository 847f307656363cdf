"""Start benchmark jobs from a small process, so their peak RSS is their own.

Linux carries the forking process's peak RSS into a child's ru_maxrss at
exec, so jobs forked by the benchmark itself, which holds the reference
outputs, would all report at least its peak.  This launcher is started
before the benchmark loads anything; it reads one JSON request per line from
stdin, {"argv", "stdout", "stderr", "timeout"}, runs the job and answers with
one JSON line, {"wall_s", "cpu_s", "maxrss_kb", "exit_code"}, read from
os.wait4.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
