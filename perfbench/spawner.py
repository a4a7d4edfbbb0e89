"""Starts the benchmark's child processes, one at a time, and times them.

The max-RSS that wait4 reports for a child includes the peak RSS of the
process that spawned it, and the benchmark process grows while it checks
outputs and runs the traced workload.  So children are started from this
small process instead, which the benchmark starts before it imports
anything large.

Speed probe.  On a shared 2-vCPU virtual machine the same CPU-bound child
ran 1.5x slower for stretches of seconds to minutes (a fixed Python loop
switched between two speeds), which swamps the differences the benchmark
must resolve.  So this process and its children are pinned to one CPU, and
while a child runs a probe thread times a fixed ~0.3 ms loop on that CPU
every 20 ms.  `norm_s` is the child's wall time scaled by the mean of
PROBE_REF_S / probe time: the wall time the child would take at the speed
where the probe loop takes PROBE_REF_S.  A faster program lowers it in
proportion; a slower CPU phase does not raise it.

Protocol: one JSON request per stdin line, {"cmd", "timeout", "stdout",
"stderr"} (the last two are file paths); one JSON reply per stdout line,
{"code", "killed", "wall_s", "norm_s", "cpu_s", "maxrss_kb"}.  The process
exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time

PROBE_LOOP = 3000
PROBE_EVERY_S = 0.02
PROBE_REF_S = 300e-6  # the probe loop in the fast phase on a 2.0 GHz Xeon vCPU


def probe_once() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def run(req: dict) -> dict:
    speeds = []
    done = threading.Event()

    def probe():
        while True:
            speeds.append(PROBE_REF_S / probe_once())
            if done.wait(PROBE_EVERY_S):
                return

    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        prober = threading.Thread(target=probe)
        prober.start()
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            # wait without reaping, so the timer never signals a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            done.set()
            if not state["exited"]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        prober.join()
    return {"code": proc.returncode, "killed": state["killed"], "wall_s": wall,
            "norm_s": wall * sum(speeds) / len(speeds),
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
