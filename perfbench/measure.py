"""Run one command in a fresh process and time it against core speed.

A shared 2-core machine changes speed in phases of a few seconds: the same
command varies by 20-40 % in raw wall time from run to run, and the same
happens to the benchmark's own pure-Python loops at the same moments.  So
the child and this process are pinned to one core, and every `PROBE_EVERY`
seconds while the child runs this process wakes, runs a fixed
pure-Python probe (Fraction and dict work, the mix dyntwist spends its
time on) and records the probe's CPU time.  The probe shares the child's
core, so its mean CPU time tracks the core's speed over the same
interval.  A command's normalized time is

    wall * PROBE_REFERENCE_S / mean(probe CPU time)

in seconds at the reference speed (a core on which the probe takes
PROBE_REFERENCE_S).  The probe takes about 3 % of the core.  Raw wall
times are kept next to the normalized ones.

Peak memory is the child's VmHWM, read from /proc after every probe.  The
rusage of a waited child is no use here: Linux folds the parent's own
peak RSS into it at exec, so it never reads below the benchmark's size.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from fractions import Fraction

PROBE_EVERY = 0.02
PROBE_REFERENCE_S = 0.0006


def probe():
    """CPU seconds of a fixed pure-Python unit of work."""
    start = time.thread_time()
    s = Fraction(0)
    d = {}
    for i in range(1, 200):
        s += Fraction(1, i % 97 + 1)
        d[(i % 50, i % 7)] = s
    return time.thread_time() - start


def pin_to_one_core():
    """Pin this process (and the children it starts) to one core."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Measured:
    __slots__ = ("wall_s", "norm_s", "returncode", "timed_out", "maxrss_mb",
                 "stdout", "stderr")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def _peak_rss_kb(pid):
    """VmHWM of a running process, or 0 once it has gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_exit(pid, timeout):
    """Wait for pid to exit, probing the core meanwhile.

    Returns (probe samples, peak RSS in kB, timed_out).  A pidfd makes the
    wait end as soon as the child exits, so the probe cadence adds no
    delay.
    """
    samples = [probe()]
    peak = _peak_rss_kb(pid)
    deadline = time.perf_counter() + timeout
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            ready, _, _ = select.select([pidfd], [], [], PROBE_EVERY)
            if ready:
                return samples, peak, False
            if time.perf_counter() > deadline:
                return samples, peak, True
            samples.append(probe())
            peak = max(peak, _peak_rss_kb(pid))
    finally:
        os.close(pidfd)


def run(argv, *, env, cwd, timeout, out_path, err_path):
    """Run argv to completion (or kill it at timeout) and measure it."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            samples, peak_kb, timed_out = _wait_exit(proc.pid, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if timed_out:
            proc.kill()
        end = time.perf_counter()
        proc.wait()
    wall = end - start
    mean_probe = sum(samples) / len(samples)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Measured(
        wall_s=wall,
        norm_s=wall * PROBE_REFERENCE_S / mean_probe,
        returncode=None if timed_out else proc.returncode,
        timed_out=timed_out,
        maxrss_mb=peak_kb / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )
