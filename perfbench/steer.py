"""Keep a timed process on the quicker of its CPUs, and read the host's speed.

On a shared host each CPU of this process's affinity set swings between a
fast and a slow mode for seconds to minutes at a time; pure-Python code runs
30-60% slower in the slow one. A pass that stays on one CPU takes whatever
mode that CPU is in. The CPUs often change mode at different times, so a
process that moves to the quicker one sees a steadier machine.

`place()` probes every allowed CPU, pins the calling process to the
quickest and returns that probe. `start(interval)` re-checks from a SIGALRM
timer: it probes the current CPU and, only when that reads more than
SLOW_FACTOR above the quickest probe seen so far, probes the others and
moves. One process runs at a time, so this never asks for more CPUs than
the benchmark holds. The checks interrupt timed passes (1.5 ms each, 4 ms
when they probe every CPU); the time spent in them is subtracted from every
timing (`spent()`).

Both CPUs are also slow together for minutes at a time. `stop()` returns
the mean probe over the pass, the host's speed while the pass ran; run.py
uses it to put times measured in slow and fast periods on one scale.
"""

import os
import signal
from time import perf_counter

PROBE_LOOPS = 24000    # about 1.5 ms of interpreter work in the fast mode
SLOW_FACTOR = 1.2      # a probe this much above the best seen means "slow"
INTERVAL_S = 0.15

_state = {"cpus": (), "best": float("inf"), "checks": 0, "moves": 0,
          "probe_sum": 0.0, "spent": 0.0}


def _spin(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _probe():
    """Time of a short interpreter loop on the current CPU, in seconds.

    One timing, not the best of several: a CPU that is descheduled now and
    then must read slow, as the pass it runs does."""
    t = perf_counter()
    _spin(PROBE_LOOPS)
    return perf_counter() - t


def _allowed():
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return ()


def _pin(cpu):
    os.sched_setaffinity(0, {cpu})


def _fastest(cpus):
    """Probe each CPU in turn, pin to the quickest, return its probe."""
    timings = []
    for cpu in cpus:
        _pin(cpu)
        _spin(PROBE_LOOPS // 4)  # settle on the new CPU before timing
        timings.append((_probe(), cpu))
    best_t, best_cpu = min(timings)
    _pin(best_cpu)
    _state["best"] = min(_state["best"], best_t)
    return best_t


def place():
    """Pin this process to the quickest allowed CPU; return its probe."""
    if not _state["cpus"]:
        _state["cpus"] = _allowed()
    if len(_state["cpus"]) > 1:
        return _fastest(_state["cpus"])
    return _probe()


def _check(signum, frame):
    entered = perf_counter()
    # the probe before any move: the speed the pass has been running at
    t = _probe()
    _state["checks"] += 1
    _state["probe_sum"] += t
    _state["best"] = min(_state["best"], t)
    if len(_state["cpus"]) > 1 and t > _state["best"] * SLOW_FACTOR:
        before = os.sched_getaffinity(0)
        _fastest(_state["cpus"])
        if os.sched_getaffinity(0) != before:
            _state["moves"] += 1
    _state["spent"] += perf_counter() - entered


def spent():
    """Seconds spent in timer checks so far; timings subtract it."""
    return _state["spent"]


def start(interval=INTERVAL_S):
    """Place the process, then re-check every `interval` seconds."""
    _state["probe_sum"] = place()
    _state["checks"] = 1
    signal.signal(signal.SIGALRM, _check)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)


def stop():
    """Stop the timer. Returns the checks and moves made since start() and
    the mean probe, in ms, of the CPU the process was on at each check."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    return {"checks": _state["checks"], "moves": _state["moves"],
            "probe_ms": 1e3 * _state["probe_sum"] / _state["checks"]}
