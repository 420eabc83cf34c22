"""vCPU speed sampling, so times from a noisy shared VM stay comparable.

On a shared 2-vCPU VM each vCPU's speed flips between a fast and a slow
state (about 1.9x apart) for seconds to minutes at a time, independently
of the other vCPU, and CPU time slows exactly as wall time does.  Raw wall
times of the same work therefore spread by 30% or more across runs.

Before each child, the parent pins itself to the vCPU that is fastest at
that moment; the child inherits the pinning.  While the child runs,
the parent wakes every ``INTERVAL_S`` and times a fixed probe loop on that
vCPU, which costs the child a few percent of the CPU.  A timed section of
the child is then rescaled by the mean of ``REFERENCE_PROBE_S / probe``
over the samples taken during it: its wall seconds at a fixed reference
speed.  Over ten runs, rescaled times of the same work spread several
times less than raw ones (figures in ``perfbench/README.md``).
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import List, Sequence, Set, Tuple

#: Seconds between probes while a child runs.
INTERVAL_S = 0.01
#: Probe duration at the reference speed (the fast state of the 2-vCPU VM
#: the benchmark was tuned on).  Only the scale of rescaled times depends
#: on it, not their ratios.
REFERENCE_PROBE_S = 0.25e-3
#: A section shorter than this is rated by the samples within this span
#: around its middle; a few probe samples alone give a noisy factor.
MIN_SPAN_S = 0.25

Sample = Tuple[float, float]  # (perf_counter at probe start, probe seconds)


def pin_to_fastest_cpu(cpus: Set[int], probes: int = 5) -> int:
    """Pin this process, and so the next child it starts, to whichever of
    ``cpus`` runs the probe fastest right now.  A vCPU tends to stay in its
    state for seconds, so this keeps most children on a fast vCPU."""
    best, best_time = min(cpus), float("inf")
    if len(cpus) > 1:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            elapsed = min(probe() for _ in range(probes))
            if elapsed < best_time:
                best, best_time = cpu, elapsed
    os.sched_setaffinity(0, {best})
    return best


def probe() -> float:
    """Time a fixed, interpreter-bound loop (dict updates, like the
    pipeline's hot code)."""
    started = time.perf_counter()
    table: dict = {}
    for index in range(2000):
        key = index & 255
        table[key] = table.get(key, 0) + index
    return time.perf_counter() - started


def wait_sampling(process: subprocess.Popen, timeout: float) -> List[Sample]:
    """Wait for ``process``, probing the vCPU every ``INTERVAL_S``.

    Raises :class:`subprocess.TimeoutExpired` after ``timeout`` seconds,
    leaving the process running for the caller to kill.
    """
    samples: List[Sample] = []
    deadline = time.monotonic() + timeout
    while process.poll() is None:
        if time.monotonic() > deadline:
            raise subprocess.TimeoutExpired(process.args, timeout)
        time.sleep(INTERVAL_S)
        samples.append((time.perf_counter(), probe()))
    return samples


def factor(samples: Sequence[Sample], start: float, end: float) -> float:
    """Mean of ``REFERENCE_PROBE_S / probe`` over the samples taken in
    ``[start, end]`` widened to at least ``MIN_SPAN_S``; the nearest sample
    when none falls inside, and 1 when there are none at all."""
    middle, half = (start + end) / 2, max(end - start, MIN_SPAN_S) / 2
    inside = [duration for taken, duration in samples
              if middle - half <= taken <= middle + half]
    if not inside and samples:
        inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    if not inside:
        return 1.0
    return sum(REFERENCE_PROBE_S / duration for duration in inside) / len(inside)


def rescaled(samples: Sequence[Sample], start: float, end: float) -> float:
    """Seconds ``[start, end]`` would take at the reference speed."""
    return (end - start) * factor(samples, start, end)
