"""Host-speed scaling of measured times.

The two-core host this benchmark was defined on runs everything up to
~1.7x slower for minutes at a time (a neighbouring tenant loading the
physical core; the guest reports no steal time), and pure-Python and
numpy code slow down alike.  Raw medians then jump between quiet and
slow periods by more than any bound the benchmark may set, even within
ten consecutive runs of unchanged code.

So the harness times a fixed pure-Python loop right before and after
every op and every set-up, outside their timing, and scales each
measured time by ``REFERENCE_S / probe``: the end-to-end metrics read
as host time at that host's quiet speed.  The probe never calls the
program, so a faster or slower program moves the scaled times as much
as the raw ones (``selfcheck.py`` checks both); the raw figures are in
each run's report line.
"""

from __future__ import annotations

PROBE_ITERATIONS = 10_000

#: Probe time on the definition host in a quiet period (KVM guest,
#: 2 vCPUs of an Intel Xeon family 6 model 207, CPython 3.11).
REFERENCE_S = 0.0005


def probe(clock) -> float:
    """Seconds for the fixed loop: the faster of two runs, to skip interrupts."""
    best = float("inf")
    for _ in range(2):
        began = clock()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        best = min(best, clock() - began)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
