"""Host-speed probe: fixed pure-Python work, independent of graphpsd.

The benchmark runs on shared hosts whose speed drifts by up to 1.7x over
seconds to minutes, and every command slows with it.  The probe is the same
work every time, so its duration measures the host's speed at that moment.
Time metrics are reported at a reference host speed:

    reported = measured * reference probe time / probe time measured nearby

In process, ``spin()`` runs before a command whenever 0.1 s has passed since
the last probe (run.py, PROBE_EVERY_S).  For set-up time the probe is a fresh
interpreter running this file (``python probe.py``), timed next to each fresh
interpreter that imports graphpsd.  Neither the probe's time nor the scaling
hides a change in the program: the probe never calls it.
"""

from __future__ import annotations

SPIN_REF_MS = 5.0  # spin() on the reference host
FRESH_REF_S = 0.06  # `python probe.py` on the reference host
FRESH_SPINS = 8


def spin():
    table, acc = {}, []
    for i in range(10000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc.append((key, i & 15))
    acc.sort()
    return len(table) + acc[-1][0]


if __name__ == "__main__":
    for _ in range(FRESH_SPINS):
        spin()
