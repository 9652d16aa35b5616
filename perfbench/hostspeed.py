"""Host-speed probe: a fixed reference loop timed next to each op.

On a shared host one core runs the same code up to twice as slowly for
seconds at a time while another tenant loads it.  A loop that shares no code
with hjbkit slows with it, so scaling an op's seconds by the nominal over the
measured time of this loop, on the same core just before and just after the
op, removes much of that drift.  No change to hjbkit can move the loop.

The probes bracket an op closely only when the op is shorter than the slow
spells (about ten seconds); a longer op averages the drift over its own length
and is left as measured.
"""

import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.0084    # the loop's median time on the 2-core sandbox the benchmark was defined on
BURST = 5
MAX_SCALED_S = 10.0   # ops longer than this are left as measured
_ARRAY = np.linspace(0.0, 1.0, 64 * 1024).reshape(128, 512)


def reference_loop():
    """Seconds for a fixed mix of big-integer fractions and mid-size array arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 600):
        f = Fraction(k, 2**53 + k) * Fraction(2**53 - k, k + 1) - Fraction(1, 3)
        acc += f.numerator & 0xFF
    a = _ARRAY.copy()
    for _ in range(32):
        np.multiply(a, 0.999, out=a)
        a += _ARRAY
        np.maximum(a, _ARRAY[::-1], out=a)
    return time.perf_counter() - t0


def probe():
    """Median time of the reference loop over a short burst."""
    return statistics.median(reference_loop() for _ in range(BURST))


def nominal_seconds(seconds, probe_before, probe_after):
    """An op's seconds at the nominal host speed, from the probes around it."""
    if seconds > MAX_SCALED_S:
        return seconds
    return seconds * NOMINAL_S / (0.5 * (probe_before + probe_after))
