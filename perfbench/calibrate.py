"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

The benchmark was tuned on a shared 2-core machine whose other tenants slow
every op, by up to about 1.9x, in phases that last from seconds to minutes.
The runner times this kernel between ops and scales each pass's times by
(REFERENCE_S / the pass's median kernel time) ** BETA.  Times then read as
seconds at the speed at which the kernel takes REFERENCE_S.

BETA is below 1 because the workloads feel a phase less than the kernel
does.  Over ten runs per workload that straddled slow and fast phases on the
tuning machine, log pass time against log kernel time had slopes of 0.58
(windows), 0.67 (sweep) and 0.74 (cli).  The run-to-run spread of the pass
time was then 0.21, 0.30 and 0.33 unscaled, and 0.10, 0.05 and 0.10 with
BETA = 0.75.

The kernel is interpreted Python of the engine's kind: tuple sums grouped in
a dict, as block enumeration does, and fraction-free integer elimination, as
the exact rank does.  It never calls polysyz, so a change to the program
cannot change the scale.  The correction is not exact: a busy sibling
hyperthread slows this kernel and numpy-heavy work (the modular rank in
`windows`) by different factors.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

# median kernel time on the tuning machine (2 cores, Python 3.11) in a steady phase
REFERENCE_S = 0.0175
# time the kernel again before an op once this long has passed since the last time
EVERY_S = 0.5
BETA = 0.75

_GENS = [(i % 5, (i * 3) % 7, i % 3) for i in range(14)]
_MATRIX = [[(i * j + 3) % 11 - 5 for j in range(14)] for i in range(14)]


def _round():
    blocks = {}
    for S in itertools.combinations(range(14), 3):
        s = (0, 0, 0)
        for k in S:
            s = tuple(a + b for a, b in zip(s, _GENS[k]))
        blocks.setdefault(s, []).append(S)
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c]
            if f:
                rows[r] = [rows[c][k] * f - rows[r][k] * rows[c][c] for k in range(n)]
                g = math.gcd(*rows[r])
                if g > 1:
                    rows[r] = [v // g for v in rows[r]]
    return len(blocks)


def scale(kernel_times) -> float:
    """Factor that maps times measured alongside `kernel_times` to the reference speed."""
    return (REFERENCE_S / statistics.median(kernel_times)) ** BETA


def sample() -> float:
    """Seconds the kernel takes now."""
    t = time.perf_counter()
    for _ in range(10):
        _round()
    return time.perf_counter() - t
