"""Seeded almost-cube cloud for the `cover` workload, written in the
`cloud_rows` CSV format that `kind: file` configs load.

Level n (4..20) contributes all 2^k vertices, k = ceil(sqrt(n)), of a cube on
modes 2(n+1)..2(n+k) at log scale -0.35 n, each coordinate jittered in log
magnitude by the seeded generator.  A few points sit far below double range
(log magnitude near -800), so box counting cannot represent the cloud and
`fractal_dimension_estimate` falls back to greedy ball covers in log space.

The program sees only the CSV, which perfbench/run.py writes into each run
directory from the run's --seed.
"""

from __future__ import annotations

import math
import random

LEVELS = range(4, 21)
LOG_SCALE_PER_LEVEL = -0.35
JITTER = 0.05
DEEP_POINTS = 4
DEEP_LOGMAG = -800.0


def cover_rows(seed: int):
    """(point_id, tag, mode_index, sign, logmag) rows; empty points carry the
    (0, 0, -inf) placeholder row exactly as `cloud_rows` writes it."""
    rng = random.Random(seed)
    rows = []
    pid = 0
    for n in LEVELS:
        k = math.ceil(math.sqrt(n))
        base = LOG_SCALE_PER_LEVEL * n
        for p in range(2**k):
            tag = f"cube:n={n}:p={p}"
            bits = [j for j in range(1, k + 1) if (p >> (j - 1)) & 1]
            if not bits:
                rows.append((pid, tag, 0, 0, "-inf"))
            for j in bits:
                logmag = base + rng.uniform(-JITTER, JITTER)
                rows.append((pid, tag, 2 * (n + j), 1, f"{logmag:.17g}"))
            pid += 1
    for d in range(DEEP_POINTS):
        logmag = DEEP_LOGMAG + rng.uniform(-JITTER, JITTER)
        rows.append((pid, f"deep:{d}", 2 * (max(LEVELS) + 1 + d), 1, f"{logmag:.17g}"))
        pid += 1
    return rows


def write_cover_cloud(path: str, seed: int) -> int:
    """Write the seeded cloud to `path`; returns the number of points."""
    rows = cover_rows(seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("point_id,tag,mode_index,sign,logmag\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return rows[-1][0] + 1

