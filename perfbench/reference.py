"""A fixed loop that times the box, not attractorlab.

The shared box the benchmark runs on changes speed by 20-50% over minutes,
for wall and CPU time alike, so raw command times of one tree spread past
any useful bound from run to run.  run.py times this loop in its own
process right before and right after every command process and scales the
command's times by REF_S / (mean of the two loop times): they then read
as seconds on the box at its reference speed.  The loop is benchmark code
and shares nothing with src/, so a change to the program moves the scaled
times exactly as much as the raw ones; only the box's speed is divided out.

It mixes the kinds of work attractorlab does: interpreted Python with dict
and float operations, NumPy calls on small arrays, and NumPy sorts of
arrays larger than the caches.
"""

from __future__ import annotations

import time

import numpy as np

# Median of reference_s() on the reference box (2-core Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6) when the benchmark was defined.  It only
# fixes the unit of the scaled times; it is never re-measured.
REF_S = 0.75


def _python() -> None:
    table = {}
    for i in range(2_000_000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5


def _small_arrays() -> None:
    a = np.arange(64.0)
    for _ in range(120_000):
        a = np.sqrt(a * a + 1.0) - 0.5


def _large_arrays() -> None:
    b = np.random.default_rng(0).random(1_000_000)
    for _ in range(12):
        b = np.sort(b)[::-1].copy()


def reference_s() -> float:
    """Seconds one pass of the fixed loop takes now."""
    started = time.perf_counter()
    _python()
    _small_arrays()
    _large_arrays()
    return time.perf_counter() - started
