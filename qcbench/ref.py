"""Reference kernel: a fixed pure-Python workload that measures how fast
the machine runs Python at the moment.

On a shared host the same work can run 1.3x slower for minutes at a
time.  The benchmark times this kernel in fresh interpreters between the
certificates of every round, and scales the round's times to the speed
at which the kernel takes ``REF_S`` seconds.  The kernel imports nothing
from quivercert, so no change to quivercert can change its time.

Run as a script, it prints ``[wall_s, cpu_s]`` of one measurement as
JSON.
"""

from __future__ import annotations

import json
import time

REPS = 60
REF_S = 0.2  # the kernel's wall and CPU time at the reference speed


def kernel() -> int:
    """Row-reduce a fixed 40 x 40 matrix mod 101 on lists of ints, then
    fill a dict keyed by tuples: the kind of work quivercert does."""
    p, n = 101, 40
    rows = [[(i * 7 + j * 13 + i * j) % p for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    table = {}
    for k in range(4000):
        table[(k, k % 17, str(k))] = [k, k + 1]
    return r + len(table)


def measure() -> list[float]:
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REPS):
        kernel()
    return [time.perf_counter() - t0, time.process_time() - c0]


if __name__ == "__main__":
    print(json.dumps(measure()))
