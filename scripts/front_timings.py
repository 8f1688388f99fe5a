#!/usr/bin/env python3
"""Time the front engine on fixed sphere fronts at three to six objectives.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/front_timings.py

Each front holds n points of the positive unit sphere in m objectives, drawn
from seed m and measured against the origin, so every point is on the front.
Each line gives m, n, the front's box count, the hypervolume and the best of
REPEATS wall times of the free hypervolume() call (build_front, the box
index and the volume), in ms. The timings are informational: no threshold.
"""
import time

import numpy as np

from poolbo.pareto import build_front, hypervolume

FRONTS = ((3, 17), (3, 131), (4, 10), (4, 40), (5, 40), (6, 8), (6, 20))
REPEATS = 5


def sphere_front(m: int, n: int) -> np.ndarray:
    values = np.abs(np.random.default_rng(m).normal(size=(n, m)))
    return values / np.linalg.norm(values, axis=1, keepdims=True)


def main() -> None:
    for m, n in FRONTS:
        points, ref = sphere_front(m, n), np.zeros(m)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            hv = hypervolume(points, ref)
            times.append(time.perf_counter() - start)
        boxes = build_front(points, [None] * n, ref).index.lo.shape[1]
        print(f"m={m} n={n} boxes={boxes} hv={hv!r} ms={1e3 * min(times):.3f}")


if __name__ == "__main__":
    main()
