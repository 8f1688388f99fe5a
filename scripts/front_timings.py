#!/usr/bin/env python3
"""Time the front engine on fixed sphere fronts at three to six objectives,
and the per-draw fantasy fronts of a FrontStack at three and four.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/front_timings.py

Each front holds n points of the positive unit sphere in m objectives, drawn
from seed m and measured against the origin, so every point is on the front.
Each line gives m, n, the front's box count, the hypervolume and the best of
REPEATS wall times of the free hypervolume() call (build_front, its boxes and
the volume), in ms.

Each stack line feeds `inserts` rows of values, drawn from seed m, to a
FrontStack of 256 draws that starts from an empty front: draw ell's value is
a point of the positive unit sphere scaled by a radius in [0.8, 1], so some
values join their draw's front and some are dominated there. It gives the
mean wall time per insert in ms and the final box count B (the most boxes
any draw holds). This is the m >= 3 path of qehvi_mc's greedy select. The
timings are informational: no threshold.
"""
import time

import numpy as np

from poolbo.pareto import FrontStack, ParetoFront, build_front, hypervolume

FRONTS = ((3, 17), (3, 131), (4, 10), (4, 40), (5, 40), (6, 8), (6, 20))
REPEATS = 5
STACKS = ((3, 256, 40), (4, 256, 12))


def sphere_front(m: int, n: int) -> np.ndarray:
    values = np.abs(np.random.default_rng(m).normal(size=(n, m)))
    return values / np.linalg.norm(values, axis=1, keepdims=True)


def stack_values(m: int, n_draws: int, inserts: int) -> np.ndarray:
    rng = np.random.default_rng(m)
    values = np.abs(rng.normal(size=(inserts, n_draws, m)))
    radius = rng.uniform(0.8, 1.0, size=(inserts, n_draws, 1))
    return radius * values / np.linalg.norm(values, axis=2, keepdims=True)


def main() -> None:
    for m, n in FRONTS:
        points, ref = sphere_front(m, n), np.zeros(m)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            hv = hypervolume(points, ref)
            times.append(time.perf_counter() - start)
        boxes = build_front(points, [None] * n, ref).boxes[0].shape[1]
        print(f"m={m} n={n} boxes={boxes} hv={hv!r} ms={1e3 * min(times):.3f}")
    for m, n_draws, inserts in STACKS:
        values = stack_values(m, n_draws, inserts)
        stack = FrontStack(ParetoFront.empty(np.zeros(m)), n_draws)
        start = time.perf_counter()
        for row in values:
            stack.insert(row)
        ms = 1e3 * (time.perf_counter() - start) / inserts
        print(f"stack m={m} draws={n_draws} inserts={inserts} boxes={stack.boxes.shape[2]} "
              f"ms_per_insert={ms:.3f}")


if __name__ == "__main__":
    main()
