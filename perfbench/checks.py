"""Output checks for a benchmark campaign, with a hypervolume routine of the
benchmark's own that shares no code with poolbo.pareto."""
from __future__ import annotations

import math

HV_RTOL = 1e-12


def _hv_2d(points, ref) -> float:
    """Sweep from the largest first objective; each point adds one strip."""
    hv = 0.0
    top = ref[1]
    for x, y in sorted(points, key=lambda p: (-p[0], -p[1])):
        if y > top:
            hv += (x - ref[0]) * (y - top)
            top = y
    return hv


def _hv_3d(points, ref) -> float:
    """Slice along the third objective: slab volume = 2-d area x slab height."""
    levels = sorted({p[2] for p in points}, reverse=True)
    hv = 0.0
    for i, z in enumerate(levels):
        below = levels[i + 1] if i + 1 < len(levels) else ref[2]
        area = _hv_2d([(p[0], p[1]) for p in points if p[2] >= z], ref)
        hv += area * (z - below)
    return hv


def reference_hypervolume(points, ref) -> float:
    """Dominated hypervolume of `points` (maximised) above `ref`, m = 2 or 3."""
    ref = tuple(float(v) for v in ref)
    inside = [tuple(float(v) for v in p) for p in points
              if all(v > r for v, r in zip(p, ref))]
    if not inside:
        return 0.0
    if len(ref) == 2:
        return _hv_2d(inside, ref)
    if len(ref) == 3:
        return _hv_3d(inside, ref)
    raise ValueError(f"reference hypervolume covers m = 2 or 3, got {len(ref)}")


def iteration_labels(state, initial_ids) -> list:
    """Objective rows that each iteration added, in iteration order.

    A batch member enters the dataset only when its genome was new, so the
    rows of iteration t are the batch ids first seen in the dataset at t.
    """
    row = {cid: i for i, cid in enumerate(state.dataset.ids)}
    seen = set(initial_ids)
    out = []
    for rec in state.history:
        fresh = [cid for cid in rec.batch_ids if cid in row and cid not in seen]
        seen.update(fresh)
        out.append([tuple(state.dataset.objectives[row[cid]]) for cid in fresh])
    return out


def check_campaign(state, hv_initial: float, ref, pools) -> list:
    """Return one (iteration, message) per failed check; [] when all pass.

    `pools[t - 1]` is the set of candidate ids iteration t chose from.
    """
    failures = []
    prev = hv_initial
    for t, rec in enumerate(state.history, start=1):
        if len(set(rec.batch_ids)) != len(rec.batch_ids):
            failures.append((t, "batch ids are not unique"))
        outside = [cid for cid in rec.batch_ids if cid not in pools[t - 1]]
        if outside:
            failures.append((t, f"batch ids outside the pool: {outside[:3]}"))
        if rec.hv < prev:
            failures.append((t, f"hv decreased from {prev!r} to {rec.hv!r}"))
        prev = rec.hv
    if state.history:
        final = state.history[-1]
        want = reference_hypervolume(state.dataset.objectives, ref)
        if not math.isclose(final.hv, want, rel_tol=HV_RTOL, abs_tol=0.0):
            failures.append((final.iteration,
                             f"final hv {final.hv!r} != reference {want!r}"))
    return failures
