"""Objective-space primitives: dominance, Pareto fronts, hypervolume, metrics.

Every objective is maximized; callers with minimization targets negate before
entry. A reference point bounds dominated volume from below, and only points
that strictly exceed it in every coordinate enclose positive volume.
Hypervolume and hypervolume improvement both come from one box decomposition
of the region a front leaves undominated (FrontIndex), which each ParetoFront
builds once.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .files import atomic_write

MAX_HV_DIM = 6

METRICS_HEADER = ("iteration", "hv", "relative_hvi", "fraction_recovered", "batch_ids")


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"objective vector must be 1-dimensional and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("objective vector contains non-finite entries")
    return arr


def _as_matrix(points, m: int | None = None) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, m if m is not None else (arr.shape[1] if arr.ndim == 2 else 1))
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of objective vectors, got shape {arr.shape}")
    if m is not None and arr.shape[1] != m:
        raise ValueError(f"objective dimensions must match: expected {m}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("objective matrix contains non-finite entries")
    return arr


def _pair_masks(points: np.ndarray, others: np.ndarray):
    """(points, others) masks: others[k] >= points[i] everywhere, and > somewhere."""
    ge, gt = others[:, 0] >= points[:, :1], others[:, 0] > points[:, :1]
    for j in range(1, points.shape[1]):
        ge &= others[:, j] >= points[:, j:j + 1]
        gt |= others[:, j] > points[:, j:j + 1]
    return ge, gt


def _dominated_by(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Mask of points strictly dominated by at least one row of others.

    Two objectives take the Kung, Luccio & Preparata staircase: others
    collapse to the largest second objective at each distinct first one, and
    a point is dominated when the best second objective at or beyond its
    first is larger, or the best one strictly beyond it is at least as large.
    Other dimensions AND and OR one compare per objective (_pair_masks).
    Both walk points in chunks that bound peak memory.
    """
    out = np.zeros(points.shape[0], dtype=bool)
    if points.shape[1] == 2:
        order = np.argsort(others[:, 0])
        x, y = others[order, 0], others[order, 1]
        first = np.flatnonzero(x != np.append(np.nan, x[:-1]))  # where each distinct x starts
        # best[k]: the largest y at the k-th distinct x or beyond; the pads
        # stand for no x that large
        xs, top = np.append(x[first], np.nan), np.maximum.reduceat(y, first)
        best = np.append(np.maximum.accumulate(top[::-1])[::-1], -np.inf)
        chunk = 2 ** 12  # 2**16-row chunks' temporaries outgrew a few hundred rows' draws
        for start in range(0, points.shape[0], chunk):
            px, py = points[start:start + chunk, 0], points[start:start + chunk, 1]
            j = np.searchsorted(xs[:-1], px)
            out[start:start + chunk] = (best[j] > py) | (best[j + (xs[j] == px)] >= py)
        return out
    chunk = max(1, 2 ** 16 // max(1, others.shape[0]))
    for start in range(0, points.shape[0], chunk):
        ge, gt = _pair_masks(points[start:start + chunk], others)
        out[start:start + chunk] = (ge & gt).any(axis=1)
    return out


def non_dominated_mask(points) -> np.ndarray:
    """Boolean mask of points not strictly dominated by any other point.

    Duplicate rows do not dominate each other, so all copies are retained.
    """
    pts = _as_matrix(points)
    return ~_dominated_by(pts, pts)


@dataclass(frozen=True)
class ParetoFront:
    """A mutually non-dominated point set, all strictly above a reference point.

    Points keep insertion order; ids run parallel to points and may be None
    when the source candidate is unknown.
    """

    points: np.ndarray
    ids: tuple
    ref: np.ndarray

    def __post_init__(self):
        ref = _as_vector(self.ref)
        pts = _as_matrix(self.points, m=ref.size)
        if len(self.ids) != pts.shape[0]:
            raise ValueError(f"ids length {len(self.ids)} does not match point count {pts.shape[0]}")
        if pts.shape[0] and not np.all(pts > ref):
            raise ValueError("every front point must strictly dominate the reference point")
        if not np.all(non_dominated_mask(pts)):
            raise ValueError("front points must be mutually non-dominated")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "ref", ref)

    @classmethod
    def empty(cls, ref) -> "ParetoFront":
        ref = _as_vector(ref)
        return cls(points=np.empty((0, ref.size)), ids=(), ref=ref)

    @property
    def m(self) -> int:
        return self.ref.size

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def hypervolume(self) -> float:
        """Exact dominated hypervolume, read off the cached box index."""
        if self.m > MAX_HV_DIM:
            raise ValueError(f"hypervolume supports at most {MAX_HV_DIM} objectives, got {self.m}")
        return self.index.hypervolume()

    @cached_property
    def index(self) -> "FrontIndex":
        """Box decomposition behind hypervolume and hvi_many, built on first
        use."""
        return FrontIndex(self.points, self.ref)


def _admitted(points: np.ndarray, y: np.ndarray, ref: np.ndarray):
    """Mask of the incumbents that survive y's entry, or None if y is rejected.

    y enters only if it strictly dominates ref and no incumbent weakly
    dominates it, so equal duplicates are rejected; incumbents y weakly
    dominates drop out.
    """
    if not (y > ref).all() or (points >= y).all(axis=1).any():
        return None
    return ~(y >= points).all(axis=1)


def _unchecked_front(points: np.ndarray, ids: tuple, ref: np.ndarray) -> ParetoFront:
    """A ParetoFront whose maker guarantees what __post_init__ checks, built
    without those checks, which cost a dominance sweep."""
    out = object.__new__(ParetoFront)
    out.__dict__.update(points=points, ids=ids, ref=ref)
    return out


def update_front(front: ParetoFront, values, point_id=None) -> ParetoFront:
    """Fold one point into a front, returning a new front.

    The point enters only if it strictly dominates the reference point and no
    incumbent weakly dominates it; equal duplicates of an incumbent are
    rejected. Dominated incumbents are dropped.
    """
    y = _as_vector(values)
    if y.size != front.m:
        raise ValueError(f"objective dimensions must match: {y.size} vs {front.m}")
    keep = _admitted(front.points, y, front.ref)
    if keep is None:
        return front
    return _unchecked_front(np.vstack([front.points[keep], y[None, :]]),
                            tuple(i for i, k in zip(front.ids, keep) if k) + (point_id,), front.ref)


def build_front(points, ids, ref) -> ParetoFront:
    """The front update_front folds a labeled point set into, built in one pass:
    the first copy of each point above ref that no other point strictly
    dominates, in input order."""
    r = _as_vector(ref)
    pts = _as_matrix(points, m=r.size)
    ids = list(ids)
    if len(ids) != pts.shape[0]:
        raise ValueError(f"ids length {len(ids)} does not match point count {pts.shape[0]}")
    rows = np.flatnonzero(np.all(pts > r, axis=1))
    rows = rows[non_dominated_mask(pts[rows])]
    rows = np.sort(rows[np.unique(pts[rows], axis=0, return_index=True)[1]])
    return _unchecked_front(pts[rows], tuple(ids[i] for i in rows), r)


def hypervolume(points, ref) -> float:
    """Exact dominated hypervolume of a point set against a reference point.

    Points that fail to strictly dominate the reference contribute nothing.
    Supports 1 to 6 objectives; higher dimensions raise ValueError.
    """
    pts = _as_matrix(points)
    return build_front(pts, [None] * pts.shape[0], ref).hypervolume()


def _boxes(points: np.ndarray, ref: np.ndarray):
    """Disjoint boxes lo <= z < hi tiling the part of {z >= ref} that no point
    weakly dominates, as (m, boxes) arrays; hi may be +inf.

    Points must be mutually non-dominated. One objective gives the single box
    above the best point; two give the staircase, one segment per gap between
    consecutive points in ascending first objective. Above two, each slab
    between consecutive distinct levels of the last objective, top down, holds
    the (m-1)-objective boxes of the front of the points reaching over it. One
    slab split finds every slab's front as a row of an alive mask: a point
    enters the slab below its level and leaves at the first slab reached by a
    point strictly dominating it on the first m-1 objectives. At m = 3 all
    staircases are cut from the mask at once; above, each slab recurses.
    """
    m = ref.size
    if m == 1:
        best = points[:, 0].max() if points.shape[0] else ref[0]
        return np.array([[best]]), np.array([[np.inf]])
    if m == 2:
        # segment k spans [x_(k-1), x_k) above y_k, where x_(-1) = ref_0,
        # x_F = +inf and y_F = ref_1
        order = np.argsort(points[:, 0])
        xs, ys = points[order, 0], points[order, 1]
        lo = np.concatenate((ref[:1], xs, ys, ref[1:])).reshape(2, -1)
        hi = np.concatenate((xs, np.full(xs.size + 2, np.inf))).reshape(2, -1)
        return lo, hi
    levels, rank = np.unique(points[:, -1], return_inverse=True)
    tops, bottoms = np.append(np.inf, levels[::-1]), np.append(levels[::-1], ref[-1])
    head, enter, slab = points[:, :-1], levels.size - rank, np.arange(tops.size)[:, None]
    ge, gt = _pair_masks(head, head)
    gt |= np.tri(head.shape[0], k=-1, dtype=bool)  # of equal points, the first stays
    leave = np.where(ge & gt, enter, tops.size).min(axis=1, initial=tops.size)
    alive = (enter <= slab) & (slab < leave)
    if m == 3:  # slab by slab: ascending x, then the pad column, after which x restarts at ref_0
        order = np.argsort(head[:, 0])
        s, k = np.nonzero(np.hstack((alive[:, order], np.ones((tops.size, 1), dtype=bool))))
        x, y = head[order, 0], np.append(head[order, 1], ref[1])
        lo = np.stack((np.append(ref[0], np.append(x, ref[0])[k[:-1]]), y[k], bottoms[s]))
        return lo, np.stack((np.append(x, np.inf)[k], np.full(k.size, np.inf), tops[s]))
    los, his = [], []
    for row, top, bottom in zip(alive, tops, bottoms):
        lo, hi = _boxes(head[row], ref[:-1])
        los.append(np.vstack((lo, np.full((1, lo.shape[1]), bottom))))
        his.append(np.vstack((hi, np.full((1, hi.shape[1]), top))))
    return np.hstack(los), np.hstack(his)


def _covered(points, lo, hi, acc, side) -> np.ndarray:
    """Per row of points, the sum over boxes of prod_j clip(min(y_j, hi_j) - lo_j, 0).

    Box-major: row r fills column r of the C-ordered (boxes, columns)
    buffers acc and side, kept by callers (fresh 2**16-element buffers made
    m = 3 scoring about 60 % slower); lo[j], hi[j] are (boxes, 1) for one
    front, (boxes, columns) for one per column. numpy sums axis 0 one box at
    a time, in order, so a pad box at lo = hi = +inf adds exactly +0.0. A
    lone column it sums pairwise, so buffers keep at least two columns.
    """
    for j in range(points.shape[1]):
        f = side if j else acc
        np.minimum(points[:, j], hi[j], out=f)
        f -= lo[j]
        np.maximum(f, 0.0, out=f)
        if j:
            acc *= side
    return acc.sum(axis=0)[:points.shape[0]]


class FrontIndex:
    """The region a front leaves undominated, as disjoint boxes.

    The hypervolume improvement of y is the part of the box [ref, y] inside
    that region: the sum over boxes of prod_j clip(min(y_j, hi_j) - lo_j, 0).
    Every box starts at front or reference coordinates, so points weakly
    dominated by the front or not strictly above ref score exactly zero.
    """

    def __init__(self, points: np.ndarray, ref: np.ndarray):
        self.points = points
        self.ref = ref
        self.lo, self.hi = _boxes(points, ref)

    def gains(self, points) -> np.ndarray:
        """Hypervolume improvement of each row of points.

        Rows go in blocks of about 2**16 box-row pairs, so memory stays flat
        in the point count. A block is one _covered product in (boxes, rows)
        views of the buffers' heads, at least two columns wide, so every gain
        sums its boxes in order.
        """
        pts = np.asarray(points, dtype=float)
        n, boxes = pts.shape[0], self.lo.shape[1]
        rows = max(2, 2 ** 16 // boxes)
        buffers = np.empty((2, boxes * max(2, min(rows, n))))
        lo, hi = self.lo[:, :, None], self.hi[:, :, None]
        out = np.empty(n)
        for start in range(0, n, rows):
            block = pts[start:start + rows]
            acc, side = buffers[:, :boxes * max(2, len(block))].reshape(2, boxes, -1)
            out[start:start + len(block)] = _covered(block, lo, hi, acc, side)
        return out

    def hypervolume(self) -> float:
        """Volume the front dominates above ref, as a sum of non-negative terms.

        Along any line in objective 1 (0-based), the dominated part is
        [ref_1, t) and the box holding height t has lo_1 = t. So the columns
        under the boxes with lo_1 > ref_1, each (hi_0 - lo_0) x (lo_1 - ref_1)
        x prod_{j>=2} (hi_j - lo_j), tile the dominated region; none of them
        is unbounded. One objective gives lo_0 - ref_0.
        """
        lo, hi, ref = self.lo, self.hi, self.ref
        if ref.size == 1:
            return float(lo[0, 0] - ref[0])
        cols = lo[1] > ref[1]
        sides = hi[:, cols] - lo[:, cols]
        sides[1] = lo[1, cols] - ref[1]
        return float(np.prod(sides, axis=0).sum())

    def insert(self, values) -> "FrontIndex":
        """Index of the front with one point folded in by update_front's rules."""
        y = np.asarray(values, dtype=float)
        keep = _admitted(self.points, y, self.ref)
        if keep is None:
            return self
        return FrontIndex(np.vstack([self.points[keep], y[None, :]]), self.ref)


class FrontStack:
    """One front per Monte Carlo draw, each starting at front and grown by
    the draw's own values.

    boxes is one (m, B, draws) lo/hi pair: column ell holds draw ell's boxes
    in FrontIndex order, then pad boxes at lo = hi = +inf. gains is one
    _covered product with at least two buffer columns, so each per-draw gain
    is bitwise FrontIndex.gains of that draw's value alone. At m = 2 an
    accepted point is spliced into every draw's column at once; other m
    rebuild each changed draw's FrontIndex.
    """

    def __init__(self, front: ParetoFront, n_draws: int):
        index = front.index
        self.ref = index.ref
        self.indexes = None if index.ref.size == 2 else [index] * n_draws
        self.boxes = np.repeat(np.stack((index.lo, index.hi))[..., None], n_draws, axis=3)
        self.buffers = np.empty((2, index.lo.shape[1], max(2, n_draws)))

    def gains(self, values) -> np.ndarray:
        """Hypervolume improvement of values[ell] against draw ell's front."""
        return _covered(values, *self.boxes, *self.buffers)

    def insert(self, values) -> None:
        """Fold values[ell] into draw ell's front by update_front's rules,
        rewriting only changed draws' columns; B grows only when a changed
        draw needs more boxes."""
        if self.indexes is None:
            return self._splice(values)
        sizes = [index.points.shape[0] for index in self.indexes]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        points = np.concatenate([index.points for index in self.indexes])
        # _admitted's rejection test for every draw at once
        covered = np.bincount(owner[(points >= values[owner]).all(axis=1)], minlength=len(sizes))
        for ell in np.flatnonzero((covered == 0) & (values > self.ref).all(axis=1)):
            index = self.indexes[ell] = self.indexes[ell].insert(values[ell])
            b = index.lo.shape[1]
            self._reserve(b)
            self.boxes[:, :, :b, ell] = index.lo, index.hi
            self.boxes[:, :, b:, ell] = np.inf

    def _reserve(self, b: int) -> None:
        """Grow boxes, with pad boxes, and buffers to at least b boxes."""
        if b > self.boxes.shape[2]:
            pad = ((0, 0), (0, 0), (0, b - self.boxes.shape[2]), (0, 0))
            self.boxes = np.pad(self.boxes, pad, constant_values=np.inf)
            self.buffers = np.empty((2, b, self.buffers.shape[2]))

    def _splice(self, values) -> None:
        """insert at m = 2, for every draw at once. Column ell's points are its
        boxes' (hi_0, lo_1) but for the last box and the pads, at hi_0 = +inf."""
        (_, y), (x, _) = self.boxes
        real = x < np.inf
        rejected = (real & (x >= values[:, 0]) & (y >= values[:, 1])).any(axis=0)
        cols = np.flatnonzero(~rejected & (values > self.ref).all(axis=1))
        if not cols.size:
            return
        x, y, v = x[:, cols], y[:, cols], values[cols]
        # the points v does not weakly dominate, and v: no two share an x or
        # a y, so ascending x, _boxes' order, is descending y
        keep = real[:, cols] & ((x > v[:, 0]) | (y > v[:, 1]))
        xs = np.sort(np.vstack((np.where(keep, x, np.inf), v[:, 0])), axis=0)
        ys = -np.sort(np.vstack((np.where(keep, -y, np.inf), -v[:, 1])), axis=0)
        size = (xs < np.inf).sum(axis=0)
        row = np.arange(len(xs))[:, None]
        new = np.full((2, 2, len(xs), cols.size), np.inf)
        new[0, 0, 0], new[0, 0, 1:], new[1, 0] = self.ref[0], xs[:-1], xs
        new[0, 1] = np.where(row < size, ys, np.where(row == size, self.ref[1], np.inf))
        self._reserve(int(size.max()) + 1)
        self.boxes[..., cols] = new[:, :, :self.boxes.shape[2]]


def hvi_many(points, front: ParetoFront) -> np.ndarray:
    """Hypervolume improvement of each point against a fixed front."""
    return front.index.gains(_as_matrix(points, m=front.m))


def strictly_dominated_mask(points, front: ParetoFront) -> np.ndarray:
    """Mask of points strictly dominated by at least one front point."""
    return _dominated_by(_as_matrix(points, m=front.m), front.points)


def fraction_recovered(found_ids: Iterable, true_ids: Iterable) -> float:
    """Fraction of a known optimal id set present among found ids."""
    true_set = set(true_ids)
    if not true_set:
        raise ValueError("true Pareto id set is empty")
    found_set = set(found_ids)
    return len(found_set & true_set) / len(true_set)


def relative_hvi(hv_t: float, hv_0: float) -> float:
    """Relative hypervolume improvement over a baseline hypervolume."""
    if not hv_0 > 0:
        raise ValueError(f"baseline hypervolume must be positive, got {hv_0}")
    return (hv_t - hv_0) / hv_0


def front_to_dict(front: ParetoFront) -> dict:
    return {
        "ref_point": [float(v) for v in front.ref],
        "points": [
            {"id": pid, "values": [float(v) for v in row]}
            for pid, row in zip(front.ids, front.points)
        ],
    }


def front_rows(payload, m: int) -> np.ndarray:
    """The (n, m) objective rows of a front file: a saved front's {"id",
    "values"} entries or bare rows, under "points" or as the whole payload."""
    if isinstance(payload, dict):
        if "points" not in payload:
            raise ValueError("front file must contain a 'points' array")
        payload = payload["points"]
    try:
        if payload and isinstance(payload[0], dict):
            payload = [p["values"] for p in payload]
        rows = np.asarray(payload, dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed front payload: {exc}") from exc
    if rows.size == 0:
        return rows.reshape(0, m)
    if rows.ndim != 2 or rows.shape[1] != m:
        raise ValueError(f"front points must be rows of {m} objectives, got shape {rows.shape}")
    return rows


def front_from_dict(payload: dict) -> ParetoFront:
    try:
        ref = payload["ref_point"]
        ids = tuple(e["id"] for e in payload["points"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed front payload: {exc}") from exc
    ref = _as_vector(ref)
    return ParetoFront(points=front_rows(payload, ref.size), ids=ids, ref=ref)


def save_front(front: ParetoFront, path) -> None:
    with atomic_write(path) as fh:
        json.dump(front_to_dict(front), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class MetricRecord:
    """One campaign iteration's progress metrics."""

    iteration: int
    hv: float
    relative_hvi: float | None
    fraction_recovered: float | None
    batch_ids: tuple

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("iteration must be non-negative")
        if self.hv < 0:
            raise ValueError("hypervolume must be non-negative")
        if self.fraction_recovered is not None and not 0 <= self.fraction_recovered <= 1:
            raise ValueError("fraction_recovered must lie in [0, 1]")
        object.__setattr__(self, "batch_ids", tuple(str(b) for b in self.batch_ids))


def _format_float(value) -> str:
    return repr(float(value))


def write_metrics_csv(path, records: Sequence[MetricRecord]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for rec in records:
            writer.writerow([
                rec.iteration,
                _format_float(rec.hv),
                "" if rec.relative_hvi is None else _format_float(rec.relative_hvi),
                "" if rec.fraction_recovered is None else _format_float(rec.fraction_recovered),
                ";".join(rec.batch_ids),
            ])


def read_metrics_csv(path) -> list[MetricRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if tuple(header or ()) != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header: {header}")
        for row in reader:
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"malformed metrics row: {row}")
            records.append(MetricRecord(
                iteration=int(row[0]),
                hv=float(row[1]),
                relative_hvi=None if row[2] == "" else float(row[2]),
                fraction_recovered=None if row[3] == "" else float(row[3]),
                batch_ids=tuple(row[4].split(";")) if row[4] else (),
            ))
    return records
