"""Certified partitions and the equivariant spectral flow of operator paths.

A partition certificate is a list of parameter knots and positive levels such
that on each segment no block eigenvalue can touch the level band, by a
perturbation bound checked on endpoint and midpoint samples, at the speed of
the fastest path piece that meets the segment. The
flow is then the telescoping sum of the classes of the eigenspaces in
[0, level] at consecutive knots, an integer vector of irrep multiplicities.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import sampling
from ._eig import block_diag, symmetric_part
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    EndpointNotInvertible,
    NotEquivariant,
    OutOfRange,
    SflowError,
    WrongGroup,
    raise_first,
)
from .groups import (
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    _class_rows,
    direct_sum_action,
    forgetful_F,
)
from .operators import (
    CLUSTER_FACTOR,
    INVERT_FACTOR,
    OperatorPath,
    PathStack,
    _equivariance_rows,
    _increasing,
    _norm_bound,
    _singular_rows,
    cluster_values,
    compression_tail,
    concatenate,
    direct_sum_paths,
    eigendata_each,
    interval_columns,
    morse_classes,
    reverse,
    segment_speeds,
    window_faults,
)

MARGIN_FLOOR = 1e-7
MAX_DEPTH = 40
# past this depth a bisection midpoint can round onto an end of its segment
DEPTH_CAP = 53
# pending segments of each path tried per bisection round (_partitions), with
# one stacked eigensolve
BISECTION_BATCH = 64


@dataclass(frozen=True)
class FlowOptions:
    """Tolerances and depth budget for certification and class extraction.

    tol_cluster and tol_invert are relative factors, applied as
    factor * (1 + ||block||). min_depth forces that many bisection levels
    before a segment may be accepted, which is how independence of the result
    from the partition is exercised. max_depth is at most DEPTH_CAP = 53:
    every midpoint down to that depth is a double strictly inside its
    segment. Both tolerances must be finite and nonnegative.
    """

    tol_cluster: float = CLUSTER_FACTOR
    tol_invert: float = INVERT_FACTOR
    max_depth: int = MAX_DEPTH
    min_depth: int = 0

    def __post_init__(self) -> None:
        for name in ("tol_cluster", "tol_invert"):
            value = getattr(self, name)
            # NaN fails every comparison, so it must be rejected explicitly
            if not math.isfinite(value) or value < 0.0:
                raise OutOfRange(f"{name} must be finite and nonnegative, "
                                 f"got {value}")
        if not (self.max_depth >= 0 and self.min_depth >= 0):  # NaN fails
            raise OutOfRange("depths must be nonnegative")
        if self.min_depth > self.max_depth:
            raise OutOfRange(
                f"min_depth {self.min_depth} exceeds max_depth {self.max_depth}")
        if self.max_depth > DEPTH_CAP:
            raise OutOfRange(
                f"max_depth {self.max_depth} exceeds {DEPTH_CAP}")


@dataclass(frozen=True)
class CertifiedPartition:
    """Knots 0 = k_0 < ... < k_N = 1 with one level and one certified margin
    per segment. The margin is the distance kept between the level and every
    eigenvalue envelope on that segment, less the eigensolver error bound."""

    knots: tuple[float, ...]
    levels: tuple[float, ...]
    margins: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots) < 2 or self.knots[0] != 0.0 or self.knots[-1] != 1.0:
            raise OutOfRange(f"knots must run from 0 to 1, got {self.knots}")
        _increasing(np.asarray(self.knots, dtype=float))
        if len(self.levels) != len(self.knots) - 1:
            raise OutOfRange(f"{len(self.levels)} levels for "
                             f"{len(self.knots) - 1} segments")
        if len(self.margins) != len(self.levels):
            raise OutOfRange("one margin per level required")
        # NaN fails both
        if not all(a > 0.0 for a in self.levels):
            raise OutOfRange("levels must be positive")
        if not all(m > 0.0 for m in self.margins):
            raise OutOfRange("margins must be positive")


@dataclass(frozen=True)
class Crossing:
    """One segment whose eigenspace class changed, with the change itself."""

    interval: tuple[float, float]
    klass: VirtualRep


@dataclass(frozen=True)
class SflReport:
    """Flow result: the virtual class, its plain integer shadow, the
    certificate it was computed on, and the per-segment contributions."""

    sfl_G: VirtualRep
    sfl: int
    partition: CertifiedPartition
    segment_contributions: tuple[VirtualRep, ...]
    crossings: tuple[Crossing, ...]


class _Eigendata:
    """Blocks and eigendata of the requests of one _flow_rows call that
    share a block size, at one cluster tolerance.

    Each (request, parameter) pair solved is one row of growing arrays: the
    parameter lam, the symmetrized block, the eigenvalues w, eigenvectors v,
    block norm, clustering tolerance and solver error bound, and ok, false
    where the solve failed (errors holds that row's EigenFailure)."""

    def __init__(self, paths: Sequence[OperatorPath], tol_cluster: float):
        self.paths, self.tol_cluster = list(paths), tol_cluster
        self.stack = PathStack(self.paths)
        self.size, self.errors = 0, {}
        self._grow(16 + 8 * len(self.paths))

    def _grow(self, rows: int) -> None:
        n = self.paths[0].dim
        for name, shape, kind in [("lam", (), float), ("blocks", (n, n), float),
                                  ("w", (n,), float), ("v", (n, n), float),
                                  ("norm", (), float), ("tol", (), float),
                                  ("err", (), float), ("ok", (), bool)]:
            grown = np.zeros((rows, *shape), dtype=kind)
            if self.size:
                grown[:self.size] = getattr(self, name)[:self.size]
            setattr(self, name, grown)

    def add(self, which: np.ndarray, lams: np.ndarray,
            speeds_of: Sequence[OperatorPath] = ()) -> np.ndarray:
        """Rows of the blocks of request which[j] at lams[j], interpolated
        together and solved in one stacked eigensolve; a block that fails
        to solve fails alone (eigendata_each).

        The piece differences of the paths of speeds_of whose speeds are not
        solved yet join that eigensolve as they are (symmetrizing them again
        would change the bits of subnormal entries), and each path whose
        differences all solve gets the speeds of its own solve, their
        _norm_bound over its knot gaps."""
        b = symmetric_part(self.stack.blocks(which, lams))
        unsolved = list({id(p): p for p in speeds_of if p._speeds is None}.values())
        start, k = self.size, len(b)
        if start + k > len(self.ok):
            self._grow(max(2 * len(self.ok), start + k))
        self.size += k
        w, v, norm, tol, err, ok, errors = eigendata_each(np.concatenate(
            [b, *(p._diffs for p in unsolved)]) if unsolved else b,
            self.tol_cluster)
        for name, values in zip(("lam", "blocks", "w", "v", "norm", "tol",
                                 "err", "ok"), (lams, b, w, v, norm, tol, err, ok)):
            getattr(self, name)[start:self.size] = values[:k]
        self.errors.update((start + i, e) for i, e in errors.items() if i < k)
        bound = _norm_bound(norm, err)
        for p in unsolved:
            if ok[k:k + len(p._diffs)].all():
                p._speeds = bound[k:k + len(p._diffs)] / np.diff(p.knots)
            k += len(p._diffs)
        return np.arange(start, self.size)


def _certify(w: np.ndarray, err: np.ndarray, rad: np.ndarray,
             tails: np.ndarray, tol_cluster: float,
             n: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Look for one admissible level on each of S segments at once.

    w is the (S, 3, N) array of the eigenvalues at the left end, midpoint and
    right end of each segment, err the (S, 3) solver error bounds of those
    spectra, rad the Lipschitz radius of each segment (speed times half
    length) and tails whether its path has a tail. Where n is given, segment
    s has n[s] eigenvalues and its columns from n[s] on are padding,
    whatever they hold. An eigenvalue's envelope is the union over both
    halves of [(x + y - rad) / 2, (x + y + rad) / 2], the range of a
    rad-Lipschitz function through the half's samples x and y (Shubert).
    Returns (ok, level, margin): a segment is certified where ok holds, at
    the middle of the first widest gap that the folded envelopes leave in
    [0, cap] (cap is 1 with tails, else one past the top envelope), when the
    gap's half width less the error clears the required margin and the rank
    inside the level band is the same at the three samples.

    err bounds the solve of each computed sample, and covers the rounding
    that formed it too. A sample on a knot is that knot's block; elsewhere
    _lerp (or a + lam * b) rounds each entry by a few ulps of the blocks it
    interpolates, and symmetrizing an exactly symmetric block changes only
    subnormal entries. By Weyl's inequality that moves each eigenvalue by at
    most the Frobenius norm of the rounding, about 3 eps times that of the
    interpolated blocks, while the rounding terms of err alone are at least
    (n + 2) sqrt(n) eps times the Frobenius norm of the sample. Only where
    the interpolated blocks exceed the sample by more than that factor
    (cancellation near a crossing) does the required margin, at least
    MARGIN_FLOOR, pay for the rest. On 200 random 6 x 6 pairs at scales 1,
    1e6 and 1e12, against a float80 reference, the movement was at most
    0.4% of err."""
    x, m, y = w[:, 0], w[:, 1], w[:, 2]
    aw = np.abs(w)
    # an infinite radius (an overflowed Lipschitz bound) gives inf - inf only
    # in gaps that are not open, and an infinite required margin
    with np.errstate(over="ignore", invalid="ignore"):
        # halved samples and radius, so that no sum overflows; rounding is
        # monotone, so the lower (upper) end over both halves is that of the
        # smaller (larger) half mean, rounded outward by one step where r > 0
        h, r = 0.5 * w, 0.5 * rad[:, None]
        left, right = h[:, 0] + h[:, 1], h[:, 1] + h[:, 2]
        lo, hi = np.minimum(left, right) - r, np.maximum(left, right) + r
        lo = np.minimum(np.minimum(np.minimum(x, m), y), np.nextafter(lo, lo - r))
        hi = np.maximum(np.maximum(np.maximum(x, m), y), np.nextafter(hi, hi + r))
        # their images under absolute value
        lo, hi = np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)
        if n is not None:
            # a padding column's envelope lies past every gap and raises no
            # top; its magnitude reads 0, which adds nothing to the norm and
            # counts inside the band (level >= 0) at all three samples alike
            pad = np.arange(w.shape[2]) >= n[:, None]
            lo[pad], hi[pad] = np.inf, 0.0
            aw[pad[:, None].repeat(3, axis=1)] = 0.0
        cap = np.where(tails, 1.0, hi.max(axis=1, initial=0.0) + 1.0)[:, None]
        # the gap below the j-th envelope in order of lower ends runs from
        # the highest upper end before it; where envelopes overlap it is
        # empty, so the nonempty gaps are those between merged envelopes,
        # followed by the gap up to cap
        rows = np.arange(len(w))
        order = lo.argsort(axis=1, kind="stable")
        lo = lo[rows[:, None], order]
        top = np.maximum.accumulate(hi[rows[:, None], order], axis=1)
        gap_lo = np.maximum(0.0, np.minimum(np.concatenate(
            [np.zeros((len(w), 1)), top], axis=1), cap))
        gap_hi = np.minimum(np.concatenate([lo, cap], axis=1), cap)
        open_ = gap_hi > gap_lo
        widths = np.where(open_, gap_hi - gap_lo, -np.inf)
        best = widths.argmax(axis=1)  # the first widest
        width = widths[rows, best]
        level = (gap_lo[rows, best] + gap_hi[rows, best]) / 2.0
        # the envelopes hold the computed eigenvalues; the exact ones may sit
        # up to err further in, which the margin pays for without moving the
        # level
        margin = width / 2.0 - err.max(axis=1)
        norm_bound = aw.max(axis=(1, 2), initial=0.0) + rad
        required = np.maximum(MARGIN_FLOOR,
                              2.0 * tol_cluster * (1.0 + norm_bound))
        counts = (aw <= level[:, None, None]).sum(axis=2)
    # without an open gap the width is -inf, and so is the margin
    ok = (margin > required) & (counts[:, :2] == counts[:, 1:]).all(axis=1)
    return ok, level, margin


def _end_faults(store: _Eigendata, ends: np.ndarray, tol_invert: float
                ) -> list[SflowError | None]:
    """Each request's first failed solve or EndpointNotInvertible, at 0 then
    at 1 (its row of ends): a singular end, else one with a negative
    eigenvalue within the cluster tolerance of 0 (_singular_rows)."""
    w, tol = store.w[ends], store.tol[ends]
    min_abs, threshold, singular, near = _singular_rows(
        w, store.norm[ends], store.err[ends], tol, tol_invert)
    bad = ~store.ok[ends] | singular | near.any(axis=2)
    faults: list[SflowError | None] = [None] * len(ends)
    for k in bad.any(axis=1).nonzero()[0].tolist():
        j = int(bad[k].argmax())
        if not store.ok[ends[k, j]]:
            faults[k] = store.errors[ends[k, j]]
        elif singular[k, j]:
            faults[k] = EndpointNotInvertible(
                f"eigenvalue {min_abs[k, j]:.3e} at endpoint {float(j)} "
                f"within threshold {threshold[k, j]:.3e}")
        else:
            faults[k] = EndpointNotInvertible(
                f"eigenvalue {w[k, j][near[k, j]][-1]:.3e} at endpoint "
                f"{float(j)} within cluster tolerance {tol[k, j]:.3e} below 0")
    return faults


# the samples of the candidates of one batch segment [a, b] with midpoint m
# and halves' midpoints q and p, from its points (a, q, m, p, b): the
# segment (a, m, b) and its halves (a, q, m) and (m, p, b)
_CANDIDATES = np.array([[0, 2, 4], [0, 1, 2], [2, 3, 4]])
_HALVES = np.array([0, 1, 1])
_FIRST = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _partitions(groups: Sequence[tuple[_Eigendata, Sequence[int]]],
                opts: FlowOptions) -> list[tuple[tuple, np.ndarray] | SflowError]:
    """find_partition for the path of each request of each (store,
    requests) group in turn, in shared rounds over every block size, as
    the arrays of its knots, levels and margins, with the rows of its knots,
    then its midpoints, in its store.

    A pending segment is a row of (request, depth, rows of its left end, of
    its quarter points and of its right end, -1 where not solved yet), each
    request's in order from the left. A round solves the new samples of
    each store in one stacked eigensolve and tests all its candidates, its
    batch segments each followed by its two halves, in one _certify call,
    with the eigenvalue rows of smaller blocks padded to the largest; its
    accept and split decisions are masks over them. The first solve of each
    store holds 0, 1/4, 1/2, 3/4 and 1 of each of its paths, and the piece
    differences of those whose speeds are not solved yet (_Eigendata.add)."""
    stores = [store for store, _ in groups]
    spans = np.cumsum([0] + [len(reqs) for _, reqs in groups]).tolist()
    paths = [store.paths[r] for store, reqs in groups for r in reqs]
    out: list = [None] * len(paths)
    first = np.empty((len(paths), 5), dtype=np.intp)
    for (store, reqs), a, b in zip(groups, spans, spans[1:]):
        first[a:b] = store.add(np.repeat(reqs, 5), (
            np.zeros((b - a, 1)) + _FIRST).reshape(-1), paths[a:b]).reshape(-1, 5)
        for k in range(a, b):
            try:
                paths[k].speeds  # raises if they failed to solve
            except SflowError as e:
                out[k] = e
        mine = [k for k in range(a, b) if out[k] is None]
        for k, fault in zip(mine, _end_faults(store, first[mine][:, ::4],
                                              opts.tol_invert)):
            out[k] = fault
    live = [k for k in range(len(paths)) if out[k] is None]
    if not live:
        return out
    # from here on a request is its position in live; the requests of each
    # store come together, and so do their segments and candidates
    of, sto = np.array([(r, s) for s, (_, reqs) in enumerate(groups)
                        for r in reqs], dtype=np.intp)[live].T
    dims, stops = np.array([s.paths[0].dim for s in stores]), np.arange(
        len(stores) + 1)
    speed_of = segment_speeds([paths[k] for k in live])
    tails = np.array([paths[k].plus_tail or paths[k].minus_tail
                      for k in live], dtype=bool)
    failure: dict[int, SflowError] = {}
    accepted = []
    seg = np.concatenate([np.arange(len(live))[:, None],
                          np.zeros((len(live), 1), dtype=np.intp), first[live]],
                         axis=1)
    ends = np.zeros((len(live), 1)) + [0.0, 1.0]
    while len(seg):
        later = np.zeros(len(seg), dtype=bool)
        if len(seg) > BISECTION_BATCH:  # past each request's leftmost batch
            start = np.flatnonzero(np.diff(seg[:, 0], prepend=-1))
            later = np.arange(len(seg)) - np.repeat(
                start, np.diff(start, append=len(seg))) >= BISECTION_BATCH
        r, d, at, e = seg[~later, 0], seg[~later, 1], seg[~later, 2:], ends[~later]
        m = (e[:, 0] + e[:, 1]) / 2.0
        points = np.array([e[:, 0], (e[:, 0] + m) / 2.0, m,
                           (m + e[:, 1]) / 2.0, e[:, 1]]).T
        # the batch segments of each store, from span[s] to span[s + 1]
        span = ([0, len(r)] if len(stores) == 1
                else sto[r].searchsorted(stops).tolist())
        need = at < 0
        if need.any():
            # a segment at the depth budget never splits, so the midpoints
            # of its halves are not needed
            need[:, 1::2] &= (d < opts.max_depth)[:, None]
            for store, a, b in zip(stores, span, span[1:]):
                if need[a:b].any():
                    at[a:b][need[a:b]] = store.add(of[r[a:b]].repeat(
                        need[a:b].sum(axis=1)), points[a:b][need[a:b]])
        # the candidates, as (left, midpoint, right) parameters and rows;
        # the halves of a segment at the depth budget are not tried
        pts = points[:, _CANDIDATES].reshape(-1, 3)
        rows = at[:, _CANDIDATES].reshape(-1, 3)
        cr, cd = r.repeat(3), (d[:, None] + _HALVES).reshape(-1)
        t = ((cd >= opts.min_depth) & (cd <= opts.max_depth)).nonzero()[0]
        # the eigendata of the tested candidates from their stores, with
        # several stores the eigenvalue rows of smaller blocks padded with
        # zeros to the largest size; a candidate with a failed solve is
        # certified on the zeros of its rows, and fails
        x, n = rows[t], None
        if len(stores) == 1:
            w, err, solved = stores[0].w[x], stores[0].err[x], stores[0].ok[x]
        else:
            span = t.searchsorted(3 * np.array(span)).tolist()
            w = np.zeros((len(t), 3, dims.max()))
            err, solved = np.empty((len(t), 3)), np.empty((len(t), 3), dtype=bool)
            for store, k, a, b in zip(stores, dims.tolist(), span, span[1:]):
                w[a:b, :, :k], err[a:b], solved[a:b] = (
                    store.w[x[a:b]], store.err[x[a:b]], store.ok[x[a:b]])
            n = dims.repeat(np.diff(span))
        solved = solved.all(axis=1)
        ok, level, margin = _certify(
            w, err, speed_of(cr[t], pts[t][:, ::2]) * (pts[t, 2] - pts[t, 0]) / 2.0,
            tails[cr[t]], opts.tol_cluster, n)
        # each candidate is accepted (0), fails its request (1) or splits (2)
        code = np.full(len(cr), 2)
        code[t] = np.where(cd[t] < opts.max_depth, 2, 1)
        code[t[~solved]] = 1
        code[t[ok & solved]] = 0
        # the leaves in depth-first order: each batch segment that is
        # accepted or fails, else its two halves
        c = ((code[::3] < 2)[:, None] == (_HALVES == 0)).ravel().nonzero()[0]
        if (code[c] == 1).any():
            # a request's first failing leaf ends its round: the leaves and
            # the pending segments to its right go
            fault = code[c] == 1
            start = np.flatnonzero(np.diff(cr[c], prepend=-1))
            before = np.cumsum(fault) - fault
            c = c[before == np.repeat(before[start],
                                      np.diff(start, append=len(c)))]
            for i in c[code[c] == 1].tolist():
                store = stores[sto[cr[i]]]
                failure[int(cr[i])] = (
                    store.errors[rows[i, store.ok[rows[i]].argmin()]]
                    if not store.ok[rows[i]].all()
                    else CertificationFailed(
                        f"no certified level on [{float(pts[i, 0])}, "
                        f"{float(pts[i, 2])}] at depth {int(cd[i])}"))
            later &= ~np.isin(seg[:, 0], cr[c[code[c] == 1]])
        done, split = c[code[c] == 0], c[code[c] == 2]
        k = t.searchsorted(done)
        accepted.append((cr[done], pts[done, 2], level[k], margin[k],
                         rows[done, 1], rows[done, 2]))
        # each split leaf leaves its two halves pending, before the
        # segments that were not in the batch
        halves = np.full((2 * len(split), 7), -1)
        halves[:, :2] = np.array([cr[split], cd[split] + 1]).T.repeat(2, 0)
        halves[:, [2, 6]] = rows[split][:, [0, 1, 1, 2]].reshape(-1, 2)
        halves_ends = pts[split][:, [0, 1, 1, 2]].reshape(-1, 2)
        if later.any():
            order = np.concatenate([halves[:, 0], seg[later, 0]]).argsort(
                kind="stable")
            halves = np.concatenate([halves, seg[later]])[order]
            halves_ends = np.concatenate([halves_ends, ends[later]])[order]
        seg, ends = halves, halves_ends
    kr, right, level, margin, mid, end = (np.concatenate(x)
                                          for x in zip(*accepted))
    order = np.lexsort((right, kr))
    bounds = np.searchsorted(kr[order], np.arange(len(live) + 1))
    for p, k in enumerate(live):
        i = order[bounds[p]:bounds[p + 1]]
        out[k] = failure.get(p) or (
            (np.concatenate([[0.0], right[i]]), level[i], margin[i]),
            np.concatenate([first[k, :1], end[i], mid[i]]))
    return out


def find_partition(path: OperatorPath,
                   opts: FlowOptions | None = None) -> CertifiedPartition:
    """Certify a partition of [0, 1] with one spectral level per segment.

    A segment is accepted once the Lipschitz eigenvalue envelopes leave a gap
    whose half width clears the margin floor and the cluster tolerance, and
    the rank inside the level band is constant across its three samples;
    otherwise it is bisected. Fails once a segment would need more than
    max_depth bisections.

    This is the one-store case of the rounds of _partitions: each round
    takes the leftmost BISECTION_BATCH pending segments and both halves of
    each, solves their new samples in one stacked eigensolve and tests them
    together; a segment that splits resolves its halves from the same
    round. A failure is raised only once no pending segment lies to its
    left, so the partition and the failure are those of a depth-first
    recursion, and a path that cannot be certified costs at most
    (max_depth + 2) // 2 rounds.
    """
    opts = opts or FlowOptions()
    parts = _partitions([(_Eigendata([path], opts.tol_cluster), [0])], opts)
    raise_first(parts)
    return CertifiedPartition(*(tuple(x.tolist()) for x in parts[0][0]))


# one certified flow of _flow_rows: its partition's knots, levels and margins
# (arrays, or the tuples of a given partition), the integer coefficient row
# of each segment's contribution, and their total
_FlowRows = namedtuple("_FlowRows", "knots levels margins contributions total")


@dataclass
class _Flow:
    """One request of _flow_rows on its way to its rows or an error: part
    is its partition's (knots, levels, margins), arrays or the tuples of a
    given partition, req its request in the eigendata of its block size, and
    rows are the rows of its partition's knots, then of its midpoints."""

    path: OperatorPath
    action: OrthogonalAction
    part: tuple | None
    outcome: _FlowRows | SflowError | None = None
    req: int = -1
    rows: np.ndarray | None = None


def _check_equivariance(store: _Eigendata, flows: list[_Flow]) -> None:
    """Commutators of the blocks at the knots and midpoints of each flow's
    partition with their common action, in one stacked pass. A flow's first
    failure in parameter order, a failed solve or a defect over its
    tolerance, becomes its outcome."""
    rows = np.concatenate([f.rows for f in flows])
    ok = store.ok[rows]
    defects, tols, bad = _equivariance_rows(store.blocks[rows], flows[0].action,
                                            store.norm[rows], ok)
    for f, end in zip(flows, np.cumsum([len(f.rows) for f in flows]).tolist()):
        i = end - len(f.rows) + int(bad[end - len(f.rows):end].argmax())
        if bad[i]:
            f.outcome = (store.errors[rows[i]] if not ok[i] else NotEquivariant(
                f"commutator norm {defects[i]:.3e} at parameter "
                f"{float(store.lam[rows[i]])} exceeds {tols[i]:.3e}"))


def _take_classes(store: _Eigendata, flows: list[_Flow],
                  table: RealCharacterTable) -> None:
    """Rows of each flow from the classes of the frames of [0, level] at
    the left and right knot of each of its segments, for every flow of one
    action in one array pass over the stacked knot eigendata, with the left
    edge closed at -tol. The distinct (knot, columns) frames go to one
    class pass as one padded stack. Each flow's first failure is that of a
    per-frame loop; _check_equivariance has solved every knot."""
    knots = np.concatenate([f.rows[:len(f.part[0])] for f in flows])
    w, tol = store.w[knots], store.tol[knots]
    # frames 2i and 2i + 1 of a flow are the left and right knot of segment
    # i: at gives each frame its place in knots
    size = np.array([len(f.part[1]) for f in flows])
    spans = np.cumsum(2 * size)
    at = (np.arange(spans[-1]) + 1) // 2 + np.repeat(np.arange(len(flows)),
                                                     2 * size)
    levels = [lv for f in flows for lv in f.part[1] for _ in "lr"]
    # the window [0, level] is closed at -tol, as a kernel vector is inside
    faults = window_faults(w[at], tol[at], levels, np.array(
        [f.path.tails for f in flows]).repeat(2 * size, axis=0))
    lo, ncols = interval_columns(cluster_values(w, tol)[1][at],
                                 0.0 - tol[at, None], np.array(levels)[:, None])
    keys = list(zip(at.tolist(), lo.tolist(), ncols.tolist()))
    distinct: dict[tuple[int, int, int], int] = {}
    picks = []
    for start, end in zip([0, *spans[:-1].tolist()], spans.tolist()):
        stop = next((i for i in range(start, end) if faults[i] is not None), end)
        picks.append(([distinct.setdefault(key, len(distinct))
                       for key in keys[start:stop]],
                      faults[stop] if stop < end else None))
    # each distinct frame is the columns [lo, lo + k) of its knot's vectors,
    # padded with zeros
    frames = np.array(list(distinct) or np.zeros((0, 3)), dtype=np.intp)
    ks = frames[:, 2].tolist()
    cols = np.arange(max(ks, default=0))
    pad = np.where((cols < frames[:, 2:])[:, None, :], store.v[
        knots[frames[:, :1, None]], np.arange(w.shape[1])[:, None],
        np.minimum(frames[:, 1:2] + cols, w.shape[1] - 1)[:, None, :]], 0.0)
    coeffs, errors = _class_rows(flows[0].action, table, pad, ks)
    for f, (picked, fault) in zip(flows, picks):
        f.outcome = next((errors[c] for c in picked if errors[c]), fault)
    good = [(f, picked) for f, (picked, _) in zip(flows, picks)
            if f.outcome is None]
    if good:
        # each segment's contribution is its right knot class less its left
        # one, taken on the integer-valued coefficient rows of every flow
        # at once
        c = coeffs[[i for _, picked in good for i in picked]]
        diffs = (c[1::2] - c[::2]).astype(np.int64)
        at = np.cumsum([0] + [len(picked) // 2 for _, picked in good])
        totals = np.add.reduceat(diffs, at[:-1])
        for (f, _), start, end, total in zip(good, at, at[1:], totals):
            f.outcome = _FlowRows(*f.part, diffs[start:end], total)


def _flow_rows(requests: Sequence[tuple[OperatorPath, OrthogonalAction]],
               table: RealCharacterTable, opts: FlowOptions | None = None, *,
               partitions: Sequence[CertifiedPartition | None] | None = None
               ) -> list[_FlowRows | SflowError]:
    """The certifier of sfl_G_each: the rows of each request's flow, or in
    their place the error its own sfl_G call raises.

    The requests of one block size share their work through one store of
    eigendata. Bisection runs in one loop of shared rounds over every block
    size (_partitions); then the blocks at knots and midpoints of all flows
    of one action are checked for equivariance in one stacked pass, and
    their knot frames take their classes in another."""
    opts = opts or FlowOptions()
    flows = [_Flow(path, action, None if part is None else (
        part.knots, part.levels, part.margins)) for (path, action), part in zip(
            requests, partitions or [None] * len(requests))]
    by_dim: dict[int, list[_Flow]] = {}
    for f in flows:
        if f.action.dim != f.path.dim:
            f.outcome = DimensionMismatch(f"action dimension {f.action.dim} "
                                          f"vs path dimension {f.path.dim}")
        elif table.group != f.action.group:
            f.outcome = WrongGroup(
                "character table and action belong to different groups")
        else:
            group = by_dim.setdefault(f.path.dim, [])
            f.req = len(group)
            group.append(f)
    stores = {dim: _Eigendata([f.path for f in group], opts.tol_cluster)
              for dim, group in by_dim.items()}
    for dim, group in by_dim.items():
        given = [f for f in group if f.part is not None]
        if given:
            store = stores[dim]
            lams = [[*k, *((a + b) / 2.0 for a, b in zip(k, k[1:]))]
                    for k, _, _ in (f.part for f in given)]
            rows = store.add(np.repeat([f.req for f in given], list(map(
                len, lams))), np.concatenate(lams))
            for f, ls in zip(given, lams):
                f.rows, rows = rows[:len(ls)], rows[len(ls):]
            ends = np.array([f.rows[[0, len(f.part[0]) - 1]] for f in given])
            for f, fault in zip(given, _end_faults(store, ends, opts.tol_invert)):
                f.outcome = fault
    bisect = [[f for f in group if f.part is None]
              for group in by_dim.values()]
    bisect = [group for group in bisect if group]
    for f, part in zip([f for group in bisect for f in group], _partitions(
            [(stores[group[0].path.dim], [f.req for f in group])
             for group in bisect], opts)):
        if isinstance(part, SflowError):
            f.outcome = part
        else:
            f.part, f.rows = part
    for dim, group in by_dim.items():
        by_action: dict[int, list[_Flow]] = {}
        for f in group:
            if f.outcome is None:
                by_action.setdefault(id(f.action), []).append(f)
        for same in by_action.values():
            _check_equivariance(stores[dim], same)
            equivariant = [f for f in same if f.outcome is None]
            if equivariant:
                _take_classes(stores[dim], equivariant, table)
    return [f.outcome for f in flows]


def sfl_G_each(requests: Sequence[tuple[OperatorPath, OrthogonalAction]],
               table: RealCharacterTable, opts: FlowOptions | None = None, *,
               partitions: Sequence[CertifiedPartition | None] | None = None
               ) -> list[SflReport | SflowError]:
    """sfl_G of each (path, action) request: its report, built from the rows
    _flow_rows certifies, or in its place the error its own sfl_G call
    raises. partitions, when given, holds one certificate per request to use
    instead of bisection, or None: a test seam, trusted and not certified
    again."""
    made: dict[tuple[int, ...], VirtualRep] = {}  # equal rows share one

    def klass(row: list[int]) -> VirtualRep:
        key = tuple(row)
        if key not in made:
            made[key] = VirtualRep(table, key)
        return made[key]

    reports: list[SflReport | SflowError] = []
    partitions = partitions or [None] * len(requests)
    for got, given in zip(_flow_rows(requests, table, opts,
                                     partitions=partitions), partitions):
        if isinstance(got, SflowError):
            reports.append(got)
            continue
        part = given or CertifiedPartition(*(tuple(x.tolist()) for x in got[:3]))
        contributions = [klass(row) for row in got.contributions.tolist()]
        total = klass(got.total.tolist())
        reports.append(SflReport(
            sfl_G=total, sfl=forgetful_F(total), partition=part,
            segment_contributions=tuple(contributions),
            crossings=tuple(Crossing((part.knots[i], part.knots[i + 1]), c)
                            for i, c in enumerate(contributions)
                            if not c.is_zero())))
    return reports


def sfl_G(path: OperatorPath, action: OrthogonalAction,
          table: RealCharacterTable, opts: FlowOptions | None = None, *,
          partition: CertifiedPartition | None = None) -> SflReport:
    """Equivariant spectral flow of an equivariant path with invertible ends.

    Returns the virtual class together with the certificate. The plain
    integer flow is the forgetful image of the class. A partition given is
    used in place of bisection, trusted and not certified again.
    """
    reports = sfl_G_each([(path, action)], table, opts, partitions=[partition])
    raise_first(reports)
    return reports[0]


def morse_oracle_sfl_G(path: OperatorPath, action: OrthogonalAction,
                       table: RealCharacterTable, m: int = 0,
                       opts: FlowOptions | None = None) -> VirtualRep:
    """Endpoint-only evaluation of the flow through negative-space classes.

    Equals sfl_G for every admissible path in this model, independently of the
    truncation size m; tail copies contribute equally at both ends and cancel.
    """
    opts = opts or FlowOptions()
    tail = compression_tail(path, m)
    blocks = block_diag(path.blocks_at([0.0, 1.0]), tail)
    start, end = morse_classes(blocks, action.extended(len(tail)), table,
                               tol_cluster=opts.tol_cluster,
                               tol_invert=opts.tol_invert)
    return start - end


# --- axiom suites ---------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AxiomSuiteReport:
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def verify_axioms(action: OrthogonalAction, table: RealCharacterTable, *,
                  seed: int = 0, instances: int = 20,
                  opts: FlowOptions | None = None) -> AxiomSuiteReport:
    """Randomized checks of the characterizing properties of the flow.

    Suites: vanishing on invertible paths, additivity under concatenation
    (including closed loops), additivity under direct sums, invariance under
    reparametrization, and invariance under equivariant conjugation. Each
    suite runs `instances` randomized cases; failures carry a witness string.

    The cases are drawn in two phases. First every random number of every
    case is taken, in the order of a case by case run (a sampling.PathDraws
    batch, a change of parameter, an equivariant orthogonal matrix). Then
    the batch averages and clamps all its draws at once and builds its
    paths, and each case builds its flows from them. Flows draw no random
    numbers, so all of them go to one _flow_rows call, and each check
    compares their summed total rows; no report is built. The error raised
    is the one a case by case run raises first: if a draw or a build fails,
    the first error among the flows requested before it, else its own.
    """
    opts = opts or FlowOptions()
    rng = np.random.default_rng(seed)
    tail_cycle = [(False, False), (True, False), (False, True), (True, True)]
    draws = sampling.PathDraws(action)
    # (suite, instance, what the case drew): path indices into the batch,
    # then a change of parameter or an orthogonal matrix
    cases: list[tuple[str, int, tuple]] = []
    requests: list[tuple[OperatorPath, OrthogonalAction]] = []
    # (suite, witness prefix, flows summed on the left, on the right); a
    # right side of None asks for a zero class
    checks: list[tuple[str, str, list[int], list[int] | None]] = []

    def path(i: int, draw: Callable = draws.equivariant, **kwargs) -> int:
        plus, minus = tail_cycle[i % 4]
        return draw(rng, plus_tail=plus, minus_tail=minus, **kwargs)

    def draw_cases() -> None:
        for i in range(instances):
            cases.append(("vanishing", i, (path(i, draws.invertible),)))
        for i in range(instances):
            p = path(i)
            cases.append(("concatenation", i, (p, path(i, start=p))))
        for i in range(instances):
            cases.append(("direct_sum", i, (path(i), path(i + 1))))
        for i in range(instances):
            cases.append(("reparametrization", i, (
                path(i, kind="affine"), sampling._parameter_change(rng))))
        for i in range(instances):
            cases.append(("conjugation", i, (
                path(i), sampling.random_equivariant_orthogonal(action, rng))))

    def flow(p: OperatorPath, act: OrthogonalAction = action) -> int:
        requests.append((p, act))
        return len(requests) - 1

    def build_cases() -> None:
        paths = draws.build()
        double = direct_sum_action(action, action)

        def built(k: int) -> OperatorPath:
            raise_first([paths[k]])
            return paths[k]

        for suite, i, drawn in cases:
            if suite == "vanishing":
                checks.append((suite, f"instance {i}: invertible path has flow",
                               [flow(built(drawn[0]))], None))
            elif suite == "concatenation":
                p, q = map(built, drawn)
                checks.append((suite, f"instance {i}: concatenation",
                               [flow(concatenate(p, q))], [flow(p), flow(q)]))
                checks.append((suite, f"instance {i}: closed loop has flow",
                               [flow(concatenate(p, reverse(p)))], None))
            elif suite == "direct_sum":
                p, q = map(built, drawn)
                checks.append((suite, f"instance {i}: direct sum",
                               [flow(direct_sum_paths(p, q), double)],
                               [flow(p), flow(q)]))
            elif suite == "reparametrization":
                p = built(drawn[0])
                checks.append((suite, f"instance {i}: reparametrization",
                               [flow(sampling._reparametrized(p, drawn[1]))],
                               [flow(p)]))
            else:
                p = built(drawn[0])
                checks.append((suite, f"instance {i}: conjugation",
                               [flow(sampling.conjugate_path(p, drawn[1]))],
                               [flow(p)]))

    fault: SflowError | None = None
    for phase in (draw_cases, build_cases):
        try:
            phase()
        except SflowError as e:
            # a case that fails to build was drawn before any draw that
            # failed
            fault = e
    out = _flow_rows(requests, table, opts)
    raise_first([*out, fault])
    rows = np.array([o.total for o in out], dtype=np.int64).reshape(
        -1, table.n_irreps)
    # each check's left side less its right side, over the flows' integer
    # total rows in one pass; a VirtualRep only for a failure witness
    sides = [(lhs, rhs or []) for _, _, lhs, rhs in checks]
    differ = np.zeros(len(checks), dtype=bool)
    if checks:
        flows = [k for lhs, rhs in sides for k in (*lhs, *rhs)]
        signs = [s for lhs, rhs in sides
                 for s in (*[1] * len(lhs), *[-1] * len(rhs))]
        starts = np.cumsum([0, *(len(lhs) + len(rhs) for lhs, rhs in sides)])
        differ = np.add.reduceat(rows[flows] * np.array(signs)[:, None],
                                 starts[:-1]).any(axis=1)
    names = ["vanishing", "concatenation", "direct_sum", "reparametrization",
             "conjugation"]
    failures: dict[str, list[str]] = {name: [] for name in names}
    for (suite, prefix, lhs, rhs), bad in zip(checks, differ):
        if bad:
            got, want = (VirtualRep(table, rows[k or []].sum(axis=0).tolist())
                         for k in (lhs, rhs))
            failures[suite].append(f"{prefix} {got}" if rhs is None
                                   else f"{prefix} {got} != {want}")
    return AxiomSuiteReport(tuple(AxiomResult(name, instances, tuple(failures[name]))
                                  for name in names))
