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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._eig import block_diag, solve_each
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    EigenFailure,
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
    forgetful_F,
    subspace_classes,
)
from .operators import (
    CLUSTER_FACTOR,
    EQUIVARIANCE_FACTOR,
    INVERT_FACTOR,
    OperatorPath,
    Spectrum,
    _singular_threshold,
    block_spectra,
    cluster_values,
    compression_tail,
    equivariance_defects,
    interval_columns,
    morse_classes,
    solve_speeds,
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
        if self.min_depth > self.max_depth:
            raise OutOfRange(
                f"min_depth {self.min_depth} exceeds max_depth {self.max_depth}")
        if self.max_depth < 0 or self.min_depth < 0:
            raise OutOfRange("depths must be nonnegative")
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
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise OutOfRange("knots must be strictly increasing")
        if len(self.levels) != len(self.knots) - 1:
            raise OutOfRange(f"{len(self.levels)} levels for "
                             f"{len(self.knots) - 1} segments")
        if len(self.margins) != len(self.levels):
            raise OutOfRange("one margin per level required")
        if any(a <= 0.0 for a in self.levels):
            raise OutOfRange("levels must be positive")
        if any(m <= 0.0 for m in self.margins):
            raise OutOfRange("margins must be positive")


@dataclass(frozen=True)
class Crossing:
    """One segment whose eigenspace class changed, with the change itself."""

    interval: tuple[float, float]
    segment: int
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


class _SpectraCache:
    """Memoized blocks and block spectra along one path at one cluster
    tolerance."""

    def __init__(self, path: OperatorPath, tol_cluster: float):
        self.path = path
        self.tol_cluster = tol_cluster
        self._blocks: dict[float, np.ndarray] = {}
        # a parameter whose block failed to solve maps to its EigenFailure,
        # raised whenever its spectrum is asked for
        self._spectra: dict[float, Spectrum | EigenFailure] = {}

    def blocks(self, lams: list[float]) -> np.ndarray:
        """(k, n, n) stack of the symmetrized blocks at k parameters, each
        equal bit for bit to path.at(lam).block and built once."""
        new = [lam for lam in dict.fromkeys(lams) if lam not in self._blocks]
        if new:
            b = self.path.blocks_at(new)
            b = 0.5 * b + 0.5 * np.swapaxes(b, 1, 2)
            self._blocks.update(zip(new, b))
            if len(new) == len(lams):  # every parameter new: b is the stack
                return b
        return np.stack([self._blocks[lam] for lam in lams])

    def spectrum(self, lam: float) -> Spectrum:
        """The spectrum at a parameter _fill_each has solved."""
        spec = self._spectra[lam]
        if isinstance(spec, EigenFailure):
            raise spec
        return spec


def _fill_each(wanted: list[tuple[_SpectraCache, list[float]]]) -> None:
    """Solve the parameters not yet cached, of every (cache, parameters)
    pair, in one stacked eigensolve per block dimension and cluster
    tolerance. A block that fails to solve fails alone (solve_each)."""
    stacks: dict[tuple[int, float], list] = {}
    for cache, lams in wanted:
        new = [lam for lam in dict.fromkeys(lams) if lam not in cache._spectra]
        if new:
            blocks = cache.blocks(new)
            stacks.setdefault((blocks.shape[-1], cache.tol_cluster),
                              []).append((cache, new, blocks))
    for (_, tol), parts in stacks.items():
        spectra = solve_each(lambda b: block_spectra(b, tol),
                             np.concatenate([b for _, _, b in parts]))
        k = 0
        for cache, new, _ in parts:
            cache._spectra.update(zip(new, spectra[k:k + len(new)]))
            k += len(new)


def _certify(w: np.ndarray, err: np.ndarray, rad: np.ndarray,
             tails: np.ndarray, tol_cluster: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Look for one admissible level on each of S segments at once.

    w is the (S, 3, n) array of the eigenvalues at the left end, midpoint and
    right end of each segment, err the (S, 3) solver error bounds of those
    spectra, rad the Lipschitz radius of each segment and tails whether its
    path has a tail. Returns (ok, level, margin): a segment is certified
    where ok holds, at the middle of the first widest gap that the folded
    envelopes leave in [0, cap] (cap is 1 with tails, else one past the top
    envelope), when the gap's half width less the error clears the required
    margin and the rank inside the level band is the same at the three
    samples."""
    wl, wm, wr = w[:, 0], w[:, 1], w[:, 2]
    r = rad[:, None]
    # an infinite radius (an overflowed Lipschitz bound) gives inf - inf only
    # in gaps that are not open, and an infinite required margin
    with np.errstate(over="ignore", invalid="ignore"):
        # envelope of each eigenvalue over its segment: inside the midpoint
        # tube and inside the union of the endpoint tubes
        lo = np.maximum(wm, np.minimum(wl, wr)) - r
        hi = np.minimum(wm, np.maximum(wl, wr)) + r
        apart = lo > hi
        lo, hi = np.where(apart, wm - r, lo), np.where(apart, wm + r, hi)
        # their images under absolute value
        neg, pos = hi <= 0.0, lo >= 0.0
        lo, hi = (np.where(neg, -hi, np.where(pos, lo, 0.0)),
                  np.where(neg, -lo, np.where(pos, hi, np.maximum(-lo, hi))))
        cap = np.where(tails, 1.0, hi.max(axis=1, initial=0.0) + 1.0)[:, None]
        # the gap below the j-th envelope in order of lower ends runs from
        # the highest upper end before it; where envelopes overlap it is
        # empty, so the nonempty gaps are those between merged envelopes,
        # followed by the gap up to cap
        rows = np.arange(len(w))
        order = np.argsort(lo, axis=1, kind="stable")
        lo = lo[rows[:, None], order]
        top = np.maximum.accumulate(hi[rows[:, None], order], axis=1)
        gap_lo = np.maximum(0.0, np.minimum(np.concatenate(
            [np.zeros((len(w), 1)), top], axis=1), cap))
        gap_hi = np.minimum(np.concatenate([lo, cap], axis=1), cap)
        open_ = gap_hi > gap_lo
        widths = np.where(open_, gap_hi - gap_lo, -np.inf)
        best = np.argmax(widths, axis=1)  # the first widest
        width = widths[rows, best]
        level = (gap_lo[rows, best] + gap_hi[rows, best]) / 2.0
        # the envelopes hold the computed eigenvalues; the exact ones may sit
        # up to err further in, which the margin pays for without moving the
        # level
        margin = width / 2.0 - err.max(axis=1)
        norm_bound = np.abs(w).max(axis=(1, 2), initial=0.0) + rad
        required = np.maximum(MARGIN_FLOOR,
                              2.0 * tol_cluster * (1.0 + norm_bound))
        counts = np.count_nonzero(np.abs(w) <= level[:, None, None], axis=2)
    ok = (open_.any(axis=1) & (margin > required)
          & (counts == counts[:, :1]).all(axis=1))
    return ok, level, margin


def _radii(segments: list[tuple[_SpectraCache, float, float]]) -> np.ndarray:
    """Lipschitz radius speed * (right - left) / 2 of each (cache, left,
    right) segment, where speed is that of the fastest piece of the cache's
    path meeting [left, right] (Weyl: no eigenvalue moves faster there), from
    one segment_speeds call per path."""
    ends = np.array([(left, right) for _, left, right in segments]).reshape(-1, 2)
    by_path: dict[int, tuple[OperatorPath, list[int]]] = {}
    for k, (cache, _, _) in enumerate(segments):
        by_path.setdefault(id(cache), (cache.path, []))[1].append(k)
    speed = np.empty(len(segments))
    for path, ks in by_path.values():
        speed[ks] = path.segment_speeds(ends[ks])
    return speed * (ends[:, 1] - ends[:, 0]) / 2.0


def _certify_each(segments: list[tuple[_SpectraCache, float, float]],
                  tol_cluster: float
                  ) -> list[tuple[float, float] | EigenFailure | None]:
    """(level, margin) or None for each (cache, left, right) segment, from
    one _certify pass per block dimension. A segment whose samples failed
    to solve gets, in place, the first EigenFailure of its left end,
    midpoint and right end."""
    out: list[tuple[float, float] | EigenFailure | None] = [None] * len(segments)
    rad = _radii(segments)
    by_dim: dict[int, list] = {}
    for k, (cache, left, right) in enumerate(segments):
        try:
            specs = [cache.spectrum(lam)
                     for lam in (left, (left + right) / 2.0, right)]
        except EigenFailure as e:
            out[k] = e
        else:
            by_dim.setdefault(specs[0].eigenvalues.size, []).append(
                (k, specs, cache.path))
    for group in by_dim.values():
        ok, level, margin = _certify(
            np.array([[s.eigenvalues for s in specs] for _, specs, _ in group]),
            np.array([[s.err for s in specs] for _, specs, _ in group]),
            rad[[k for k, _, _ in group]],
            np.array([path.plus_tail or path.minus_tail for _, _, path in group]),
            tol_cluster)
        for (k, *_), good, lv, mg in zip(group, ok.tolist(), level.tolist(),
                                         margin.tolist()):
            if good:
                out[k] = (lv, mg)
    return out


def _require_invertible_ends(cache: _SpectraCache, opts: FlowOptions) -> None:
    _fill_each([(cache, [0.0, 1.0])])
    for lam in (0.0, 1.0):
        spec = cache.spectrum(lam)
        threshold = _singular_threshold(spec, opts.tol_invert)
        if threshold is not None:
            raise EndpointNotInvertible(
                f"eigenvalue {spec.min_abs():.3e} at endpoint {lam} within "
                f"threshold {threshold:.3e}")


def _halves(left: float, right: float, depth: int
            ) -> list[tuple[float, float, int]]:
    mid = (left + right) / 2.0
    return [(left, mid, depth + 1), (mid, right, depth + 1)]


def _partitions(caches: list[_SpectraCache], opts: FlowOptions
                ) -> list[CertifiedPartition | SflowError]:
    """find_partition for the path of each cache, in shared rounds.

    Each path keeps its own left-to-right worklist. A round takes the
    leftmost BISECTION_BATCH pending segments of every path and both halves
    of each, solves their missing samples together and tests them together,
    then accepts or splits each path's segments in order. A segment that
    splits resolves its halves from the same round, so only halves that
    split again leave pending quarters. Before the first round every path's
    piece speeds are solved together (solve_speeds), and so are 0, 1/4,
    1/2, 3/4 and 1 of every path, which leaves that round nothing to
    solve."""
    out: list[CertifiedPartition | SflowError | None] = [None] * len(caches)
    solve_speeds([cache.path for cache in caches])
    _fill_each([(cache, [0.0, 0.25, 0.5, 0.75, 1.0]) for cache in caches])
    # per live path: pending (left, right, depth) segments, accepted
    # (right, level, margin) ones, and the leftmost failure so far
    live: dict[int, tuple[list, list, SflowError | None]] = {}
    for k, cache in enumerate(caches):
        try:
            cache.path.speeds  # raises if they failed to solve
            _require_invertible_ends(cache, opts)
        except SflowError as e:
            out[k] = e
        else:
            live[k] = ([(0.0, 1.0, 0)], [], None)
    while live:
        batches = {k: pending[:BISECTION_BATCH]
                   for k, (pending, _, _) in live.items()}
        # a segment at the depth budget never splits, so its halves are
        # not needed
        tried = {k: [(left, right) for seg in batch for left, right, depth in
                     [seg, *(_halves(*seg) if seg[2] < opts.max_depth else ())]
                     if depth >= opts.min_depth]
                 for k, batch in batches.items()}
        _fill_each([(caches[k], [lam for left, right in segs
                                 for lam in (left, (left + right) / 2.0, right)])
                    for k, segs in tried.items()])
        segments = [(k, left, right) for k, segs in tried.items()
                    for left, right in segs]
        found = dict(zip(segments, _certify_each(
            [(caches[k], left, right) for k, left, right in segments],
            opts.tol_cluster)))
        for k, batch in batches.items():
            pending, accepted, failure = live.pop(k)
            later = pending[BISECTION_BATCH:]
            split: list[tuple[float, float, int]] = []
            # a stack of segments in order, each with whether its halves
            # were tried in this round
            todo = [(seg, True) for seg in reversed(batch)]
            while todo:
                (left, right, depth), ahead = todo.pop()
                fault: SflowError | None = None
                if depth >= opts.min_depth:
                    level_margin = found[(k, left, right)]
                    if isinstance(level_margin, tuple):
                        accepted.append((right, *level_margin))
                        continue
                    fault = level_margin
                    if fault is None and depth >= opts.max_depth:
                        fault = CertificationFailed(
                            f"no certified level on [{left}, {right}] at "
                            f"depth {depth}")
                if fault is not None:
                    # only a failure further left can still come first
                    failure, later = fault, []
                    break
                if ahead:
                    todo += [(half, False)
                             for half in reversed(_halves(left, right, depth))]
                else:
                    split += _halves(left, right, depth)
            if split or later:
                live[k] = (split + later, accepted, failure)
            elif failure is not None:
                out[k] = failure
            else:
                rights, levels, margins = zip(*sorted(accepted))
                out[k] = CertifiedPartition((0.0,) + rights, levels, margins)
    return out


def find_partition(path: OperatorPath,
                   opts: FlowOptions | None = None) -> CertifiedPartition:
    """Certify a partition of [0, 1] with one spectral level per segment.

    A segment is accepted once the Lipschitz eigenvalue envelopes leave a gap
    whose half width clears the margin floor and the cluster tolerance, and
    the rank inside the level band is constant across its three samples;
    otherwise it is bisected. Fails once a segment would need more than
    max_depth bisections.

    Bisection runs over a left-to-right worklist of pending segments. Each
    round takes the leftmost BISECTION_BATCH of them and both halves of
    each, solves all their missing samples in one stacked eigensolve and
    tries the segments in order; a segment that splits resolves its halves
    from the same round. A failure is raised only once no pending segment
    lies to its left, and everything to its right is dropped, so the
    partition and the failure are those of a depth-first recursion, and a
    path that cannot be certified costs at most (max_depth + 2) // 2 rounds
    of BISECTION_BATCH segments and their halves.
    """
    opts = opts or FlowOptions()
    parts = _partitions([_SpectraCache(path, opts.tol_cluster)], opts)
    raise_first(parts)
    return parts[0]


@dataclass
class _Flow:
    """One request of sfl_G_each on its way to a report or an error."""

    path: OperatorPath
    action: OrthogonalAction
    cache: _SpectraCache
    partition: CertifiedPartition | None
    outcome: SflReport | SflowError | None = None


def _check_equivariance(flows: list[_Flow]) -> None:
    """Commutators of the blocks at the knots and midpoints of each flow's
    partition with their common action, in one stacked pass. A flow's first
    failure in parameter order, a failed solve or a defect over its
    tolerance, becomes its outcome."""
    lams = [[*f.partition.knots,
             *((a + b) / 2.0 for a, b in zip(f.partition.knots,
                                             f.partition.knots[1:]))]
            for f in flows]
    _fill_each([(f.cache, ls) for f, ls in zip(flows, lams)])
    # a parameter whose solve failed gets tol inf, and cache.spectrum raises
    # its EigenFailure below, in parameter order
    tols = [[EQUIVARIANCE_FACTOR * (1.0 + s.block_norm)
             if isinstance(s, Spectrum) else math.inf
             for s in map(f.cache._spectra.get, ls)]
            for f, ls in zip(flows, lams)]
    defects = equivariance_defects(
        np.concatenate([f.cache.blocks(ls) for f, ls in zip(flows, lams)]),
        flows[0].action, [t for ts in tols for t in ts]).tolist()
    start = 0
    for f, ls, ts in zip(flows, lams, tols):
        for lam, defect, tol in zip(ls, defects[start:], ts):
            try:
                f.cache.spectrum(lam)
            except EigenFailure as e:
                f.outcome = e
                break
            if defect > tol:
                f.outcome = NotEquivariant(
                    f"commutator norm {defect:.3e} at parameter {lam} "
                    f"exceeds {tol:.3e}")
                break
        start += len(ls)


def _take_classes(flows: list[_Flow], table: RealCharacterTable) -> None:
    """Report of each flow from the classes of the frames of [0, level] at
    the left and right knot of each of its segments, for every flow of one
    action in one array pass over the stacked knot eigendata, with the left
    edge closed at -tol. The distinct (knot, columns) frames go to one
    subspace_classes call as one padded stack. Each flow's first failure is
    that of a per-frame loop; _check_equivariance has solved every knot."""
    specs = [f.cache.spectrum(lam) for f in flows for lam in f.partition.knots]
    w = np.array([s.eigenvalues for s in specs])
    tol = np.array([s.tol for s in specs])
    # frames 2i and 2i + 1 of a flow are the left and right knot of segment i
    rows, levels, tails, spans = [], [], [], []
    for f in flows:
        first, m = len(rows), len(f.partition.levels)
        spans.append((first, first + 2 * m))
        rows += [len(spans) - 1 + first // 2 + (j + 1) // 2 for j in range(2 * m)]
        levels += [lv for lv in f.partition.levels for _ in "lr"]
        tails += [f.path.tails] * (2 * m)
    at = np.array(rows)
    # the window [0, level] is closed at -tol, as a kernel vector is inside
    faults = window_faults(w[at], tol[at], levels, tails)
    lo, ncols = interval_columns(cluster_values(w, tol)[1][at],
                                 0.0 - tol[at, None], np.array(levels)[:, None])
    keys = list(zip(rows, lo.tolist(), ncols.tolist()))
    distinct: dict[tuple[int, int, int], int] = {}
    picks = []
    for start, end in spans:
        stop = next((i for i in range(start, end) if faults[i] is not None), end)
        picks.append(([distinct.setdefault(key, len(distinct))
                       for key in keys[start:stop]],
                      faults[stop] if stop < end else None))
    ks = [k for _, _, k in distinct]
    pad = np.zeros((len(ks), w.shape[1], max(ks, default=0)))
    for frame, (knot, col, k) in zip(pad, distinct):
        frame[:, :k] = specs[knot].vectors[:, col:col + k]
    classes = subspace_classes(flows[0].action, table, pad, ks)
    for f, (picked, fault) in zip(flows, picks):
        got = [classes[c] for c in picked]
        error = next((c for c in got if isinstance(c, SflowError)), fault)
        f.outcome = error or _flow_report(f.partition, got, table)


def _flow_report(partition: CertifiedPartition, classes: list[VirtualRep],
                 table: RealCharacterTable) -> SflReport:
    # each segment's contribution is its right knot class less its left one,
    # taken on the coefficient tuples so that each VirtualRep is built once
    coeffs = [c.coeffs for c in classes]
    diffs = [tuple(b - a for a, b in zip(left, right))
             for left, right in zip(coeffs[::2], coeffs[1::2])]
    contributions = tuple(VirtualRep(table, d) for d in diffs)
    total = VirtualRep(table, tuple(map(sum, zip(*diffs))))
    crossings = tuple(
        Crossing((partition.knots[i], partition.knots[i + 1]), i, c)
        for i, (d, c) in enumerate(zip(diffs, contributions)) if any(d))
    return SflReport(sfl_G=total, sfl=forgetful_F(total), partition=partition,
                     segment_contributions=contributions, crossings=crossings)


def sfl_G_each(requests: Sequence[tuple[OperatorPath, OrthogonalAction]],
               table: RealCharacterTable, opts: FlowOptions | None = None, *,
               partitions: Sequence[CertifiedPartition | None] | None = None
               ) -> list[SflReport | SflowError]:
    """sfl_G of each (path, action) request: its report, or in its place the
    error its own sfl_G call raises.

    The requests share their work. Bisection runs in shared rounds
    (_partitions); then the blocks at knots and midpoints of all flows of
    one action are checked for equivariance in one stacked pass, and their
    knot frames take their classes in another. partitions, when given, holds
    one certificate per request to use instead of bisection, or None.
    """
    opts = opts or FlowOptions()
    flows = [_Flow(path, action, _SpectraCache(path, opts.tol_cluster), part)
             for (path, action), part in zip(
                 requests, partitions or [None] * len(requests))]
    for f in flows:
        if f.action.dim != f.path.dim:
            f.outcome = DimensionMismatch(f"action dimension {f.action.dim} "
                                          f"vs path dimension {f.path.dim}")
        elif table.group != f.action.group:
            f.outcome = WrongGroup(
                "character table and action belong to different groups")
        elif f.partition is not None:
            try:
                _require_invertible_ends(f.cache, opts)
            except SflowError as e:
                f.outcome = e
    bisect = [f for f in flows if f.outcome is None and f.partition is None]
    for f, part in zip(bisect, _partitions([f.cache for f in bisect], opts)):
        if isinstance(part, SflowError):
            f.outcome = part
        else:
            f.partition = part
    by_action: dict[int, list[_Flow]] = {}
    for f in flows:
        if f.outcome is None:
            by_action.setdefault(id(f.action), []).append(f)
    for group in by_action.values():
        _check_equivariance(group)
        equivariant = [f for f in group if f.outcome is None]
        if equivariant:
            _take_classes(equivariant, table)
    return [f.outcome for f in flows]


def sfl_G(path: OperatorPath, action: OrthogonalAction,
          table: RealCharacterTable, opts: FlowOptions | None = None, *,
          partition: CertifiedPartition | None = None) -> SflReport:
    """Equivariant spectral flow of an equivariant path with invertible ends.

    Returns the virtual class together with the certificate. The plain
    integer flow is the forgetful image of the class.
    """
    reports = sfl_G_each([(path, action)], table, opts, partitions=[partition])
    raise_first(reports)
    return reports[0]


def sfl_G_pair(path: OperatorPath, second: Callable[[], OperatorPath],
               action: OrthogonalAction, table: RealCharacterTable,
               opts: FlowOptions | None = None) -> tuple[SflReport, SflReport]:
    """Reports of path and of the path second() builds, certified in shared
    rounds. The error raised is the first of: sfl_G of path, second(), sfl_G
    of its path, as a run of those three steps in order raises them."""
    try:
        other = second()
    except SflowError:
        sfl_G(path, action, table, opts)  # the direct flow's error comes first
        raise
    reports = sfl_G_each([(path, action), (other, action)], table, opts)
    raise_first(reports)
    return reports[0], reports[1]


def morse_oracle_sfl_G(path: OperatorPath, action: OrthogonalAction,
                       table: RealCharacterTable, m: int = 0,
                       opts: FlowOptions | None = None) -> VirtualRep:
    """Endpoint-only evaluation of the flow through negative-space classes.

    Equals sfl_G for every admissible path in this model, independently of the
    truncation size m; tail copies contribute equally at both ends and cancel.
    """
    opts = opts or FlowOptions()
    tail = compression_tail(path, m)
    blocks = np.array([block_diag(b, tail) for b in path.blocks_at([0.0, 1.0])])
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

    Flows draw no random numbers, so every case is drawn first and all the
    flows go to one sfl_G_each call. The error raised is the one a case by
    case run raises first: if a draw fails, the first error among the flows
    requested before it, else the draw's own.
    """
    from . import sampling
    from .groups import direct_sum_action
    from .operators import concatenate, direct_sum_paths, reverse

    opts = opts or FlowOptions()
    rng = np.random.default_rng(seed)
    tail_cycle = [(False, False), (True, False), (False, True), (True, True)]
    requests: list[tuple[OperatorPath, OrthogonalAction]] = []
    # (suite, witness prefix, flows summed on the left, on the right); a
    # right side of None asks for a zero class
    checks: list[tuple[str, str, list[int], list[int] | None]] = []

    def flow(p: OperatorPath, act: OrthogonalAction = action) -> int:
        requests.append((p, act))
        return len(requests) - 1

    def draw_cases() -> None:
        for i in range(instances):
            tails = tail_cycle[i % 4]
            p = sampling.random_invertible_path(action, rng, plus_tail=tails[0],
                                                minus_tail=tails[1])
            checks.append(("vanishing", f"instance {i}: invertible path has flow",
                           [flow(p)], None))

        for i in range(instances):
            tails = tail_cycle[i % 4]
            p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                                 minus_tail=tails[1])
            q = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                                 minus_tail=tails[1],
                                                 start_block=p.block_at(1.0))
            checks.append(("concatenation", f"instance {i}: concatenation",
                           [flow(concatenate(p, q))], [flow(p), flow(q)]))
            checks.append(("concatenation", f"instance {i}: closed loop has flow",
                           [flow(concatenate(p, reverse(p)))], None))

        double = direct_sum_action(action, action)
        for i in range(instances):
            tails_p = tail_cycle[i % 4]
            tails_q = tail_cycle[(i + 1) % 4]
            p = sampling.random_equivariant_path(action, rng, plus_tail=tails_p[0],
                                                 minus_tail=tails_p[1])
            q = sampling.random_equivariant_path(action, rng, plus_tail=tails_q[0],
                                                 minus_tail=tails_q[1])
            checks.append(("direct_sum", f"instance {i}: direct sum",
                           [flow(direct_sum_paths(p, q), double)],
                           [flow(p), flow(q)]))

        for i in range(instances):
            tails = tail_cycle[i % 4]
            p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                                 minus_tail=tails[1], kind="affine")
            q = sampling.reparametrize(p, rng)
            checks.append(("reparametrization", f"instance {i}: reparametrization",
                           [flow(q)], [flow(p)]))

        for i in range(instances):
            tails = tail_cycle[i % 4]
            p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                                 minus_tail=tails[1])
            u = sampling.random_equivariant_orthogonal(action, rng)
            checks.append(("conjugation", f"instance {i}: conjugation",
                           [flow(sampling.conjugate_path(p, u))], [flow(p)]))

    fault: SflowError | None = None
    try:
        draw_cases()
    except SflowError as e:
        fault = e
    reports = sfl_G_each(requests, table, opts)
    raise_first([*reports, fault])

    def total(flows: list[int] | None) -> VirtualRep:
        return sum((reports[k].sfl_G for k in flows or []), VirtualRep.zero(table))

    names = ["vanishing", "concatenation", "direct_sum", "reparametrization",
             "conjugation"]
    failures: dict[str, list[str]] = {name: [] for name in names}
    for suite, prefix, lhs, rhs in checks:
        got, want = total(lhs), total(rhs)
        if got != want:
            failures[suite].append(f"{prefix} {got}" if rhs is None
                                   else f"{prefix} {got} != {want}")
    return AxiomSuiteReport(tuple(AxiomResult(name, instances, tuple(failures[name]))
                                  for name in names))
