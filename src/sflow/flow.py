"""Certified partitions and the equivariant spectral flow of operator paths.

A partition certificate is a list of parameter knots and positive levels such
that on each segment no block eigenvalue can touch the level band, by a
Lipschitz perturbation bound checked on endpoint and midpoint samples. The
flow is then the telescoping sum of the classes of the eigenspaces in
[0, level] at consecutive knots, an integer vector of irrep multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._eig import solve_each
from .errors import (
    CertificationFailed,
    DimensionMismatch,
    EigenFailure,
    EndpointNotInvertible,
    NotEquivariant,
    OutOfRange,
    SflowError,
    WrongGroup,
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
    CPS,
    EQUIVARIANCE_FACTOR,
    INVERT_FACTOR,
    OperatorPath,
    Spectrum,
    block_spectra,
    compress,
    equivariance_defects,
    morse_class,
    spectral_interval_frame,
)

MARGIN_FLOOR = 1e-7
MAX_DEPTH = 40
# past this depth a bisection midpoint can round onto an end of its segment
DEPTH_CAP = 53
# segments certified per round of find_partition, with one stacked eigensolve
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

    @property
    def n_segments(self) -> int:
        return len(self.levels)


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
        self._ops: dict[float, CPS] = {}
        self._blocks: dict[float, np.ndarray] = {}
        # a parameter whose block failed to solve maps to its EigenFailure,
        # raised whenever its spectrum is asked for
        self._spectra: dict[float, Spectrum | EigenFailure] = {}

    def op(self, lam: float) -> CPS:
        if lam not in self._ops:
            self._ops[lam] = self.path.at(lam)
        return self._ops[lam]

    def blocks(self, lams: list[float]) -> np.ndarray:
        """(k, n, n) stack of the symmetrized blocks at k parameters, each
        equal bit for bit to path.at(lam).block and built once."""
        new = [lam for lam in dict.fromkeys(lams) if lam not in self._blocks]
        if new:
            b = np.stack([self.path.block_at(lam) for lam in new])
            self._blocks.update(zip(new, 0.5 * b + 0.5 * np.swapaxes(b, 1, 2)))
        return np.stack([self._blocks[lam] for lam in lams])

    def fill(self, lams: list[float]) -> None:
        """Solve every parameter not yet cached in one stacked eigensolve."""
        new = [lam for lam in dict.fromkeys(lams) if lam not in self._spectra]
        if not new:
            return
        spectra = solve_each(lambda b: block_spectra(b, self.tol_cluster),
                             self.blocks(new))
        self._spectra.update(zip(new, spectra))

    def spectrum(self, lam: float) -> Spectrum:
        if lam not in self._spectra:
            self.fill([lam])
        spec = self._spectra[lam]
        if isinstance(spec, EigenFailure):
            raise spec
        return spec


def _fold(lo: float, hi: float) -> tuple[float, float]:
    # image of [lo, hi] under absolute value
    if hi <= 0.0:
        return (-hi, -lo)
    if lo >= 0.0:
        return (lo, hi)
    return (0.0, max(-lo, hi))


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _try_certify(cache: _SpectraCache, opts: FlowOptions, left: float,
                 right: float) -> tuple[float, float] | None:
    """Look for one admissible level on [left, right]. Returns (level, margin)
    or None if the sampled eigenvalue envelopes leave no wide enough gap."""
    path = cache.path
    mid = (left + right) / 2.0
    wl = cache.spectrum(left).eigenvalues
    wm = cache.spectrum(mid).eigenvalues
    wr = cache.spectrum(right).eigenvalues
    rad = path.lipschitz * (right - left) / 2.0
    has_tails = path.plus_tail or path.minus_tail

    folded: list[tuple[float, float]] = []
    for k in range(wl.size):
        # envelope of the k-th eigenvalue over the segment: inside the
        # midpoint tube and inside the union of the endpoint tubes
        lo = max(wm[k], min(wl[k], wr[k])) - rad
        hi = min(wm[k], max(wl[k], wr[k])) + rad
        if lo > hi:
            lo, hi = wm[k] - rad, wm[k] + rad
        folded.append(_fold(lo, hi))
    forbidden = _merge(folded)

    cap = 1.0
    if forbidden and not has_tails:
        cap = forbidden[-1][1] + 1.0

    norm_bound = 0.0
    for w in (wl, wm, wr):
        if w.size:
            norm_bound = max(norm_bound, float(np.max(np.abs(w))))
    norm_bound += rad
    required = max(MARGIN_FLOOR,
                   2.0 * opts.tol_cluster * (1.0 + norm_bound))

    best: tuple[float, float] | None = None  # (width, level)
    prev = 0.0
    pieces = [p for p in forbidden if p[0] < cap]
    for lo, hi in pieces + [(cap, cap)]:
        gap_lo, gap_hi = prev, min(lo, cap)
        if gap_hi > gap_lo:
            width = gap_hi - gap_lo
            if best is None or width > best[0]:
                best = (width, (gap_lo + gap_hi) / 2.0)
        prev = max(prev, min(hi, cap))
    if best is None:
        return None
    width, level = best
    # the envelopes hold the computed eigenvalues; the exact ones may sit up
    # to err further in, which the margin pays for without moving the level
    margin = width / 2.0 - max(cache.spectrum(lam).err
                               for lam in (left, mid, right))
    if margin <= required:
        return None
    counts = {int(np.count_nonzero(np.abs(w) <= level)) for w in (wl, wm, wr)}
    if len(counts) != 1:
        return None
    return level, margin


def _require_invertible_ends(cache: _SpectraCache, opts: FlowOptions) -> None:
    cache.fill([0.0, 1.0])
    for lam in (0.0, 1.0):
        spec = cache.spectrum(lam)
        threshold = opts.tol_invert * (1.0 + spec.block_norm)
        if spec.min_abs() - spec.err <= threshold:
            raise EndpointNotInvertible(
                f"eigenvalue {spec.min_abs():.3e} at endpoint {lam} within "
                f"threshold {threshold:.3e}")


def find_partition(path: OperatorPath, opts: FlowOptions | None = None, *,
                   cache: _SpectraCache | None = None) -> CertifiedPartition:
    """Certify a partition of [0, 1] with one spectral level per segment.

    A segment is accepted once the Lipschitz eigenvalue envelopes leave a gap
    whose half width clears the margin floor and the cluster tolerance, and
    the rank inside the level band is constant across its three samples;
    otherwise it is bisected. Fails once a segment would need more than
    max_depth bisections.

    Bisection runs over a left-to-right worklist of pending segments. Each
    round takes the leftmost BISECTION_BATCH of them, solves all their
    missing samples in one stacked eigensolve and tries them in order. A
    failure is raised only once no pending segment lies to its left, and
    everything to its right is dropped, so the partition and the failure are
    those of a depth-first recursion, and a path that cannot be certified
    costs at most about BISECTION_BATCH * (max_depth + 1) segments.
    """
    opts = opts or FlowOptions()
    cache = cache or _SpectraCache(path, opts.tol_cluster)
    _require_invertible_ends(cache, opts)

    accepted: list[tuple[float, float, float]] = []  # (right, level, margin)
    failure: SflowError | None = None
    pending: list[tuple[float, float, int]] = [(0.0, 1.0, 0)]
    while pending:
        batch = pending[:BISECTION_BATCH]
        later = pending[BISECTION_BATCH:]
        cache.fill([lam for left, right, depth in batch
                    if depth >= opts.min_depth
                    for lam in (left, (left + right) / 2.0, right)])
        split: list[tuple[float, float, int]] = []
        for left, right, depth in batch:
            fault: SflowError | None = None
            if depth >= opts.min_depth:
                try:
                    found = _try_certify(cache, opts, left, right)
                except EigenFailure as e:
                    found, fault = None, e
                if found is not None:
                    level, margin = found
                    accepted.append((right, float(level), float(margin)))
                    continue
                if fault is None and depth >= opts.max_depth:
                    fault = CertificationFailed(
                        f"no certified level on [{left}, {right}] at depth {depth}")
            if fault is not None:
                # only a failure further left can still come first
                failure, later = fault, []
                break
            mid = (left + right) / 2.0
            split += [(left, mid, depth + 1), (mid, right, depth + 1)]
        pending = split + later
    if failure is not None:
        raise failure
    rights, levels, margins = zip(*sorted(accepted))
    return CertifiedPartition((0.0,) + rights, levels, margins)


def _knot_classes(cache: _SpectraCache, action: OrthogonalAction,
                  table: RealCharacterTable,
                  partition: CertifiedPartition) -> list[VirtualRep]:
    """Class of the frame of [0, level] at the left and right knot of each
    segment, in order. A frame is a run of clusters from the first >= -tol,
    so (knot, column count) fixes it, and the distinct ones take their
    classes in one stacked pass. Every frame is still built for its boundary
    checks; failures are raised in the order of a per-frame loop."""
    frames: dict[tuple[float, int], np.ndarray] = {}
    keys: list[tuple[float, int]] = []
    fault: SflowError | None = None
    try:
        for i, level in enumerate(partition.levels):
            for lam in partition.knots[i:i + 2]:
                spec = cache.spectrum(lam)
                frame = spectral_interval_frame(cache.op(lam), 0.0, level,
                                                spectrum=spec,
                                                closed_left_tol=spec.tol)
                keys.append((lam, frame.shape[1]))
                frames.setdefault(keys[-1], frame)
    except SflowError as e:
        fault = e
    classes = dict(zip(frames, subspace_classes(action, table,
                                                list(frames.values()))))
    for klass in [*classes.values(), fault]:
        if isinstance(klass, SflowError):
            raise klass
    return [classes[key] for key in keys]


def _check_equivariance_along(cache: _SpectraCache, action: OrthogonalAction,
                              partition: CertifiedPartition) -> None:
    lams = list(partition.knots)
    lams += [(a + b) / 2.0 for a, b in zip(partition.knots, partition.knots[1:])]
    cache.fill(lams)
    # a parameter whose solve failed gets tol inf, and cache.spectrum raises
    # its EigenFailure below, in parameter order
    tols = [EQUIVARIANCE_FACTOR * (1.0 + s.block_norm)
            if isinstance(s, Spectrum) else math.inf
            for s in map(cache._spectra.get, lams)]
    defects = equivariance_defects(cache.blocks(lams), action, tols).tolist()
    for lam, defect, tol in zip(lams, defects, tols):
        cache.spectrum(lam)
        if defect > tol:
            raise NotEquivariant(
                f"commutator norm {defect:.3e} at parameter {lam} exceeds "
                f"{tol:.3e}")


def sfl_G(path: OperatorPath, action: OrthogonalAction,
          table: RealCharacterTable, opts: FlowOptions | None = None, *,
          partition: CertifiedPartition | None = None) -> SflReport:
    """Equivariant spectral flow of an equivariant path with invertible ends.

    Returns the virtual class together with the certificate. The plain
    integer flow is the forgetful image of the class.
    """
    opts = opts or FlowOptions()
    if action.dim != path.dim:
        raise DimensionMismatch(
            f"action dimension {action.dim} vs path dimension {path.dim}")
    if table.group != action.group:
        raise WrongGroup("character table and action belong to different groups")
    cache = _SpectraCache(path, opts.tol_cluster)
    if partition is None:
        partition = find_partition(path, opts, cache=cache)
    else:
        _require_invertible_ends(cache, opts)
    _check_equivariance_along(cache, action, partition)

    classes = _knot_classes(cache, action, table, partition)
    contributions = [right - left
                     for left, right in zip(classes[::2], classes[1::2])]
    total = sum(contributions, VirtualRep.zero(table))

    crossings = tuple(
        Crossing((partition.knots[i], partition.knots[i + 1]), i, c)
        for i, c in enumerate(contributions) if not c.is_zero())
    return SflReport(sfl_G=total, sfl=forgetful_F(total), partition=partition,
                     segment_contributions=tuple(contributions), crossings=crossings)


def morse_oracle_sfl_G(path: OperatorPath, action: OrthogonalAction,
                       table: RealCharacterTable, m: int = 0,
                       opts: FlowOptions | None = None) -> VirtualRep:
    """Endpoint-only evaluation of the flow through negative-space classes.

    Equals sfl_G for every admissible path in this model, independently of the
    truncation size m; tail copies contribute equally at both ends and cancel.
    """
    opts = opts or FlowOptions()
    finite = compress(path, m)
    extra = m * (int(path.plus_tail) + int(path.minus_tail))
    act = action.extended(extra)
    kwargs = dict(tol_cluster=opts.tol_cluster, tol_invert=opts.tol_invert)
    start = morse_class(finite.at(0.0), act, table, **kwargs)
    end = morse_class(finite.at(1.0), act, table, **kwargs)
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

    def by_name(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def verify_axioms(action: OrthogonalAction, table: RealCharacterTable, *,
                  seed: int = 0, instances: int = 20,
                  opts: FlowOptions | None = None) -> AxiomSuiteReport:
    """Randomized checks of the characterizing properties of the flow.

    Suites: vanishing on invertible paths, additivity under concatenation
    (including closed loops), additivity under direct sums, invariance under
    reparametrization, and invariance under equivariant conjugation. Each
    suite runs `instances` randomized cases; failures carry a witness string.
    """
    from . import sampling
    from .groups import direct_sum_action
    from .operators import concatenate, direct_sum_paths, reverse

    opts = opts or FlowOptions()
    rng = np.random.default_rng(seed)
    tail_cycle = [(False, False), (True, False), (False, True), (True, True)]

    def flow(p: OperatorPath, act: OrthogonalAction = action) -> VirtualRep:
        return sfl_G(p, act, table, opts).sfl_G

    results = []

    failures: list[str] = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_invertible_path(action, rng, plus_tail=tails[0],
                                            minus_tail=tails[1])
        got = flow(p)
        if not got.is_zero():
            failures.append(f"instance {i}: invertible path has flow {got}")
    results.append(AxiomResult("vanishing", instances, tuple(failures)))

    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1])
        q = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1],
                                             start_block=p.block_at(1.0))
        joined = concatenate(p, q)
        lhs = flow(joined)
        rhs = flow(p) + flow(q)
        if lhs != rhs:
            failures.append(f"instance {i}: concatenation {lhs} != {rhs}")
        loop = flow(concatenate(p, reverse(p)))
        if not loop.is_zero():
            failures.append(f"instance {i}: closed loop has flow {loop}")
    results.append(AxiomResult("concatenation", instances, tuple(failures)))

    failures = []
    double = direct_sum_action(action, action)
    for i in range(instances):
        tails_p = tail_cycle[i % 4]
        tails_q = tail_cycle[(i + 1) % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails_p[0],
                                             minus_tail=tails_p[1])
        q = sampling.random_equivariant_path(action, rng, plus_tail=tails_q[0],
                                             minus_tail=tails_q[1])
        lhs = flow(direct_sum_paths(p, q), double)
        rhs = flow(p) + flow(q)
        if lhs != rhs:
            failures.append(f"instance {i}: direct sum {lhs} != {rhs}")
    results.append(AxiomResult("direct_sum", instances, tuple(failures)))

    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1], kind="affine")
        q = sampling.reparametrize(p, rng)
        lhs, rhs = flow(q), flow(p)
        if lhs != rhs:
            failures.append(f"instance {i}: reparametrization {lhs} != {rhs}")
    results.append(AxiomResult("reparametrization", instances, tuple(failures)))

    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1])
        u = sampling.random_equivariant_orthogonal(action, rng)
        lhs = flow(sampling.conjugate_path(p, u))
        rhs = flow(p)
        if lhs != rhs:
            failures.append(f"instance {i}: conjugation {lhs} != {rhs}")
    results.append(AxiomResult("conjugation", instances, tuple(failures)))

    return AxiomSuiteReport(tuple(results))
