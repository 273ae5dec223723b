"""Finite groups, real character tables, orthogonal actions, and the integer
vectors of irreducible multiplicities that the flow takes values in."""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._eig import block_diag, jacobi_eigh, opnorms_within, symmetric_part
from .errors import (
    BadAction,
    BadCharacterTable,
    NonGroup,
    NonIntegralMultiplicity,
    NotInvariant,
    NotOrthonormal,
    OutOfRange,
    ProjectionResidual,
    SflowError,
    TableMismatch,
    WrongGroup,
    raise_first,
    whole_number,
)

ORTHOGONALITY_TOL = 1e-9
MULTIPLICITY_TOL = 1e-6
PROJECTION_TOL = 1e-8
ACTION_ORTHOGONALITY_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9
HOMOMORPHISM_BATCH = 1 << 16
FRAME_TOL = 1e-8
INVARIANCE_TOL = 1e-7


@dataclass
class FiniteGroup:
    """A finite group given by its full multiplication table.

    Elements are the indices 0..order-1. Conjugacy classes are derived from
    the table and ordered by their minimal element, so class data is canonical
    for a fixed table.
    """

    mult_table: tuple[tuple[int, ...], ...]
    name: str = "group"
    identity: int = field(init=False)
    inverses: tuple[int, ...] = field(init=False)
    conjugacy_classes: tuple[tuple[int, ...], ...] = field(init=False)
    class_sizes: tuple[int, ...] = field(init=False)
    class_of: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.mult_table)
        if n == 0:
            raise NonGroup("empty multiplication table")
        for i, row in enumerate(self.mult_table):
            if len(row) != n:
                raise NonGroup(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                k = whole_number(x)
                if k is None or not 0 <= k < n:
                    raise NonGroup(f"entry {x!r} in row {i} is not an element "
                                   f"index 0..{n - 1}")
        self.mult_table = table = tuple(tuple(int(x) for x in row)
                                        for row in self.mult_table)

        t, elems = np.array(table, dtype=np.intp), np.arange(n)
        two_sided = ((t == elems) & (t.T == elems)).all(axis=1)
        if not two_sided.any():
            raise NonGroup("no two-sided identity element")
        self.identity = identity = int(np.argmax(two_sided))

        hits = t == identity
        inverses = np.argmax(hits, axis=1)
        bad = (hits.sum(axis=1) != 1) | (t[inverses, elems] != identity)
        if bad.any():
            raise NonGroup(f"element {int(np.argmax(bad))} has no unique "
                           f"two-sided inverse")
        self.inverses = tuple(inverses.tolist())

        # (ab)c against a(bc) for all triples, as many rows a at a time as
        # keep each temporary within HOMOMORPHISM_BATCH entries (at least one
        # row), so memory stays near order^2 rather than order^3
        step = max(1, HOMOMORPHISM_BATCH // (n * n))
        for a0 in range(0, n, step):
            rows = t[a0:a0 + step]
            bad = t[rows] != rows[:, t]
            if bad.any():
                a, b, c = (int(x) for x in np.argwhere(bad)[0])
                raise NonGroup(f"associativity fails at {(a0 + a, b, c)}")

        # row g of the orbits holds h g h^-1 for every h; classes are
        # ordered by their least element
        orbits = t[t.T, inverses]
        least, class_of = np.unique(orbits.min(axis=1), return_inverse=True)
        self.class_of = tuple(class_of.tolist())
        self.conjugacy_classes = tuple(
            tuple(np.flatnonzero(class_of == c).tolist())
            for c in range(len(least)))
        self.class_sizes = tuple(len(c) for c in self.conjugacy_classes)

    @property
    def order(self) -> int:
        return len(self.mult_table)

    @property
    def n_classes(self) -> int:
        return len(self.conjugacy_classes)

    def mul(self, a: int, b: int) -> int:
        return self.mult_table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def class_representatives(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.conjugacy_classes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and self.mult_table == other.mult_table

    def __hash__(self) -> int:
        return hash(self.mult_table)


@dataclass(frozen=True)
class Irrep:
    """One real irreducible character: name, real degree, Schur norm
    (1 real, 2 complex, 4 quaternionic type), and one value per class."""

    name: str
    degree: int
    schur_norm: int
    values: tuple[float, ...]


class RealCharacterTable:
    """Characters of the real irreducible representations of a group.

    Validated against the first orthogonality relations: distinct rows pair to
    zero, every row pairs with itself to its Schur norm.
    """

    def __init__(self, group: FiniteGroup, irreps: Sequence[Irrep]):
        self.group = group
        self.irreps = tuple(irreps)
        self._validate()
        # the matrix _multiplicities resolves characters with
        self._pairing = np.array([
            [s * v / (group.order * ir.schur_norm)
             for s, v in zip(group.class_sizes, ir.values)]
            for ir in self.irreps]).T
        self._pairing.flags.writeable = False
        # the first orthogonality relations, where NaN fails: row i pairs
        # with row j to the Schur norm of row i if i == j, else to 0
        schur = np.array([ir.schur_norm for ir in self.irreps], dtype=float)
        want = np.diag(schur)
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.array([ir.values for ir in self.irreps]) @ self._pairing * schur
            bad = np.argwhere(~(np.abs(got - want) <= ORTHOGONALITY_TOL))
        if bad.size:
            i, j = bad[0]
            raise BadCharacterTable(
                f"orthogonality fails for ({self.irreps[i].name}, "
                f"{self.irreps[j].name}): pairing {float(got[i, j])}, "
                f"expected {float(want[i, j])}")

    def _validate(self) -> None:
        g = self.group
        if not self.irreps:
            raise BadCharacterTable("no irreducible characters given")
        names = [ir.name for ir in self.irreps]
        if len(set(names)) != len(names):
            raise BadCharacterTable(f"duplicate irrep names in {names}")
        id_class = g.class_of[g.identity]
        for ir in self.irreps:
            if ir.schur_norm not in (1, 2, 4):
                raise BadCharacterTable(
                    f"{ir.name}: schur_norm {ir.schur_norm} not in (1, 2, 4)")
            if ir.degree < 1:
                raise BadCharacterTable(f"{ir.name}: degree {ir.degree} < 1")
            if len(ir.values) != g.n_classes:
                raise BadCharacterTable(
                    f"{ir.name}: {len(ir.values)} values for {g.n_classes} classes")
            # a degree past the float range would overflow the difference;
            # NaN fails
            if (ir.degree > sys.float_info.max
                    or not abs(ir.values[id_class] - ir.degree) <= ORTHOGONALITY_TOL):
                raise BadCharacterTable(
                    f"{ir.name}: value at identity {ir.values[id_class]} "
                    f"!= degree {ir.degree}")

    @property
    def n_irreps(self) -> int:
        return len(self.irreps)

    def index_of(self, name: str) -> int:
        for i, ir in enumerate(self.irreps):
            if ir.name == name:
                return i
        raise OutOfRange(f"unknown irrep {name!r}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RealCharacterTable)
                and self.group == other.group
                and self.irreps == other.irreps)

    def __hash__(self) -> int:
        return hash((self.group, self.irreps))

    def __repr__(self) -> str:
        names = ", ".join(ir.name for ir in self.irreps)
        return f"RealCharacterTable(order={self.group.order}, irreps=[{names}])"


@dataclass(frozen=True)
class VirtualRep:
    """Formal integer combination of the real irreducibles of one table."""

    table: RealCharacterTable
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.table.n_irreps:
            raise TableMismatch(
                f"{len(self.coeffs)} coefficients for {self.table.n_irreps} irreps")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def _check(self, other: "VirtualRep") -> None:
        if self.table != other.table:
            raise TableMismatch("virtual representations over different tables")

    def __add__(self, other: "VirtualRep") -> "VirtualRep":
        self._check(other)
        return VirtualRep(self.table,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VirtualRep") -> "VirtualRep":
        self._check(other)
        return VirtualRep(self.table,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VirtualRep":
        return VirtualRep(self.table, tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dim(self) -> int:
        """Underlying dimension count: sum of coefficient * degree."""
        return sum(c * ir.degree for c, ir in zip(self.coeffs, self.table.irreps))

    def as_dict(self) -> dict[str, int]:
        return {ir.name: c for ir, c in zip(self.table.irreps, self.coeffs)}

    def __repr__(self) -> str:
        parts = [f"{c}*{ir.name}" for ir, c in zip(self.table.irreps, self.coeffs)
                 if c != 0]
        return "VirtualRep(" + (" + ".join(parts) if parts else "0") + ")"


class OrthogonalAction:
    """Orthogonal matrices for every group element, one fixed dimension."""

    def __init__(self, group: FiniteGroup, matrices: Sequence[np.ndarray]):
        if len(matrices) != group.order:
            raise BadAction(
                f"{len(matrices)} matrices for a group of order {group.order}")
        mats = [np.asarray(m, dtype=float) for m in matrices]
        for g, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise BadAction(f"matrix for element {g} is not square: {m.shape}")
            if m.shape[0] != mats[0].shape[0]:
                raise BadAction(
                    f"matrix for element {g} has dimension {m.shape[0]}, "
                    f"expected {mats[0].shape[0]}")
        self._adopt(group, np.array(mats))
        stack, dim = self.stack, self.dim
        # entries past about 1e154 overflow the product: its norm is inf
        with np.errstate(over="ignore", invalid="ignore"):
            defects = opnorms_within(np.swapaxes(stack, 1, 2) @ stack
                                     - np.eye(dim), ACTION_ORTHOGONALITY_TOL)
        bad = np.flatnonzero(defects > ACTION_ORTHOGONALITY_TOL)
        if bad.size:
            raise BadAction(f"matrix for element {bad[0]} not orthogonal: "
                            f"defect {defects[bad[0]]:.3e}")
        # all |G|^2 products, as many table rows at a time as keep each
        # temporary within HOMOMORPHISM_BATCH entries (at least one row), so
        # memory stays near |G| d^2 for large explicit groups
        table = np.array(group.mult_table, dtype=np.intp)
        step = max(1, HOMOMORPHISM_BATCH // max(1, group.order * dim * dim))
        for a0 in range(0, group.order, step):
            rows = slice(a0, a0 + step)
            defects = opnorms_within(stack[rows, None] @ stack
                                     - stack[table[rows]], HOMOMORPHISM_TOL)
            bad = np.argwhere(defects > HOMOMORPHISM_TOL)
            if bad.size:
                a, b = bad[0]
                raise BadAction(f"homomorphism fails at ({a0 + a}, {b}): "
                                f"defect {defects[a, b]:.3e}")

    def _adopt(self, group: FiniteGroup,
               stack: np.ndarray) -> "OrthogonalAction":
        # (|G|, d, d), read-only; `matrices` holds views of its slices. Sums
        # and extensions of valid actions are valid, and adopt their stacks
        # without the checks.
        stack.flags.writeable = False
        self.group, self.stack, self.matrices = group, stack, tuple(stack)
        self.dim = stack.shape[1]
        return self

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def extended(self, extra: int) -> "OrthogonalAction":
        """Same action with `extra` new coordinates carrying the trivial
        action, appended after the existing ones."""
        if extra == 0:
            return self
        return object.__new__(OrthogonalAction)._adopt(
            self.group, block_diag(self.stack, np.eye(extra)))

    def __repr__(self) -> str:
        return f"OrthogonalAction(order={self.group.order}, dim={self.dim})"


def direct_sum_action(a: OrthogonalAction, b: OrthogonalAction) -> OrthogonalAction:
    """Block-diagonal join of two actions of the same group."""
    if a.group != b.group:
        raise WrongGroup("direct sum of actions of different groups")
    return object.__new__(OrthogonalAction)._adopt(a.group,
                                                   block_diag(a.stack, b.stack))


# --- preset groups -------------------------------------------------------


def _rotation_table(n: int, flips: bool) -> list[list[int]]:
    # element f*n + t is reflection^f rotation^t (f = 0 without flips);
    # (f1,t1)*(f2,t2) = (f1 xor f2, t2 + (-1)^f2 * t1)
    f, t = np.divmod(np.arange((1 + flips) * n), n)
    return ((f[:, None] ^ f) * n + (t + (-1) ** f * t[:, None]) % n).tolist()


_FLIP = np.array([[1.0, 0.0], [0.0, -1.0]])


def _preset_irreps(preset: str, n: int) -> list[tuple[str, int, np.ndarray]]:
    """The real irreducibles of a preset group in character-table order: name,
    Schur norm and a (|G|, d, d) stack of orthogonal matrices, one per
    element. The table's characters are their traces and the preset actions
    their direct sums, so the two cannot disagree."""
    if preset == "trivial":
        return [("trivial", 1, np.ones((1, 1, 1)))]
    if preset == "dihedral" and n == 1:
        # order 2; same abstract group as cyclic(2)
        preset, n = "cyclic", 2
    dihedral = preset == "dihedral"
    # element f*n + t is reflection^f rotation^t (f = 0 for cyclic groups)
    f, t = np.divmod(np.arange((1 + dihedral) * n), n)

    def line(values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(-1, 1, 1)

    def plane(k: int) -> np.ndarray:
        theta = 2.0 * np.pi * k * t / n
        c, s = np.cos(theta), np.sin(theta)
        mats = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
        mats[n:] = _FLIP @ mats[n:]
        return mats

    irreps = [("trivial", 1, line(np.ones(len(t))))]
    if dihedral:
        irreps.append(("sign", 1, line((-1.0) ** f)))
    if n % 2 == 0:
        irreps.append(("alt" if dihedral else "sign", 1, line((-1.0) ** t)))
        if dihedral:
            irreps.append(("alt_sign", 1, line((-1.0) ** (t + f))))
    for k in range(1, (n + 1) // 2):
        irreps.append((f"plane_{k}", 1 if dihedral else 2, plane(k)))
    return irreps


def build_group(preset: str, n: int | None = None, *,
                mult_table: Sequence[Sequence[int]] | None = None,
                char_table: Sequence[Mapping] | Sequence[Irrep] | None = None,
                ) -> tuple[FiniteGroup, RealCharacterTable]:
    """Construct a group and its real character table.

    Presets: "trivial", "cyclic" (order n >= 1), "dihedral" (order 2n, n >= 1),
    or "explicit" with a multiplication table and character data. Explicit
    character values must be listed per conjugacy class, classes ordered by
    their minimal element. A preset is built once per (preset, n), and every
    call returns the same two objects, which nothing may modify.
    """
    if preset == "explicit":
        if mult_table is None or char_table is None:
            raise NonGroup("explicit preset needs mult_table and char_table")
        group = FiniteGroup(tuple(tuple(row) for row in mult_table), name="explicit")
        irreps = []
        for item in char_table:
            if isinstance(item, Irrep):
                irreps.append(item)
            else:
                try:
                    irreps.append(Irrep(str(item["name"]), int(item["degree"]),
                                        int(item["schur"]),
                                        tuple(float(v) for v in item["values"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise BadCharacterTable(f"bad irrep record {item!r}") from exc
        return group, RealCharacterTable(group, irreps)
    if preset in ("cyclic", "dihedral"):
        # n is the cache key, so a float or a bool is refused before it
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
            raise NonGroup(f"{preset} preset needs an integer n >= 1, got {n!r}")
        n = int(n)
    return _preset_group(preset, None if preset == "trivial" else n)


@functools.lru_cache(maxsize=32)
def _preset_group(preset: str, n: int | None
                  ) -> tuple[FiniteGroup, RealCharacterTable]:
    if preset == "trivial":
        group = FiniteGroup(((0,),), name="trivial")
    elif preset in ("cyclic", "dihedral"):
        # dihedral(1) has order 2; same abstract group as cyclic(2)
        flips = preset == "dihedral" and n > 1
        mult = _rotation_table(n if preset == "cyclic" or flips else 2, flips)
        group = FiniteGroup(tuple(map(tuple, mult)), name=f"{preset}_{n}")
    else:
        raise NonGroup(f"unknown preset {preset!r}")
    reps = list(group.class_representatives())
    return group, RealCharacterTable(group, [
        Irrep(name, mats.shape[1], schur,
              tuple(mats[reps].trace(axis1=1, axis2=2).tolist()))
        for name, schur, mats in _preset_irreps(preset, n)])


# --- operations ----------------------------------------------------------


def subspace_classes(action: OrthogonalAction, table: RealCharacterTable,
                     frames: Sequence[np.ndarray]
                     ) -> list[VirtualRep | SflowError]:
    """Class of the span of each frame's orthonormal columns or, in its
    place, the first error its checks raise: NotOrthonormal, NotInvariant
    (the projector F F^T must commute with every group matrix within
    INVARIANCE_TOL), then TableMismatch or NonIntegralMultiplicity. frames
    is a sequence of (n, k) frames. Frames are checked as many at a time as
    keep each temporary within HOMOMORPHISM_BATCH entries (at least one
    frame)."""
    coeffs, faults = _class_rows(action, table, frames)
    return [f or VirtualRep(table, tuple(c))
            for f, c in zip(faults, coeffs.tolist())]


def _class_rows(action: OrthogonalAction, table: RealCharacterTable, frames,
                ks: Sequence[int] | None = None
                ) -> tuple[np.ndarray, list[SflowError | None]]:
    # subspace_classes as a (F, irreps) array of integer-valued coefficient
    # rows, each meaningful only where its frame has no error; with ks,
    # frames is a zero-padded (F, n, kmax) stack whose frame i is its first
    # ks[i] columns
    chi, faults = _characters(action, frames, ks)
    try:
        coeffs, off = _multiplicities(chi, table)
    except TableMismatch as e:
        return np.zeros((len(chi), table.n_irreps)), [f or e for f in faults]
    return coeffs, [f or o for f, o in zip(faults, off)]


def _characters(action: OrthogonalAction, frames, ks: Sequence[int] | None = None
                ) -> tuple[np.ndarray, list[SflowError | None]]:
    # characters are traces of the projectors at the class representatives;
    # a sequence of frames is padded with zero columns first
    n, order = action.dim, action.group.order
    pad = frames
    if ks is None:
        frames = [np.asarray(f, dtype=float) for f in frames]
        for f in frames:
            if f.ndim != 2 or f.shape[0] != n:
                raise NotOrthonormal(f"basis shape {f.shape} does not match "
                                     f"action dimension {n}")
        ks = np.array([f.shape[1] for f in frames], dtype=np.intp)
        pad = np.zeros((len(frames), n, ks.max(initial=0)))
        for p, f in zip(pad, frames):
            p[:, :f.shape[1]] = f
    ks, cols = np.asarray(ks), np.arange(pad.shape[2])
    reps = action.stack[list(action.group.class_representatives())]
    gram, comm = np.empty(len(pad)), np.empty((len(pad), order))
    chi = np.empty((len(pad), len(reps)))
    step = max(1, HOMOMORPHISM_BATCH // max(1, order * n * n))
    for f0 in range(0, len(pad), step):
        part = slice(f0, f0 + step)
        with np.errstate(over="ignore", invalid="ignore"):
            g = pad[part].swapaxes(1, 2) @ pad[part]
            g[:, cols, cols] -= cols < ks[part, None]
            gram[part] = opnorms_within(g, FRAME_TOL)
            proj = (pad[part] @ pad[part].swapaxes(1, 2))[:, None]
            comm[part] = opnorms_within(action.stack @ proj
                                        - proj @ action.stack, INVARIANCE_TOL)
            chi[part] = np.einsum("cij,fji->fc", reps, proj[:, 0])
    worst = comm.argmax(axis=1)
    defect = comm[np.arange(len(pad)), worst]
    faults: list[SflowError | None] = [None] * len(pad)
    for i in np.flatnonzero((gram > FRAME_TOL) | (defect > INVARIANCE_TOL)):
        if gram[i] > FRAME_TOL:
            faults[i] = NotOrthonormal(
                f"basis columns not orthonormal: defect {gram[i]:.3e}")
        else:
            faults[i] = NotInvariant(f"span not invariant: commutator norm "
                                     f"{defect[i]:.3e} at element {worst[i]}")
    return chi, faults


def _multiplicities(chi: np.ndarray, table: RealCharacterTable
                    ) -> tuple[np.ndarray, list[NonIntegralMultiplicity | None]]:
    # each row of a (k, classes) array resolved by one product with the
    # table: the rounded coefficient rows, and the error of each row that is
    # not within MULTIPLICITY_TOL of integers
    group = table.group
    if chi.shape[1] != group.n_classes:
        raise TableMismatch(
            f"{chi.shape[1]} character values for {group.n_classes} classes")
    raw = chi @ table._pairing
    coeffs = np.round(raw)
    with np.errstate(invalid="ignore"):
        off = ~(np.abs(raw - coeffs) < MULTIPLICITY_TOL)  # NaN is off
    faults: list[NonIntegralMultiplicity | None] = [None] * len(chi)
    for i in np.flatnonzero(off.any(axis=1)).tolist():
        j = int(np.argmax(off[i]))
        faults[i] = NonIntegralMultiplicity(
            f"multiplicity of {table.irreps[j].name} is {float(raw[i, j])}, "
            f"not within {MULTIPLICITY_TOL} of an integer")
    return coeffs, faults


def character_of_subspace(action: OrthogonalAction,
                          basis: np.ndarray) -> np.ndarray:
    """Character of the subspace spanned by orthonormal `basis` columns at
    one representative per conjugacy class, as subspace_classes checks it."""
    chi, faults = _characters(action, [basis])
    raise_first(faults)
    return chi[0]


def multiplicity_vector(chi: Sequence[float],
                        table: RealCharacterTable) -> VirtualRep:
    """Resolve a character into integer multiplicities of the table's irreps."""
    coeffs, faults = _multiplicities(np.array(chi, dtype=float).reshape(1, -1),
                                     table)
    raise_first(faults)
    return VirtualRep(table, tuple(coeffs[0].tolist()))


def forgetful_F(a: VirtualRep) -> int:
    """Forget the group action: total signed dimension of a virtual class."""
    return a.dim()


def _z2_indices(table: RealCharacterTable) -> tuple[int, int]:
    if table.group.order != 2 or table.n_irreps != 2 or table.group.n_classes != 2:
        raise WrongGroup("phi is defined for the order-2 group only")
    triv = sign = None
    for i, ir in enumerate(table.irreps):
        vals = tuple(round(v) for v in ir.values)
        if vals == (1, 1) and ir.degree == 1:
            triv = i
        elif vals == (1, -1) and ir.degree == 1:
            sign = i
    if triv is None or sign is None:
        raise WrongGroup("character table is not the standard order-2 table")
    return triv, sign


def phi_Z2(a: VirtualRep) -> tuple[int, int]:
    """Isomorphism onto Z x Z for the order-2 group: total dimension and
    fixed-part dimension of the virtual class."""
    triv, sign = _z2_indices(a.table)
    c_triv = a.coeffs[triv]
    c_sign = a.coeffs[sign]
    return (c_triv + c_sign, c_triv)


def isotypical_projection(action: OrthogonalAction, table: RealCharacterTable,
                          nu: int | str) -> np.ndarray:
    """Orthogonal projection onto the isotypical component of irrep `nu`."""
    if table.group != action.group:
        raise WrongGroup("character table and action belong to different groups")
    if isinstance(nu, str):
        nu = table.index_of(nu)
    if not 0 <= nu < table.n_irreps:
        raise OutOfRange(f"irrep index {nu} out of range")
    ir = table.irreps[nu]
    coef = np.asarray(ir.values)[list(action.group.class_of)]
    # summed in element order, as a running sum over the elements would be
    acc = (coef[:, None, None] * action.stack).sum(axis=0)
    proj = symmetric_part(acc * (ir.degree / (ir.schur_norm * action.group.order)))

    def _ok(p: np.ndarray) -> bool:
        checks = np.concatenate([(p @ p - p)[None],
                                 action.stack @ p - p @ action.stack])
        return not np.any(opnorms_within(checks, PROJECTION_TOL)
                          > PROJECTION_TOL)

    if _ok(proj):
        return proj
    # averaged operator drifted; rebuild from its eigenvalue-1 eigenspace
    w, v = jacobi_eigh(proj)
    cols = v[:, w > 0.5]
    rebuilt = cols @ cols.T
    if not _ok(rebuilt):
        raise ProjectionResidual(
            f"projection onto {ir.name} fails idempotency or equivariance")
    return rebuilt
