"""Finite groups, real character tables, orthogonal actions, and the integer
vectors of irreducible multiplicities that the flow takes values in."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._eig import jacobi_eigh, opnorms
from .errors import (
    BadAction,
    BadCharacterTable,
    NonGroup,
    NonIntegralMultiplicity,
    NotInvariant,
    NotOrthonormal,
    ProjectionResidual,
    TableMismatch,
    WrongGroup,
)

ORTHOGONALITY_TOL = 1e-9
CHARACTER_CLASS_TOL = 1e-9
MULTIPLICITY_TOL = 1e-6
PROJECTION_TOL = 1e-8
ACTION_ORTHOGONALITY_TOL = 1e-10
HOMOMORPHISM_TOL = 1e-9
HOMOMORPHISM_BATCH = 1 << 12
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
        table = tuple(tuple(int(x) for x in row) for row in self.mult_table)
        self.mult_table = table
        n = len(table)
        if n == 0:
            raise NonGroup("empty multiplication table")
        for i, row in enumerate(table):
            if len(row) != n:
                raise NonGroup(f"row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise NonGroup(f"entry {x} in row {i} out of range 0..{n - 1}")

        identity = None
        for e in range(n):
            if all(table[e][g] == g and table[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise NonGroup("no two-sided identity element")
        self.identity = identity

        inverses = []
        for g in range(n):
            candidates = [h for h in range(n) if table[g][h] == identity]
            if len(candidates) != 1 or table[candidates[0]][g] != identity:
                raise NonGroup(f"element {g} has no unique two-sided inverse")
            inverses.append(candidates[0])
        self.inverses = tuple(inverses)

        t = np.array(table, dtype=np.intp)
        if not np.array_equal(t[t, :], t[:, t]):
            bad = np.argwhere(t[t, :] != t[:, t])[0]
            raise NonGroup(f"associativity fails at {tuple(int(x) for x in bad)}")

        seen = [False] * n
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            orbit = sorted({table[table[h][g]][inverses[h]] for h in range(n)})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
        self.conjugacy_classes = tuple(classes)
        self.class_sizes = tuple(len(c) for c in classes)
        class_of = [0] * n
        for idx, cls in enumerate(classes):
            for g in cls:
                class_of[g] = idx
        self.class_of = tuple(class_of)

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
            if abs(ir.values[id_class] - ir.degree) > ORTHOGONALITY_TOL:
                raise BadCharacterTable(
                    f"{ir.name}: value at identity {ir.values[id_class]} "
                    f"!= degree {ir.degree}")
        for i, a in enumerate(self.irreps):
            for j, b in enumerate(self.irreps):
                p = self.pair(a.values, b.values)
                want = float(a.schur_norm) if i == j else 0.0
                if abs(p - want) > ORTHOGONALITY_TOL:
                    raise BadCharacterTable(
                        f"orthogonality fails for ({a.name}, {b.name}): "
                        f"pairing {p}, expected {want}")

    def pair(self, x: Sequence[float], y: Sequence[float]) -> float:
        """Class-function pairing (1/|G|) sum of size * x * y over classes."""
        sizes = self.group.class_sizes
        return float(sum(s * float(a) * float(b)
                         for s, a, b in zip(sizes, x, y)) / self.group.order)

    @property
    def n_irreps(self) -> int:
        return len(self.irreps)

    def index_of(self, name: str) -> int:
        for i, ir in enumerate(self.irreps):
            if ir.name == name:
                return i
        raise KeyError(name)

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

    @classmethod
    def zero(cls, table: RealCharacterTable) -> "VirtualRep":
        return cls(table, (0,) * table.n_irreps)

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
        self.group = group
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
        # (|G|, d, d), read-only; `matrices` holds views of its slices
        stack = np.array(mats)
        stack.flags.writeable = False
        self.stack = stack
        self.matrices = tuple(stack)
        self.dim = dim = stack.shape[1]
        defects = opnorms(np.swapaxes(stack, 1, 2) @ stack - np.eye(dim))
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
            defects = opnorms(stack[rows, None] @ stack - stack[table[rows]])
            bad = np.argwhere(defects > HOMOMORPHISM_TOL)
            if bad.size:
                a, b = bad[0]
                raise BadAction(f"homomorphism fails at ({a0 + a}, {b}): "
                                f"defect {defects[a, b]:.3e}")

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def extended(self, extra: int) -> "OrthogonalAction":
        """Same action with `extra` new coordinates carrying the trivial
        action, appended after the existing ones."""
        if extra == 0:
            return self
        mats = []
        for m in self.matrices:
            big = np.eye(self.dim + extra)
            big[: self.dim, : self.dim] = m
            mats.append(big)
        return OrthogonalAction(self.group, mats)

    def __repr__(self) -> str:
        return f"OrthogonalAction(order={self.group.order}, dim={self.dim})"


def direct_sum_action(a: OrthogonalAction, b: OrthogonalAction) -> OrthogonalAction:
    """Block-diagonal join of two actions of the same group."""
    if a.group != b.group:
        raise WrongGroup("direct sum of actions of different groups")
    mats = []
    for ma, mb in zip(a.matrices, b.matrices):
        big = np.zeros((a.dim + b.dim, a.dim + b.dim))
        big[: a.dim, : a.dim] = ma
        big[a.dim:, a.dim:] = mb
        mats.append(big)
    return OrthogonalAction(a.group, mats)


# --- preset groups -------------------------------------------------------


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _cyclic_irreps(n: int) -> list[Irrep]:
    # classes are singletons {0}, {1}, ..., {n-1} in that order
    irreps = [Irrep("trivial", 1, 1, tuple(1.0 for _ in range(n)))]
    if n % 2 == 0:
        irreps.append(Irrep("sign", 1, 1, tuple((-1.0) ** j for j in range(n))))
    for k in range(1, (n - 1) // 2 + 1):
        vals = tuple(2.0 * math.cos(2.0 * math.pi * k * j / n) for j in range(n))
        irreps.append(Irrep(f"plane_{k}", 2, 2, vals))
    return irreps


def _dihedral_table(n: int) -> list[list[int]]:
    # element f*n + t is reflection^f rotation^t;
    # (f1,t1)*(f2,t2) = (f1 xor f2, t2 + (-1)^f2 * t1)
    order = 2 * n
    table = [[0] * order for _ in range(order)]
    for f1 in range(2):
        for t1 in range(n):
            for f2 in range(2):
                for t2 in range(n):
                    f = f1 ^ f2
                    t = (t2 + (t1 if f2 == 0 else -t1)) % n
                    table[f1 * n + t1][f2 * n + t2] = f * n + t
    return table


def _dihedral_irreps(n: int) -> list[Irrep]:
    # class order (by minimal element): identity, rotation pairs t=1.., then
    # for even n the half-turn, then reflections (one class if n odd, two if
    # n even, split by rotation parity)
    reps: list[tuple[int, int]] = [(0, 0)]
    for t in range(1, (n - 1) // 2 + 1):
        reps.append((0, t))
    if n % 2 == 0 and n >= 2:
        reps.append((0, n // 2))
    if n % 2 == 1:
        reps.append((1, 0))
    else:
        reps.append((1, 0))
        reps.append((1, 1))

    def build(name: str, degree: int, schur: int, chi) -> Irrep:
        return Irrep(name, degree, schur,
                     tuple(float(chi(f, t)) for f, t in reps))

    irreps = [build("trivial", 1, 1, lambda f, t: 1.0),
              build("sign", 1, 1, lambda f, t: -1.0 if f else 1.0)]
    if n % 2 == 0:
        irreps.append(build("alt", 1, 1, lambda f, t: (-1.0) ** t))
        irreps.append(build("alt_sign", 1, 1, lambda f, t: (-1.0) ** (t + f)))
    for k in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
        irreps.append(build(
            f"plane_{k}", 2, 1,
            lambda f, t, k=k: 0.0 if f else 2.0 * math.cos(2.0 * math.pi * k * t / n)))
    return irreps


def build_group(preset: str, n: int | None = None, *,
                mult_table: Sequence[Sequence[int]] | None = None,
                char_table: Sequence[Mapping] | Sequence[Irrep] | None = None,
                ) -> tuple[FiniteGroup, RealCharacterTable]:
    """Construct a group and its real character table.

    Presets: "trivial", "cyclic" (order n >= 1), "dihedral" (order 2n, n >= 1),
    or "explicit" with a multiplication table and character data. Explicit
    character values must be listed per conjugacy class, classes ordered by
    their minimal element.
    """
    if preset == "trivial":
        group = FiniteGroup(((0,),), name="trivial")
        table = RealCharacterTable(group, [Irrep("trivial", 1, 1, (1.0,))])
        return group, table
    if preset == "cyclic":
        if n is None or n < 1:
            raise NonGroup(f"cyclic preset needs n >= 1, got {n}")
        group = FiniteGroup(tuple(map(tuple, _cyclic_table(n))), name=f"cyclic_{n}")
        return group, RealCharacterTable(group, _cyclic_irreps(n))
    if preset == "dihedral":
        if n is None or n < 1:
            raise NonGroup(f"dihedral preset needs n >= 1, got {n}")
        if n == 1:
            # order 2; same abstract group as cyclic(2)
            group = FiniteGroup(tuple(map(tuple, _cyclic_table(2))), name="dihedral_1")
            return group, RealCharacterTable(group, _cyclic_irreps(2))
        group = FiniteGroup(tuple(map(tuple, _dihedral_table(n))),
                            name=f"dihedral_{n}")
        return group, RealCharacterTable(group, _dihedral_irreps(n))
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
    raise NonGroup(f"unknown preset {preset!r}")


# --- operations ----------------------------------------------------------


def character_of_subspace(action: OrthogonalAction, basis: np.ndarray,
                          tol_inv: float = INVARIANCE_TOL) -> np.ndarray:
    """Character of the subspace spanned by orthonormal `basis` columns,
    evaluated at one representative per conjugacy class.

    The span must be invariant under the action: the projection onto it has
    to commute with every group matrix within tol_inv.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != action.dim:
        raise NotOrthonormal(
            f"basis shape {basis.shape} does not match action dimension {action.dim}")
    k = basis.shape[1]
    if k == 0:
        return np.zeros(action.group.n_classes)
    gram_defect = float(opnorms(basis.T @ basis - np.eye(k)))
    if gram_defect > FRAME_TOL:
        raise NotOrthonormal(f"basis columns not orthonormal: defect {gram_defect:.3e}")
    proj = basis @ basis.T
    defects = opnorms(action.stack @ proj - proj @ action.stack)
    worst_g = int(np.argmax(defects))
    if defects[worst_g] > tol_inv:
        raise NotInvariant(f"span not invariant: commutator norm "
                           f"{defects[worst_g]:.3e} at element {worst_g}")
    reps = action.stack[list(action.group.class_representatives())]
    return np.trace(basis.T @ reps @ basis, axis1=1, axis2=2)


def multiplicity_vector(chi: Sequence[float],
                        table: RealCharacterTable) -> VirtualRep:
    """Resolve a character into integer multiplicities of the table's irreps."""
    chi = [float(x) for x in chi]
    if len(chi) != table.group.n_classes:
        raise TableMismatch(
            f"{len(chi)} character values for {table.group.n_classes} classes")
    coeffs = []
    for ir in table.irreps:
        raw = table.pair(chi, ir.values) / ir.schur_norm
        rounded = round(raw)
        if abs(raw - rounded) >= MULTIPLICITY_TOL:
            raise NonIntegralMultiplicity(
                f"multiplicity of {ir.name} is {raw}, not within "
                f"{MULTIPLICITY_TOL} of an integer")
        coeffs.append(int(rounded))
    return VirtualRep(table, tuple(coeffs))


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
        raise TableMismatch("character table and action have different groups")
    if isinstance(nu, str):
        nu = table.index_of(nu)
    if not 0 <= nu < table.n_irreps:
        raise WrongGroup(f"irrep index {nu} out of range")
    ir = table.irreps[nu]
    coef = np.asarray(ir.values)[list(action.group.class_of)]
    # summed in element order, as a running sum over the elements would be
    acc = (coef[:, None, None] * action.stack).sum(axis=0)
    proj = acc * (ir.degree / (ir.schur_norm * action.group.order))
    proj = (proj + proj.T) / 2.0

    def _ok(p: np.ndarray) -> bool:
        checks = np.concatenate([(p @ p - p)[None],
                                 action.stack @ p - p @ action.stack])
        return not np.any(opnorms(checks) > PROJECTION_TOL)

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
