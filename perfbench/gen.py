"""Seeded job documents for the sflow benchmark, built with numpy alone.

Nothing here imports sflow. The inputs of a workload must not depend on the
code under test: if they were drawn through ``sflow.sampling``, an
eigensolver swap inside sflow would silently change them between a parent
and a child commit.

Group elements are indexed in sflow's preset order, which its homomorphism
check enforces: cyclic element ``j`` is rotation ``j``; dihedral element
``f*n + t`` is reflection**f rotation**t, with the product
``(f1, t1)(f2, t2) = (f1 xor f2, t2 + (-1)**f2 * t1)``.

Each workload is a short list of jobs that ``run.py`` runs in passes. The
seed draws matrix entries only: which irreducible pieces make up an action
and how many knots a piecewise-linear path has follow the job's position in
the list, so two seeds give lists that differ in their entries but hold the
same mix of groups, dimensions, path kinds, knot counts and tails.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

CLAMP = 0.3
TAILS = ((False, False), (True, False), (False, True), (True, True))
POOL_GROUPS = (("trivial", 1), ("cyclic", 2), ("cyclic", 3), ("cyclic", 4),
               ("dihedral", 3))
SMALL_GROUPS = (("trivial", 1), ("cyclic", 2), ("cyclic", 3))
AXIOM_GROUPS = (("dihedral", 3), ("dihedral", 4), ("dihedral", 6))
POOL_MAX_DIM = 8
# list lengths: short enough that a run makes more than one pass, so that
# run.py can time every job more than once
POOL_PATHS = 80
AXIOM_JOBS = 108
NF_UNITS = 27


# --- group realizations ----------------------------------------------------


def _rot(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


_FLIP = np.diag([1.0, -1.0])


def _scalar(x: float) -> np.ndarray:
    return np.array([[float(x)]])


def irreps(preset: str, n: int) -> list[tuple[int, list[np.ndarray]]]:
    """(degree, one matrix per element) for every real irreducible
    realization of a preset group."""
    if preset == "trivial":
        return [(1, [np.eye(1)])]
    if preset == "cyclic":
        out = [(1, [_scalar(1) for _ in range(n)])]
        if n % 2 == 0:
            out.append((1, [_scalar((-1) ** j) for j in range(n)]))
        for k in range(1, (n - 1) // 2 + 1):
            out.append((2, [_rot(2 * np.pi * k * j / n) for j in range(n)]))
        return out
    if preset == "dihedral" and n >= 2:
        elems = [(f, t) for f in (0, 1) for t in range(n)]
        out = [(1, [_scalar(1) for _ in elems]),
               (1, [_scalar((-1) ** f) for f, _ in elems])]
        if n % 2 == 0:
            out.append((1, [_scalar((-1) ** t) for _, t in elems]))
            out.append((1, [_scalar((-1) ** (f + t)) for f, t in elems]))
        for k in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
            out.append((2, [(_FLIP if f else np.eye(2))
                            @ _rot(2 * np.pi * k * t / n) for f, t in elems]))
        return out
    raise ValueError(f"no realization for preset {preset!r} n={n}")


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_action(preset: str, n: int, dim: int, rng: np.random.Generator,
                  conjugate: bool, pick: int = 0) -> list[np.ndarray]:
    """Direct sum of irreducible realizations filling ``dim``, chosen by
    ``pick`` rather than by the seed, optionally hidden behind a random Haar
    change of basis."""
    reps = irreps(preset, n)
    picked = []
    left = dim
    while left > 0:
        fits = [r for r in reps if r[0] <= left]
        deg, mats = fits[(pick + len(picked)) % len(fits)]
        picked.append(mats)
        left -= deg
    out = []
    for g in range(len(reps[0][1])):
        full = np.zeros((dim, dim))
        row = 0
        for mats in picked:
            d = mats[g].shape[0]
            full[row:row + d, row:row + d] = mats[g]
            row += d
        out.append(full)
    if conjugate:
        c = haar_orthogonal(dim, rng)
        out = [c.T @ m @ c for m in out]
    return out


# --- equivariant blocks and paths ------------------------------------------


def reynolds(action: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Symmetrized group average: lands in the commutant up to roundoff."""
    avg = sum(rho @ x @ rho.T for rho in action) / len(action)
    return (avg + avg.T) / 2.0


def random_block(action: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    dim = action[0].shape[0]
    return reynolds(action, rng.standard_normal((dim, dim)))


def clamp(action: list[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Push eigenvalues inside (-CLAMP, CLAMP) out to +-CLAMP."""
    w, v = np.linalg.eigh(block)
    w = np.where(np.abs(w) >= CLAMP, w, np.where(w >= 0.0, CLAMP, -CLAMP))
    return reynolds(action, (v * w) @ v.T)


def random_path(action: list[np.ndarray], rng: np.random.Generator,
                kind: str, interior: int = 1) -> dict:
    """Equivariant path with endpoints clamped away from zero; a
    piecewise-linear one has ``interior`` random knot samples."""
    start = clamp(action, random_block(action, rng))
    end = clamp(action, random_block(action, rng))
    if kind == "affine":
        return {"kind": "affine", "A": start.tolist(),
                "B": (end - start).tolist()}
    samples = [start] + [random_block(action, rng) for _ in range(interior)]
    samples.append(end)
    return {"kind": "piecewise_linear",
            "knots": np.linspace(0.0, 1.0, interior + 2).tolist(),
            "samples": [s.tolist() for s in samples]}


def endpoint_blocks(path: dict) -> tuple[np.ndarray, np.ndarray]:
    if path["kind"] == "affine":
        a, b = np.array(path["A"]), np.array(path["B"])
        return a, a + b
    return np.array(path["samples"][0]), np.array(path["samples"][-1])


def expected_sfl(path: dict) -> int:
    """Plain spectral flow n_-(A(0)) - n_-(A(1)), exact here because the
    endpoints are clamped away from zero and tails are constant."""
    a0, a1 = endpoint_blocks(path)
    return (int(np.count_nonzero(np.linalg.eigvalsh(a0) < 0.0))
            - int(np.count_nonzero(np.linalg.eigvalsh(a1) < 0.0)))


# --- job documents -----------------------------------------------------------


def job(command: str, preset: str, n: int, action: list[np.ndarray], *,
        path: dict | None = None, tail: tuple[bool, bool] = (False, False),
        options: dict | None = None) -> str:
    group = {"preset": preset} if preset == "trivial" else {"preset": preset,
                                                            "n": n}
    doc = {"command": command, "group": group,
           "action": {"matrices": {str(g): m.tolist()
                                   for g, m in enumerate(action)}},
           "tail": {"plus": tail[0], "minus": tail[1]}}
    if path is not None:
        doc["path"] = path
    if options:
        doc["options"] = options
    return json.dumps(doc, sort_keys=True)


def pool_jobs(rng: np.random.Generator) -> list[str]:
    """Criterion-3 shaped pairs: an ``sfl`` job, then the ``oracle`` job for
    the same path. Group ``i % 5`` and dim ``1 + i % 8`` cover every
    (group, dim) cell once per 40 paths, with dims cycling fastest; the tails
    cycle per dim, the kind alternates with the tail pattern, piecewise-linear
    paths have 1-3 interior knots, and the Haar conjugation flips per dim and
    per 40 paths."""
    out = []
    for i in range(POOL_PATHS):
        preset, n = POOL_GROUPS[i % 5]
        d, r = i % POOL_MAX_DIM, i // POOL_MAX_DIM
        conjugate = (d + i // (5 * POOL_MAX_DIM)) % 2 == 1
        action = random_action(preset, n, 1 + d, rng, conjugate,
                               pick=i // (5 * POOL_MAX_DIM))
        path = random_path(action, rng, "affine" if (d + r) % 2 == 0 else "pl",
                           interior=1 + (i // 5) % 3)
        for command in ("sfl", "oracle"):
            out.append(job(command, preset, n, action, path=path,
                           tail=TAILS[(d + r) % 4]))
    return out


def axioms_jobs(rng: np.random.Generator) -> list[str]:
    """``verify`` jobs over D3, D4 and D6 at dim 4, conjugated, the groups in
    turn. The program draws each suite's cases itself from the job's
    seed."""
    out = []
    for i in range(AXIOM_JOBS):
        preset, n = AXIOM_GROUPS[i % 3]
        action = random_action(preset, n, 4, rng, True, pick=i // 3)
        out.append(job("verify", preset, n, action,
                       options={"seed": int(rng.integers(2 ** 31)),
                                "instances": 1}))
    return out


def normal_forms_jobs(rng: np.random.Generator) -> list[str]:
    """Per unit, a ``cogredient`` job with a one-sided tail, then two
    tail-free ``maslov`` jobs, over dims 2..4: all nine (group, dim) cells in
    every nine units, while path kind and tail side cycle with period 4."""
    out = []
    for i in range(NF_UNITS):
        preset, n = SMALL_GROUPS[(i + i // 3) % 3]
        dim = 2 + i % 3
        kind = "affine" if i % 2 == 0 else "pl"
        conjugate = (i // 4) % 2 == 1
        action = random_action(preset, n, dim, rng, conjugate, pick=i // 9)
        path = random_path(action, rng, kind, interior=1 + (i // 2) % 3)
        tail = (True, False) if (i // 2) % 2 == 0 else (False, True)
        out.append(job("cogredient", preset, n, action, path=path, tail=tail,
                       options={"samples": 64}))
        for other in ("pl", "affine") if kind == "affine" else ("affine", "pl"):
            action = random_action(preset, n, dim, rng, not conjugate,
                                   pick=i // 9)
            out.append(job("maslov", preset, n, action,
                           path=random_path(action, rng, other,
                                            interior=1 + i % 3)))
    return out


WORKLOADS = {
    "pool": pool_jobs,
    "axioms": axioms_jobs,
    "normal_forms": normal_forms_jobs,
}


def generate(workload: str, seed: int) -> list[str]:
    # one stream per workload, so adding a workload leaves the others' inputs
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


def digest(jobs: list[str]) -> str:
    h = hashlib.sha256()
    for text in jobs:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()
