"""Stacked random draws and the deferred solve of path speeds."""

import numpy as np
import pytest

from sflow import flow, operators
from sflow._eig import jacobi_eigh
from sflow.cogredient import parametrix
from sflow.errors import EigenFailure
from sflow.operators import (
    OperatorPath,
    concatenate,
    direct_sum_paths,
    reverse,
    solve_speeds,
)
from sflow.sampling import (
    CLAMP_DELTA,
    conjugate_path,
    preset_action,
    random_equivariant_orthogonal,
    random_equivariant_path,
    random_invertible_path,
    reparametrize,
)

_GROUPS = [("trivial", 1), ("cyclic", 5), ("dihedral", 3), ("dihedral", 4),
           ("dihedral", 6)]


# --- the sampler as it drew one matrix at a time ---------------------------


def _symmetric_one(action, x):
    avg = np.zeros_like(x, dtype=float)
    for term in action.stack @ x @ action.stack.swapaxes(1, 2):
        avg += term
    avg = avg / action.group.order
    return 0.5 * avg + 0.5 * avg.T


def _draw_one(action, rng):
    return _symmetric_one(action, rng.standard_normal((action.dim,) * 2))


def _invertible_one(action, rng, delta=CLAMP_DELTA):
    w, v = jacobi_eigh(_draw_one(action, rng))
    clamped = np.where(np.abs(w) >= delta, w, np.where(w >= 0.0, delta, -delta))
    return _symmetric_one(action, (v * clamped) @ v.T)


def _path_one(action, rng, *, plus_tail=False, minus_tail=False, kind=None,
              start_block=None):
    if kind is None:
        kind = "affine" if rng.random() < 0.5 else "pl"
    start = (start_block if start_block is not None
             else _invertible_one(action, rng))
    end = _invertible_one(action, rng)
    tails = {"plus_tail": plus_tail, "minus_tail": minus_tail}
    if kind == "affine":
        return OperatorPath.affine(start, end - start, **tails)
    n_interior = int(rng.integers(1, 4))
    samples = [start, *[_draw_one(action, rng) for _ in range(n_interior)], end]
    return OperatorPath.piecewise_linear(np.linspace(0.0, 1.0, n_interior + 2),
                                         samples, **tails)


def _invertible_path_one(action, rng, *, plus_tail=False, minus_tail=False,
                         delta=CLAMP_DELTA):
    base = _invertible_one(action, rng, delta)
    tails = {"plus_tail": plus_tail, "minus_tail": minus_tail}
    bump = _draw_one(action, rng)
    norm = float(np.abs(jacobi_eigh(bump)[0]).max(initial=0.0))
    if norm > 0.0:
        bump *= (0.4 * delta) / norm
    if rng.random() < 0.5:
        return OperatorPath.affine(base, bump, **tails)
    n_interior = int(rng.integers(1, 4))
    scales = rng.uniform(-1.0, 1.0, size=n_interior + 2)
    return OperatorPath.piecewise_linear(np.linspace(0.0, 1.0, n_interior + 2),
                                         [base + s * bump for s in scales],
                                         **tails)


def _path_data(p):
    blocks = (np.stack([p.mat_a, p.mat_b]) if p.kind == "affine"
              else np.stack(p.samples))
    return (p.kind, p.tails, p.knots.tobytes(), blocks.tobytes())


@pytest.mark.parametrize("preset, n", _GROUPS)
@pytest.mark.parametrize("conjugate", [False, True])
def test_stacked_draws_match_drawing_one_matrix_at_a_time(preset, n,
                                                          conjugate):
    for dim in range(1, 13):
        _, action = preset_action(preset, n, dim, np.random.default_rng(dim),
                                  conjugate=conjugate)
        new, old = (np.random.default_rng([dim, 7]) for _ in range(2))
        draws = [
            (random_equivariant_path, _path_one, {}),
            (random_equivariant_path, _path_one, {"kind": "pl"}),
            (random_equivariant_path, _path_one, {"kind": "affine"}),
            (random_invertible_path, _invertible_path_one, {}),
            (random_invertible_path, _invertible_path_one, {}),
        ]
        for i, (draw, reference, kw) in enumerate(draws * 2):
            tails = {"plus_tail": i % 2 == 0, "minus_tail": i % 3 == 0}
            got = draw(action, new, **tails, **kw)
            want = reference(action, old, **tails, **kw)
            assert _path_data(got) == _path_data(want)
            assert new.bit_generator.state == old.bit_generator.state
            if draw is random_equivariant_path:
                start = got.block_at(1.0)
                got = draw(action, new, start_block=start, **kw)
                want = reference(action, old, start_block=start, **kw)
                assert _path_data(got) == _path_data(want)
                assert new.bit_generator.state == old.bit_generator.state


# --- deferred speeds ---------------------------------------------------------


def _speeds_one(p):
    # each piece's two-norm bound from its own solve, over its knot gap
    diffs = ([p.mat_b] if p.kind == "affine"
             else [b - a for a, b in zip(p.samples, p.samples[1:])])
    return [operators._specnorm(d[None])[0] / (hi - lo)
            for d, lo, hi in zip(diffs, p.knots, p.knots[1:])]


def _paths(seed):
    rng = np.random.default_rng(seed)
    _, action = preset_action("dihedral", 4, 4, rng, conjugate=True)
    p = random_equivariant_path(action, rng, kind="pl", plus_tail=True)
    q = random_equivariant_path(action, rng, plus_tail=True,
                                start_block=p.block_at(1.0))
    a = random_equivariant_path(action, rng, kind="affine", minus_tail=True)
    u = random_equivariant_orthogonal(action, rng)
    return [p, a, concatenate(p, q), reverse(p), reverse(a),
            direct_sum_paths(p, a), direct_sum_paths(a, a), conjugate_path(p, u),
            conjugate_path(a, u), reparametrize(a, rng),
            parametrix(p, 64).transformed_path(),
            parametrix(a, 64).transformed_path()]


@pytest.mark.parametrize("seed", [3, 29])
def test_speeds_solved_on_read_or_together_have_the_bits_of_their_own_solve(
        seed):
    alone, together = _paths(seed), _paths(seed)
    # the first two fed parametrix, which read their speeds
    assert all(p._speeds is None for p in alone[2:] + together[2:])
    solve_speeds(together + together[:3])
    for p, q in zip(alone, together):
        want = _speeds_one(p)
        assert p.speeds.tolist() == want
        assert q.speeds.tolist() == want
        assert p.lipschitz == q.lipschitz == max(want)


def test_a_verify_job_solves_its_speeds_once_per_block_size(monkeypatch):
    table, action = preset_action("dihedral", 3, 4, np.random.default_rng(8),
                                  conjugate=True)
    paths, sizes = [], []
    real_each, real_norm = flow.sfl_G_each, operators._specnorm

    def each(requests, *args, **kwargs):
        paths.extend(path for path, _ in requests)
        # no path solved its speeds while the cases were drawn
        assert all(path._speeds is None for path in paths)
        sizes.append([])
        return real_each(requests, *args, **kwargs)

    def counting(m):
        if sizes:
            sizes[-1].append(m.shape)
        return real_norm(m)

    monkeypatch.setattr(flow, "sfl_G_each", each)
    monkeypatch.setattr(operators, "_specnorm", counting)
    assert flow.verify_axioms(action, table, seed=4, instances=2).passed
    assert [[shape[1:] for shape in call] for call in sizes] == [[(4, 4), (8, 8)]]
    assert all(path._speeds is not None for path in paths)


def test_an_oracle_or_a_given_partition_solves_no_speeds():
    rng = np.random.default_rng(12)
    table, action = preset_action("cyclic", 5, 3, rng)
    p = random_equivariant_path(action, rng, kind="pl")
    twin = OperatorPath.piecewise_linear(p.knots, p.samples)
    flow.morse_oracle_sfl_G(p, action, table)
    report = flow.sfl_G(p, action, table, partition=flow.find_partition(twin))
    assert p._speeds is None
    assert report.sfl_G == flow.sfl_G(twin, action, table).sfl_G


def test_an_overflowing_sample_difference_fails_when_the_path_is_built():
    big = 1e308 * np.eye(2)
    for samples in ([big, -big], [np.eye(2), big, -big],
                    [np.eye(2), -big, big, np.eye(2)]):
        with pytest.raises(EigenFailure, match="^block has non-finite entries$"):
            OperatorPath.piecewise_linear(np.linspace(0.0, 1.0, len(samples)),
                                          samples)


def test_concatenating_a_drawn_chain_makes_no_junction_solve(monkeypatch):
    rng = np.random.default_rng(17)
    _, action = preset_action("dihedral", 3, 4, rng, conjugate=True)
    p = random_equivariant_path(action, rng, kind="pl")
    q = random_equivariant_path(action, rng, start_block=p.block_at(1.0))
    near = OperatorPath.affine(q.block_at(0.0) + 1e-12 * np.eye(4), np.eye(4))
    solves = []
    real_norm = operators._specnorm
    monkeypatch.setattr(operators, "_specnorm",
                        lambda m: solves.append(m) or real_norm(m))
    concatenate(p, q)
    concatenate(p, reverse(p))
    assert solves == []
    concatenate(p, near)  # within the junction tolerance, after one solve
    assert len(solves) == 1
