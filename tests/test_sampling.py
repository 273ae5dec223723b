"""Stacked random draws and the deferred solve of path speeds."""

import re

import numpy as np
import pytest

from sflow import flow, operators
from sflow._eig import jacobi_eigh
from sflow.cogredient import parametrix
from sflow.errors import EigenFailure, OutOfRange
from sflow.groups import direct_sum_action
from sflow.operators import (
    OperatorPath,
    concatenate,
    direct_sum_paths,
    reverse,
)
from sflow.sampling import (
    CLAMP_DELTA,
    PathDraws,
    conjugate_path,
    preset_action,
    random_equivariant_orthogonal,
    random_equivariant_path,
    random_invertible_path,
    reparametrize,
)

_GROUPS = [("trivial", 1), ("cyclic", 5), ("dihedral", 3), ("dihedral", 4),
           ("dihedral", 6)]


@pytest.mark.parametrize("build, message", [
    (lambda action, rng: PathDraws(action).equivariant(rng, kind="cubic"),
     "unknown path kind 'cubic'"),
    (lambda action, rng: reparametrize(OperatorPath.piecewise_linear(
        [0.0, 1.0], [np.eye(1), -np.eye(1)]), rng),
     "only affine paths are reparametrized here"),
])
def test_input_checks_name_the_bad_input(build, message):
    table, action = preset_action("trivial", 1, 1)
    with pytest.raises(OutOfRange, match=rf"^{re.escape(message)}$"):
        build(action, np.random.default_rng(0))


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


def _paths(seed):
    rng = np.random.default_rng(seed)
    table, action = preset_action("dihedral", 4, 4, rng, conjugate=True)
    p = random_equivariant_path(action, rng, kind="pl", plus_tail=True)
    q = random_equivariant_path(action, rng, plus_tail=True,
                                start_block=p.block_at(1.0))
    a = random_equivariant_path(action, rng, kind="affine", minus_tail=True)
    u = random_equivariant_orthogonal(action, rng)
    return table, action, [
        p, a, concatenate(p, q), reverse(p), reverse(a), direct_sum_paths(p, a),
        direct_sum_paths(a, a), conjugate_path(p, u), conjugate_path(a, u),
        reparametrize(a, rng), parametrix(p, 64).transformed_path(),
        parametrix(a, 64).transformed_path()]


def _subnormal_paths():
    # piece differences with subnormal off-diagonal entries: symmetrized
    # once they hold one subnormal step, which a second symmetrization
    # rounds to 0, so the bounds of their own solve would change
    tiny = np.zeros((4, 4))
    tiny[0, 1], tiny[1, 0], tiny[2, 3] = 5e-324, 1e-323, 1.5e-323
    return [OperatorPath.affine(np.eye(4), tiny),
            OperatorPath.piecewise_linear([0.0, 0.25, 1.0],
                                          [np.eye(4), np.eye(4) + tiny,
                                           np.eye(4) - tiny.T])]


@pytest.mark.parametrize("seed", [3, 29])
def test_speeds_solved_in_the_first_stack_have_the_bits_of_their_own_solve(
        seed):
    table, action, paths = _paths(seed)
    paths += _subnormal_paths()
    # its difference has an eigenvalue past the largest double
    big = np.full((4, 4), 0.4e308)
    overflow = OperatorPath.piecewise_linear([0.0, 1.0], [-big, big])
    double = direct_sum_action(action, action)
    requests = [(p, action if p.dim == 4 else double)
                for p in [*paths[:5], overflow, *paths[5:]]]
    # the first two fed parametrix, which read their speeds
    assert all(p._speeds is None for p in paths[2:] + [overflow])
    reports = flow.sfl_G_each(requests, table)
    for p in paths:
        want = operators._specnorm(p._diffs)
        assert p._speeds.tobytes() == (want / np.diff(p.knots)).tobytes()
        assert p.lipschitz == max(want / np.diff(p.knots))
    for p in _subnormal_paths():
        twice = 0.5 * p._diffs + 0.5 * p._diffs.swapaxes(1, 2)
        assert (operators._specnorm(twice).tobytes()
                != operators._specnorm(p._diffs).tobytes())
    # the path whose difference fails keeps its speeds unsolved, and gets
    # the error of its own read of them
    assert overflow._speeds is None
    with pytest.raises(EigenFailure) as info:
        overflow.speeds
    assert str(info.value) == "eigenvalues overflowed"
    assert type(reports[5]) is EigenFailure
    assert str(reports[5]) == str(info.value)
    assert all(isinstance(r, flow.SflReport) for r in reports[:5] + reports[6:])


def test_a_verify_job_solves_its_speeds_once_per_block_size(monkeypatch):
    table, action = preset_action("dihedral", 3, 4, np.random.default_rng(8),
                                  conjugate=True)
    paths, stacks, alone = [], [], []
    real_each, real_solve = flow._flow_rows, operators.eigh_each
    real_norm = operators._specnorm

    def each(requests, *args, **kwargs):
        paths.extend(path for path, _ in requests)
        # no path solved its speeds while the cases were drawn
        assert all(path._speeds is None for path in paths)
        stacks.append([])
        return real_each(requests, *args, **kwargs)

    def counting(blocks):
        if stacks:
            stacks[-1].append(blocks.shape)
        return real_solve(blocks)

    def solved_alone(m):
        if stacks:
            alone.append(m.shape)
        return real_norm(m)

    monkeypatch.setattr(flow, "_flow_rows", each)
    monkeypatch.setattr(operators, "eigh_each", counting)
    monkeypatch.setattr(operators, "_specnorm", solved_alone)
    assert flow.verify_axioms(action, table, seed=4, instances=2).passed
    # the first stack of each block size holds 0, 1/4, 1/2, 3/4 and 1 of
    # each of its flows and the piece differences of each of its paths
    (call,) = stacks
    for dim in (4, 8):
        mine = [p for p in paths if p.dim == dim]
        first = next(shape for shape in call if shape[1:] == (dim, dim))
        assert first[0] == 5 * len(mine) + sum(
            len(p._diffs) for p in {id(p): p for p in mine}.values())
    assert [shape[1:] for shape in call[:2]] == [(4, 4), (8, 8)]
    assert alone == []
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
