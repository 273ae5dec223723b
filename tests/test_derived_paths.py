"""Paths derived from validated ones take their samples as they are: the
bits, and the refusals, of building each through OperatorPath.piecewise_linear
from the blocks at its knots."""

import dataclasses
import warnings

import numpy as np
import pytest

from sflow import operators, sampling
from sflow._eig import block_diag
from sflow.cogredient import parametrix
from sflow.errors import DimensionMismatch, EigenFailure, OutOfRange
from sflow.operators import (
    OperatorPath,
    compress,
    compression_tail,
    concatenate,
    direct_sum_paths,
    negate,
    reverse,
)

TINY = 5e-324  # the smallest subnormal


def _bits(p):
    return (p.kind, p.tails, p.dim, p.knots.tobytes(), p._stack.tobytes(),
            p._diffs.tobytes(), np.array(p.samples).tobytes())


def _piecewise(knots, samples, tails=(False, False)):
    return OperatorPath.piecewise_linear(knots, list(samples),
                                         plus_tail=tails[0],
                                         minus_tail=tails[1])


def _samples(rng, k, start=None):
    # k non-symmetric 4 x 4 samples whose symmetric parts hold odd multiples
    # of TINY (2 and 4 TINY average to 3 TINY), signed zeros of both signs
    # and normal entries; the first is start when given
    x = rng.standard_normal((k, 4, 4))
    x[:, 0, 1], x[:, 1, 0] = 2 * TINY, 4 * TINY
    x[:, 0, 3], x[:, 3, 0] = -4 * TINY, -2 * TINY
    x[:, 0, 2] = x[:, 2, 0] = -0.0
    x[:, 1, 2], x[:, 2, 1] = -0.0, 0.0
    x[:, 3, 3] = -0.0
    x[::2, 2, 3] = x[::2, 3, 2] = 3 * TINY
    if start is not None:
        x[0] = start
    return x


def _symmetrized(s):
    return 0.5 * s + 0.5 * s.swapaxes(1, 2)


def _inputs(tails):
    rng = np.random.default_rng(41)
    raw = _samples(rng, 4)
    p = _piecewise([0.0, 0.3, 0.55, 1.0], raw, tails)
    assert p._stack.tobytes() == _symmetrized(raw).tobytes()
    q = _piecewise([0.0, 0.125, 1.0], _samples(rng, 3, p._stack[-1]), tails)
    b = _samples(rng, 1)[0]
    a = OperatorPath.affine(p._stack[-1], b, plus_tail=tails[0],
                            minus_tail=tails[1])
    before = OperatorPath.affine(p._stack[0] - b, b, plus_tail=tails[0],
                                 minus_tail=tails[1])
    return p, q, a, before


def _reference(name, p, q, a, before, u):
    # each builder as piecewise_linear of the blocks at the knots
    def at(x):
        return x.blocks_at(x.knots)

    def diag(x, y):
        ts = np.unique(np.concatenate([x.knots, y.knots]))
        return _piecewise(ts, [block_diag(s, t) for s, t in
                               zip(x.blocks_at(ts), y.blocks_at(ts))],
                          (x.plus_tail or y.plus_tail, x.minus_tail or y.minus_tail))

    def chain(x, y):
        return _piecewise([k / 2.0 for k in x.knots]
                          + [0.5 + k / 2.0 for k in y.knots][1:],
                          [*at(x), *y.blocks_at(y.knots[1:])], x.tails)

    knots, values = sampling._parameter_change(np.random.default_rng(8))
    tail = compression_tail(p, 2)
    return {
        "concatenate": lambda: chain(p, q),
        "concatenate_affine_end": lambda: chain(p, a),
        "concatenate_affine_start": lambda: chain(before, p),
        "reverse": lambda: _piecewise([1.0 - k for k in reversed(p.knots)],
                                      at(p)[::-1], p.tails),
        "negate": lambda: _piecewise(p.knots, -at(p), p.tails[::-1]),
        "compress": lambda: _piecewise(p.knots, [block_diag(s, tail)
                                                 for s in at(p)]),
        "direct_sum": lambda: diag(p, q),
        "direct_sum_affine": lambda: diag(a, p),
        "reparametrized": lambda: _piecewise(
            knots, [a.mat_a + v * a.mat_b for v in values], a.tails),
        "conjugate": lambda: _piecewise(p.knots, [u.T @ s @ u
                                                  for s in p.samples], p.tails),
    }[name]()


def _derived(name, p, q, a, before, u):
    change = sampling._parameter_change(np.random.default_rng(8))
    return {
        "concatenate": lambda: concatenate(p, q),
        "concatenate_affine_end": lambda: concatenate(p, a),
        "concatenate_affine_start": lambda: concatenate(before, p),
        "reverse": lambda: reverse(p),
        "negate": lambda: negate(p),
        "compress": lambda: compress(p, 2),
        "direct_sum": lambda: direct_sum_paths(p, q),
        "direct_sum_affine": lambda: direct_sum_paths(a, p),
        "reparametrized": lambda: sampling._reparametrized(a, change),
        "conjugate": lambda: sampling.conjugate_path(p, u),
    }[name]()


_NAMES = ["concatenate", "concatenate_affine_end", "concatenate_affine_start",
          "reverse", "negate", "compress", "direct_sum", "direct_sum_affine",
          "reparametrized", "conjugate"]
# a signed permutation keeps the subnormal entries; a Haar matrix mixes them
_FRAMES = {"permutation": np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]),
           "haar": sampling.haar_orthogonal(4, np.random.default_rng(3))}


@pytest.mark.parametrize("frame", list(_FRAMES))
@pytest.mark.parametrize("tails", [(False, False), (True, False), (True, True)])
@pytest.mark.parametrize("name", _NAMES)
def test_derived_paths_keep_the_bits_of_piecewise_linear(name, tails, frame):
    inputs = (*_inputs(tails), _FRAMES[frame])
    p = inputs[0]
    # symmetrizing p's samples again rounds their odd subnormal entries, so
    # a builder that skips its symmetrization, or adds one, changes bits
    assert _symmetrized(p._stack).tobytes() != p._stack.tobytes()
    want = _reference(name, *inputs)
    got = _derived(name, *inputs)
    assert _bits(got) == _bits(want)


def test_a_transformed_path_keeps_the_bits_of_piecewise_linear():
    for tails in [(True, False), (False, True)]:
        path = OperatorPath.affine(np.diag([1.0, -1.0, 2.0]),
                                   np.diag([0.5, 2.0, -0.5]),
                                   plus_tail=tails[0], minus_tail=tails[1])
        px = parametrix(path, 9)
        want = _piecewise(px.lambdas, px.sign * np.eye(3) + np.array(px.K),
                          tails)
        assert _bits(px.transformed_path()) == _bits(want)


def test_a_hand_built_parametrix_has_its_lambdas_checked():
    px = parametrix(OperatorPath.affine(np.diag([1.0, 2.0]), np.eye(2),
                                        plus_tail=True), 5)
    lam = px.lambdas
    for lambdas, error in [
            ((lam[0], lam[2], lam[1], *lam[3:]),
             (OutOfRange, "knots must be strictly increasing")),
            ((*lam[:-1], 1.5), (OutOfRange, "knots must run from 0 to 1, "
                                            "got 0.0..1.5")),
            ((lam[0], *lam[2:]), (DimensionMismatch, f"{len(lam)} samples for "
                                           f"{len(lam) - 1} knots"))]:
        bad = dataclasses.replace(px, lambdas=lambdas)
        assert _error(bad.transformed_path) == error


def _error(build):
    try:
        build()
    except Exception as e:  # noqa: BLE001 - the error is the result
        return type(e), str(e)
    return None


def _huge(sign=1.0):
    return sign * np.full((2, 2), 1e308)


def _refused():
    # (derived path, its route through piecewise_linear, the error both
    # raise)
    rng = np.random.default_rng(5)
    eye = np.eye(2)
    p = _piecewise([0.0, 0.5, 1.0], [eye, 2 * eye, 3 * eye])
    near_zero = _piecewise([0.0, 1e-17, 1.0], [eye, 2 * eye, 3 * eye])
    tiny_knot = _piecewise([0.0, TINY, 1.0], [eye, 2 * eye, 3 * eye])
    down = _piecewise([0.0, 0.5, 1.0], [3 * eye, 2 * eye, eye])
    over = OperatorPath.affine(_huge(), _huge())
    into_over = _piecewise([0.0, 1.0], [eye, _huge()])
    big = _piecewise([0.0, 1.0], [_huge(1.7), _huge(1.7)])
    rot = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    change = (np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]))
    return {
        "reverse_knot": (lambda: reverse(near_zero), lambda: _piecewise(
            [1.0 - k for k in reversed(near_zero.knots)],
            near_zero.blocks_at(near_zero.knots)[::-1]),
            (OutOfRange, "knots must be strictly increasing")),
        "reverse_overflow": (lambda: reverse(over), lambda: OperatorPath.affine(
            over.mat_a + over.mat_b, -over.mat_b),
            (OutOfRange, "a has non-finite entries")),
        "concatenate_tiny_knot": (lambda: concatenate(tiny_knot, down),
                                  lambda: _piecewise(
            [k / 2.0 for k in tiny_knot.knots] + [0.5 + k / 2.0
                                                  for k in down.knots][1:],
            [*tiny_knot.blocks_at(tiny_knot.knots),
             *down.blocks_at(down.knots[1:])]),
            (OutOfRange, "knots must be strictly increasing")),
        "concatenate_near_zero_knot": (lambda: concatenate(down, near_zero),
                                       lambda: _piecewise(
            [k / 2.0 for k in down.knots] + [0.5 + k / 2.0
                                             for k in near_zero.knots][1:],
            [*down.blocks_at(down.knots),
             *near_zero.blocks_at(near_zero.knots[1:])]),
            (OutOfRange, "knots must be strictly increasing")),
        "concatenate_overflow_end": (
            lambda: concatenate(into_over, over), lambda: _piecewise(
                [0.0, 0.5, 1.0], [eye, _huge(), over.block_at(1.0)]),
            (OutOfRange, "samples have non-finite entries")),
        "concatenate_overflow_start": (
            lambda: concatenate(over, p), lambda: operators._specnorm(
                (over.block_at(1.0) - p.block_at(0.0))[None]),
            (EigenFailure, "block has non-finite entries")),
        "direct_sum_overflow": (
            lambda: direct_sum_paths(over, p), lambda: _piecewise(
                [0.0, 0.5, 1.0], [block_diag(s, t) for s, t in zip(
                    over.blocks_at([0.0, 0.5, 1.0]), p.blocks_at(p.knots))]),
            (OutOfRange, "samples have non-finite entries")),
        "reparametrized_overflow": (
            lambda: sampling._reparametrized(over, change), lambda: _piecewise(
                change[0], [over.mat_a + v * over.mat_b for v in change[1]]),
            (OutOfRange, "samples have non-finite entries")),
        "reparametrized_knots": (
            lambda: sampling._reparametrized(over, (change[0] + 0.1, change[1])),
            lambda: _piecewise(change[0] + 0.1, [eye] * 3),
            (OutOfRange, "knots must run from 0 to 1, got 0.1..1.1")),
        "conjugate_overflow": (
            lambda: sampling.conjugate_path(big, rot), lambda: _piecewise(
                big.knots, [rot.T @ s @ rot for s in big.samples]),
            (OutOfRange, "samples have non-finite entries")),
        "conjugate_affine_overflow": (
            lambda: sampling.conjugate_path(over, rot),
            lambda: OperatorPath.affine(rot.T @ over.mat_a @ rot,
                                        rot.T @ over.mat_b @ rot),
            (OutOfRange, "a has non-finite entries")),
        "compress_negative": (lambda: compress(p, -1),
                              lambda: compression_tail(p, -1),
                              (OutOfRange, "m must be nonnegative, got -1")),
        "draws_start": (lambda: sampling.random_equivariant_path(
            sampling.preset_action("trivial", 1, 2)[1], rng, kind="pl",
            start_block=np.full((2, 2), np.nan)), lambda: _piecewise(
                [0.0, 1.0], [np.full((2, 2), np.nan), eye]),
            (OutOfRange, "samples have non-finite entries")),
    }


@pytest.mark.parametrize("case", list(_refused()))
def test_derived_paths_refuse_what_piecewise_linear_refuses(case):
    build, route, (kind, message) = _refused()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # that route may warn first
        want = _error(route)
    assert want == (kind, message)
    # and no numpy warning comes before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _error(build) == want
