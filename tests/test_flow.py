"""Certified partitions, the equivariant flow, the endpoint oracle, axioms."""

import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflow import flow
from sflow import groups
from sflow import operators
from sflow import sampling
from sflow._eig import EPS
from sflow.cogredient import parametrix
from sflow.errors import (
    BoundaryHit,
    CertificationFailed,
    DimensionMismatch,
    EigenFailure,
    EndpointNotInvertible,
    InfiniteRank,
    InvertibilityError,
    NotEquivariant,
    NotInvariant,
    NotInvertible,
    OutOfRange,
    SflowError,
    WrongGroup,
)
from sflow.flow import (
    CertifiedPartition,
    FlowOptions,
    SflReport,
    find_partition,
    morse_oracle_sfl_G,
    sfl_G,
    sfl_G_each,
    verify_axioms,
)
from sflow.groups import (
    OrthogonalAction,
    _preset_irreps,
    build_group,
    character_of_subspace,
    direct_sum_action,
    forgetful_F,
    multiplicity_vector,
    subspace_classes,
)
from sflow.operators import (
    OperatorPath,
    block_spectrum,
    check_equivariance,
    compress,
    concatenate,
    direct_sum_paths,
    eigendata_each,
    morse_class,
    reverse,
)
from sflow.sampling import (
    haar_orthogonal,
    identity_action,
    preset_action,
    random_equivariant_path,
    random_equivariant_symmetric,
)


def _trivial_setup(dim):
    group, table = build_group("trivial")
    return table, identity_action(group, dim)


def _z2_diag_setup():
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    return table, action


def _scalar_up_path(**tails):
    # single eigenvalue 2*lam - 1, one up-crossing at lam = 1/2
    return OperatorPath.affine(np.array([[-1.0]]), np.array([[2.0]]), **tails)


# --- options and partition objects ------------------------------------------


def test_flow_options_validation():
    opts = FlowOptions()
    assert opts.max_depth == 40
    with pytest.raises(OutOfRange, match="^min_depth 5 exceeds max_depth 3$"):
        FlowOptions(min_depth=5, max_depth=3)
    # a negative depth is named as such, not as out of order
    for depths in ({"max_depth": -1}, {"min_depth": -1}):
        with pytest.raises(OutOfRange, match="^depths must be nonnegative$"):
            FlowOptions(**depths)


@pytest.mark.parametrize("field", ["tol_cluster", "tol_invert"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   -1e-8])
def test_flow_options_reject_non_finite_and_negative_tolerances(field, value):
    with pytest.raises(OutOfRange) as info:
        FlowOptions(**{field: value})
    assert field in str(info.value)
    assert getattr(FlowOptions(**{field: 0.0}), field) == 0.0


def test_nan_cluster_tolerance_cannot_hide_a_crossing():
    # NaN fails every comparison: unchecked, it made this flow read 0
    table, action = _trivial_setup(1)
    assert sfl_G(_scalar_up_path(), action, table).sfl == 1
    with pytest.raises(OutOfRange):
        sfl_G(_scalar_up_path(), action, table,
              FlowOptions(tol_cluster=float("nan")))


@pytest.mark.parametrize("field", ["max_depth", "min_depth"])
def test_a_nan_depth_is_refused(field):
    # NaN fails every comparison: accepted, it left every segment untested
    # and bisection never ended
    with pytest.raises(OutOfRange, match="^depths must be nonnegative$"):
        FlowOptions(**{field: math.nan})


def test_partition_invariants():
    # the refusals, with their messages, are in
    # test_partition_checks_name_the_bad_input
    good = CertifiedPartition((0.0, 0.5, 1.0), (0.3, 0.4), (0.1, 0.1))
    assert len(good.levels) == 2


@pytest.mark.parametrize("knots, levels, margins, message", [
    ((0.0, 1.0), (math.nan,), (0.1,), "levels must be positive"),
    ((0.0, 1.0), (0.5,), (math.nan,), "margins must be positive"),
    ((0.0, math.nan, 1.0), (0.5, 0.5), (0.1, 0.1),
     "knots must be strictly increasing"),
])
def test_a_nan_in_a_partition_is_refused(knots, levels, margins, message):
    # NaN fails every comparison: accepted, a NaN level made the flow of
    # this path, 1 by bisection and by the oracle, read 0
    table, action = _trivial_setup(1)
    p = OperatorPath.affine(-np.eye(1), 2 * np.eye(1))
    assert sfl_G(p, action, table).sfl == 1
    assert forgetful_F(morse_oracle_sfl_G(p, action, table)) == 1
    with pytest.raises(OutOfRange, match=f"^{message}$") as info:
        sfl_G(p, action, table,
              partition=CertifiedPartition(knots, levels, margins))
    assert info.value.exit_code == 2


@pytest.mark.parametrize("knots, levels, margins, message", [
    ((0.0, 0.5), (0.3,), (0.1,), "knots must run from 0 to 1, got (0.0, 0.5)"),
    ((0.0, 0.5, 0.5, 1.0), (0.3,) * 3, (0.1,) * 3,
     "knots must be strictly increasing"),
    ((0.0, 1.0), (0.3, 0.4), (0.1, 0.1), "2 levels for 1 segments"),
    ((0.0, 0.5, 1.0), (0.3, 0.4), (0.1,), "one margin per level required"),
    ((0.0, 1.0), (-0.3,), (0.1,), "levels must be positive"),
    ((0.0, 1.0), (0.3,), (0.0,), "margins must be positive"),
])
def test_partition_checks_name_the_bad_input(knots, levels, margins, message):
    with pytest.raises(OutOfRange, match=rf"^{re.escape(message)}$"):
        CertifiedPartition(knots, levels, margins)


# --- certification -----------------------------------------------------------


def test_constant_identity_certifies_in_one_segment():
    p = OperatorPath.affine(np.eye(2), np.zeros((2, 2)))
    part = find_partition(p)
    assert part.knots == (0.0, 1.0)
    assert part.levels == (0.5,)
    assert part.margins[0] >= 1e-7


def test_certificate_pays_for_the_eigensolver_error(monkeypatch):
    import sflow.operators as operators

    flat = OperatorPath.affine(np.eye(2), np.zeros((2, 2)))
    near_zero = OperatorPath.affine(np.array([[-0.1]]), np.array([[0.2]]))
    flat.speeds  # solved here, before the bound below holds
    find_partition(near_zero)
    # a solver error bound of 0.2 shrinks the margin by 0.2 without moving
    # the level, makes eigenvalues of size 0.1 count as possibly zero, and
    # enters the Lipschitz bound of every path solved while it holds
    monkeypatch.setattr(operators, "eigh_error", lambda block, w, v: 0.2)
    part = find_partition(flat)
    assert part.levels == (0.5,)
    assert part.margins[0] == pytest.approx(0.3)
    with pytest.raises(EndpointNotInvertible):
        find_partition(near_zero)
    assert _scalar_up_path().lipschitz >= 2.2


def test_scalar_crossing_certifies():
    part = find_partition(_scalar_up_path())
    assert len(part.levels) == 1
    # the one eigenvalue stays inside [-1, 1]; the level sits above it
    assert part.levels[0] > 1.0
    assert part.margins[0] > 0.0


def test_tails_cap_levels_below_one():
    p = _scalar_up_path(plus_tail=True, minus_tail=True)
    part = find_partition(p)
    assert all(lv < 1.0 for lv in part.levels)
    assert all(m > 0.0 for m in part.margins)


def test_min_depth_forces_refinement():
    p = _scalar_up_path()
    part = find_partition(p, FlowOptions(min_depth=2))
    assert len(part.levels) == 4
    assert part.knots == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_certification_failed_at_zero_depth():
    # oscillation with tails: at depth 0 the envelope blankets all of (0, 1)
    p = OperatorPath.piecewise_linear(
        [0.0, 0.5, 1.0], [np.array([[3.0]]), np.array([[-3.0]]),
                          np.array([[3.0]])], plus_tail=True)
    with pytest.raises(CertificationFailed):
        find_partition(p, FlowOptions(max_depth=0))
    part = find_partition(p)  # deeper bisection succeeds
    assert len(part.levels) > 1


def test_endpoint_not_invertible():
    p = OperatorPath.affine(np.zeros((1, 1)), np.eye(1))
    with pytest.raises(EndpointNotInvertible):
        find_partition(p)



@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3)]),
       st.integers(2, 4), st.sampled_from([(False, False), (True, False),
                                           (False, True)]),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
       st.floats(0.05, 0.95), st.integers(0, 2 ** 32 - 1))
def test_end_eigenvalues_between_the_two_tolerances_keep_the_oracle_class(
        preset, dim, tails, s0, s1, u, seed):
    # a trivially acted coordinate whose eigenvalue runs from s0 a0 to
    # s1 a1, each a between the invertibility threshold 1e-10 (1 + ||A||)
    # and the cluster tolerance 1e-8 (1 + ||A||): a negative one is refused
    # by the flow and the oracle, as the knot windows and the clusters could
    # count it on the wrong side; otherwise the flow is the oracle's class
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    p = random_equivariant_path(action, rng, plus_tail=tails[0],
                                minus_tail=tails[1])
    norm = np.abs(np.linalg.eigvalsh(p.blocks_at([0.0, 1.0]))).max(axis=1)
    a0, a1 = u * 1e-8 * (1.0 + norm)
    q = direct_sum_paths(p, OperatorPath.affine([[s0 * a0]],
                                                [[s1 * a1 - s0 * a0]]))
    ext = action.extended(1)
    if min(s0, s1) < 0:
        with pytest.raises(EndpointNotInvertible,
                           match="within cluster tolerance"):
            sfl_G(q, ext, table)
        with pytest.raises(NotInvertible, match="within cluster tolerance"):
            morse_oracle_sfl_G(q, ext, table)
    else:
        assert sfl_G(q, ext, table).sfl_G == morse_oracle_sfl_G(q, ext, table)


def test_flat_zero_stretch_certifies():
    # eigenvalue sits exactly at 0 on the middle third; net flow is one
    p = OperatorPath.piecewise_linear(
        [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0],
        [np.array([[-1.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
         np.array([[1.0]])])
    table, action = _trivial_setup(1)
    assert sfl_G(p, action, table).sfl == 1
    # knots landing inside the kernel stretch cancel pairwise
    deep = sfl_G(p, action, table, FlowOptions(min_depth=2))
    assert deep.sfl == 1


# --- the flow ----------------------------------------------------------------


def test_scalar_up_crossing_flow():
    table, action = _trivial_setup(1)
    report = sfl_G(_scalar_up_path(), action, table)
    assert report.sfl == 1
    assert report.sfl_G.coeffs == (1,)
    assert forgetful_F(report.sfl_G) == report.sfl


def test_constant_path_flow_is_zero():
    table, action = _trivial_setup(2)
    p = OperatorPath.affine(np.diag([1.0, -2.0]), np.zeros((2, 2)))
    report = sfl_G(p, action, table)
    assert report.sfl == 0
    assert report.sfl_G.is_zero()
    assert report.crossings == ()


def test_z2_opposite_crossings():
    # eigenvalue 2*lam-1 on the fixed line, 1-2*lam on the sign line:
    # classes flow in opposite directions, plain count cancels
    table, action = _z2_diag_setup()
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    report = sfl_G(p, action, table)
    assert report.sfl_G.as_dict() == {"trivial": 1, "sign": -1}
    assert report.sfl == 0
    assert len(report.crossings) == 1
    cross = report.crossings[0]
    assert cross.interval == (0.0, 1.0)
    assert cross.klass.coeffs == (1, -1)


def test_contributions_telescope():
    table, action = _z2_diag_setup()
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    report = sfl_G(p, action, table, FlowOptions(min_depth=3))
    assert len(report.partition.levels) == 8
    total = report.segment_contributions[0]
    for c in report.segment_contributions[1:]:
        total = total + c
    assert total == report.sfl_G


def test_normalization_one_sided_tail_path():
    # block eigenvalue -1/2 + lam against both essential tails
    table, action = _trivial_setup(1)
    p = OperatorPath.affine(np.array([[-0.5]]), np.array([[1.0]]),
                            plus_tail=True, minus_tail=True)
    report = sfl_G(p, action, table)
    assert report.sfl == 1


def _normalization_class(group, table, mats, rng):
    # (lam - 1/2) I on one irreducible, hidden behind a Haar change of basis:
    # one upward crossing of the whole space at lam = 1/2
    dim = mats.shape[1]
    c = haar_orthogonal(dim, rng)
    action = OrthogonalAction(group, c.T @ mats @ c)
    path = OperatorPath.affine(-0.5 * np.eye(dim), np.eye(dim))
    report = sfl_G(path, action, table)
    assert morse_oracle_sfl_G(path, action, table) == report.sfl_G
    return report


def test_normalization_on_each_preset_irreducible():
    # the normalisation axiom restated equivariantly: the class is exactly
    # the irreducible the path runs on
    rng = np.random.default_rng(29)
    presets = [("trivial", 1)] + [(p, n) for p in ("cyclic", "dihedral")
                                  for n in range(1, 7)]
    checked = 0
    for preset, n in presets:
        group, table = build_group(preset, n)
        for i, (name, _, mats) in enumerate(_preset_irreps(preset, n)):
            klass = _normalization_class(group, table, mats, rng).sfl_G
            unit = tuple(int(j == i) for j in range(table.n_irreps))
            assert klass.coeffs == unit, (preset, n, name)
            checked += 1
    assert checked == 40


def _q8():
    # Q8 = {1, -1, i, -i, j, -j, k, -k} as unit quaternions (w, x, y, z); its
    # quaternionic irreducible is left multiplication on H = R^4
    quats = [s * e for e in np.eye(4) for s in (1.0, -1.0)]

    def left(q):
        w, x, y, z = q
        return np.array([[w, -x, -y, -z], [x, w, -z, y],
                         [y, z, w, -x], [z, -y, x, w]])

    mats = np.array([left(q) for q in quats])
    index = {tuple(q): g for g, q in enumerate(quats)}
    mult = [[index[tuple(a @ q)] for q in quats] for a in mats]
    # classes {1}, {-1}, {+-i}, {+-j}, {+-k}
    chars = [("trivial", 1, 1, [1, 1, 1, 1, 1]),
             ("i", 1, 1, [1, 1, 1, -1, -1]),
             ("j", 1, 1, [1, 1, -1, 1, -1]),
             ("k", 1, 1, [1, 1, -1, -1, 1]),
             ("H", 4, 4, [4, -4, 0, 0, 0])]
    group, table = build_group("explicit", mult_table=mult, char_table=[
        {"name": nm, "degree": d, "schur": s, "values": v}
        for nm, d, s, v in chars])
    return group, table, mats


def test_normalization_on_the_quaternionic_irreducible_of_q8():
    group, table, mats = _q8()
    report = _normalization_class(group, table, mats,
                                  np.random.default_rng(31))
    assert report.sfl_G.as_dict() == {"trivial": 0, "i": 0, "j": 0, "k": 0,
                                      "H": 1}
    assert report.sfl == 4


def test_partition_reuse_and_independence():
    table, action = _z2_diag_setup()
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    default = sfl_G(p, action, table)
    forced = find_partition(p, FlowOptions(min_depth=2))
    reused = sfl_G(p, action, table, partition=forced)
    assert reused.sfl_G == default.sfl_G
    assert reused.partition is forced


def test_reversal_antisymmetry():
    rng = np.random.default_rng(11)
    table, action = preset_action("cyclic", 3, 5, rng)
    for tails in [(False, False), (True, False), (True, True)]:
        p = random_equivariant_path(action, rng, plus_tail=tails[0],
                                    minus_tail=tails[1])
        fwd = sfl_G(p, action, table).sfl_G
        bwd = sfl_G(reverse(p), action, table).sfl_G
        assert bwd == -fwd


def test_flow_matches_endpoint_oracle():
    rng = np.random.default_rng(5)
    table, action = preset_action("dihedral", 3, 6, rng, conjugate=True)
    tails = [(False, False), (True, False), (False, True), (True, True)]
    for i in range(8):
        plus, minus = tails[i % 4]
        p = random_equivariant_path(action, rng, plus_tail=plus,
                                    minus_tail=minus)
        report = sfl_G(p, action, table)
        assert report.sfl_G == morse_oracle_sfl_G(p, action, table)
        if plus or minus:
            # truncation size must not matter
            assert report.sfl_G == morse_oracle_sfl_G(p, action, table, m=2)


def test_forgetful_compatibility():
    rng = np.random.default_rng(17)
    table, action = preset_action("cyclic", 4, 6, rng)
    p = random_equivariant_path(action, rng, plus_tail=True)
    report = sfl_G(p, action, table)
    triv_table, triv_action = _trivial_setup(6)
    plain = sfl_G(p, triv_action, triv_table)
    assert forgetful_F(report.sfl_G) == plain.sfl


# --- input validation ---------------------------------------------------------


def test_flow_rejects_bad_inputs():
    table, action = _z2_diag_setup()
    with pytest.raises(DimensionMismatch):
        sfl_G(_scalar_up_path(), action, table)
    _, table3 = build_group("cyclic", 3)
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    with pytest.raises(WrongGroup):
        sfl_G(p, action, table3)
    broken = OperatorPath.affine(np.array([[-1.0, 0.5], [0.5, 1.0]]),
                                 np.zeros((2, 2)))
    with pytest.raises(NotEquivariant):
        sfl_G(broken, action, table)


def test_flow_rejects_singular_endpoint():
    table, action = _trivial_setup(1)
    p = OperatorPath.affine(np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(EndpointNotInvertible):
        sfl_G(p, action, table)


# --- axiom suites --------------------------------------------------------------


def test_verify_axioms_passes():
    rng = np.random.default_rng(0)
    table, action = preset_action("cyclic", 2, 4, rng)
    report = verify_axioms(action, table, seed=0, instances=3)
    assert report.passed
    names = [r.name for r in report.results]
    assert names == ["vanishing", "concatenation", "direct_sum",
                     "reparametrization", "conjugation"]
    assert all(r.instances == 3 for r in report.results)
    by_name = {r.name: r for r in report.results}
    assert by_name["concatenation"].failures == ()


def test_verify_axioms_reports_the_witness_of_each_failed_check(monkeypatch):
    # one more trivial in the first two flows: the invertible path of the
    # vanishing case, and the concatenation of the first concatenation case
    table, action = preset_action("cyclic", 2, 2, np.random.default_rng(0))
    real = flow._flow_rows

    def shifted(requests, table, *args, **kwargs):
        rows = real(requests, table, *args, **kwargs)
        for i in (0, 1):
            rows[i] = rows[i]._replace(total=rows[i].total + [1, 0])
        return rows

    monkeypatch.setattr(flow, "_flow_rows", shifted)
    report = verify_axioms(action, table, seed=0, instances=1)
    assert report.passed is False
    assert {r.name: r.failures for r in report.results} == {
        "vanishing": ("instance 0: invertible path has flow "
                      "VirtualRep(1*trivial)",),
        "concatenation": ("instance 0: concatenation VirtualRep(1*trivial) "
                          "!= VirtualRep(0)",),
        "direct_sum": (), "reparametrization": (), "conjugation": ()}
    assert [r.passed for r in report.results] == [False, False, True, True,
                                                  True]


def _looped_reynolds(action, x):
    # the group average as a running sum of rho x rho^T over the elements
    avg = np.zeros_like(x, dtype=float)
    for g in range(action.group.order):
        rho = action.matrix(g)
        avg += rho @ x @ rho.T
    return avg / action.group.order


def test_stacked_reynolds_average_has_the_bits_of_the_loop():
    # every block, clamp and equivariant orthogonal matrix a case draw makes
    # goes through this average
    rng = np.random.default_rng(103)
    for preset, n in [("trivial", 1), ("cyclic", 5), ("dihedral", 3),
                      ("dihedral", 4), ("dihedral", 6)]:
        for dim in range(1, 13):
            for conjugate in (False, True):
                _, action = preset_action(preset, n, dim, rng,
                                          conjugate=conjugate)
                for _ in range(3):
                    x = rng.standard_normal((dim, dim))
                    got = sampling._reynolds(action, x)
                    want = _looped_reynolds(action, x)
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))


# --- batched bisection --------------------------------------------------------


def _find_partition_recursive(path, opts):
    # the depth-first recursion find_partition replaced, written with one
    # eigendata_each call per sample, in the order left end, midpoint, right
    # end, and the radius from a scan of the pieces each segment meets: the
    # reference the batched rounds must agree with on every partition and
    # every failure (the paths given to it have invertible ends)
    knots, levels, margins = [0.0], [], []

    def spectrum(lam):
        # (eigenvalues, error bound) of the block, or its EigenFailure raised
        block = path.blocks_at([lam])
        w, _, _, _, err, _, errors = eigendata_each(
            0.5 * block + 0.5 * block.swapaxes(1, 2), opts.tol_cluster)
        if errors:
            raise errors[0]
        return w[0], err[0]

    def descend(left, right, depth):
        if depth >= opts.min_depth:
            specs = [spectrum(lam) for lam in (left, (left + right) / 2.0, right)]
            speed = max(s for s, a, b in zip(path.speeds, path.knots,
                                             path.knots[1:])
                        if a < right and b > left)
            ok, level, margin = flow._certify(
                np.array([[w for w, _ in specs]]),
                np.array([[err for _, err in specs]]),
                np.array([speed * (right - left) / 2.0]),
                np.array([path.plus_tail or path.minus_tail]), opts.tol_cluster)
            if ok[0]:
                knots.append(right)
                levels.append(float(level[0]))
                margins.append(float(margin[0]))
                return
            if depth >= opts.max_depth:
                raise CertificationFailed(
                    f"no certified level on [{left}, {right}] at depth {depth}")
        mid = (left + right) / 2.0
        descend(left, mid, depth + 1)
        descend(mid, right, depth + 1)

    descend(0.0, 1.0, 0)
    return CertifiedPartition(tuple(knots), tuple(levels), tuple(margins))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CertificationFailed, EigenFailure) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("preset,n,dim", [("trivial", 1, 3), ("cyclic", 2, 4),
                                          ("dihedral", 3, 4)])
def test_batched_bisection_matches_the_recursion(preset, n, dim, monkeypatch):
    rng = np.random.default_rng(dim + n)
    table, action = preset_action(preset, n, dim, rng)
    tails = [(False, False), (True, False), (False, True), (True, True)]
    failures = 0
    for i in range(8):
        path = random_equivariant_path(action, rng, plus_tail=tails[i % 4][0],
                                       minus_tail=tails[i % 4][1])
        for min_depth in range(4):
            # small depth budgets fail part of the way through, with pending
            # segments on both sides of the failure
            for max_depth in (min_depth, min_depth + 2, 40):
                opts = FlowOptions(min_depth=min_depth, max_depth=max_depth)
                want = _outcome(_find_partition_recursive, path, opts)
                # also with rounds too small to hold one bisection level
                for batch in (flow.BISECTION_BATCH, 1, 3):
                    monkeypatch.setattr(flow, "BISECTION_BATCH", batch)
                    assert _outcome(find_partition, path, opts) == want
                failures += isinstance(want, tuple)
    assert failures > 0


def test_uncertifiable_path_fails_leftmost_within_bounded_work(monkeypatch):
    # the level band needs a margin of about 0.2 and the widest gap in
    # [0, 1] gives 0.2 less the solver error, on every segment at every depth
    path = OperatorPath.affine(np.diag([0.3, 0.7, 1e7]), np.zeros((3, 3)),
                               plus_tail=True, minus_tail=True)
    solved = []
    stacked = operators.eigh_each

    def counting(blocks):
        solved.append(len(blocks))
        return stacked(blocks)

    monkeypatch.setattr(operators, "eigh_each", counting)
    with pytest.raises(CertificationFailed) as info:
        find_partition(path)
    assert str(info.value) == ("no certified level on [0.0, 9.094947017729282e-13]"
                               " at depth 40")
    assert sum(solved) <= 3 * flow.BISECTION_BATCH * 41
    # each round tests two levels: depths 0 to 40 in 21 stacked solves
    assert len(solved) <= 21


def test_certifiable_path_takes_one_round_per_two_levels(monkeypatch):
    rng = np.random.default_rng(17)
    rounds = []
    tested = flow._certify

    def counting(w, *args):
        rounds.append(len(w))
        return tested(w, *args)

    deepest = 0
    for preset, n, dim in (("trivial", 1, 3), ("cyclic", 3, 4),
                           ("dihedral", 4, 6)):
        _, action = preset_action(preset, n, dim, rng)
        for plus, minus in _TAILS:
            path = random_equivariant_path(action, rng, plus_tail=plus,
                                           minus_tail=minus)
            want = _find_partition_recursive(path, FlowOptions())
            # a segment accepted at depth d has width 2**-d exactly
            d = max(int(-np.log2(b - a))
                    for a, b in zip(want.knots, want.knots[1:]))
            rounds.clear()
            monkeypatch.setattr(flow, "_certify", counting)
            assert find_partition(path) == want
            monkeypatch.undo()
            assert len(rounds) <= (d + 2) // 2
            deepest = max(deepest, d)
    assert deepest >= 4


def test_max_depth_is_capped_where_midpoints_stay_inside():
    assert FlowOptions(max_depth=53).max_depth == 53
    with pytest.raises(OutOfRange):
        FlowOptions(max_depth=54)
    left, right = 0.0, 1.0
    for _ in range(53):
        mid = (left + right) / 2.0
        assert left < mid < right
        right = mid


def _refuse(monkeypatch, refused):
    """Make the blocks of each path of refused, a list of (OperatorPath,
    mask) pairs where mask maps an array of parameters to a mask of those
    refused, NaN there, as read through blocks_at and through the PathStack
    of a flow: blocks that no path constructor accepts, whose solve fails."""
    masks = {id(p): mask for p, mask in refused}
    blocks_at = OperatorPath.blocks_at

    def refusing_blocks_at(self, lams):
        out = blocks_at(self, lams)
        if id(self) in masks:
            out[masks[id(self)](np.asarray(lams, dtype=float).reshape(-1))] = np.nan
        return out

    class Refusing(operators.PathStack):
        def __init__(self, paths):
            super().__init__(paths)
            self.masks = [masks.get(id(p)) for p in paths]

        def blocks(self, which, lams):
            out = super().blocks(which, lams)
            for j, k in enumerate(which.tolist()):
                if self.masks[k] is not None and self.masks[k](lams[j:j + 1])[0]:
                    out[j] = np.nan
            return out

    monkeypatch.setattr(OperatorPath, "blocks_at", refusing_blocks_at)
    monkeypatch.setattr(flow, "PathStack", Refusing)


def _constant_path(diagonal):
    return OperatorPath.affine(np.diag(diagonal), np.zeros((3, 3)),
                               plus_tail=True, minus_tail=True)


@pytest.mark.parametrize("bad", [(0.6, 0.7), (0.1, 0.2)])
def test_a_failed_solve_is_raised_in_depth_first_order(bad, monkeypatch):
    # a constant block that no level certifies (see the test above), whose
    # solve fails on the parameters in bad: on (0.6, 0.7) the failed solve
    # comes up while segments to its left are still pending, and one of
    # them fails certification first
    path = _constant_path([0.3, 0.7, 1e7])
    _refuse(monkeypatch, [(path, lambda lams: (bad[0] < lams) & (lams < bad[1]))])
    opts = FlowOptions(max_depth=4)
    want = _outcome(_find_partition_recursive, path, opts)
    assert want[0] == ("CertificationFailed" if bad[0] > 0.5 else "EigenFailure")
    assert _outcome(find_partition, path, opts) == want


def test_a_look_ahead_sample_never_fails_a_flow(monkeypatch):
    # a constant block that certifies on [0, 1] at depth 0 (level 1/2 in a
    # gap of width 1), whose solve fails near 1/4 and 3/4: the halves of
    # [0, 1] are tried in the first round, and their midpoints 1/4 and 3/4
    # fail to solve, but [0, 1] itself certifies
    path, asked = _constant_path([1.0, 2.0, 4.0]), []

    def refused(lams):
        asked.extend(lams.tolist())
        return ((0.2 < lams) & (lams < 0.3)) | ((0.7 < lams) & (lams < 0.8))

    _refuse(monkeypatch, [(path, refused)])
    want = _find_partition_recursive(path, FlowOptions())
    assert want.knots == (0.0, 1.0)
    asked.clear()
    assert find_partition(path) == want
    assert {0.25, 0.75} <= set(asked)


def _at_global_speed(path):
    # the same path with every piece at the Lipschitz bound, the radius every
    # segment paid before segments were bounded by the pieces they meet
    slow = copy.copy(path)
    slow._speeds = np.full_like(path.speeds, path.lipschitz)
    return slow


def test_piece_speeds_coarsen_the_partition_and_keep_the_classes():
    rng = np.random.default_rng(91)
    requests = []
    for preset, n, dim in (("trivial", 1, 2), ("cyclic", 3, 3),
                           ("dihedral", 4, 4)):
        table, action = preset_action(preset, n, dim, rng, conjugate=True)
        for plus, minus in _TAILS:
            p = random_equivariant_path(action, rng, plus_tail=plus,
                                        minus_tail=minus, kind="pl")
            q = random_equivariant_path(action, rng, plus_tail=plus,
                                        minus_tail=minus,
                                        start_block=p.block_at(1.0))
            paths = [p, concatenate(p, q)]
            if not (plus and minus):
                paths.append(parametrix(p, 64).transformed_path())
            requests += [(path, action, table) for path in paths]
    fewer = 0
    for path, action, table in requests:
        new, old = sfl_G_each([(path, action), (_at_global_speed(path), action)],
                              table)
        assert set(new.partition.knots) <= set(old.partition.knots)
        assert new.sfl_G == old.sfl_G
        fewer += len(new.partition.levels) < len(old.partition.levels)
    assert fewer > len(requests) // 2


def test_a_failed_solve_belongs_to_its_own_parameter(monkeypatch):
    path = OperatorPath.affine(np.zeros((2, 2)), np.eye(2))
    _refuse(monkeypatch, [(path, lambda lams: lams == 0.25)])
    store = flow._Eigendata([path], 1e-8)
    rows = store.add(np.zeros(3, dtype=np.intp), np.array([0.5, 0.25, 0.75]))
    assert store.ok[rows].tolist() == [True, False, True]
    assert store.w[rows[0]].tolist() == [0.5, 0.5]
    assert store.w[rows[2]].tolist() == [0.75, 0.75]
    assert list(store.errors) == [rows[1]]
    assert isinstance(store.errors[rows[1]], EigenFailure)


def test_stacked_blocks_match_at_in_one_pass_per_call(monkeypatch):
    # the blocks of affine and piecewise-linear paths at many parameters, in
    # any order, interpolated in one pass and equal bit for bit to at(lam)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 4, 4))
    knots = [0.0, 0.2, 0.55, 1.0]
    samples = rng.standard_normal((4, 4, 4))
    samples[1, 0, 0] = -0.0  # a knot keeps its sample, signed zeros too
    lams = knots + [0.1, 0.3, 0.5, 0.999, float(np.nextafter(0.55, 1.0))]
    paths = [OperatorPath.affine(a, b, plus_tail=True),
             OperatorPath.piecewise_linear(knots, list(samples)),
             reverse(OperatorPath.piecewise_linear(knots, list(samples)))]
    which = rng.permutation(np.repeat(np.arange(3), len(lams)))
    at = np.array([lams[k % len(lams)] for k in range(len(which))])
    calls = []
    real = operators.PathStack.blocks
    monkeypatch.setattr(operators.PathStack, "blocks",
                        lambda self, *args: calls.append(1) or real(self, *args))
    store = flow._Eigendata(paths, 1e-8)
    rows = store.add(which, at)
    assert len(calls) == 1
    for k, lam, row in zip(which, at, rows):
        want = paths[k].at(lam).block
        assert np.array_equal(store.blocks[row], want)
        assert np.array_equal(np.signbit(store.blocks[row]), np.signbit(want))


@pytest.mark.parametrize("batch", [1, 1 << 30])
def test_equivariance_check_names_the_first_failing_parameter(batch, monkeypatch):
    # one parameter per commutator product, or all of them in one
    monkeypatch.setattr("sflow.operators.HOMOMORPHISM_BATCH", batch)
    table, action = _z2_diag_setup()
    # off-diagonal coupling grows along the path and breaks equivariance
    # everywhere but at 0
    path = OperatorPath.affine(np.diag([-1.0, 1.0]),
                               np.array([[2.0, 0.1], [0.1, -2.0]]))
    part = CertifiedPartition((0.0, 0.25, 0.5, 1.0), (0.5, 0.5, 0.5),
                              (0.1, 0.1, 0.1))
    lams = list(part.knots) + [0.125, 0.375, 0.75]
    first = next(lam for lam in lams
                 if check_equivariance(path.at(lam), action) > 1e-8 * (
                     1.0 + block_spectrum(path.at(lam)).block_norm))
    defect = check_equivariance(path.at(first), action)
    with pytest.raises(NotEquivariant) as info:
        sfl_G(path, action, table, partition=part)
    assert str(info.value).startswith(
        f"commutator norm {defect:.3e} at parameter {first} exceeds")


# --- stacked class pass --------------------------------------------------------


def _q8_action(rng):
    # H plus the one-dimensional "i" character, behind a Haar change of basis
    group, table, h = _q8()
    sign = [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]
    c = haar_orthogonal(5, rng)
    mats = [c.T @ np.block([[m, np.zeros((4, 1))], [np.zeros((1, 4)), s]]) @ c
            for m, s in zip(h, sign)]
    return table, OrthogonalAction(group, mats)


def _class_setups(rng):
    yield _trivial_setup(3)
    yield preset_action("cyclic", 3, 5, rng, conjugate=True)
    yield preset_action("dihedral", 4, 6, rng, conjugate=True)
    yield _q8_action(rng)


def _reference_class(action, table, frame):
    # one frame at a time, from the trace of F^T rho F and the class pairing
    reps = action.stack[list(table.group.class_representatives())]
    chi = np.trace(frame.T @ reps @ frame, axis1=1, axis2=2)
    sizes, order = table.group.class_sizes, table.group.order
    return tuple(round(sum(s * float(a) * b for s, a, b in
                           zip(sizes, chi, ir.values)) / order / ir.schur_norm)
                 for ir in table.irreps)


def _loop_frame(path, lam, level, tol_cluster=1e-8):
    # the frame of [0, level], closed at -tol, at one parameter, or the error
    # of that window, checked and picked eigenvalue by eigenvalue: the frame
    # holds the runs of eigenvalues each within tol of the last whose np.mean
    # lies in [-tol, level]
    spec = block_spectrum(path.at(lam), tol_cluster)
    tol, vals = spec.tol, spec.eigenvalues.tolist()
    for value, tail in ((1.0, path.plus_tail), (-1.0, path.minus_tail)):
        if tail and -tol <= value <= level:
            return InfiniteRank(f"window [0.0, {level}] contains the "
                                f"{value:+.0f} tail")
    for e in vals:
        if tol == 0.0 and e == 0.0:
            return BoundaryHit(f"eigenvalue {e} at window edge 0.0")
        if abs(e - level) <= tol:
            return BoundaryHit(f"eigenvalue {e} at window edge {level}")
    picked, j = [], 0
    while j < len(vals):
        k = j + 1
        while k < len(vals) and vals[k] - vals[k - 1] <= tol:
            k += 1
        if -tol <= float(np.mean(spec.eigenvalues[j:k])) <= level:
            picked += range(j, k)
        j = k
    return spec.vectors[:, picked]


def _knot_frames(path, partition):
    for i, level in enumerate(partition.levels):
        for lam in partition.knots[i:i + 2]:
            yield _loop_frame(path, lam, level)


def test_stacked_classes_match_the_per_frame_classes():
    # trivial, cyclic, dihedral and the quaternionic Q8 table: every segment
    # contribution is the difference of the per-frame classes at its knots
    rng = np.random.default_rng(37)
    crossings = 0
    for table, action in _class_setups(rng):
        for tails in [(False, False), (True, False), (False, True)]:
            path = random_equivariant_path(action, rng, plus_tail=tails[0],
                                           minus_tail=tails[1])
            report = sfl_G(path, action, table)
            frames = list(_knot_frames(path, report.partition))
            want = [_reference_class(action, table, f) for f in frames]
            got = [c.coeffs for c in report.segment_contributions]
            assert got == [tuple(b - a for a, b in zip(left, right))
                           for left, right in zip(want[::2], want[1::2])]
            assert subspace_classes(action, table, frames) == [
                multiplicity_vector(character_of_subspace(action, f), table)
                for f in frames]
            crossings += len(report.crossings)
    assert crossings > 0


def _c4_split_path():
    # C4 by quarter turns on the plane: an equivariant block is a multiple of
    # the identity, and diag(0.3, 0.3 + 1e-9) is one within the equivariance
    # tolerance; with a cluster tolerance of 1e-12 its eigenvalues split, and
    # a level between them gives the frame span(e1), which is not invariant
    group, table = build_group("cyclic", 4)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    action = OrthogonalAction(
        group, [np.linalg.matrix_power(quarter, k) for k in range(4)])
    split = np.diag([0.3, 0.3 + 1e-9])
    path = OperatorPath.piecewise_linear([0.0, 0.5, 1.0],
                                         [split, split, 0.7 * np.eye(2)])
    return path, action, table


@pytest.mark.parametrize("levels, error, message", [
    # the first frame fails invariance, the last one sits on its level
    ((0.3 + 5e-10, 0.7), NotInvariant,
     "span not invariant: commutator norm 1.000e+00 at element 1"),
    # the first frame sits on its level, the third one fails invariance
    ((0.3, 0.3 + 5e-10), BoundaryHit, "eigenvalue 0.3 at window edge 0.3"),
])
def test_class_failures_are_raised_in_frame_order(levels, error, message):
    path, action, table = _c4_split_path()
    part = CertifiedPartition((0.0, 0.5, 1.0), levels, (1e-12, 1e-12))
    with pytest.raises(error) as info:
        sfl_G(path, action, table, FlowOptions(tol_cluster=1e-12),
              partition=part)
    assert str(info.value) == message


@pytest.mark.parametrize("batch", [1, groups.HOMOMORPHISM_BATCH])
def test_class_pass_temporaries_stay_within_the_batch(batch, monkeypatch):
    # batch 1 checks one frame at a time; each screened stack holds at most
    # |G| n^2 entries then, or batch entries otherwise
    rng = np.random.default_rng(41)
    table, action = preset_action("dihedral", 4, 6, rng, conjugate=True)
    path = random_equivariant_path(action, rng)
    frames = list(_knot_frames(path, find_partition(path)))
    want = subspace_classes(action, table, frames)
    seen = []
    real = groups.opnorms_within

    def counting(m, tol):
        seen.append(m.size)
        return real(m, tol)

    monkeypatch.setattr(groups, "HOMOMORPHISM_BATCH", batch)
    monkeypatch.setattr(groups, "opnorms_within", counting)
    assert subspace_classes(action, table, frames) == want
    assert max(seen) <= max(batch, 8 * 6 * 6)
    # one Gram and one invariance check per chunk
    step = max(1, batch // (8 * 6 * 6))
    assert len(seen) == 2 * -(-len(frames) // step)


def _frame_by_frame(path, action, table, partition, tol_cluster):
    # the classes of the knot frames of [0, level], each solved, selected and
    # classified alone, in loop order: the report's contributions or the
    # first error
    classes = []
    for i, level in enumerate(partition.levels):
        for lam in partition.knots[i:i + 2]:
            frame = _loop_frame(path, lam, level, tol_cluster)
            if isinstance(frame, SflowError):
                return frame
            (klass,) = subspace_classes(action, table, [frame])
            if isinstance(klass, SflowError):
                return klass
            classes.append(klass.coeffs)
    return [tuple(b - a for a, b in zip(left, right))
            for left, right in zip(classes[::2], classes[1::2])]


def _edge_partitions(path, rng, tol_cluster):
    # the certified partition, and copies whose levels sit on, within tol of
    # or past a knot eigenvalue, or at or above the +-1 tails
    part = find_partition(path, FlowOptions(tol_cluster=tol_cluster))
    yield part
    for _ in range(3):
        levels = list(part.levels)
        i = int(rng.integers(len(levels)))
        spec = block_spectrum(path.at(part.knots[i + int(rng.integers(2))]),
                              tol_cluster)
        e = abs(float(rng.choice(spec.eigenvalues)))
        levels[i] = float(rng.choice([e, e + spec.tol, e + 2.0 * spec.tol,
                                      1.0, 1.5])) or 0.5
        yield CertifiedPartition(part.knots, tuple(levels), part.margins)


@pytest.mark.parametrize("tol_cluster", [1e-8, 0.0])
def test_knot_pass_matches_frame_by_frame_selection(tol_cluster):
    # every flow of one sfl_G_each call per action against its frames taken
    # one at a time: the same contributions or the same first error
    rng = np.random.default_rng(83)
    opts = FlowOptions(tol_cluster=tol_cluster)
    kinds = set()
    for table, action in [_trivial_setup(3), _q8_action(rng),
                          preset_action("dihedral", 4, 6, rng, conjugate=True)]:
        requests, parts = [], []
        for i in range(8):
            plus, minus = _TAILS[i % 4]
            path = random_equivariant_path(action, rng, plus_tail=plus,
                                           minus_tail=minus)
            for part in _edge_partitions(path, rng, tol_cluster):
                requests.append((path, action))
                parts.append(part)
        got = sfl_G_each(requests, table, opts, partitions=parts)
        for (path, _), part, report in zip(requests, parts, got):
            want = _frame_by_frame(path, action, table, part, tol_cluster)
            kinds.add(type(want))
            if isinstance(want, SflowError):
                assert type(report) is type(want) and str(report) == str(want)
            else:
                assert [c.coeffs for c in report.segment_contributions] == want
    assert kinds >= {list, BoundaryHit, InfiniteRank}


def test_a_knot_eigenvalue_at_minus_tol_is_inside_the_frame():
    # [0, level] is closed at -tol, so an eigenvalue of exactly -tol at an
    # interior knot counts: the crossing from -1 up to 1 through -tol at
    # 1/2 falls on the segment that ends there. At an endpoint the window
    # would count that eigenvalue against its certified sign, so it is
    # refused there
    table, action = _trivial_setup(2)
    tol = 1e-8 * (1.0 + 2.0)
    path = OperatorPath.piecewise_linear(
        [0.0, 0.5, 1.0],
        [np.diag([-1.0, 2.0]), np.diag([-tol, 2.0]), np.diag([1.0, 2.0])])
    part = CertifiedPartition((0.0, 0.5, 1.0), (0.5, 1.5), (1e-3, 1e-3))
    spec = block_spectrum(path.at(0.5))
    assert spec.eigenvalues[0] == -spec.tol == -tol
    report = sfl_G(path, action, table, partition=part)
    assert report.sfl == 1
    assert [forgetful_F(c) for c in report.segment_contributions] == [1, 0]
    end = OperatorPath.piecewise_linear(
        [0.0, 1.0], [np.diag([-tol, 2.0]), np.diag([1.0, 2.0])])
    with pytest.raises(EndpointNotInvertible,
                       match="-3.000e-08 at endpoint 0.0 within cluster"):
        sfl_G(end, action, table,
              partition=CertifiedPartition((0.0, 1.0), (0.5,), (1e-3,)))


def test_a_knot_that_fails_to_solve_fails_its_flow_only(monkeypatch):
    # the solve of one knot block raises; its flow gets that EigenFailure and
    # every other flow of the call keeps the report of its own call
    table, action = _trivial_setup(2)
    paths = [OperatorPath.piecewise_linear([0.0, 0.5, 1.0], [
        np.diag([-1.0, 2.0]), np.diag([0.25 * k, 3.0]), np.diag([1.0, 2.0])])
        for k in (1, 2, 3)]
    part = CertifiedPartition((0.0, 0.5, 1.0), (0.1, 0.1), (0.01, 0.01))
    want = [sfl_G(p, action, table, partition=part) for p in paths]
    real = operators.jacobi_eigh

    def failing(blocks):
        if any(b[0, 0] == 0.5 for b in blocks):
            raise EigenFailure("knot block refused")
        return real(blocks)

    monkeypatch.setattr(operators, "jacobi_eigh", failing)
    got = sfl_G_each([(p, action) for p in paths], table, partitions=[part] * 3)
    assert isinstance(got[1], EigenFailure)
    assert str(got[1]) == "knot block refused"
    assert _same_flow(got[0], want[0]) and _same_flow(got[2], want[2])


def test_class_pass_reads_the_stacked_eigendata_only(monkeypatch):
    # none of the one-item routes (one block's spectrum, equivariance defect
    # or negative-space class, one frame's character or multiplicities) on
    # the way to a report or an oracle class
    def refuse(*args, **kwargs):
        raise AssertionError("per-item route taken")

    for module, names in [(operators, ["block_spectrum", "check_equivariance",
                                       "morse_class"]),
                          (groups, ["character_of_subspace",
                                    "multiplicity_vector"])]:
        for name in names:
            for owner in (module, flow):
                monkeypatch.setattr(owner, name, refuse, raising=False)
    rng = np.random.default_rng(89)
    table, action = preset_action("dihedral", 3, 5, rng, conjugate=True)
    paths = [random_equivariant_path(action, rng, plus_tail=plus,
                                     minus_tail=minus) for plus, minus in _TAILS]
    reports = sfl_G_each([(p, action) for p in paths], table)
    assert all(isinstance(r, SflReport) for r in reports)
    for p, report in zip(paths, reports):
        assert morse_oracle_sfl_G(p, action, table, m=1) == report.sfl_G


# --- endpoint oracle -------------------------------------------------------------


def _sequential_oracle(path, action, table, m, opts):
    # morse_class of the compressed path at 0, then at 1
    finite = compress(path, m)
    act = action.extended(m * (int(path.plus_tail) + int(path.minus_tail)))
    kwargs = dict(tol_cluster=opts.tol_cluster, tol_invert=opts.tol_invert)
    try:
        return (morse_class(finite.at(0.0), act, table, **kwargs)
                - morse_class(finite.at(1.0), act, table, **kwargs))
    except SflowError as e:
        return e


def _oracle_cases(rng):
    # equivariant paths with every tail pattern, and paths whose start or
    # end is not equivariant, not invertible or both
    table, action = preset_action("dihedral", 3, 4, rng, conjugate=True)
    bad = rng.standard_normal((4, 4))
    bad = bad + bad.T
    for i in range(8):
        plus, minus = _TAILS[i % 4]
        p = random_equivariant_path(action, rng, plus_tail=plus,
                                    minus_tail=minus)
        start, end = p.block_at(0.0), p.block_at(1.0)
        singular = start - float(np.linalg.eigvalsh(start)[0]) * np.eye(4)
        yield table, action, p
        for a, b in [(bad, end), (start, bad), (singular, end),
                     (start, singular), (singular, bad), (bad, singular)]:
            yield table, action, OperatorPath.affine(a, b - a, plus_tail=plus,
                                                     minus_tail=minus)


def test_oracle_solves_both_endpoints_in_one_stack(monkeypatch):
    # one stacked solve, one equivariance check and one class call per
    # oracle, no compressed path, and the endpoint blocks of compress(path,
    # m) bit for bit
    rng = np.random.default_rng(97)
    calls = {"solve": 0, "defects": 0, "classes": 0}
    seen = []

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    real_classes = operators.morse_classes

    def recording(blocks, *args, **kwargs):
        seen.append(blocks.copy())
        return real_classes(blocks, *args, **kwargs)

    table, action = preset_action("dihedral", 3, 4, rng, conjugate=True)
    for i in range(8):
        p = random_equivariant_path(action, rng, plus_tail=_TAILS[i % 4][0],
                                    minus_tail=_TAILS[i % 4][1],
                                    kind=("affine", "pl")[i // 4])
        for m in range(4):
            with monkeypatch.context() as mp:
                mp.setattr(operators, "eigh_each",
                           counting("solve", operators.eigh_each))
                mp.setattr(operators, "equivariance_defects",
                           counting("defects", operators.equivariance_defects))
                mp.setattr(operators, "subspace_classes",
                           counting("classes", operators.subspace_classes))
                mp.setattr(flow, "morse_classes", recording)
                mp.setattr(OperatorPath, "_new", None)  # no path is built
                got = morse_oracle_sfl_G(p, action, table, m)
            assert calls == {"solve": 1, "defects": 1, "classes": 1}
            calls.update(solve=0, defects=0, classes=0)
            finite = compress(p, m)
            for block, lam in zip(seen.pop(), (0.0, 1.0)):
                want = finite.at(lam).block
                assert np.array_equal(block, want)
                assert np.array_equal(np.signbit(block), np.signbit(want))
            assert got == _sequential_oracle(p, action, table, m, FlowOptions())


def test_oracle_errors_come_in_the_order_of_sequential_endpoints():
    rng = np.random.default_rng(101)
    kinds = set()
    for table, action, p in _oracle_cases(rng):
        for m in range(4):
            for opts in (FlowOptions(), FlowOptions(tol_cluster=0.0,
                                                    tol_invert=0.0)):
                want = _sequential_oracle(p, action, table, m, opts)
                try:
                    got = morse_oracle_sfl_G(p, action, table, m, opts)
                except SflowError as e:
                    got = e
                kinds.add(type(want))
                if isinstance(want, SflowError):
                    assert type(got) is type(want) and str(got) == str(want)
                else:
                    assert got == want
    assert kinds >= {groups.VirtualRep, NotEquivariant, NotInvertible}


@pytest.mark.parametrize("seed", range(6))
def test_oracle_rejects_a_table_of_another_group_before_solving(seed,
                                                                monkeypatch):
    # a C4 action with the table of the other group of order 4, and a D3
    # action with the C3 table: WrongGroup, as sfl_G raises it
    rng = np.random.default_rng(seed)
    _, c4 = preset_action("cyclic", 4, 3, rng)
    _, d3 = preset_action("dihedral", 3, 3, rng)
    message = "character table and action belong to different groups"
    for action, table in [(c4, build_group("dihedral", 2)[1]),
                          (d3, build_group("cyclic", 3)[1])]:
        path = random_equivariant_path(action, rng)
        with pytest.raises(WrongGroup, match=message):
            sfl_G(path, action, table)
        with monkeypatch.context() as mp:
            mp.setattr(operators, "eigh_each", None)  # no solve
            with pytest.raises(WrongGroup, match=message):
                morse_oracle_sfl_G(path, action, table)
            with pytest.raises(WrongGroup, match=message):
                morse_class(path.at(0.0), action, table)


def test_oracle_checks_the_action_dimension_before_solving(monkeypatch):
    # as sfl_G does, but naming the blocks of the oracle, not the path
    table, action = _trivial_setup(3)
    path = OperatorPath.affine(np.diag([-1.0, 2.0]), np.eye(2))
    solves = []
    real = operators.eigh_each
    monkeypatch.setattr(operators, "eigh_each",
                        lambda blocks: solves.append(1) or real(blocks))
    with pytest.raises(DimensionMismatch,
                       match="action dimension 3 vs block dimension 2"):
        morse_oracle_sfl_G(path, action, table)
    assert solves == []


def test_flow_and_oracle_pay_the_eigensolver_error_at_the_ends(monkeypatch):
    # the start has eigenvalue -0.3; once the solver error bound is 0.5 it
    # may be 0, and both routes find the start not invertible (exit 3)
    table, action = _trivial_setup(2)
    path = OperatorPath.affine(np.diag([-0.3, 1.0]), np.diag([0.6, 0.0]))
    assert sfl_G(path, action, table).sfl_G.coeffs == (1,)
    assert morse_oracle_sfl_G(path, action, table).coeffs == (1,)
    monkeypatch.setattr(operators, "eigh_error", lambda block, w, v: 0.5)
    for route, error, message in [
            (sfl_G, EndpointNotInvertible,
             "eigenvalue 3.000e-01 at endpoint 0.0 within threshold 2.000e-10"),
            (morse_oracle_sfl_G, NotInvertible,
             "eigenvalue 3.000e-01 within invertibility threshold")]:
        with pytest.raises(InvertibilityError) as info:
            route(path, action, table)
        assert type(info.value) is error and str(info.value) == message
        assert info.value.exit_code == 3


def test_oracle_raises_the_failed_solve_of_a_later_block():
    # the first block solves and passes its checks; the second cannot be
    # solved, and its EigenFailure is raised
    table, action = _trivial_setup(2)
    blocks = np.stack([np.diag([-1.0, 2.0]), np.diag([np.nan, 2.0])])
    assert operators.morse_classes(blocks[:1], action, table)[0].coeffs == (1,)
    with pytest.raises(EigenFailure):
        operators.morse_classes(blocks, action, table)


def test_a_given_partition_still_needs_invertible_ends():
    table, action = _trivial_setup(1)
    path = OperatorPath.affine(np.zeros((1, 1)), np.eye(1))
    part = CertifiedPartition((0.0, 1.0), (0.5,), (0.1,))
    with pytest.raises(EndpointNotInvertible, match="at endpoint 0.0"):
        sfl_G(path, action, table, partition=part)
    (got,) = sfl_G_each([(path, action)], table, partitions=[part])
    assert isinstance(got, EndpointNotInvertible)


# --- flows of many requests -----------------------------------------------------


_TAILS = [(False, False), (True, False), (False, True), (True, True)]


def _same_flow(got, want):
    # a report equal to want's, or want's error type and message
    if isinstance(want, SflowError):
        return type(got) is type(want) and str(got) == str(want)
    return (isinstance(got, SflReport) and got.partition == want.partition
            and got.segment_contributions == want.segment_contributions
            and got.sfl_G == want.sfl_G and got.crossings == want.crossings)


def _own_call(path, action, table, opts):
    try:
        return sfl_G(path, action, table, opts)
    except SflowError as e:
        return e


def _mixed_requests(rng):
    # dims 1-8, each with two actions of D3 and all four tail patterns
    requests = []
    for dim in range(1, 9):
        table, plain = preset_action("dihedral", 3, dim, rng)
        _, hidden = preset_action("dihedral", 3, dim, rng, conjugate=True)
        for i, (plus, minus) in enumerate(_TAILS):
            action = (plain, hidden)[i % 2]
            requests.append((random_equivariant_path(
                action, rng, plus_tail=plus, minus_tail=minus), action))
    return table, requests


@pytest.mark.parametrize("opts", [FlowOptions(), FlowOptions(min_depth=2),
                                  FlowOptions(min_depth=1, max_depth=45)])
def test_each_request_gets_the_flow_of_its_own_call(opts):
    table, requests = _mixed_requests(np.random.default_rng(71))
    got = sfl_G_each(requests, table, opts)
    assert len(got) == len(requests)
    for (path, action), report in zip(requests, got):
        want = _own_call(path, action, table, opts)
        assert isinstance(want, SflReport)
        assert _same_flow(report, want)


def test_shared_rounds_solve_the_same_blocks_in_fewer_stacks(monkeypatch):
    table, requests = _mixed_requests(np.random.default_rng(72))
    # the same draws, with their speeds not solved yet
    _, twins = _mixed_requests(np.random.default_rng(72))
    stacks, rounds = [], []
    real, tested = operators.eigh_each, flow._certify

    def counting(blocks):
        stacks.append(len(blocks))
        return real(blocks)

    def certifying(w, *args):
        rounds.append(len(w))
        return tested(w, *args)

    monkeypatch.setattr(operators, "eigh_each", counting)
    monkeypatch.setattr(flow, "_certify", certifying)
    alone, alone_rounds = [], []
    for path, action in requests:
        stacks.clear()
        rounds.clear()
        sfl_G(path, action, table)
        alone.append(list(stacks))
        alone_rounds.append(len(rounds))
    stacks.clear()
    rounds.clear()
    sfl_G_each(twins, table)
    # the first stack of each block size holds the first stacks of its
    # paths' own calls, their piece differences included
    assert all(a[0] > 5 for a in alone)
    assert stacks[:8] == [sum(a[0] for a in alone[i:i + 4])
                          for i in range(0, 32, 4)]
    assert sum(stacks) == sum(map(sum, alone))
    # every block size solves once per round, and every round certifies
    # all its candidates in one call
    assert len(stacks) <= 8 * max(map(len, alone))
    assert len(stacks) < sum(map(len, alone))
    assert len(rounds) == max(alone_rounds)


def test_each_request_gets_the_error_of_its_own_call(monkeypatch):
    rng = np.random.default_rng(73)
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(3), np.diag([1.0, -1.0, 1.0])])
    other, _ = build_group("cyclic", 3)
    good = [random_equivariant_path(action, rng, plus_tail=plus, minus_tail=minus)
            for plus, minus in _TAILS]
    bad = [
        # a kernel vector at the start
        OperatorPath.affine(np.diag([0.0, 1.0, 2.0]), np.eye(3)),
        # no level certifies, at any depth (see the bisection tests above)
        OperatorPath.affine(np.diag([0.3, 0.7, 1e7]), np.zeros((3, 3)),
                            plus_tail=True, minus_tail=True),
        # a coupling across the two isotypic parts
        OperatorPath.affine(np.diag([-1.0, 1.0, 2.0]),
                            np.array([[2.0, 0.1, 0.0], [0.1, -2.0, 0.0],
                                      [0.0, 0.0, 0.0]])),
        # the first round's midpoint cannot be solved
        copy.copy(good[0]),
        # a sample deeper down cannot be solved
        copy.copy(good[1]),
    ]
    _refuse(monkeypatch, [(bad[3], lambda lams: lams == 0.5),
                          (bad[4], lambda lams: lams == 0.25)])
    requests = [(good[0], action), (bad[0], action), (good[1], action),
                (bad[1], action), (bad[2], action), (good[2], action),
                (bad[3], action), (bad[4], action), (good[3], action),
                (good[0], identity_action(group, 2)),
                (good[1], OrthogonalAction(other, [np.eye(3)] * 3))]
    opts = FlowOptions(max_depth=6)
    got = sfl_G_each(requests, table, opts)
    want = [_own_call(path, act, table, opts) for path, act in requests]
    assert [type(w).__name__ for w in want] == [
        "SflReport", "EndpointNotInvertible", "SflReport", "CertificationFailed",
        "NotEquivariant", "SflReport", "EigenFailure", "EigenFailure",
        "SflReport", "DimensionMismatch", "WrongGroup"]
    for g, w in zip(got, want):
        assert _same_flow(g, w)


@pytest.mark.parametrize("min_depth", range(3))
def test_mixed_block_sizes_get_the_outcomes_of_their_own_calls(min_depth,
                                                               monkeypatch):
    # a D3 action on dim 3 and its direct sum on dim 6, in one loop of
    # rounds, with a dim-6 path that no level certifies, a path whose
    # quarter point cannot be solved, and a path of 0 x 0 blocks, whose
    # eigenvalue rows are all padding
    rng = np.random.default_rng(74 + min_depth)
    table, action = preset_action("dihedral", 3, 3, rng, conjugate=True)
    double = direct_sum_action(action, action)
    requests = []
    for plus, minus in _TAILS:
        p, q = (random_equivariant_path(action, rng, plus_tail=plus,
                                        minus_tail=minus) for _ in "pq")
        requests += [(p, action), (direct_sum_paths(p, q), double)]
    stuck = OperatorPath.affine(np.diag([0.3, 0.7, 1e7] * 2), np.zeros((6, 6)),
                                plus_tail=True, minus_tail=True)
    refused = copy.copy(requests[5][0])
    _refuse(monkeypatch, [(refused, lambda lams: lams == 0.25)])
    requests[3:3] = [(stuck, double), (refused, double)]
    _, empty = preset_action("dihedral", 3, 0)
    requests.append((OperatorPath.affine(np.zeros((0, 0)), np.zeros((0, 0)),
                                         minus_tail=True), empty))
    opts = FlowOptions(min_depth=min_depth, max_depth=6)
    rounds = []
    tested = flow._certify

    def certifying(w, *args):
        rounds.append(len(w))
        return tested(w, *args)

    monkeypatch.setattr(flow, "_certify", certifying)
    want, own_rounds = [], []
    for path, act in requests:
        rounds.clear()
        want.append(_own_call(path, act, table, opts))
        own_rounds.append(len(rounds))
    rounds.clear()
    got = sfl_G_each(requests, table, opts)
    assert [type(w).__name__ for w in want] == [
        *["SflReport"] * 3, "CertificationFailed", "EigenFailure",
        *["SflReport"] * 6]
    for g, w in zip(got, want):
        assert _same_flow(g, w)
    # one _certify call per round, for both block sizes
    assert len(rounds) == max(own_rounds)


def _half_range(wl, wm, wr, rad):
    # the envelope the certifier takes: on each half, the range of a
    # rad-Lipschitz function through the half's two samples x and y, from
    # x / 2 + y / 2 -+ rad / 2, rounded outward by one step where rad > 0
    # and holding the samples
    lows, highs = [], []
    for x, y in ((wl, wm), (wm, wr)):
        mid, r = 0.5 * x + 0.5 * y, 0.5 * rad
        lows += [x, y, math.nextafter(mid - r, mid - r - r)]
        highs += [x, y, math.nextafter(mid + r, mid + r + r)]
    return min(lows), max(highs)


def _tube_range(wl, wm, wr, rad):
    # the envelope the certifier took before: the midpoint tube inside the
    # union of the endpoint tubes, each of radius rad
    lo = max(wm, min(wl, wr)) - rad
    hi = min(wm, max(wl, wr)) + rad
    return (wm - rad, wm + rad) if lo > hi else (lo, hi)


def _try_certify_one_segment(wl, wm, wr, errs, rad, has_tails, tol_cluster,
                             envelope=_half_range):
    # the scalar certifier the array pass replaced, on the envelope data of
    # one segment: the reference its level and margin must match bit for bit
    def fold(lo, hi):
        if hi <= 0.0:
            return (-hi, -lo)
        if lo >= 0.0:
            return (lo, hi)
        return (0.0, max(-lo, hi))

    folded = []
    for k in range(wl.size):
        folded.append(fold(*envelope(wl[k], wm[k], wr[k], rad)))
    forbidden = []
    for lo, hi in sorted(folded):
        if forbidden and lo <= forbidden[-1][1]:
            forbidden[-1] = (forbidden[-1][0], max(forbidden[-1][1], hi))
        else:
            forbidden.append((lo, hi))
    cap = 1.0
    if forbidden and not has_tails:
        cap = forbidden[-1][1] + 1.0
    norm_bound = 0.0
    for w in (wl, wm, wr):
        if w.size:
            norm_bound = max(norm_bound, float(np.max(np.abs(w))))
    norm_bound += rad
    required = max(flow.MARGIN_FLOOR, 2.0 * tol_cluster * (1.0 + norm_bound))
    best = None
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
    margin = width / 2.0 - max(errs)
    if margin <= required:
        return None
    counts = {int(np.count_nonzero(np.abs(w) <= level)) for w in (wl, wm, wr)}
    if len(counts) != 1:
        return None
    return level, margin


@pytest.mark.parametrize("n", range(9))
def test_array_certifier_matches_the_scalar_one(n):
    # eigenvalues on a grid of eighths, so envelopes tie and touch, with
    # radii and errors that empty or narrow the gaps
    rng = np.random.default_rng(80 + n)
    count = 400
    w = np.sort(rng.integers(-12, 13, size=(count, 3, n)) / 8.0, axis=2)
    w[:40] = w[:40, :1]  # flat segments
    err = rng.choice([0.0, 1e-9, 1.0 / 64.0], size=(count, 3))
    rad = rng.choice([0.0, 1.0 / 64.0, 1.0 / 16.0, 0.25, 2.0], size=count)
    tails = rng.random(count) < 0.5
    # the same envelopes padded to 8 columns, as rows of a smaller block
    # beside a larger one: one of their own columns repeated, or values
    # from the grid (zeros in flat segments)
    padded = rng.integers(-12, 13, size=(count, 3, 8)) / 8.0
    padded[:40] = 0.0
    padded[:, :, :n] = w
    if n:
        padded[200:, :, n:] = w[200:, :, rng.integers(n, size=1)]
    outcomes = set()
    for tol in (1e-8, 0.05):
        ok, level, margin = flow._certify(w, err, rad, tails, tol)
        for s in range(count):
            want = _try_certify_one_segment(w[s, 0], w[s, 1], w[s, 2],
                                            err[s].tolist(), float(rad[s]),
                                            bool(tails[s]), tol)
            got = (float(level[s]), float(margin[s])) if ok[s] else None
            assert got == want
            outcomes.add(want is None)
        got = flow._certify(padded, err, rad, tails, tol, np.full(count, n))
        assert [x.tobytes() for x in (ok, level, margin)] == [
            x.tobytes() for x in got]
    # without eigenvalues every segment certifies
    assert outcomes == ({False} if n == 0 else {True, False})


def test_array_certifier_handles_an_infinite_radius():
    w = np.array([[[-1.0, 2.0]] * 3])
    ok, _, _ = flow._certify(w, np.zeros((1, 3)), np.array([np.inf]),
                             np.array([False]), 1e-8)
    assert ok.tolist() == [False]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.sampled_from([1e-3, 0.25, 1.0, 4.0]),
       st.integers(0, 2 ** 32 - 1))
def test_envelope_holds_every_lipschitz_function_through_the_samples(
        n, speed, seed):
    # n piecewise-linear functions on [0, 1] with slopes of at most 0.999
    # times speed, some at that bound, and breakpoints at the samples 0, 1/2
    # and 1; the scan holds every breakpoint, so each function's extremes
    rng = np.random.default_rng(seed)
    t = np.unique(np.concatenate([[0.0, 0.5, 1.0],
                                  rng.random(int(rng.integers(0, 12)))]))
    slopes = speed * rng.choice(
        [-0.999, 0.0, 0.999, *rng.uniform(-0.999, 0.999, 3)],
        size=(n, len(t) - 1))
    f = rng.uniform(-1.5, 1.5, (n, 1)) + np.concatenate(
        [np.zeros((n, 1)), np.cumsum(slopes * np.diff(t), axis=1)], axis=1)
    scan = np.concatenate([f, [np.interp(np.linspace(0.0, 1.0, 257), t, row)
                               for row in f]], axis=1)
    w = f[:, t.searchsorted([0.0, 0.5, 1.0])].T[None]
    rad = speed * (1.0 - 0.0) / 2.0
    for k in range(n):
        lo, hi = _half_range(*w[0, :, k], rad)
        assert lo <= scan[k].min() and scan[k].max() <= hi
        tube_lo, tube_hi = _tube_range(*w[0, :, k], rad)
        assert tube_lo <= lo and hi <= tube_hi
    # the array certifier, bit for bit the scalar one off the grid of the
    # test above, keeps every scanned value the margin away from the level,
    # and certifies wherever the tube envelope did, with at least its margin
    # (up to the rounding of a gap's width)
    slack = 1e-15 * (1.0 + np.abs(scan).max())
    for tails in (False, True):
        ok, level, margin = flow._certify(w, np.zeros((1, 3)), np.array([rad]),
                                          np.array([tails]), 0.0)
        assert ((float(level[0]), float(margin[0])) if ok[0] else None) == (
            _try_certify_one_segment(*w[0], [0.0] * 3, rad, tails, 0.0))
        if ok[0]:
            assert np.abs(np.abs(scan) - level[0]).min() >= margin[0] - slack
        tube = _try_certify_one_segment(*w[0], [0.0] * 3, rad, tails, 0.0,
                                        _tube_range)
        if tube is not None:
            assert ok[0] and margin[0] >= tube[1] - slack


def _tube_certify(w, err, rad, tails, tol_cluster, n=None):
    # flow._certify with the tube envelope, segment by segment through the
    # scalar certifier
    ok = np.zeros(len(w), dtype=bool)
    level, margin = np.zeros(len(w)), np.zeros(len(w))
    for s in range(len(w)):
        k = w.shape[2] if n is None else n[s]
        got = _try_certify_one_segment(
            w[s, 0, :k], w[s, 1, :k], w[s, 2, :k], err[s].tolist(),
            float(rad[s]), bool(tails[s]), tol_cluster, _tube_range)
        if got is not None:
            ok[s], (level[s], margin[s]) = True, got
    return ok, level, margin


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3),
                        ("dihedral", 4)]),
       st.integers(1, 6), st.sampled_from(_TAILS[1:]),
       st.integers(0, 2 ** 32 - 1))
def test_half_ranges_coarsen_the_tube_partition_and_keep_the_classes(
        preset, dim, tails, seed):
    # paths with tails are bisected; every segment the tube envelope
    # accepts, the half ranges accept too, so their knots are a subset
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    requests = [(random_equivariant_path(action, rng, plus_tail=tails[0],
                                         minus_tail=tails[1], kind=kind), action)
                for kind in ("affine", "pl")]
    new = sfl_G_each(requests, table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "_certify", _tube_certify)
        old = sfl_G_each(requests, table)
    for a, b in zip(new, old):
        assert isinstance(a, SflReport) and isinstance(b, SflReport)
        assert set(a.partition.knots) <= set(b.partition.knots)
        assert a.sfl_G == b.sfl_G


def _verify_axioms_case_by_case(action, table, *, seed, instances, opts):
    # the loop verify_axioms replaced, one flow at a time: the reference
    # for the first error raised
    from sflow.groups import direct_sum_action

    rng = np.random.default_rng(seed)
    tail_cycle = _TAILS

    def flow_of(p, act=action):
        return sfl_G(p, act, table, opts).sfl_G

    results = []
    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_invertible_path(action, rng, plus_tail=tails[0],
                                            minus_tail=tails[1])
        got = flow_of(p)
        if not got.is_zero():
            failures.append(f"instance {i}: invertible path has flow {got}")
    results.append(("vanishing", tuple(failures)))
    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1])
        q = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1],
                                             start_block=p.block_at(1.0))
        lhs = flow_of(concatenate(p, q))
        rhs = flow_of(p) + flow_of(q)
        if lhs != rhs:
            failures.append(f"instance {i}: concatenation {lhs} != {rhs}")
        loop = flow_of(concatenate(p, reverse(p)))
        if not loop.is_zero():
            failures.append(f"instance {i}: closed loop has flow {loop}")
    results.append(("concatenation", tuple(failures)))
    failures = []
    double = direct_sum_action(action, action)
    for i in range(instances):
        tails_p, tails_q = tail_cycle[i % 4], tail_cycle[(i + 1) % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails_p[0],
                                             minus_tail=tails_p[1])
        q = sampling.random_equivariant_path(action, rng, plus_tail=tails_q[0],
                                             minus_tail=tails_q[1])
        lhs = flow_of(direct_sum_paths(p, q), double)
        rhs = flow_of(p) + flow_of(q)
        if lhs != rhs:
            failures.append(f"instance {i}: direct sum {lhs} != {rhs}")
    results.append(("direct_sum", tuple(failures)))
    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1], kind="affine")
        q = sampling.reparametrize(p, rng)
        lhs, rhs = flow_of(q), flow_of(p)
        if lhs != rhs:
            failures.append(f"instance {i}: reparametrization {lhs} != {rhs}")
    results.append(("reparametrization", tuple(failures)))
    failures = []
    for i in range(instances):
        tails = tail_cycle[i % 4]
        p = sampling.random_equivariant_path(action, rng, plus_tail=tails[0],
                                             minus_tail=tails[1])
        u = sampling.random_equivariant_orthogonal(action, rng)
        lhs = flow_of(sampling.conjugate_path(p, u))
        rhs = flow_of(p)
        if lhs != rhs:
            failures.append(f"instance {i}: conjugation {lhs} != {rhs}")
    results.append(("conjugation", tuple(failures)))
    return results


def test_verify_axioms_raises_the_error_a_case_by_case_run_raises(monkeypatch):
    # with max_depth 0 some flows fail; a draw that fails comes first only if
    # no flow requested before it failed. Both runs draw their equivariant
    # paths through PathDraws.equivariant, the one path sampler its case of
    # one draw
    rng = np.random.default_rng(5)
    table, action = preset_action("cyclic", 3, 3, rng, conjugate=True)
    real = sampling.PathDraws.equivariant
    kinds = set()
    for max_depth in (0, flow.MAX_DEPTH):
        opts = FlowOptions(max_depth=max_depth)
        for fail_at in (None, 0, 1, 2, 4, 7, 11):
            outcomes = []
            for run in (verify_axioms, _verify_axioms_case_by_case):
                drawn = []

                def draw(*args, **kwargs):
                    drawn.append(None)
                    if len(drawn) - 1 == fail_at:
                        raise OutOfRange(f"draw {fail_at} failed")
                    return real(*args, **kwargs)

                monkeypatch.setattr(sampling.PathDraws, "equivariant", draw)
                try:
                    out = run(action, table, seed=3, instances=2, opts=opts)
                    outcomes.append(
                        [(r.name, r.failures) for r in out.results]
                        if run is verify_axioms else out)
                except SflowError as e:
                    outcomes.append((type(e).__name__, str(e)))
            assert outcomes[0] == outcomes[1]
            kinds.add(outcomes[0][0] if isinstance(outcomes[0], tuple) else "ok")
    assert kinds == {"ok", "OutOfRange", "CertificationFailed"}


def _zero_rows(table):
    # the rows of a flow of class zero on a partition of one segment
    zero = np.zeros((1, table.n_irreps), dtype=np.int64)
    return flow._FlowRows(np.array([0.0, 1.0]), np.array([0.5]),
                          np.array([0.25]), zero, zero[0])


def _requests_made(run, action, table, instances, monkeypatch):
    # what run hands the certifier, bit for bit: path kind, tails, knots,
    # the samples or mat_a and mat_b, and the action; each flow reads as zero
    made = []

    def each(requests, table, *args, **kwargs):
        for path, act in requests:
            blocks = (np.stack([path.mat_a, path.mat_b])
                      if path.kind == "affine" else np.stack(path.samples))
            made.append((path.kind, path.tails, path.knots.tobytes(),
                         blocks.tobytes(), act.stack.tobytes()))
        return [_zero_rows(table) for _ in requests]

    monkeypatch.setattr(flow, "_flow_rows", each)
    run(action, table, seed=instances, instances=instances, opts=None)
    return made


@pytest.mark.parametrize("preset", [("trivial", 1), ("cyclic", 3),
                                    ("dihedral", 3), ("dihedral", 4),
                                    ("dihedral", 6)])
def test_verify_axioms_requests_the_flows_of_a_case_by_case_run(preset,
                                                                 monkeypatch):
    # the batch's stacked averages and clamp draw every path with the bits
    # of drawing it alone, dim 0 (no bump to scale) included
    for dim in range(7):
        for instances in range(1, 6):
            table, action = preset_action(*preset, dim, np.random.default_rng(
                [dim, instances]), conjugate=True)
            batched, alone = (
                _requests_made(run, action, table, instances, monkeypatch)
                for run in (verify_axioms, _verify_axioms_case_by_case))
            assert len(batched) == 12 * instances
            assert batched == alone


@pytest.mark.parametrize("n", [3, 4, 6])
def test_the_certifier_rows_are_those_of_the_reports(n, monkeypatch):
    # the flows of a seeded verify job of the dihedral group of order 2n at
    # dim 4: verify reads the certifier's rows, sfl_G_each builds reports
    table, action = preset_action("dihedral", n, 4, np.random.default_rng(n),
                                  conjugate=True)
    requests, real = [], flow._flow_rows

    def recording(reqs, *args, **kwargs):
        requests.extend(reqs)
        return real(reqs, *args, **kwargs)

    monkeypatch.setattr(flow, "_flow_rows", recording)
    assert verify_axioms(action, table, seed=n, instances=4).passed
    monkeypatch.undo()
    rows, reports = real(requests, table), sfl_G_each(requests, table)
    assert len(rows) == len(reports) == 48
    for got, report in zip(rows, reports):
        assert isinstance(report, SflReport)
        assert got.total.dtype == np.int64
        assert tuple(got.total.tolist()) == report.sfl_G.coeffs
        assert [tuple(c) for c in got.contributions.tolist()] == [
            c.coeffs for c in report.segment_contributions]
        part = report.partition
        assert [x.tobytes() for x in got[:3]] == [
            np.array(x).tobytes() for x in (part.knots, part.levels, part.margins)]
    assert any(got.total.any() for got in rows)


def test_verify_axioms_clamps_every_case_in_one_solve(monkeypatch):
    # one eigensolve before the flows, whatever instances is: every end,
    # base and bump of the job in one stack
    table, action = preset_action("dihedral", 4, 4, np.random.default_rng(2),
                                  conjugate=True)
    solves, before = [], []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solves.append(a.shape) or real(a))

    def each(requests, table, *args, **kwargs):
        before.append(list(solves))
        return [_zero_rows(table) for _ in requests]

    monkeypatch.setattr(flow, "_flow_rows", each)
    for instances in (1, 2, 5, 20):
        solves.clear()
        verify_axioms(action, table, seed=7, instances=instances)
        # 2 ends (1 for a pinned start) per path, and a base and a bump
        assert before.pop() == [(13 * instances, 4, 4)]


_PRESETS = [("trivial", 1), ("cyclic", 3), ("dihedral", 4), ("cyclic", 2)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(_PRESETS), st.integers(1, 6), st.sampled_from(_TAILS),
       st.integers(0, 2 ** 32 - 1))
def test_certified_segments_keep_every_eigenvalue_off_the_level(preset, dim,
                                                                 tails, seed):
    # a dense scan of each certified segment, separate from the certifier:
    # every computed eigenvalue stays at least the margin, less the scan's
    # own eigensolver error, away from +-level; also on the transformed
    # paths of the normal forms
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    paths = [random_equivariant_path(action, rng, plus_tail=tails[0],
                                     minus_tail=tails[1]) for _ in range(3)]
    if tails != (True, True):
        # 64 pieces whose speeds differ the most
        paths += [parametrix(p, 64).transformed_path() for p in paths]
    for path, report in zip(paths, sfl_G_each([(p, action) for p in paths],
                                              table)):
        assert isinstance(report, SflReport)
        part = report.partition
        for (a, b), level, margin in zip(zip(part.knots, part.knots[1:]),
                                         part.levels, part.margins):
            blocks = path.blocks_at(np.linspace(a, b, 33))
            w = np.linalg.eigvalsh(0.5 * blocks + 0.5 * blocks.swapaxes(1, 2))
            # backward stability of the symmetric eigensolver, generously
            scan_err = 16 * dim * EPS * (1.0 + np.abs(w).max(axis=1))
            distance = np.minimum(np.abs(w - level), np.abs(w + level)).min(axis=1)
            assert (distance >= margin - scan_err).all()


# --- fixed-end homotopy ------------------------------------------------------


def _homotopic_path(p, action, rng):
    # p moved by sin^2(pi t) B on a grid holding p's knots, with its end
    # blocks kept bit for bit: a fixed-end equivariant homotopy of p, whose
    # bump B is an equivariant symmetric draw or +-0.8 I
    grid = np.unique(np.concatenate([p.knots,
                                     np.linspace(0.0, 1.0,
                                                 int(rng.integers(3, 10)))]))
    bump = (random_equivariant_symmetric(action, rng) if rng.random() < 0.5
            else float(rng.choice([-0.8, 0.8])) * np.eye(action.dim))
    samples = p.blocks_at(grid) + (np.sin(np.pi * grid) ** 2)[:, None, None] * bump
    samples[0], samples[-1] = p.blocks_at([0.0, 1.0])
    return OperatorPath.piecewise_linear(grid, list(samples),
                                         plus_tail=p.plus_tail,
                                         minus_tail=p.minus_tail)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3),
                        ("dihedral", 4)]),
       st.integers(2, 6), st.sampled_from(_TAILS[1:]),
       st.integers(0, 2 ** 32 - 1))
def test_fixed_end_homotopy_keeps_the_flow(preset, dim, tails, seed):
    # a path with tails is bisected, so its levels and crossing locations
    # are tested, not only its endpoint data; the homotopic path has the
    # same ends, so the same flow
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    p = random_equivariant_path(action, rng, plus_tail=tails[0],
                                minus_tail=tails[1])
    q = _homotopic_path(p, action, rng)
    assert np.array_equal(q.blocks_at([0.0, 1.0]), p.blocks_at([0.0, 1.0]))
    want, got = sfl_G_each([(p, action), (q, action)], table)
    assert got.sfl_G == want.sfl_G


# --- free-end homotopy inside the invertibles ---------------------------------


def _invertible_path_to(block, action, rng, *, reach_end, tails):
    # an equivariant path of invertible blocks that ends at block (reach_end)
    # or starts there: block plus equivariant bumps of two-norm below 0.9
    # times its smallest eigenvalue magnitude, the bump at block 0, so Weyl
    # keeps every interpolated block invertible
    k = int(rng.integers(1, 4))
    gap = np.abs(np.linalg.eigvalsh(block)).min()
    bumps = random_equivariant_symmetric(action, rng, k)
    bumps *= (0.9 * gap * rng.uniform(0.1, 1.0, k)
              / np.linalg.norm(bumps, 2, axis=(1, 2)))[:, None, None]
    samples = [*(block + bumps), block]
    if not reach_end:
        samples.reverse()
    return OperatorPath.piecewise_linear(np.linspace(0.0, 1.0, k + 1),
                                         samples, plus_tail=tails[0],
                                         minus_tail=tails[1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3),
                        ("dihedral", 4)]),
       st.integers(2, 6), st.sampled_from(_TAILS[1:]),
       st.integers(0, 2 ** 32 - 1))
def test_free_end_homotopy_inside_the_invertibles_keeps_the_flow(
        preset, dim, tails, seed):
    # a p b, with a ending at p(0) and b starting at p(1) through invertible
    # equivariant blocks, is homotopic to p with its ends moving inside the
    # invertibles, so it has p's flow although its end blocks are not p's
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    p = random_equivariant_path(action, rng, plus_tail=tails[0],
                                minus_tail=tails[1])
    start, end = p.blocks_at([0.0, 1.0])
    a = _invertible_path_to(start, action, rng, reach_end=True, tails=tails)
    b = _invertible_path_to(end, action, rng, reach_end=False, tails=tails)
    q = concatenate(concatenate(a, p), b)
    assert not np.array_equal(q.block_at(0.0), start)
    want, got = sfl_G_each([(p, action), (q, action)], table)
    assert got.sfl_G == want.sfl_G


# --- isotypic oracle for the class pass -----------------------------------------


def _isotypic_class(path, action, table):
    # the flow read from the end blocks without the class pairing or the
    # multiplicity solve: irrep nu occurs in the negative space V of a block
    # tr(P_V P_nu) / degree(nu) times, P_nu its isotypical projection
    projections = np.array([groups.isotypical_projection(action, table, nu)
                            for nu in range(table.n_irreps)])
    degrees = np.array([ir.degree for ir in table.irreps])
    ends = []
    for block in path.blocks_at([0.0, 1.0]):
        w, v = np.linalg.eigh(block)
        neg = v[:, w < 0.0]
        ends.append(np.einsum("ij,nji->n", neg @ neg.T, projections) / degrees)
    raw = ends[0] - ends[1]
    coeffs = np.rint(raw)
    assert np.abs(raw - coeffs).max() < 1e-6
    return tuple(coeffs.astype(int).tolist())


def test_isotypic_oracle_matches_the_flow_on_criterion_3_paths():
    # the 200 paths of acceptance criterion 3, drawn alike: each group but C3
    # has two irreps of degree 1, so a class pass that swapped them would
    # disagree with this oracle, while the endpoint oracle, which reads the
    # same pass, would not
    rng = np.random.default_rng(20250819)
    requests, tables = [], []
    for preset, n in [("trivial", 1), ("cyclic", 2), ("cyclic", 3),
                      ("cyclic", 4), ("dihedral", 3)]:
        for i in range(40):
            dim = int(rng.integers(1, 13))
            table, action = preset_action(preset, n, dim, rng,
                                          conjugate=bool(i % 2))
            plus, minus = _TAILS[len(requests) % 4]
            requests.append((random_equivariant_path(
                action, rng, plus_tail=plus, minus_tail=minus,
                kind="affine" if len(requests) % 2 == 0 else "pl"), action))
            tables.append(table)
    reports = [sfl_G(p, a, t) for (p, a), t in zip(requests, tables)]
    telling = 0
    for (p, a), t, report in zip(requests, tables, reports):
        assert report.sfl_G.coeffs == _isotypic_class(p, a, t)
        ones = [c for c, ir in zip(report.sfl_G.coeffs, t.irreps)
                if ir.degree == 1]
        telling += len(set(ones[:2])) == 2
    # the classes that swapping the first two irreps of degree 1 changes
    assert telling >= 50
