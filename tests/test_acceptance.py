"""End-to-end acceptance checks.

Eight criteria, one test and one printed PASS/FAIL line each. The randomized
pools are seeded, so every run exercises the same instances. Criteria 5 and 8
re-examine the criterion-3 pool, which is built once per module.
"""

import time

import numpy as np
import pytest

from sflow.cogredient import parametrix, pointwise_section
from sflow.flow import FlowOptions, morse_oracle_sfl_G, sfl_G, verify_axioms
from sflow.groups import build_group, direct_sum_action, forgetful_F
from sflow.maslov import (
    fredholm_pair_dims,
    graph_lagrangian,
    horizontal_lagrangian,
    maslov_index_G,
    maslov_operator_spectrum,
    z2_example,
)
from sflow.operators import CPS, OperatorPath, check_equivariance
from sflow.sampling import (
    identity_action,
    preset_action,
    random_equivariant_invertible,
    random_equivariant_path,
    reynolds_symmetric,
)

SEED = 20250819
GROUPS = [("trivial", 1), ("cyclic", 2), ("cyclic", 3), ("cyclic", 4),
          ("dihedral", 3)]
TAILS = [(False, False), (True, False), (False, True), (True, True)]


def _finish(num: int, failures: list, text: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"CRITERION {num} {status}: {text}")
    assert not failures, (f"criterion {num}: {len(failures)} failures, "
                          f"first: {failures[0]}")


@pytest.fixture(scope="module")
def crit3_pool():
    """200 equivariant paths over all five groups, both kinds, all tails,
    with their flow reports and endpoint-oracle values; timed."""
    rng = np.random.default_rng(SEED)
    instances = []
    idx = 0
    for preset, n in GROUPS:
        for i in range(40):
            dim = int(rng.integers(1, 13))
            table, action = preset_action(preset, n, dim, rng,
                                          conjugate=bool(i % 2))
            plus, minus = TAILS[idx % 4]
            kind = "affine" if idx % 2 == 0 else "pl"
            path = random_equivariant_path(action, rng, plus_tail=plus,
                                           minus_tail=minus, kind=kind)
            instances.append((f"{preset}_{n}[{i}]dim{dim}", path, action,
                              table))
            idx += 1
    start = time.perf_counter()
    reports = [sfl_G(p, a, t) for _, p, a, t in instances]
    oracles = [morse_oracle_sfl_G(p, a, t) for _, p, a, t in instances]
    elapsed = time.perf_counter() - start
    return instances, reports, oracles, elapsed


def test_criterion_1_golden_doubled_path():
    failures = []
    start = time.perf_counter()
    scalar = z2_example(OperatorPath.affine(np.array([[-1.0]]),
                                            np.array([[2.0]])))
    if scalar.sfl_L != 0:
        failures.append(f"doubled scalar path has plain flow {scalar.sfl_L}")
    if scalar.phi != (0, 1):
        failures.append(f"doubled scalar path maps to {scalar.phi}")
    planar = z2_example(OperatorPath.affine(np.diag([-1.0, 3.0]),
                                            np.diag([2.0, 0.0])))
    if planar.phi != (0, 1):
        failures.append(f"doubled planar path maps to {planar.phi}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _finish(1, failures, "doubled-path example gives phi = (0, 1), "
                         f"plain flow 0, in {elapsed * 1000.0:.0f}ms")


def test_criterion_2_normalization():
    failures = []
    group, table = build_group("trivial")
    p = OperatorPath.affine(np.array([[-0.5]]), np.array([[1.0]]),
                            plus_tail=True, minus_tail=True)
    report = sfl_G(p, identity_action(group, 1), table)
    if report.sfl != 1:
        failures.append(f"rank-one crossing against both tails gives "
                        f"{report.sfl}")
    _finish(2, failures, "normalizing path has flow exactly 1")


def test_criterion_3_oracle_equivalence(crit3_pool):
    instances, reports, oracles, elapsed = crit3_pool
    failures = []
    if len(instances) < 200:
        failures.append(f"only {len(instances)} instances")
    for (label, _, _, _), rep, orc in zip(instances, reports, oracles):
        if rep.sfl_G != orc:
            failures.append(f"{label}: flow {rep.sfl_G.as_dict()} vs oracle "
                            f"{orc.as_dict()}")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _finish(3, failures, f"{len(instances)} paths match the endpoint oracle "
                         f"exactly in {elapsed:.1f}s")


def test_criterion_4_axioms():
    failures = []
    per_suite: dict[str, int] = {}
    configs = [("trivial", 1, 3), ("cyclic", 2, 4), ("cyclic", 3, 5),
               ("dihedral", 3, 6)]
    for cfg_idx, (preset, n, dim) in enumerate(configs):
        rng = np.random.default_rng(SEED + cfg_idx)
        table, action = preset_action(preset, n, dim, rng,
                                      conjugate=bool(cfg_idx % 2))
        suite = verify_axioms(action, table, seed=SEED + cfg_idx, instances=25)
        for result in suite.results:
            per_suite[result.name] = per_suite.get(result.name, 0) \
                + result.instances
            for witness in result.failures:
                failures.append(f"{preset}_{n}: {result.name}: {witness}")
    for name, count in per_suite.items():
        if count < 100:
            failures.append(f"suite {name} ran only {count} instances")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(per_suite.items()))
    _finish(4, failures, f"axiom suites all pass ({counts})")


def test_criterion_5_forgetful_compatibility(crit3_pool):
    instances, reports, _, _ = crit3_pool
    failures = []
    triv_group, triv_table = build_group("trivial")
    for (label, path, _, _), rep in zip(instances, reports):
        plain = sfl_G(path, identity_action(triv_group, path.dim), triv_table)
        if forgetful_F(rep.sfl_G) != plain.sfl:
            failures.append(f"{label}: F({rep.sfl_G.as_dict()}) != {plain.sfl}")
    _finish(5, failures, f"forgetful image matches the plain flow on all "
                         f"{len(instances)} pool paths")


def test_criterion_6_parametrix():
    failures = []
    rng = np.random.default_rng(SEED + 6)
    presets = [("trivial", 1), ("cyclic", 2), ("cyclic", 3)]
    for i in range(50):
        preset, n = presets[i % 3]
        dim = int(rng.integers(2, 7))
        table, action = preset_action(preset, n, dim, rng,
                                      conjugate=bool(i % 2))
        path = random_equivariant_path(action, rng, plus_tail=True)
        label = f"path[{i}]{preset}_{n}dim{dim}"
        try:
            px = parametrix(path, samples=64)
        except Exception as e:  # noqa: BLE001 - report, keep testing the rest
            failures.append(f"{label}: {type(e).__name__}: {e}")
            continue
        norm = max(float(np.linalg.norm(path.block_at(l), 2))
                   for l in px.lambdas)
        if px.max_residual() > 1e-9 * (1.0 + norm):
            failures.append(f"{label}: residual {px.max_residual():.3e}")
        worst_m = max(check_equivariance(CPS(m), action) for m in px.M)
        if worst_m > 1e-8:
            failures.append(f"{label}: M commutator {worst_m:.3e}")
        direct = sfl_G(path, action, table).sfl_G
        moved = sfl_G(px.transformed_path(), action, table).sfl_G
        if direct != moved:
            failures.append(f"{label}: flow moved {direct.as_dict()} -> "
                            f"{moved.as_dict()}")

    for i in range(50):
        preset, n = presets[i % 3]
        dim = int(rng.integers(2, 7))
        table, action = preset_action(preset, n, dim, rng)
        block = reynolds_symmetric(action, rng.standard_normal((dim, dim)))
        if i % 3 == 0:
            # exact kernel: pad with zero rows carrying the trivial action
            k = int(rng.integers(1, 3))
            big = np.zeros((dim + k, dim + k))
            big[:dim, :dim] = block
            block = big
            action = direct_sum_action(action,
                                       identity_action(action.group, k))
        op = CPS(block, plus_tail=True, minus_tail=True)
        sec = pointwise_section(op)
        recon = sec.M @ sec.Q.block @ sec.M.T + sec.K
        norm = float(np.linalg.norm(block, 2))
        label = f"op[{i}]{preset}_{n}"
        if np.linalg.norm(block - recon, 2) > 1e-9 * (1.0 + norm):
            failures.append(f"{label}: reconstruction residual")
        if np.linalg.norm(sec.Q.block @ sec.Q.block - np.eye(len(block)),
                          2) > 1e-10:
            failures.append(f"{label}: Q is not an involution")
        worst = max(check_equivariance(CPS(x), action)
                    for x in (sec.Q.block, sec.M, sec.K))
        if worst > 1e-8:
            failures.append(f"{label}: section commutator {worst:.3e}")
    _finish(6, failures, "50 path normal forms and 50 pointwise sections "
                         "stay within tolerance, flow unchanged")


def test_criterion_7_maslov_correspondence():
    failures = []
    rng = np.random.default_rng(SEED + 7)
    presets = [("trivial", 1), ("cyclic", 2), ("cyclic", 3)]
    for i in range(100):
        preset, n = presets[i % 3]
        dim = int(rng.integers(1, 7))
        table, action = preset_action(preset, n, dim, rng,
                                      conjugate=bool(i % 2))
        path = random_equivariant_path(action, rng)
        label = f"graph[{i}]{preset}_{n}dim{dim}"
        index = maslov_index_G(path, action, table)
        flow = sfl_G(path, action, table).sfl_G
        if index != flow:
            failures.append(f"{label}: index {index.as_dict()} vs flow "
                            f"{flow.as_dict()}")
        # window spectrum at a probe parameter is arctan of the block spectrum
        block = path.block_at(0.5)
        window = []
        for e in maslov_operator_spectrum(block):
            window.extend([e.mu] * e.multiplicity)
        expected = np.arctan(np.linalg.eigvalsh(block))
        if np.max(np.abs(np.sort(window) - expected), initial=0.0) > 1e-10:
            failures.append(f"{label}: window spectrum mismatch")

    for i in range(20):
        # planted intersections: k zero rows appended to an invertible block
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(0, 3))
        table, action = preset_action("cyclic", 2, dim, rng)
        block = random_equivariant_invertible(action, rng)
        big = np.zeros((dim + k, dim + k))
        big[:dim, :dim] = block
        zero_mult = sum(e.multiplicity for e in maslov_operator_spectrum(big)
                        if abs(e.mu) <= 1e-10)
        dim_int, _ = fredholm_pair_dims(graph_lagrangian(big),
                                        horizontal_lagrangian(dim + k))
        if not zero_mult == dim_int == k:
            failures.append(f"planted[{i}]: kernel {zero_mult}, "
                            f"intersection {dim_int}, expected {k}")
    _finish(7, failures, "100 graph paths match the flow; window spectra and "
                         "kernel dimensions agree")


def test_criterion_8_certification_soundness(crit3_pool):
    instances, reports, _, _ = crit3_pool
    failures = []
    forced = FlowOptions(min_depth=4)
    for (label, path, action, table), rep in zip(instances, reports):
        if any(m <= 0.0 for m in rep.partition.margins):
            failures.append(f"{label}: nonpositive margin")
        refined = sfl_G(path, action, table, forced)
        if refined.sfl_G != rep.sfl_G:
            failures.append(f"{label}: refinement changed the flow")
        if len(refined.partition.levels) < 16:
            failures.append(f"{label}: forced refinement produced only "
                            f"{len(refined.partition.levels)} segments")
    _finish(8, failures, f"all margins positive; four forced bisection levels "
                         f"leave the flow unchanged on {len(instances)} paths")
