"""Tests for unitary decomposition and pass-schedule synthesis.

The synthesis formulas are verified against the machine model
(`effective_unitary`), which multiplies the transfer matrices that
`loop.pass_matrix` builds from the raw coupler ticks; `tests/test_loop.py`
checks those against a tick-by-tick Fock simulation.
"""

import math

import numpy as np
import pytest

from loopqc.compiler import (
    CompileError,
    PairwiseOp,
    VerificationError,
    block_rotation_pass,
    compile_unitary,
    coupling_pass,
    pairwise_to_passes,
    phase_pass,
    reck_decompose,
    recompose,
    verify_schedule,
)
from loopqc.fock import beamsplitter_matrix, haar_unitary, phase_free_distance
from loopqc.loop import LoopConfig, LoopSchedule, effective_unitary

SEED = 40551


def embed_two(n, i, j, w):
    u = np.eye(n, dtype=complex)
    u[np.ix_((i, j), (i, j))] = w
    return u


def realized(n, passes):
    cfg = LoopConfig(n_bins=n)
    return effective_unitary(LoopSchedule.passive(cfg, passes)).matrix


# ---------------------------------------------------------------- reck


def test_reck_balanced_splitter_is_single_op():
    u = beamsplitter_matrix(math.pi / 4, 0.0)
    ops, phases = reck_decompose(u)
    assert len(ops) == 1
    op = ops[0]
    assert (op.i, op.j) == (0, 1)
    assert op.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert op.phi == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(phases, 0.0, atol=1e-12)


def test_reck_roundtrip_random():
    rng = np.random.default_rng(SEED)
    for n in range(2, 7):
        u = haar_unitary(n, rng)
        ops, phases = reck_decompose(u)
        assert len(ops) == n * (n - 1) // 2
        for op in ops:
            assert op.j == op.i + 1  # nearest-neighbour mesh
            assert -1e-12 <= op.theta <= math.pi / 2 + 1e-12
        back = recompose(ops, phases)
        assert np.max(np.abs(back - u)) < 1e-10


def test_reck_identity_gives_trivial_ops():
    ops, phases = reck_decompose(np.eye(4, dtype=complex))
    assert all(op.theta == pytest.approx(0.0, abs=1e-12) for op in ops)
    assert np.allclose(phases, 0.0, atol=1e-12)


def test_reck_rejects_non_unitary():
    with pytest.raises(ValueError):
        reck_decompose(np.ones((3, 3)))


def test_pairwise_op_matrix_includes_trailing_phases():
    op = PairwiseOp(0, 1, 0.3, 0.2, trailing_phases=(0.5, -0.4))
    m = op.matrix2()
    expected = np.diag([np.exp(0.5j), np.exp(-0.4j)]) @ beamsplitter_matrix(0.3, 0.2)
    assert np.allclose(m, expected, atol=1e-14)


# ------------------------------------------------------------ pass builders


def test_phase_pass_realizes_diagonal():
    mus = [0.0, 0.9, -2.2, math.pi]
    u = realized(4, [phase_pass(4, mus)])
    assert np.allclose(u, np.diag(np.exp(1j * np.array(mus))), atol=1e-12)


def test_block_rotation_pass_exact_permutation():
    # bin 1 jumps to bin 3, bins 2..3 shift one earlier; bin 0 stays
    u = realized(4, [block_rotation_pass(4, [(1, 3)])])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    expected[3, 1] = 1
    expected[1, 2] = 1
    expected[2, 3] = 1
    assert np.allclose(u, expected, atol=1e-12)


def test_block_rotation_two_disjoint_swaps():
    u = realized(5, [block_rotation_pass(5, [(0, 1), (3, 4)])])
    expected = np.eye(5)[:, [1, 0, 2, 4, 3]]
    assert np.allclose(u, expected, atol=1e-12)


def test_coupling_pass_places_mixer_outputs():
    """Couple bins (0, 2): outputs land on (1, 2), bystander 1 moves to 0."""
    rng = np.random.default_rng(SEED + 1)
    w = haar_unitary(2, rng)
    g = np.diag([np.exp(-1j * np.angle(w[0, 1])), 1.0]) @ w
    u = realized(3, [coupling_pass(3, 0, 2, g)])
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 0] = g[0, 0]
    expected[1, 2] = g[0, 1]
    expected[2, 0] = g[1, 0]
    expected[2, 2] = g[1, 1]
    assert np.max(np.abs(u - expected)) < 1e-12


def test_coupling_pass_rejects_bad_block():
    g = np.array([[0.0, 1j], [1.0, 0.0]])  # upper-right not real positive
    with pytest.raises(CompileError):
        coupling_pass(3, 0, 1, g)


# ------------------------------------------------------- pairwise -> passes


def check_pairwise(op, n, max_passes, *, global_ok=False):
    passes = pairwise_to_passes(op, n)
    assert len(passes) <= max_passes, (op, len(passes))
    u = realized(n, passes)
    target = embed_two(n, op.i, op.j, op.matrix2())
    if global_ok:
        err = phase_free_distance(u, target)
    else:
        err = np.max(np.abs(u - target))
    assert err < 1e-10, (op, err)
    return passes


def test_identity_op_needs_no_passes():
    assert pairwise_to_passes(PairwiseOp(0, 1, 0.0, 0.0), 3) == []


def test_diagonal_op_is_one_phase_pass():
    op = PairwiseOp(0, 2, 0.0, 0.0, trailing_phases=(0.4, -1.1))
    passes = check_pairwise(op, 4, 1)
    assert len(passes) == 1


def test_adjacent_two_bins_single_pass():
    op = PairwiseOp(0, 1, math.pi / 4, 0.0)
    passes = pairwise_to_passes(op, 2)
    assert len(passes) == 1
    u = realized(2, passes)
    target = op.matrix2()
    assert phase_free_distance(u, target) < 1e-12


def test_adjacent_in_longer_train():
    # phi = pi puts the op in the family one pass realizes exactly
    op = PairwiseOp(1, 2, 0.7, math.pi)
    passes = check_pairwise(op, 4, 1)
    assert len(passes) == 1
    # a generic phase needs one extra diagonal-correction pass
    op2 = PairwiseOp(1, 2, 0.7, 0.3)
    check_pairwise(op2, 4, 2)


def test_gap_two_coupling():
    op = PairwiseOp(0, 2, 0.6, math.pi)
    passes = check_pairwise(op, 3, 2)
    assert len(passes) == 2
    op2 = PairwiseOp(1, 3, 1.1, -0.8, trailing_phases=(0.2, 0.9))
    check_pairwise(op2, 5, 3)


def test_gap_three_coupling():
    # bins 1 and 4 of a five-bin train, three passes
    op = PairwiseOp(1, 4, 0.95, math.pi)
    passes = check_pairwise(op, 5, 3)
    assert len(passes) == 3
    op2 = PairwiseOp(0, 3, 0.5, 0.0)
    check_pairwise(op2, 4, 4)


def test_gap_four_and_five_coupling():
    check_pairwise(PairwiseOp(0, 4, 0.8, math.pi), 5, 5)
    check_pairwise(PairwiseOp(1, 6, 0.8, -2.0, trailing_phases=(0.1, 0.2)), 8, 8)


def test_pairwise_random_sweep():
    rng = np.random.default_rng(SEED + 2)
    n = 6
    for _ in range(8):
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        op = PairwiseOp(i, j, float(rng.uniform(0, math.pi / 2)),
                        float(rng.uniform(-math.pi, math.pi)),
                        trailing_phases=(float(rng.uniform(-math.pi, math.pi)),
                                         float(rng.uniform(-math.pi, math.pi))))
        gap = j - i
        bound = {1: 2, 2: 3, 3: 4}.get(gap, 2 * gap - 2)
        check_pairwise(op, n, bound)


def test_pairwise_rejects_out_of_range():
    with pytest.raises(CompileError):
        pairwise_to_passes(PairwiseOp(0, 3, 0.4, 0.0), 3)


# ---------------------------------------------------------------- compile


def test_compile_identity_is_empty():
    sched = compile_unitary(np.eye(3, dtype=complex))
    assert sched.n_passes == 0


def test_compile_diagonal_is_one_pass():
    u = np.diag([1.0, 1j, -1.0])
    sched = compile_unitary(u)
    assert sched.n_passes == 1
    assert verify_schedule(sched, u) < 1e-12


def test_compile_random_exact_and_bounded():
    rng = np.random.default_rng(SEED + 3)
    for n in range(2, 7):
        u = haar_unitary(n, rng)
        sched = compile_unitary(u)
        assert sched.n_passes <= n * (n - 1) // 2 + 1
        a = effective_unitary(sched).matrix
        # construction is exact including global phase
        assert np.max(np.abs(a - u)) < 1e-9
        assert verify_schedule(sched, u) < 1e-9


def test_compile_fourier_four_bins():
    n = 4
    w = np.exp(2j * math.pi / n)
    f = np.array([[w ** (a * b) for b in range(n)] for a in range(n)]) / 2.0
    sched = compile_unitary(f)
    assert verify_schedule(sched, f) < 1e-10


def test_compile_permutation_uses_binary_settings():
    rng = np.random.default_rng(SEED + 4)
    perm = rng.permutation(5)
    u = np.eye(5)[:, perm].astype(complex)
    sched = compile_unitary(u)
    assert verify_schedule(sched, u) < 1e-10
    for rp in sched.rounds:
        for ps in rp.passes:
            for theta, _ in ps.central:
                near_zero = abs(math.sin(theta)) < 1e-9
                near_full = abs(math.cos(theta)) < 1e-9
                assert near_zero or near_full, theta


def test_compile_dimension_mismatch():
    with pytest.raises(CompileError):
        compile_unitary(np.eye(3, dtype=complex), LoopConfig(n_bins=4))


def test_verify_schedule_detects_wrong_target():
    rng = np.random.default_rng(SEED + 5)
    u = haar_unitary(3, rng)
    v = haar_unitary(3, rng)
    sched = compile_unitary(u)
    assert verify_schedule(sched, u) < 1e-10
    assert verify_schedule(sched, v) > 1e-2


def test_verification_error_is_raised_on_bad_tolerance():
    rng = np.random.default_rng(SEED + 6)
    u = haar_unitary(4, rng)
    with pytest.raises(VerificationError):
        compile_unitary(u, tol=1e-18)  # float arithmetic cannot hit this


# -------------------------------------------------- multiphoton cross-check


def test_compiled_schedule_acts_correctly_on_two_photons():
    """Machine evolution of a compiled schedule equals direct matrix evolution."""
    from loopqc.fock import FockState, apply_mode_unitary
    from loopqc.loop import Machine

    rng = np.random.default_rng(SEED + 7)
    u = haar_unitary(3, rng)
    sched = compile_unitary(u)
    s = FockState(3, 2, {(1, 1, 0): 0.6, (0, 0, 2): 0.8})

    m = Machine(sched.config)
    m.load_pulse_train(s)
    for rp in sched.rounds:
        for ps in rp.passes:
            m.run_pass(ps)
    expected = apply_mode_unitary(s, u)
    keys = set(m.train.amplitudes) | set(expected.amplitudes)
    diff = max(abs(m.train.amplitude(k) - expected.amplitude(k)) for k in keys)
    assert diff < 1e-9


# ------------------------------------------------------- large schedules


def test_n32_compile_takes_one_pass_per_rotation():
    n = 32
    u = haar_unitary(n, np.random.default_rng([SEED, n]))
    sched = compile_unitary(u)
    assert sched.n_passes == n * (n - 1) // 2 + 1
    assert verify_schedule(sched, u) < 1e-9


def test_n64_schedule_of_2017_passes_keeps_unitarity_and_norm():
    """Compile at n=64, then run two photons through all 2,017 passes."""
    from loopqc.fock import NORM_TOL, FockState
    from loopqc.loop import Machine, run_schedule

    n = 64
    u = haar_unitary(n, np.random.default_rng([SEED, n]))
    sched = compile_unitary(u)
    assert sched.n_passes == n * (n - 1) // 2 + 1 == 2017
    a = effective_unitary(sched).matrix
    assert phase_free_distance(a, u) < 1e-9  # verify_schedule's measure
    assert np.max(np.abs(a.conj().T @ a - np.eye(n))) < NORM_TOL

    occ_a, occ_b = [0] * n, [0] * n
    occ_a[0] = occ_a[n - 1] = 1
    occ_b[n // 2] = 2
    state = FockState(n, 2, {tuple(occ_a): 0.6, tuple(occ_b): 0.8j})
    m = Machine(sched.config)
    m.load_pulse_train(state)
    final, _, trace = run_schedule(m, sched)
    assert abs(final.norm_squared() - 1.0) < NORM_TOL
    assert sum(e["event"] == "tick" for e in trace) == sched.n_passes * (n + 1)
