"""Compile mode unitaries into pass schedules for the two-loop machine.

Pipeline: an n-mode unitary is first decomposed into a nearest-neighbour
mesh of 2x2 rotations (``reck_decompose``), then each rotation is turned
into one coupler pass by a sweep that carries residual diagonal phases
forward (``compile_unitary``).  The synthesis is exact up to float rounding:
``verify_schedule`` rebuilds the schedule's transfer matrix as the product of
its pass matrices (``loop.pass_matrix``) and reports the phase-free max-norm
error, which is typically below 1e-12.

Pass synthesis rests on three closed forms for a cascade pass over n bins
(see loop.py for the machine model).  Writing theta_t, phi_t for the tick
settings, a photon entering in bin x either stays put at its own tick
(coefficient cos theta_x, landing one bin earlier after relabeling) or rides
the inner loop and exits at a later tick t with coefficient
(-e^{-i phi_x} sin theta_x) (prod of cos over ridden ticks) (e^{i phi_t} sin theta_t).

- ``phase_pass``: all ticks fully open; bin k acquires -e^{i(phi_{k+1}-phi_k)},
  so chaining phi_{k+1} = phi_k + pi + mu_k realizes diag(e^{i mu_k}) exactly.
- ``block_rotation_pass``: closed ticks across a block make bin a jump to
  bin b while the bins in between shift one earlier — an exact permutation
  with +1 coefficients once the open ticks are phase-chained.
- ``coupling_pass``: one partially open tick at position y mixes the wire
  carrying bin x with bin y.  The realized 2x2 block (outputs on bins
  (y-1, y)) covers every unitary whose upper-right entry is real and
  non-negative; the remaining freedom is fixed by the tick phases.

A general 2x2 target W factors as diag(e^{i lam}, 1) . G with G in that
family (lam = arg W_{01}), and the leftover diagonal is either folded into
later passes (the compiler sweep) or emitted as one extra phase pass.

Blocks are validated only at the public entry points (``coupling_pass``,
``reck_decompose``, ``compile_unitary``).  The sweep builds its blocks in
scalar arithmetic and passes them unchecked to the tick builder; the
end-to-end guard is ``verify_schedule``, which every compile runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import _as_matrix, beamsplitter_matrix, embed, is_unitary, \
    phase_free_distance
from .loop import LoopConfig, LoopSchedule, PassSettings, effective_unitary

_EPS = 1e-12


class CompileError(ValueError):
    """Raised for malformed decomposition inputs."""


class VerificationError(CompileError):
    """Compiled schedule failed to reproduce the target unitary."""

    def __init__(self, message, error_norm):
        super().__init__(message)
        self.error_norm = error_norm


@dataclass(frozen=True)
class PairwiseOp:
    """A 2x2 element acting on modes (i, j): diag(e^{i lam}) . B(theta, phi).

    ``trailing_phases`` are output-side phase shifters on the two modes.
    ``reck_decompose`` emits ops with theta in [0, pi/2] and zero trailing
    phases, collecting all residual phases into one final diagonal.
    """

    i: int
    j: int
    theta: float
    phi: float
    trailing_phases: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (0 <= self.i < self.j):
            raise CompileError(f"need 0 <= i < j, got ({self.i}, {self.j})")
        object.__setattr__(self, "trailing_phases",
                           (float(self.trailing_phases[0]),
                            float(self.trailing_phases[1])))

    def matrix2(self) -> np.ndarray:
        lam = np.exp(1j * np.array(self.trailing_phases))
        return np.diag(lam) @ beamsplitter_matrix(self.theta, self.phi)


# ---------------------------------------------------------------------------
# mesh decomposition


def reck_decompose(u):
    """Triangular decomposition into nearest-neighbour 2x2 rotations.

    Returns ``(ops, phases)`` with U = diag(e^{i phases}) . T_K ... T_1 where
    T_k is ops[k-1] embedded at (i, i+1); applying the ops in list order and
    then the phases reproduces U.  Exactly n(n-1)/2 ops are emitted.
    """
    m = _as_matrix(u)
    n = m.shape[0]
    cols = m.T.tolist()  # cols[c][k] = U[k, c]; each rotation mixes two
    ops = []
    for r in range(n - 1, 0, -1):
        for c in range(r):
            a0, a1 = cols[c], cols[c + 1]
            x, v = a0[r], a1[r]
            if abs(x) < 1e-14:
                ops.append(PairwiseOp(c, c + 1, 0.0, 0.0))
                continue
            theta = math.atan2(abs(x), abs(v))
            phi = cmath.phase(x) - cmath.phase(v)
            ops.append(PairwiseOp(c, c + 1, theta, phi))
            # a <- a . B(theta, phi)^dag on columns (c, c+1); rows below r
            # are already eliminated and hold zeros in these columns
            ct, z = math.cos(theta), cmath.rect(math.sin(theta), phi)
            for k in range(r + 1):
                p, q = a0[k], a1[k]
                a0[k], a1[k] = p * ct - q * z, p * z.conjugate() + q * ct
    phases = np.array([cmath.phase(cols[k][k]) for k in range(n)])
    off = max((abs(z) for c, col in enumerate(cols)
               for k, z in enumerate(col) if k != c), default=0.0)
    if off > 1e-9:
        raise CompileError("elimination left non-diagonal residue "
                           f"{off:.3g}; input not unitary?")
    return ops, phases


def recompose(ops, phases) -> np.ndarray:
    """Inverse of reck_decompose: ops applied in list order, then the phases."""
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    a = np.eye(n, dtype=complex)
    for op in ops:
        if op.j >= n:
            raise CompileError(f"op acts on mode {op.j} but n = {n}")
        a = embed(n, (op.i, op.j), op.matrix2()) @ a
    return np.diag(np.exp(1j * phases)) @ a


# ---------------------------------------------------------------------------
# pass builders


def phase_pass(n_bins: int, phases) -> PassSettings:
    """One pass realizing diag(e^{i phases[k]}) on the bins, exactly."""
    phases = [float(p) for p in phases]
    if len(phases) != n_bins:
        raise CompileError("need one phase per bin")
    central = [(math.pi / 2, 0.0)]
    prev = 0.0
    for mu in phases:
        prev = prev + math.pi + mu
        central.append((math.pi / 2, prev))
    return PassSettings(central=tuple(central))


def block_rotation_pass(n_bins: int, blocks) -> PassSettings:
    """One pass cycling each block (a, b): bin a -> bin b, bins a+1..b each
    move one earlier.  Blocks must be disjoint.  Coefficients are exactly +1.
    """
    blocks = sorted((int(a), int(b)) for a, b in blocks)
    covered = set()
    ride = set()
    for a, b in blocks:
        if not (0 <= a < b <= n_bins - 1):
            raise CompileError(f"bad block ({a}, {b}) for {n_bins} bins")
        span = set(range(a, b + 1))
        if span & covered:
            raise CompileError("blocks overlap")
        covered |= span
        ride |= set(range(a + 1, b + 1))
    central = []
    prev = None
    for t in range(n_bins + 1):
        if t in ride:
            central.append((0.0, 0.0))
        else:
            phi = 0.0 if prev is None else prev + math.pi
            central.append((math.pi / 2, phi))
            prev = phi
    return PassSettings(central=tuple(central))


def coupling_pass(n_bins: int, x: int, y: int, g) -> PassSettings:
    """One pass applying the 2x2 block ``g`` to input bins (x, y).

    The mixed outputs land on bins (y-1, y) and the bins strictly between x
    and y shift one position earlier; everything else is untouched.  ``g``
    must be unitary with g[0, 1] real and non-negative — the family a single
    pass can realize (the bin-y -> bin-(y-1) path never enters the inner
    loop, so its coefficient is forced real by the phase chaining that pins
    every bystander coefficient to +1).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise CompileError("coupling block must be 2x2")
    if not (0 <= x < y <= n_bins - 1):
        raise CompileError(f"bad bin pair ({x}, {y}) for {n_bins} bins")
    if not is_unitary(g):
        raise CompileError("coupling block must be unitary")
    c = g[0, 1]
    if abs(c.imag) > 1e-9 or c.real < -1e-9:
        raise CompileError(
            f"upper-right entry must be real non-negative, got {c:.6g}")
    (g00, _), (g10, g11) = g.tolist()
    return _coupling(n_bins, x, y, g00, float(c.real), g10, g11)


def _coupling(n_bins, x, y, g00, g01, g10, g11) -> PassSettings:
    """``coupling_pass`` of the family block [[g00, g01], [g10, g11]], given
    as Python scalars (g01 real), with no checks."""
    c = min(max(g01, 0.0), 1.0)
    s = abs(g00)
    p = x * math.pi
    phi_m = p + math.pi + cmath.phase(g00) if s > _EPS else 0.0
    if c > _EPS:
        q = p + math.pi + cmath.phase(g10)
    else:
        q = phi_m + math.pi + cmath.phase(g11)
    central = [(math.pi / 2, t * math.pi) for t in range(x + 1)]
    central += [(0.0, 0.0)] * (y - x - 1)
    central.append((math.atan2(s, c), phi_m))
    central += [(math.pi / 2, q + k * math.pi) for k in range(n_bins - y)]
    return PassSettings(central=tuple(central))


# ---------------------------------------------------------------------------
# pairwise op -> passes


def _couple(n_bins, i, j, g):
    gap = j - i
    if gap == 1:
        return [coupling_pass(n_bins, i, j, g)]
    if gap == 2:
        # mixer outputs land on (i+1, i+2); swap (i, i+1) restores positions
        return [coupling_pass(n_bins, i, j, g),
                block_rotation_pass(n_bins, [(i, i + 1)])]
    if gap == 3:
        # bring bin j next to the wire, couple, then restore both sides
        return [block_rotation_pass(n_bins, [(j - 1, j)]),
                coupling_pass(n_bins, i, j - 1, g),
                block_rotation_pass(n_bins, [(i, i + 1), (j - 1, j)])]
    swap = block_rotation_pass(n_bins, [(j - 1, j)])
    return [swap] + _couple(n_bins, i, j - 1, g) + [swap]


def pairwise_to_passes(op: PairwiseOp, n_bins: int):
    """Expand one 2x2 op into machine passes realizing it on an n-bin train.

    The match is exact (including global phase) except for two-bin trains,
    where a single pass realizes the op up to an unobservable global phase.
    Pass counts: diagonal ops take one phase pass; ops whose 2x2 matrix has
    a real non-negative upper-right entry take j-i passes for j-i <= 3 and
    2(j-i)-3 beyond; other ops append one extra phase-correction pass.
    """
    if op.j >= n_bins:
        raise CompileError(f"op acts on bin {op.j} but the train has "
                           f"{n_bins} bins")
    w = op.matrix2()
    if np.max(np.abs(w - np.eye(2))) < _EPS:
        return []
    if abs(w[0, 1]) < _EPS:  # diagonal: pure phases
        mus = [0.0] * n_bins
        mus[op.i] = float(np.angle(w[0, 0]))
        mus[op.j] = float(np.angle(w[1, 1]))
        return [phase_pass(n_bins, mus)]
    # W = diag(e^{i lam}, 1) . G with G[0, 1] real non-negative
    lam = float(np.angle(w[0, 1]))
    g = np.diag([np.exp(-1j * lam), 1.0]) @ w
    if n_bins == 2:
        # no bystanders: absorb the leftover phase globally
        return _couple(n_bins, op.i, op.j, np.exp(-1j * lam) * w)
    passes = _couple(n_bins, op.i, op.j, g)
    if abs(np.exp(1j * lam) - 1.0) > _EPS:
        mus = [0.0] * n_bins
        mus[op.i] = lam
        passes.append(phase_pass(n_bins, mus))
    return passes


# ---------------------------------------------------------------------------
# full compilation


def compile_unitary(u, config: LoopConfig | None = None, *,
                    tol: float = 1e-9) -> LoopSchedule:
    """Compile an n-mode unitary into a verified pass schedule.

    Each mesh rotation becomes one coupling pass; diagonal phases are swept
    forward through the mesh and emitted (at most) as one final phase pass,
    so the schedule holds at most n(n-1)/2 + 1 passes.  The result is
    verified and a VerificationError raised if the phase-free max-norm
    error reaches ``tol``.
    """
    m = _as_matrix(u)
    n = m.shape[0]
    if config is None:
        config = LoopConfig(n_bins=n)
    if config.n_bins != n:
        raise CompileError(
            f"unitary has {n} modes but the machine is configured for "
            f"{config.n_bins} bins")
    ops, phases = reck_decompose(m)
    pending = [1.0 + 0j] * n
    passes = []
    for op in ops:
        i, j = op.i, op.j
        # S = B(theta, phi) . diag(pending_i, pending_j), entry by entry
        ct, st = math.cos(op.theta), math.sin(op.theta)
        e = complex(math.cos(op.phi), math.sin(op.phi))
        s00, s01 = ct * pending[i], (-st / e) * pending[j]
        s10, s11 = (st * e) * pending[i], ct * pending[j]
        if abs(s01) < _EPS and abs(s10) < _EPS:
            pending[i], pending[j] = s00, s11
            continue
        # S = diag(e^{i lam}, 1) . G with G[0, 1] real non-negative
        lam = cmath.phase(s01) if abs(s01) > _EPS else 0.0
        shift = cmath.exp(-1j * lam)
        passes.append(_coupling(n, i, j, shift * s00, (shift * s01).real,
                                s10, s11))
        pending[i] = cmath.exp(1j * lam)
        pending[j] = 1.0 + 0j
    total = np.exp(1j * phases) * pending
    if np.max(np.abs(total - 1.0)) > 1e-13:
        passes.append(phase_pass(n, np.angle(total)))
    schedule = LoopSchedule.passive(config, passes)
    err = verify_schedule(schedule, m)
    if err >= tol:
        raise VerificationError(
            f"compiled schedule misses the target by {err:.3g} "
            f"(tolerance {tol:.3g})", err)
    return schedule


def verify_schedule(schedule: LoopSchedule, u) -> float:
    """Rebuild a passive schedule's transfer matrix from its passes and
    return the phase-free max-norm distance to the target."""
    m = _as_matrix(u)
    a = effective_unitary(schedule).matrix
    if a.shape != m.shape:
        raise CompileError(
            f"schedule realizes a {a.shape[0]}-mode unitary, target is "
            f"{m.shape[0]}-mode")
    return phase_free_distance(a, m)
