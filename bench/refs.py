"""Independent references and statistical tests for the output checks.

Nothing here calls into ``loopqc``: the transfer matrix of a pass is rebuilt
from the machine model documented in ``loopqc.loop`` (one coupler tick per
bin, the inner loop as an extra mode, one extra output slot, then the
one-bin relabel), so a compiled schedule is checked against an
implementation that shares no code with the simulator that verified it.
"""

from __future__ import annotations

import math

import numpy as np

# one-sided tail of the standard normal beyond 4 sigma
FOUR_SIGMA_TAIL = 3.1671241833119863e-05
# false-alarm probability per histogram bin in ``shot_count_ok``
SHOT_FALSE_ALARM = 1e-12


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _coupler(theta: float, phi: float):
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return c, -s / e, s * e, c


def pass_transfer(central, n: int) -> tuple[np.ndarray, float]:
    """Single-photon transfer matrix of one pass and the weight it strands.

    ``central`` is the pass's list of n+1 (theta, phi) ticks.  A pass with
    every tick closed only flips the sign of bin t when cos(theta_t) < 0.
    Otherwise the train streams past the coupler: tick t mixes the inner
    loop (mode n) with bin t, the last tick mixes it with a fresh slot
    n+1, and the train is relabelled from slots 1..n-1, n+1.  The returned
    leak is the largest weight any input photon leaves in slot 0 or in the
    inner loop; a valid pass leaves none.
    """
    if all(abs(math.sin(t)) < 1e-9 for t, _ in central):
        return np.diag([1.0 if math.cos(t) >= 0 else -1.0 for t, _ in central[:n]]).astype(complex), 0.0
    m = np.zeros((n + 2, n), dtype=complex)
    m[np.arange(n), np.arange(n)] = 1.0
    loop = n
    for t, (theta, phi) in enumerate(central):
        b00, b01, b10, b11 = _coupler(theta, phi)
        j = t if t < n else n + 1
        a, b = m[loop].copy(), m[j].copy()
        m[loop] = b00 * a + b01 * b
        m[j] = b10 * a + b11 * b
    leak = float(np.max(np.abs(m[0]) ** 2 + np.abs(m[loop]) ** 2))
    return m[list(range(1, n)) + [n + 1]], leak


def schedule_transfer(passes, n: int) -> tuple[np.ndarray, float]:
    """Product of the pass matrices (first pass rightmost) and the worst leak."""
    total = np.eye(n, dtype=complex)
    worst = 0.0
    for central in passes:
        t, leak = pass_transfer(central, n)
        total = t @ total
        worst = max(worst, leak)
    return total, worst


def phase_free_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over a global phase g of max |g A - B| (entrywise)."""
    tr = np.trace(b.conj().T @ a)
    g = tr.conjugate() / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.max(np.abs(g * a - b)))


def fidelity(a: dict, b: dict) -> float:
    """|<a|b>| for two states given as {occupation tuple: amplitude}."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    return abs(sum(small[k].conjugate() * big[k] for k in small if k in big))


def embed(n: int, modes, block) -> np.ndarray:
    u = np.eye(n, dtype=complex)
    u[np.ix_(modes, modes)] = block
    return u


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_within_4_sigma(successes: int, trials: int, p: float) -> bool:
    """True unless either exact binomial tail at ``successes`` is rarer
    than the normal tail beyond 4 sigma.  For large counts this is the
    usual |k - np| <= 4 sqrt(np(1-p)); for the small counts of a short run
    it keeps the same false-alarm rate, which the normal form does not."""
    if trials == 0:
        return True
    pmf = [math.exp(_log_binom_pmf(k, trials, p)) for k in range(trials + 1)]
    lower = sum(pmf[:successes + 1])
    upper = sum(pmf[successes:])
    return min(lower, upper) >= FOUR_SIGMA_TAIL


def shot_count_ok(count: int, shots: int, p: float) -> bool:
    """Bernstein bound on one multinomial bin: |count - shots p| <= t with
    P(|dev| >= t) <= SHOT_FALSE_ALARM."""
    var = shots * p * (1.0 - p)
    big_l = math.log(2.0 / SHOT_FALSE_ALARM)
    t = big_l / 3.0 + math.sqrt(big_l * big_l / 9.0 + 2.0 * big_l * var)
    return abs(count - shots * p) <= t
