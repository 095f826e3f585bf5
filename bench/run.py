"""loopqc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload compile-haar --seed 1 --seconds 20 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory, and the run fails without printing a result if it is missing.
Each run is a closed loop with one client: one process, one thread, BLAS
pinned to one thread, the next job sent when the last one returns.

``--trace 0`` prints the end-to-end metrics, with times scaled to one
reference machine speed (see SpeedProbe; the unscaled figures are in the
context line).  Set-up (a fresh import of
loopqc, the workload's shared inputs, one warm-up job) is repeated
SETUP_REPEATS times and its median reported.  Jobs then run until their
summed time reaches ``--seconds`` and at least MIN_JOBS have completed;
each output is checked outside the timed region, and a failing job counts
against ``ok_frac`` without stopping the run.  Finally the first
DETERMINISM_JOBS jobs are replayed twice with call counters installed: the
counts must match between the two replays and the outputs must match the
timed run byte for byte.

``--trace 1`` prints the per-layer metrics.  It runs jobs untraced for half
of ``--seconds``, then replays the same jobs with spans installed around the
loopqc layers (see tracer.py), reports per-job call counts and self times,
and the tracing overhead as untraced over traced jobs per second (both
speed-scaled, see SpeedProbe).  The spans are written to .bench_out/.

The last line of stdout is the result object; the line before it holds
the run's context (environment, sample counts, check details).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_JOBS = 100
DETERMINISM_JOBS = 2
# wall-clock limit on one phase of jobs, so a run ends well inside 180 s
PHASE_CAP_S = 75.0
# seconds one SpeedProbe sample takes when the machine runs at the speed the
# reported times are scaled to, and the least wall-clock time between samples
PROBE_REF_S = 0.0033
PROBE_EVERY_S = 0.02
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# spans reported as calls per job, and as self seconds per job; a self-time
# metric is named after its span except where _SPAN_OF says otherwise
_CALLS = ("fock.apply_beamsplitter", "fock.state_init", "fock.measure_modes",
          "fock.apply_mode_unitary", "loop.run_pass", "loop.effective_unitary",
          "loop.inject_extract", "compiler.verify_schedule", "gates.klm_round",
          "cluster.bond", "cluster.measure", "cluster.compose_frame",
          "cluster.neighbors", "cluster.fusion", "cluster.graph_to_fock",
          "seeding.derive_rng")
_SELF = ("fock.apply_beamsplitter", "fock.state_init", "fock.measure_modes",
         "fock.apply_mode_unitary", "loop.run_pass", "loop.effective_unitary",
         "loop.run_schedule", "loop.inject_extract", "compiler.reck_decompose",
         "compiler.synthesis", "compiler.verify_schedule", "gates.klm_round",
         "cluster.bond", "cluster.measure", "cluster.compose_frame",
         "cluster.neighbors", "cluster.fusion", "cluster.graph_to_fock",
         "cli.simulate")
_SPAN_OF = {"compiler.synthesis": "compiler.compile_unitary"}

PER_LAYER = (
    tuple((f"{name}.calls", "calls/job") for name in _CALLS)
    + tuple((f"{name}.self_s", "s/job") for name in _SELF)
    + (
        ("fock.peak_kets", "kets"),
        ("fock.state_init_share", "ratio"),
        ("loop.ticks", "ticks/job"),
        ("machine_passes_per_job", "passes"),
        ("compiler.passes_per_unitary", "passes"),
        ("compiler.verify_share", "ratio"),
        ("compiler.verify_max_error", "abs"),
        ("gates.klm_round.compile_s", "s/job"),
        ("gates.compile_calls_per_round", "calls/round"),
        ("gates.compile_share", "ratio"),
        ("gates.herald_success_ratio.cz", "ratio"),
        ("gates.herald_success_ratio.ns", "ratio"),
        ("cluster.bond_success_ratio", "ratio"),
        ("cluster.branches_consumed", "pairs/job"),
        ("cluster.fusion_success_ratio", "ratio"),
        ("cli.bytes_out", "bytes/job"),
        ("trace.jobs_per_s", "jobs/s"),
        ("trace.untraced_jobs_per_s", "jobs/s"),
        ("trace.overhead", "ratio"),
        ("trace.spans", "count"),
    )
)


def _probe_kernel():
    """Fixed work of the kinds the workloads do, in about equal parts: a
    dict of occupation tuples under complex mixing (Fock states), neighbour
    scans over a set of frozenset edges (graphs), and 2x2 complex matrix
    products (frames, couplers).  It shares no code with loopqc."""
    n, keys = 8, []
    for a in range(n):
        for b in range(a, n):
            for c in range(b, n):
                occ = [0] * n
                occ[a] += 1
                occ[b] += 1
                occ[c] += 1
                keys.append(tuple(occ))
    state = {k: complex(1.0 / (1 + i), 0.5) for i, k in enumerate(keys)}
    for t in range(10):
        i, j = t % n, (t + 1) % n
        out = {}
        for occ, amp in state.items():
            lst = list(occ)
            p, q = lst[i], lst[j]
            lst[i], lst[j] = q, p
            key = tuple(lst)
            out[key] = out.get(key, 0j) + amp * (0.955 if p == q else 0.296)
        state = out
    edges = (frozenset(frozenset((0, j)) for j in range(1, 73))
             | frozenset(frozenset((j, j + 1)) for j in range(1, 72)))
    for v in range(73):
        frozenset(w for e in edges if v in e for w in e - {v})
    m = np.eye(2, dtype=complex)
    for _ in range(12):
        m = np.round(m @ _HADAMARD, 8)
        np.allclose(m.conj().T @ m, np.eye(2), atol=1e-10)


class SpeedProbe:
    """Tracks how fast the machine runs, so that times can be reported at
    one reference speed.

    On a shared VM the speed of every kind of work swings together, by up
    to 1.5x between runs a minute apart and by tens of percent within a
    second.  After each job (outside the timed region, and at most every
    PROBE_EVERY_S) the probe times a fixed kernel; a job's time is scaled by
    PROBE_REF_S over the median of the four samples nearest to it.  A change
    to loopqc moves job times but not probe times, so it shows in the scaled
    figures; a machine slowdown moves both and cancels.
    """

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []
        self._due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        _probe_kernel()
        self.cost.append(time.perf_counter() - t0)
        self.at.append(t0)

    def maybe_sample(self):
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + PROBE_EVERY_S

    def scaled_busy(self, phase, n=None) -> float:
        """Speed-scaled summed time of the first ``n`` jobs of ``phase``."""
        return sum(dt * self.scale(t0) for t0, dt in list(zip(phase.starts, phase.latencies))[:n])

    def scale(self, t: float) -> float:
        """Reference seconds per measured second around time ``t``."""
        k = bisect.bisect(self.at, t)
        return PROBE_REF_S / statistics.median(self.cost[max(0, k - 2):k + 2])


@dataclass
class Phase:
    """Jobs run back to back, with their latencies and outcomes."""

    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    busy_s: float = 0.0


def run_jobs(wl, stop, tracer=None, check=True, probe=None) -> Phase:
    """Run jobs 0, 1, ... until ``stop(jobs_done, busy_seconds)``.

    Only ``wl.run`` is timed (and traced); input generation, the output
    check and the speed probe happen outside that region.
    """
    phase = Phase()
    clock = time.perf_counter
    i = 0
    while not stop(i, phase.busy_s):
        inp = wl.make_input(i)
        problem = None
        if tracer is not None:
            tracer.job, tracer.active = i, True
        t0 = clock()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failing job is counted, and the run goes on
            out, problem = None, f"raised {exc!r}"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.active = False
        phase.latencies.append(elapsed)
        phase.starts.append(t0)
        phase.busy_s += elapsed
        phase.digests.append(None if out is None else wl.digest(out))
        phase.passes.append(0 if out is None else wl.passes(inp, out))
        if out is not None and check:
            try:
                problem = wl.check(inp, out)
            except Exception as exc:
                problem = f"check raised {exc!r}"
        if problem:
            phase.failures.append(f"job {i}: {problem}")
        if probe is not None:
            probe.maybe_sample()
        i += 1
    return phase


def timed_stop(seconds: float, min_jobs: int, block: int):
    """Stop after whole blocks of jobs, so every run sees the same job mix."""
    cap = time.perf_counter() + PHASE_CAP_S
    return lambda i, busy: ((busy >= seconds and i >= min_jobs and i % block == 0)
                            or time.perf_counter() >= cap)


def replay_stop(n: int):
    cap = time.perf_counter() + PHASE_CAP_S
    return lambda i, busy: i >= n or time.perf_counter() >= cap


def determinism_problems(wl, phase: Phase, n_jobs: int) -> list[str]:
    """Replay the first jobs twice with counters on: same counts, same outputs."""
    from tracer import Tracer

    seen = []
    for _ in range(2):
        tracer = Tracer(max_spans=0)
        tracer.install(wl.lq)
        try:
            replay = run_jobs(wl, replay_stop(n_jobs), tracer=tracer, check=False)
        finally:
            tracer.uninstall()
        seen.append((dict(zip(tracer.names, tracer.calls)), tracer.ticks,
                     tracer.compiled_passes, replay.passes, replay.digests))
    problems = []
    if seen[0][:4] != seen[1][:4]:
        problems.append(f"call counts differ between two replays of the same seed: {seen[0][:4]} vs {seen[1][:4]}")
    for k, digest in enumerate(seen[0][4]):
        if k >= len(phase.digests) or digest != phase.digests[k] or digest != seen[1][4][k]:
            problems.append(f"job {k} output differs when replayed")
    return problems


def setup_workload(cls, seed: int, workdir: Path, repeats: int, probe=None):
    """Set the workload up ``repeats`` times; return the last one and the times."""
    from workloads import Loopqc

    times = []
    for _ in range(repeats):
        if probe is not None:
            for _ in range(3):
                probe.sample()
        t0 = time.perf_counter()
        wl = cls(Loopqc(), seed, workdir)
        wl.setup()
        times.append((t0, time.perf_counter() - t0))
    return wl, times


def _quantile(values, q: int) -> float:
    """q-th percentile (q in 10..90 by 10) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(phase: Phase, setups: list, scale=lambda t: 1.0) -> dict:
    """The end-to-end metrics, with every time multiplied by ``scale(start)``."""
    lat = [dt * scale(t0) for t0, dt in zip(phase.starts, phase.latencies)]
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": _quantile(lat, 90) * 1e3,
        "ok_frac": 1.0 - len(phase.failures) / len(lat),
        "setup_s": statistics.median(dt * scale(t0) for t0, dt in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tracer, traced: Phase, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced phase.  ``traced_s`` and ``untraced_s``
    are the speed-scaled job times of the same jobs with and without spans."""
    jobs = len(traced.latencies)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{name}.calls": tracer.stat(name)[0] / jobs for name in _CALLS}
    values.update({f"{name}.self_s": tracer.stat(_SPAN_OF.get(name, name))[1] / jobs for name in _SELF})
    compile_in_klm = ("compiler.compile_unitary", "gates.klm_round")
    values.update({
        "fock.peak_kets": tracer.peak_kets,
        "fock.state_init_share": ratio(tracer.nested_s[("fock.state_init", "loop.effective_unitary")],
                                       tracer.stat("loop.effective_unitary")[2]),
        "loop.ticks": tracer.ticks / jobs,
        "machine_passes_per_job": statistics.fmean(traced.passes),
        "compiler.passes_per_unitary": statistics.fmean(tracer.compiled_passes or [0]),
        "compiler.verify_share": ratio(tracer.nested_s[("compiler.verify_schedule", "compiler.compile_unitary")],
                                       tracer.stat("compiler.compile_unitary")[2]),
        "compiler.verify_max_error": tracer.verify_max_error,
        "gates.klm_round.compile_s": tracer.nested_s[compile_in_klm] / jobs,
        "gates.compile_calls_per_round": ratio(tracer.nested_calls[compile_in_klm],
                                               tracer.stat("gates.klm_round")[0]),
        "gates.compile_share": ratio(tracer.nested_s[compile_in_klm], tracer.stat("gates.klm_round")[2]),
        "trace.jobs_per_s": jobs / traced_s,
        "trace.untraced_jobs_per_s": jobs / untraced_s,
        "trace.overhead": traced_s / untraced_s,
        "trace.spans": tracer.n_spans,
    })
    # metrics of layers this workload does not reach read 0
    values.update(wl.layer_metrics())
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def environment() -> dict:
    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "loopqc").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "src_loopqc_lines": loc}


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        min_jobs: int = MIN_JOBS, setup_repeats: int = SETUP_REPEATS,
        determinism_jobs: int = DETERMINISM_JOBS, patch=None):
    """Run one workload; return (result object, context dict).

    ``patch(wl)``, if given, is applied to the set-up workload before any
    job runs; the self-tests use it to plant a wrong reference.
    """
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        probe = SpeedProbe()
        wl, setups = setup_workload(cls, seed, workdir, 1 if trace else setup_repeats, probe)
        if patch is not None:
            patch(wl)
        gc.collect()
        info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                "env": environment()}
        if trace:
            result = _traced(wl, workload, seed, seconds, min_jobs, probe, info)
        else:
            phase = run_jobs(wl, timed_stop(seconds, min_jobs, len(wl.pattern)), probe=probe)
            probe.sample()
            problems = determinism_problems(wl, phase, determinism_jobs) + wl.stats_problems()
            info.update(samples=len(phase.latencies), busy_s=phase.busy_s,
                        machine_passes_per_job=statistics.fmean(phase.passes),
                        probe_median_s=statistics.median(probe.cost), probe_samples=len(probe.cost),
                        unscaled=end_to_end(phase, setups),
                        failures=phase.failures[:10], problems=problems, **wl.layer_metrics())
            metrics = end_to_end(phase, setups, probe.scale)
            result = _result(not phase.failures and not problems, len(phase.latencies),
                             len(phase.failures), metrics, END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, info


def _traced(wl, workload, seed, seconds, min_jobs, probe, info) -> dict:
    from tracer import Tracer

    untraced = run_jobs(wl, timed_stop(seconds / 2, max(1, min_jobs // 2), len(wl.pattern)),
                        probe=probe)
    tracer = Tracer()
    tracer.install(wl.lq)
    try:
        traced = run_jobs(wl, replay_stop(len(untraced.latencies)), tracer=tracer, check=False,
                          probe=probe)
    finally:
        tracer.uninstall()
    probe.sample()
    n = len(traced.latencies)
    mismatched = [k for k in range(n) if traced.digests[k] != untraced.digests[k]]
    problems = wl.stats_problems() + [f"job {k} output changed under tracing" for k in mismatched]
    path = OUT / f"trace-{workload}-seed{seed}.npz"
    tracer.save(path)
    metrics = per_layer(wl, tracer, traced, probe.scaled_busy(traced), probe.scaled_busy(untraced, n))
    info.update(samples=len(untraced.latencies), traced_samples=n, spans_file=str(path.relative_to(ROOT)),
                failures=untraced.failures[:10], problems=problems)
    failed = len(untraced.failures) + len(mismatched)
    return _result(not untraced.failures and not problems, len(untraced.latencies) + n,
                   failed, metrics, PER_LAYER)


def _result(correct, attempted, failed, values, spec) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopqc" / "__init__.py").is_file():
        print(f"error: no loopqc package at {SRC / 'loopqc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
