"""Self-tests of the benchmark itself (not of loopqc).

    python3 bench/selftest.py            # or: python3 -m pytest -q bench/selftest.py

Tiny runs of every workload must print every metric named in
BENCHMARK.json with its unit and pass their checks; a planted wrong
reference must make jobs fail rather than pass silently; the reference
pass model must agree with the simulator it checks; and the benchmark must
refuse to run where the package source is missing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Loopqc  # noqa: E402

TINY = {"seconds": 0.05, "min_jobs": 4, "setup_repeats": 1, "determinism_jobs": 1}


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]


def test_tiny_runs_print_every_metric():
    for workload, trace in itertools.product(WORKLOADS, (False, True)):
        result, info = run.run(workload, 1, trace=trace, **TINY)
        spec = run.PER_LAYER if trace else run.END_TO_END
        assert result["correct"], (workload, trace, info)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(spec)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _perturb(field, change):
    """A patch that hands ``check`` a wrong reference in input ``field``."""
    def patch(wl):
        check = wl.check

        def wrong_check(inp, out):
            return check(dataclasses.replace(inp, **{field: change(getattr(inp, field))}), out)
        wl.check = wrong_check
    return patch


def test_wrong_reference_fails_jobs():
    rng = np.random.default_rng(5)
    nudge = lambda u: u @ refs.embed(len(u), (0, 1), [[np.cos(1e-6), -np.sin(1e-6)],  # noqa: E731
                                                      [np.sin(1e-6), np.cos(1e-6)]])
    cases = {"compile-haar": _perturb("target", nudge),
             "simulate-photons": _perturb("target", lambda u: refs.haar(len(u), rng)),
             "cluster-grow": _perturb("k", lambda k: k + 1)}
    for workload, patch in cases.items():
        result, _ = run.run(workload, 1, trace=False, patch=patch, **TINY)
        assert not result["correct"], workload
        assert result["failed"] == result["attempted"], (workload, result)


def test_wrong_gate_reference_fails_heralded_rounds():
    def other_state(state):
        amps = dict(state.amplitudes)
        first = min(amps)
        amps[first] = -amps[first]
        return type(state)(state.n_modes, state.total_photons, amps)

    heralds = {}

    def patch(wl):
        _perturb("logical", other_state)(wl)
        heralds["wl"] = wl

    result, _ = run.run("klm-rounds", 1, trace=False, patch=patch, **dict(TINY, min_jobs=24))
    n_heralded = sum(heralds["wl"].heralds.values())
    assert n_heralded >= 1
    assert result["failed"] == n_heralded and not result["correct"]


def test_nondeterministic_output_is_caught():
    counter = itertools.count()

    def patch(wl):
        wl.digest = lambda out: next(counter)

    result, info = run.run("cluster-grow", 1, trace=False, patch=patch, **TINY)
    assert not result["correct"] and info["problems"]


def test_reference_pass_model_matches_the_simulator():
    lq = Loopqc()
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 7):
        target = refs.haar(n, rng)
        schedule = lq.compiler.compile_unitary(target)
        passes = [ps.central for rp in schedule.rounds for ps in rp.passes]
        mine, leak = refs.schedule_transfer(passes, n)
        theirs = lq.loop.effective_unitary(schedule).matrix
        assert leak < 1e-20 and np.max(np.abs(mine - theirs)) < 1e-12


def test_binomial_check():
    assert refs.binomial_within_4_sigma(25, 100, 0.25)
    assert refs.binomial_within_4_sigma(0, 10, 1 / 16)
    assert not refs.binomial_within_4_sigma(50, 100, 0.25)
    assert not refs.binomial_within_4_sigma(0, 400, 1 / 16)


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "compile-haar", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
