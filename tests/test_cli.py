"""End-to-end checks of the command-line interface.

Each command is run through click's CliRunner; reports go to stdout as JSON
(or CSV where documented) and diagnostics to stderr.  Determinism matters:
the same command with the same seed must produce byte-identical output.
"""

import contextlib
import gc
import hashlib
import io
import json
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from loopqc.cli import main
from loopqc.compiler import compile_unitary
from loopqc.fock import (FockState, beamsplitter_matrix, haar_unitary,
                         state_to_json, unitary_to_json)
from loopqc.loop import schedule_from_json, schedule_to_json

SEED = 771203


@pytest.fixture
def runner():
    return CliRunner()


def write(path, text):
    path.write_text(text if text.endswith("\n") else text + "\n")
    return str(path)


def unitary_file(tmp_path, m, name="u.json"):
    return write(tmp_path / name, unitary_to_json(m))


def state_file(tmp_path, state, name="state.json"):
    return write(tmp_path / name, state_to_json(state))


def schedule_file(tmp_path, m, name="sched.json"):
    return write(tmp_path / name, schedule_to_json(compile_unitary(m)))


# ------------------------------------------------------------------ compile


def test_compile_identity(runner, tmp_path):
    path = unitary_file(tmp_path, np.eye(3))
    out = tmp_path / "sched.json"
    res = runner.invoke(main, ["compile", path, "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["kind"] == "run-report"
    assert doc["command"] == "compile"
    assert doc["ok"] is True
    assert doc["n_bins"] == 3
    assert doc["max_error"] < 1e-12
    # the written schedule round-trips and matches the embedded copy
    sched = schedule_from_json(out.read_text())
    assert sched.n_passes == doc["n_passes"]
    assert json.loads(out.read_text()) == doc["schedule"]


def test_compile_nonunitary_is_input_error(runner, tmp_path):
    bad = np.eye(3)
    bad[0, 0] = 2.0
    doc = json.loads(unitary_to_json(np.eye(3)))
    doc["re"] = [[float(x) for x in row] for row in bad]
    path = write(tmp_path / "bad.json", json.dumps(doc))
    res = runner.invoke(main, ["compile", path])
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_compile_malformed_json_is_input_error(runner, tmp_path):
    path = write(tmp_path / "junk.json", "{not json")
    res = runner.invoke(main, ["compile", path])
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_compile_missing_file_is_input_error(runner, tmp_path):
    res = runner.invoke(main, ["compile", str(tmp_path / "absent.json")])
    assert res.exit_code == 1


def test_compile_impossible_tolerance_is_verification_failure(runner,
                                                              tmp_path):
    rng = np.random.default_rng(SEED)
    path = unitary_file(tmp_path, haar_unitary(6, rng))
    res = runner.invoke(main, ["compile", path, "--tol", "0.0"])
    assert res.exit_code == 2
    assert "error:" in res.stderr


# ----------------------------------------------------------------- simulate


def test_simulate_identity_counts_are_exact(runner, tmp_path):
    sched = schedule_file(tmp_path, np.eye(2))
    state = state_file(tmp_path, FockState.from_occupation((1, 0)))
    res = runner.invoke(main, ["simulate", sched, state,
                               "--shots", "100", "--seed", "11"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["histogram"] == {"1,0": 100}


def test_simulate_balanced_splitter_histogram(runner, tmp_path):
    sched = schedule_file(tmp_path, beamsplitter_matrix(np.pi / 4, 0.0))
    state = state_file(tmp_path, FockState.from_occupation((1, 0)))
    res = runner.invoke(main, ["simulate", sched, state,
                               "--shots", "10000", "--seed", "5"])
    assert res.exit_code == 0
    hist = json.loads(res.stdout)["histogram"]
    assert set(hist) == {"1,0", "0,1"}
    # binomial(10^4, 1/2): three sigma is 150
    assert abs(hist["1,0"] - 5000) < 150
    assert hist["1,0"] + hist["0,1"] == 10000


def test_simulate_two_photon_interference_suppresses_coincidence(runner,
                                                                 tmp_path):
    sched = schedule_file(tmp_path, beamsplitter_matrix(np.pi / 4, 0.0))
    state = state_file(tmp_path, FockState.from_occupation((1, 1)))
    res = runner.invoke(main, ["simulate", sched, state,
                               "--shots", "20000", "--seed", "9"])
    assert res.exit_code == 0
    hist = json.loads(res.stdout)["histogram"]
    assert "1,1" not in hist
    assert hist["2,0"] + hist["0,2"] == 20000


def test_simulate_final_state_without_shots(runner, tmp_path):
    sched = schedule_file(tmp_path, beamsplitter_matrix(np.pi / 4, 0.0))
    state = state_file(tmp_path, FockState.from_occupation((1, 1)))
    res = runner.invoke(main, ["simulate", sched, state])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    terms = {tuple(t["occ"]): complex(t["re"], t["im"])
             for t in doc["final_state"]["terms"]}
    assert set(terms) == {(2, 0), (0, 2)}
    assert abs(abs(terms[(2, 0)]) - 1 / np.sqrt(2)) < 1e-12
    assert doc["record"] == []


def test_simulate_dimension_mismatch_is_input_error(runner, tmp_path):
    sched = schedule_file(tmp_path, np.eye(2))
    state = state_file(tmp_path, FockState.from_occupation((1, 0, 0)))
    res = runner.invoke(main, ["simulate", sched, state])
    assert res.exit_code == 1
    assert "error:" in res.stderr


def test_simulate_csv_requires_shots(runner, tmp_path):
    sched = schedule_file(tmp_path, np.eye(2))
    state = state_file(tmp_path, FockState.from_occupation((1, 0)))
    res = runner.invoke(main, ["simulate", sched, state, "--format", "csv"])
    assert res.exit_code == 1


def test_simulate_csv_histogram(runner, tmp_path):
    sched = schedule_file(tmp_path, beamsplitter_matrix(np.pi / 4, 0.0))
    state = state_file(tmp_path, FockState.from_occupation((1, 1)))
    res = runner.invoke(main, ["simulate", sched, state, "--shots", "400",
                               "--seed", "2", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "outcome,count"
    counts = {}
    for line in lines[1:]:
        key, value = line.rsplit(",", 1)
        counts[key.strip('"')] = int(value)
    assert sum(counts.values()) == 400
    assert set(counts) <= {"2,0", "0,2"}


def test_simulate_trace_file(runner, tmp_path):
    sched = schedule_file(tmp_path, beamsplitter_matrix(np.pi / 3, 0.5))
    state = state_file(tmp_path, FockState.from_occupation((1, 0)))
    trace = tmp_path / "trace.jsonl"
    res = runner.invoke(main, ["simulate", sched, state,
                               "--trace", str(trace)])
    assert res.exit_code == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events[0]["event"] == "load"
    assert any(e["event"] == "tick" for e in events)


def test_simulate_out_file_matches_stdout(runner, tmp_path):
    sched = schedule_file(tmp_path, np.eye(2))
    state = state_file(tmp_path, FockState.from_occupation((1, 0)))
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["simulate", sched, state, "--shots", "10",
                               "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text() == res.stdout


# --------------------------------------------------------------------- bond


def test_bond_csv_shape(runner):
    res = runner.invoke(main, ["bond", "0.5", "0.75",
                               "--trials", "2000", "--seed", "4"])
    assert res.exit_code == 0
    header, row = res.stdout.strip().splitlines()
    assert header == "p_gate,k,trials,successes,rate,analytic_rate"
    p_gate, k, trials, successes, rate, analytic = row.split(",")
    assert p_gate == "0.5"
    assert k == "2"
    assert trials == "2000"
    assert float(analytic) == 0.75
    # binomial(2000, 3/4): three sigma is about 58
    assert abs(int(successes) - 1500) < 60
    assert float(rate) == int(successes) / 2000


def test_bond_analytic_only_row(runner):
    res = runner.invoke(main, ["bond", "0.0625", "0.99"])
    assert res.exit_code == 0
    header, row = res.stdout.strip().splitlines()
    fields = row.split(",")
    assert fields[1] == "72"
    assert fields[2] == "0"
    assert fields[3] == "" and fields[4] == ""
    assert 1 - (1 - 0.0625) ** 72 == float(fields[5])


def test_bond_json_format(runner):
    res = runner.invoke(main, ["bond", "0.5", "0.75", "--trials", "500",
                               "--seed", "8", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["command"] == "bond"
    assert doc["k"] == 2
    assert doc["successes"] is not None
    assert doc["rate"] == doc["successes"] / 500


def test_bond_bad_probabilities_are_input_errors(runner):
    for args in (["bond", "1.5", "0.75"], ["bond", "0.5", "1.0"],
                 ["bond", "0.0", "0.5"], ["bond", "0.5", "0.75",
                                          "--trials", "-3"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, args


# -------------------------------------------------------------------- gates


def test_gates_ns_postselect(runner):
    res = runner.invoke(main, ["gates", "ns", "--seed", "21"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["herald_probability"] == 0.25
    assert abs(doc["probability"] - 0.25) < 1e-10
    assert doc["fidelity"] > 1 - 1e-10
    assert doc["success"] is True


def test_gates_cz_sign_table(runner):
    for bits, sign in (("00", 1.0), ("01", 1.0), ("10", 1.0), ("11", -1.0)):
        res = runner.invoke(main, ["gates", "cz", "--bits", bits])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert abs(doc["probability"] - 1 / 16) < 1e-10
        assert doc["fidelity"] > 1 - 1e-10
        re, im = doc["logical_amplitude"]
        assert abs(re - sign) < 1e-9 and abs(im) < 1e-9
        assert doc["expected_sign"] == sign


def test_gates_fusion_postselect(runner):
    for gadget in ("fusion1", "fusion2"):
        res = runner.invoke(main, ["gates", gadget, "--seed", "3"])
        assert res.exit_code == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["success"] is True
        assert abs(doc["herald_probability"] - 0.5) < 1e-10
        assert doc["fidelity"] > 1 - 1e-9


def test_gates_sample_mode_reports_draw(runner):
    res = runner.invoke(main, ["gates", "ns", "--mode", "sample",
                               "--seed", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["success"] in (True, False)
    assert doc["herald_probability"] == 0.25


def test_gates_library_dump(runner):
    res = runner.invoke(main, ["gates", "--library"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert set(doc["gadgets"]) == {"ns", "cz", "fusion1", "fusion2"}
    assert doc["gadgets"]["cz"]["success_probability"] == 1 / 16
    assert doc["gadgets"]["cz"]["herald"]["pattern"] == [1, 0, 1, 0]
    assert doc["gadgets"]["fusion1"]["bell_pair_success_probability"] == 0.5
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
        "e12d3b3f258f057ef4071e76c026f13db134f9a362e31d1409e4c8c7160a0097")


def test_gates_bad_inputs_are_input_errors(runner):
    for args in (["gates", "nope"], ["gates"], ["gates", "ns", "--mode", "x"],
                 ["gates", "cz", "--bits", "12"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, args
        assert "error:" in res.stderr


# -------------------------------------------------------------- determinism


def test_same_seed_byte_identical_everywhere(runner, tmp_path):
    rng = np.random.default_rng(SEED)
    upath = unitary_file(tmp_path, haar_unitary(3, rng))
    sched = schedule_file(tmp_path, haar_unitary(3, rng), "s.json")
    state = state_file(tmp_path, FockState.from_occupation((1, 1, 0)))
    commands = [
        ["compile", upath, "--seed", "1"],
        ["simulate", sched, state, "--shots", "500", "--seed", "17"],
        ["simulate", sched, state],
        ["bond", "0.3", "0.9", "--trials", "400", "--seed", "6"],
        ["gates", "ns", "--mode", "sample", "--seed", "13"],
        ["gates", "fusion2", "--mode", "sample", "--seed", "13"],
    ]
    for args in commands:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0, (args, first.stderr)
        assert first.stdout_bytes == second.stdout_bytes, args


def test_different_seed_changes_samples(runner, tmp_path):
    # two photons over three modes: ten outcomes, so a count collision
    # between independent streams is essentially impossible
    rng = np.random.default_rng(SEED + 1)
    sched = schedule_file(tmp_path, haar_unitary(3, rng))
    state = state_file(tmp_path, FockState.from_occupation((1, 1, 0)))
    a = runner.invoke(main, ["simulate", sched, state, "--shots", "1000",
                             "--seed", "1"])
    b = runner.invoke(main, ["simulate", sched, state, "--shots", "1000",
                             "--seed", "2"])
    ha = json.loads(a.stdout)["histogram"]
    hb = json.loads(b.stdout)["histogram"]
    assert ha != hb


# ------------------------------------------------------------------ memory


def test_in_process_calls_release_redirected_stdout():
    """An in-process call must not keep the stream it printed to alive."""
    refs = []
    for seed in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=["bond", "0.5", "0.75", "--seed", str(seed)],
                      prog_name="loopqc", standalone_mode=False)
        assert buf.getvalue().startswith("p_gate,")
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r() for r in refs] == [None] * 3
