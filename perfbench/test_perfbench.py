"""Self-tests of the benchmark: generator, span arithmetic, oracles, percentile rule.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.fresh_cli()


def output(cli, op) -> str:
    result = run.execute(cli, op)
    assert result.code == 0, result.error
    return result.text


def scaled(text: str, key: str, factor: float) -> str:
    doc = json.loads(text)
    for row in doc["outcomes"]:
        row[key] *= factor
    return json.dumps(doc)


# --- generator -----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(workload):
    first, cold = workloads.generate(workload, 7)
    again, cold_again = workloads.generate(workload, 7)
    other, _ = workloads.generate(workload, 8)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.argv for op in cold] == [op.argv for op in cold_again]
    assert [op.argv for op in first] != [op.argv for op in other]
    assert len(first) == len(other)  # the mix per pass does not depend on the seed


def test_exhaustive_respects_the_photon_cap():
    ops, _ = workloads.generate("exhaustive", 3)
    assert max(len(op.spec["label"]) for op in ops) == workloads.EXHAUSTIVE_MAX_N


# --- spans ---------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],    # overlaps b, as worker threads do
        ["b", 3.0, 6.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # sticks out of its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_traced_swap_counts_and_missing_bindings(cli):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        output(cli, workloads.swap_op("swap", 2, 1.0, 0.0))
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, {"trace.overhead_frac": 0.0})
    assert metrics["network.feed_photon.calls"]["value"] == 2
    assert metrics["network.outcomes"]["value"] > 0
    assert metrics["circuit.run_analyzer.calls"]["value"] == 0
    assert metrics["circuit.live_branches"]["value"] is None  # not measured here
    tracer.missing.add("network.swap")
    metrics = tracing.layer_metrics(tracer, 1, {"trace.overhead_frac": 0.0})
    assert metrics["network.outcomes"]["value"] is None
    assert metrics["network.self_ms"]["value"] is None
    assert metrics["network.feed_photon.calls"]["value"] == 2


# --- percentile rule -----------------------------------------------------------

def test_tail_percentile_reports_its_sample_count():
    p90 = run.tail_percentile([float(i) for i in range(1, 101)])
    assert p90["samples"] == 100
    assert p90["beyond"] == 10
    assert 90.0 < p90["value"] < 91.0


# --- oracles -------------------------------------------------------------------

def test_exhaustive_oracle_rejects_perturbed_results(cli):
    op = workloads.analyze_op("mono", "0110", eta0=0.9, omega=1.5)
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    assert check(scaled(text, "probability", 1 + 1e-6))
    doc = json.loads(text)
    row = next(r for r in doc["outcomes"] if r["classified"] == "0110")
    row["classified"] = "0111"
    assert check(json.dumps(doc))


def test_pulse_oracle_rejects_perturbed_results(cli):
    op = workloads.analyze_op("pulse", "011", sigma=workloads.FIG5_SIGMA)
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    assert check(scaled(text, "probability", 1 + 1e-6))


def test_monte_carlo_oracle_rejects_perturbed_results(cli):
    op = workloads.analyze_op("mc", "01101", eta0=0.9, omega=0.0,
                              shots=workloads.MC_SHOTS, seed=5)
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    doc = json.loads(text)
    rows = sorted(doc["outcomes"], key=lambda r: -r["probability"])
    moved = 0.15  # of all shots, from the most to the least frequent outcome
    rows[0]["probability"] -= moved
    rows[-1]["probability"] += moved
    assert check(json.dumps(doc))


def test_swap_oracle_rejects_perturbed_results(cli):
    op = workloads.swap_op("swap", 3, 0.9, 2.0)
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    assert check(scaled(text, "probability", 1 + 1e-6))
    doc = json.loads(text)
    row = next(r for r in doc["outcomes"] if isinstance(r["fidelity"], float))
    row["fidelity"] = 1.0 - 1e-6
    assert check(json.dumps(doc))


def test_efficiency_map_oracle_rejects_perturbed_results(cli):
    op = workloads.map_op("map", 3, (0.25, 4.0, 4, "linear"), (1.0, 30.0, 5, "log"))
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    head, _, last = text.rstrip("\n").rpartition("\n")
    g, k, eta = last.split(",")
    assert check(f"{head}\n{g},{k},{float(eta) * (1 + 1e-6)!r}\n")


def test_table1_oracle_rejects_perturbed_results(cli):
    op = workloads.table1_op("table1", [2, 7, 20])
    check = workloads.prepare(op)
    text = output(cli, op)
    assert check(text) == []
    for column in (1, 3):  # F_prime, eta_n_s
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[column] = repr(float(cells[column]) * (1 + 1e-6))
        lines[-1] = ",".join(cells)
        assert check("\n".join(lines) + "\n")


def test_repeated_op_must_reproduce_its_output(cli):
    op = workloads.swap_op("swap", 2, 1.0, 0.5)
    verify = run.Verifier([op])
    first = run.execute(cli, op)
    assert verify(op, first)
    assert verify(op, run.execute(cli, op))
    changed = run.Result(first.seconds, 0, first.text.replace("0.", "0.0", 1), "")
    assert not verify(op, changed)
    assert verify.failed == 1 and verify.attempted == 3


def test_reference_remote_states_are_the_predicted_ghz_states():
    ref = oracles.network_reference(3, workloads.FIG5, 0.9, -2.0)
    assert ref.remote
    for (fates, qd), vec in ref.remote.items():
        bits = oracles.decode(fates.split("/"), qd)
        if bits is not None and ref.records.get((fates, qd), 0.0) > 0.0:
            assert oracles.remote_fidelity(vec, bits) == pytest.approx(1.0, abs=1e-12)


def test_binomial_tail():
    assert oracles.binomial_tail(0, 100, 0.0) == 1.0
    assert oracles.binomial_tail(1, 100, 0.0) == 0.0
    assert oracles.binomial_tail(50, 100, 0.5) > 0.5
    assert oracles.binomial_tail(90, 100, 0.5) < oracles.MC_TAIL


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "swap", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
