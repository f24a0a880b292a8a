import configparser
import importlib
import importlib.util
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ghzsim import circuit, cli
from ghzsim.circuit import run_analyzer
from ghzsim.cli import (_analyzer_config, _fmt, _settings, build_parser, cmd_analyze, main,
                        parse_state_spec)
from ghzsim.scattering import (CavityQDParams, PulseSpectrum, average_efficiency, error_prob,
                               eta1)
from ghzsim.states import GhzLabel
from oracles import pattern, reference_label


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def csv_meta(text):
    meta = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
    return meta


class TestReflectionCommand:
    def test_ideal_params_row(self, tmp_path):
        code, text = run_cli(["reflection", "--g", "30", "--kappa", "90",
                              "--kappa-s", "0", "--gamma", "0",
                              "--omega-range=-1:1:3"], tmp_path)
        assert code == 0
        rows = csv_rows(text)
        mid = rows[1]  # omega = 0
        assert float(mid["omega_ueV"]) == 0.0
        assert float(mid["eta1"]) == pytest.approx(1.0, abs=1e-12)
        assert float(mid["p2"]) == pytest.approx(0.0, abs=1e-12)

    def test_kappa_3ks_resonance_row(self, tmp_path):
        code, text = run_cli(["reflection", "--g", "30", "--kappa", "90",
                              "--kappa-s", "30", "--gamma", "0.3",
                              "--omega-range", "0:1:2"], tmp_path)
        assert code == 0
        row = csv_rows(text)[0]
        assert float(row["re_r0"]) == pytest.approx(-0.5, abs=1e-12)

    def test_columns_and_oracle_row(self, tmp_path):
        code, text = run_cli(["reflection", "--g", "30", "--kappa", "270",
                              "--kappa-s", "30", "--gamma", "0.3",
                              "--omega-range", "0:5:2"], tmp_path)
        assert code == 0
        rows = csv_rows(text)
        assert list(rows[0]) == ["omega_ueV", "re_r0", "im_r0", "re_r1", "im_r1",
                                 "eta1", "p2"]
        params = CavityQDParams.resonant(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3)
        assert float(rows[0]["eta1"]) == pytest.approx(eta1(params, 0.0), rel=1e-12)

    def test_eta1_and_p2_equal_the_scattering_functions(self, tmp_path):
        code, text = run_cli(["reflection", "--config", "paper_fig5", "--omega-x", "2.5",
                              "--omega-range=-300:300:61", "--format", "json"], tmp_path)
        assert code == 0
        params = CavityQDParams(g=30.0, kappa=270.0, kappa_s=30.0, gamma=0.3,
                                omega_c=0.0, omega_x=2.5)
        rows = json.loads(text)["rows"]
        assert len(rows) == 61
        for row in rows:
            assert row["eta1"] == eta1(params, row["omega_ueV"])
            assert row["p2"] == error_prob(params, row["omega_ueV"])

    def test_range_below_zero_is_given_with_equals(self, tmp_path):
        # "--omega-range -300:300:601" reads the value as an option (exit 2)
        code, text = run_cli(["reflection", "--omega-range=-300:300:601"], tmp_path)
        assert code == 0
        rows = csv_rows(text)
        assert len(rows) == 601
        assert (float(rows[0]["omega_ueV"]), float(rows[-1]["omega_ueV"])) == (-300.0, 300.0)

    def test_singular_point_exits_2(self, tmp_path, capsys):
        # with g = gamma = 0, r1 is 0/0 at omega = omega_x
        code, text = run_cli(["reflection", "--g", "0", "--gamma", "0", "--kappa", "1",
                              "--kappa-s", "0", "--omega-range=-1:1:3"], tmp_path)
        assert code == 2
        assert text == ""
        assert "r1 is 0/0 at omega = omega_x = 0.0 ueV" in capsys.readouterr().err


class TestEfficiencyMapCommand:
    def test_spot_values(self, tmp_path):
        code, text = run_cli(["efficiency-map", "--n", "2",
                              "--g-over-ks", "1:2:2", "--k-over-ks", "3:19:2"],
                             tmp_path)
        assert code == 0
        values = {(row["g_over_ks"], row["k_over_ks"]): float(row["eta_n_s"])
                  for row in csv_rows(text)}
        assert values[("1", "3")] == pytest.approx(0.304, rel=0.02)

    def test_three_photon_spot(self, tmp_path):
        code, text = run_cli(["efficiency-map", "--n", "3",
                              "--g-over-ks", "1:2:2", "--k-over-ks", "19:20:2"],
                             tmp_path)
        assert code == 0
        first = csv_rows(text)[0]
        assert float(first["eta_n_s"]) == pytest.approx(0.541, rel=0.02)

    def test_monotone_in_n(self, tmp_path):
        values = []
        for n in (2, 3, 4):
            _, text = run_cli(["efficiency-map", "--n", str(n),
                               "--g-over-ks", "1:2:2", "--k-over-ks", "9:10:2"],
                              tmp_path, name=f"n{n}.csv")
            values.append(float(csv_rows(text)[0]["eta_n_s"]))
        assert values[0] > values[1] > values[2]

    def test_output_ignores_threads_env(self, tmp_path, monkeypatch):
        argv = ["efficiency-map", "--n", "2", "--g-over-ks", "1:2:2", "--k-over-ks", "3:4:2"]
        code, plain = run_cli(argv, tmp_path, "plain.csv")
        monkeypatch.setenv("GHZSIM_THREADS", "2")
        _, with_env = run_cli(argv, tmp_path, "env.csv")
        assert code == 0
        assert "threads" not in csv_meta(plain)
        assert with_env == plain

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("g_axis,k_axis", [("0.25:4:5", "1:30:7"),
                                               ("0.3:3.7:4:log", "1.5:27:9:log")])
    def test_rows_match_single_point_function(self, n, g_axis, k_axis, tmp_path):
        code, text = run_cli(["efficiency-map", "--n", str(n), "--kappa-s", "30",
                              "--gamma", "0.3", "--sigma", "0.3",
                              "--g-over-ks", g_axis, "--k-over-ks", k_axis], tmp_path)
        assert code == 0
        rows = csv_rows(text)
        assert len(rows) == int(g_axis.split(":")[2]) * int(k_axis.split(":")[2])
        spec = PulseSpectrum(omega_c=0.0, sigma=0.3)
        for row in rows:
            params = CavityQDParams.resonant(g=float(row["g_over_ks"]) * 30.0,
                                             kappa=float(row["k_over_ks"]) * 30.0,
                                             kappa_s=30.0, gamma=0.3)
            assert float(row["eta_n_s"]) == pytest.approx(
                average_efficiency(params, spec, n), rel=1e-12)

    def test_quadrature_failure_exits_3_naming_worst_point(self, tmp_path, capsys):
        code, _ = run_cli(["efficiency-map", "--quad-nodes", "2", "--sigma", "60",
                           "--g-over-ks", "1:4:4", "--k-over-ks", "3:23:3"], tmp_path)
        assert code == 3
        # per-point deltas |4-node - 2-node| from the single-point function
        spec = PulseSpectrum(omega_c=0.0, sigma=60.0)
        deltas = {}
        for g_over in (1.0, 2.0, 3.0, 4.0):
            for k_over in (3.0, 13.0, 23.0):
                params = CavityQDParams.resonant(g=g_over * 30.0, kappa=k_over * 30.0,
                                                 kappa_s=30.0, gamma=0.3)
                fine = average_efficiency(params, spec, 2, nodes=2, tol=math.inf)
                coarse = average_efficiency(params, spec, 2, nodes=1, tol=math.inf)
                deltas[g_over, k_over] = abs(fine - coarse)
        (g_over, k_over), delta = max(deltas.items(), key=lambda item: item[1])
        err = capsys.readouterr().err
        assert f"moved the result by {delta:.3e}" in err
        assert f"g/kappa_s = {g_over:.6g}, kappa/kappa_s = {k_over:.6g}" in err

    def test_bad_range_exits_2(self, tmp_path):
        code, _ = run_cli(["efficiency-map", "--g-over-ks", "5:1:4"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("nodes", ["0", "129", "256"])
    def test_node_count_outside_cap_exits_2(self, nodes, tmp_path):
        code, text = run_cli(["efficiency-map", "--config", "paper_fig4",
                              "--quad-nodes", nodes], tmp_path)
        assert code == 2
        assert text == ""


class TestTable1Command:
    def test_bundled_profile_rows(self, tmp_path):
        code, text = run_cli(["table1", "--config", "paper_fig5"], tmp_path)
        assert code == 0
        rows = {row["n"]: row for row in csv_rows(text)}
        assert float(rows["2"]["F_prime"]) == pytest.approx(0.826, rel=0.01)
        assert float(rows["2"]["F_doubleprime"]) == pytest.approx(0.9989, rel=0.01)
        assert float(rows["2"]["eta_n_s"]) == pytest.approx(0.5893, rel=0.02)
        assert float(rows["5"]["F_prime"]) == pytest.approx(0.6437, rel=0.01)
        assert float(rows["5"]["eta_n_s"]) == pytest.approx(0.2666, rel=0.02)

    def test_default_params_match_profile(self, tmp_path):
        _, with_profile = run_cli(["table1", "--config", "paper_fig5"], tmp_path, "a.csv")
        _, bare = run_cli(["table1"], tmp_path, "b.csv")
        assert csv_rows(with_profile) == csv_rows(bare)

    def test_markdown_format(self, tmp_path):
        code, text = run_cli(["table1", "--n-list", "2", "--format", "md"], tmp_path)
        assert code == 0
        assert "| n | F_prime | F_doubleprime | eta_n_s |" in text

    def test_t2_override_and_validation(self, tmp_path):
        code, text = run_cli(["table1", "--n-list", "2", "--t2", "10.9,2000"], tmp_path)
        assert code == 0
        code, _ = run_cli(["table1", "--t2", "10.9"], tmp_path, "c.csv")
        assert code == 2

    def test_quadrature_failure_exits_3(self, tmp_path):
        code, _ = run_cli(["table1", "--quad-nodes", "2", "--sigma", "60",
                           "--n-list", "2"], tmp_path)
        assert code == 3

    @pytest.mark.parametrize("nodes", ["0", "129", "256"])
    def test_node_count_outside_cap_exits_2(self, nodes, tmp_path, capsys):
        # 256 nodes per rule is the cap; the convergence check doubles the count
        code, text = run_cli(["table1", "--config", "paper_fig5", "--n-list", "2",
                              "--quad-nodes", nodes], tmp_path)
        assert code == 2
        assert text == ""
        assert "1..128" in capsys.readouterr().err

    def test_invalid_photon_count_exits_2(self, tmp_path):
        code, _ = run_cli(["table1", "--n-list", "0"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_photon_list_exits_2(self, where, tmp_path, capsys):
        argv = ["table1", "--n-list", ","]
        if where == "config":
            cfg = tmp_path / "empty.cfg"
            cfg.write_text("[table]\nn =\n")
            argv = ["table1", "--config", str(cfg)]
        code, text = run_cli(argv, tmp_path)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: table1 needs at least one photon count in its n list\n")


class TestAnalyzeCommand:
    def test_bell_ideal(self, tmp_path):
        code, text = run_cli(["analyze", "BELL:phi+"], tmp_path, "a.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["classification"]["00"] == pytest.approx(1.0, abs=1e-12)
        assert doc["conclusive_probability"] == pytest.approx(1.0, abs=1e-12)
        assert doc["conditional_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_ghz_110_detector_class(self, tmp_path):
        code, text = run_cli(["analyze", "GHZ:110"], tmp_path, "a.json")
        assert code == 0
        doc = json.loads(text)
        patterns = {o["pattern"] for o in doc["outcomes"] if o["probability"] > 1e-9}
        assert patterns == {"VVH", "HHV"}
        qd = {o["qd"] for o in doc["outcomes"] if o["probability"] > 1e-9}
        assert qd == {"+-"}

    def test_realistic_monochromatic_conclusive(self, tmp_path):
        code, text = run_cli(["analyze", "GHZ:010", "--mode", "realistic",
                              "--g", "30", "--kappa", "90", "--kappa-s", "30",
                              "--gamma", "0.3", "--omega", "0"], tmp_path, "a.json")
        assert code == 0
        doc = json.loads(text)
        params = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        assert doc["conclusive_probability"] == pytest.approx(eta1(params, 0.0) ** 3,
                                                              abs=1e-12)
        assert doc["conditional_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_omega_and_sigma_conflict_exits_2(self, tmp_path):
        code, _ = run_cli(["analyze", "GHZ:01", "--mode", "realistic",
                           "--omega", "0", "--sigma", "0.3"], tmp_path, "a.json")
        assert code == 2

    @pytest.mark.parametrize("flags", [
        pytest.param(("--mode", "realistic", "--sigma", "0.6", "--quad-nodes", "257"),
                     id="257"),
        pytest.param(("--mode", "realistic", "--sigma", "0.6", "--quad-nodes", "512"),
                     id="512"),
        pytest.param(("--mode", "realistic", "--omega", "0", "--quad-nodes", "100000"),
                     id="monochromatic-100000"),
        pytest.param(("--quad-nodes", "100000"), id="ideal-100000"),
        pytest.param(("--enumeration", "monte-carlo", "--shots", "10",
                      "--quad-nodes", "100000"), id="monte-carlo-100000"),
    ])
    def test_pulse_node_count_over_cap_exits_2(self, flags, tmp_path, capsys):
        # every mode refuses the count, not only the one that builds a rule
        code, text = run_cli(["analyze", "GHZ:01", *flags], tmp_path, "a.json")
        assert code == 2
        assert text == ""
        assert "2..256" in capsys.readouterr().err

    def test_branch_array_over_budget_exits_2_before_running(self, tmp_path, capsys):
        # a pulse run is one run with envelope units, whatever its node count,
        # so it is judged by its first photon step, which passes 1 GiB
        need = circuit._step_bytes(1, 4 * 2 ** 22, 2, 22)
        start = time.perf_counter()
        code, text = run_cli(["analyze", "GHZ:" + "0" * 22, "--mode", "realistic",
                              "--sigma", "0.6", "--quad-nodes", "256"], tmp_path, "a.json")
        assert time.perf_counter() - start < 10.0
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert (f"22 photons need {need} bytes for a photon "
                f"step on 1 rows of {4 * 2 ** 22} amplitudes") in err
        assert "ROADMAP.md item 3" in err

    def test_output_over_budget_exits_2_before_its_columns(self, tmp_path, capsys,
                                                            monkeypatch):
        # at a budget one byte short of its records' output, the run itself still
        # fits, but its columns and text are refused before they are built
        argv = ["analyze", "GHZ:01101", *FIG5, "--eta0", "0.9", "--omega", "1.5"]
        code, text = run_cli(argv, tmp_path, "a.json")
        assert code == 0
        records = len(json.loads(text)["outcomes"])
        monkeypatch.setattr(cli, "MAX_STEP_BYTES", records * cli._ANALYZE_ROW_BYTES - 1)
        code, text = run_cli(argv, tmp_path, "b.json")
        assert code == 2
        assert text == ""
        assert (f"analyze output of {records} rows needs about "
                f"{records * cli._ANALYZE_ROW_BYTES} bytes") in capsys.readouterr().err

    def test_label_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # a 2^40 register cannot be allocated: refused from the label's length
        code, text = run_cli(["analyze", "GHZ:" + "0" * 40], tmp_path, "a.json")
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "40 photons need" in err
        assert f"over the {2 ** 30}-byte budget" in err

    @pytest.mark.parametrize("enumeration", ["exhaustive", "monte-carlo"])
    def test_first_step_over_budget_exits_2_before_the_register(self, enumeration, tmp_path,
                                                                 capsys):
        # the 2^23 register fits, its first photon step does not
        tracemalloc.start()
        try:
            code, text = run_cli(["analyze", "GHZ:" + "0" * 23, "--enumeration", enumeration],
                                 tmp_path, "a.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert text == ""
        assert peak < 64 * 2 ** 20
        err = capsys.readouterr().err
        assert "23 photons need" in err
        assert "bytes for a photon step on 1 rows" in err

    def test_singular_point_exits_2(self, tmp_path, capsys):
        code, text = run_cli(["analyze", "GHZ:01", "--mode", "realistic", "--g", "0",
                              "--gamma", "0", "--kappa", "1", "--kappa-s", "0", "--omega", "0"],
                             tmp_path, "a.json")
        assert code == 2
        assert text == ""
        assert "r1 is 0/0 at omega = omega_x = 0.0 ueV" in capsys.readouterr().err

    def test_non_finite_omega_exits_2(self, tmp_path, capsys):
        # ideal mode never evaluates omega, but still echoes it as metadata
        code, text = run_cli(["analyze", "GHZ:01", "--omega", "nan"], tmp_path, "a.json")
        assert code == 2
        assert text == ""
        assert "omega must be finite, got nan" in capsys.readouterr().err

    def test_monte_carlo_runs(self, tmp_path):
        code, text = run_cli(["analyze", "BELL:psi-", "--enumeration", "monte-carlo",
                              "--seed", "11", "--shots", "2000"], tmp_path, "a.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["classification"]["11"] == pytest.approx(1.0, abs=1e-12)

    def test_state_grammar(self):
        reg, label, name = parse_state_spec("GHZ:010")
        assert label == GhzLabel((0, 1, 0))
        assert reg.num_qubits == 3
        _, label, _ = parse_state_spec("BELL:psi-")
        assert label == GhzLabel((1, 1))

    @pytest.mark.parametrize("bad", ["GHZ:", "GHZ:012", "BELL:phi", "FOO:1",
                                     "psi-", "GHZ"])
    def test_invalid_specs_exit_2(self, bad, tmp_path):
        code = main(["analyze", bad, "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_csv_format_available(self, tmp_path):
        code, text = run_cli(["analyze", "BELL:phi-", "--format", "csv"], tmp_path)
        assert code == 0
        rows = csv_rows(text)
        assert {r["classified"] for r in rows if float(r["probability"]) > 1e-9} == {"01"}


FIG5 = ["--mode", "realistic", "--g", "30", "--kappa", "270", "--kappa-s", "30", "--gamma", "0.3"]


class TestAnalyzeRendering:
    """analyze output against text built here from the records' `OutcomeRecord` fields."""

    @staticmethod
    def expected(argv, fmt):
        args = build_parser().parse_args(argv)
        report = cmd_analyze(args)  # the metadata and the summary values
        config = _analyzer_config(_settings(args), args)
        photons, _, _ = parse_state_spec(args.state)
        rows = record_rows(run_analyzer(photons, config, shots=args.shots))
        if fmt == "json":
            return json.dumps({"metadata": report.metadata, **report.payload, "outcomes": rows},
                              indent=2) + "\n"
        return text_from_rows(report.metadata, list(rows[0]), rows, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    @pytest.mark.parametrize("argv", [
        pytest.param(["analyze", "BELL:psi-"], id="bell"),
        pytest.param(["analyze", "GHZ:011"], id="ghz-odd"),
        pytest.param(["analyze", "GHZ:0110", *FIG5, "--eta0", "0.8", "--omega", "0",
                      "--enumeration", "monte-carlo", "--shots", "500", "--seed", "3"],
                     id="monte-carlo"),
        pytest.param(["analyze", "GHZ:01101", *FIG5, "--eta0", "0.9", "--omega", "1.5"],
                     id="eta0-0.9"),
        # thousands of records, most of whose probabilities repeat another's
        pytest.param(["analyze", "GHZ:0110100", *FIG5, "--eta0", "0.9", "--omega", "0"],
                     id="n7-eta0-0.9"),
        pytest.param(["analyze", "GHZ:0110", *FIG5, "--sigma", "0.6"], id="pulse"),
    ])
    def test_output_matches_text_built_from_records(self, argv, fmt, tmp_path):
        code, text = run_cli(argv + ["--format", fmt], tmp_path)
        assert code == 0
        assert text == self.expected(argv + ["--format", fmt], fmt)
        if "--eta0" in argv:
            assert "D3" in text and "lost" in text


@pytest.mark.parametrize("argv", [
    pytest.param(["reflection", "--omega-range=-1:1:100000000000"], id="reflection"),
    pytest.param(["efficiency-map", "--n", "2", "--g-over-ks", "0.1:1:100000",
                  "--k-over-ks", "0.1:1:100000"], id="efficiency-map"),
])
def test_oversized_sweep_exits_2_before_its_grid(argv, tmp_path, capsys):
    tracemalloc.start()
    try:
        code, text = run_cli(argv, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert text == ""
    assert peak < 64 * 2 ** 20
    assert f"over the {2 ** 30}-byte budget" in capsys.readouterr().err


def record_rows(records) -> list[dict]:
    """analyze's outcome rows, built one record at a time from its `OutcomeRecord` fields."""
    rows = []
    for r in records:
        label = reference_label(r, len(r.fates))
        rows.append({"fates": "/".join(f.value for f in r.fates),
                     "pattern": pattern(r) if r.conclusive else "",
                     "qd": "".join(r.qd_readout) if r.qd_readout else "",
                     "probability": r.probability,
                     "classified": "inconclusive" if label is None else str(label)})
    return rows


def text_from_rows(metadata, columns, rows, fmt):
    """CSV or Markdown output written row by row from dicts."""
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [f"# {k}={_fmt(v)}" for k, v in metadata.items()]
        lines += [",".join(columns)] + [",".join(c) for c in cells]
    else:
        lines = [f"- {k}: {_fmt(v)}" for k, v in metadata.items()]
        lines += ["", "| " + " | ".join(columns) + " |",
                  "|" + "|".join(" --- " for _ in columns) + "|"]
        lines += ["| " + " | ".join(c) + " |" for c in cells]
    return "\n".join(lines) + "\n"


TABLE1_COLUMNS = ["n", "F_prime", "F_doubleprime", "eta_n_s"]
SWAP_COLUMNS = ["clicks", "qd", "probability", "predicted", "fidelity"]


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
@pytest.mark.parametrize("argv,columns", [
    pytest.param(["reflection", "--omega-range=-30:30:7"],
                 ["omega_ueV", "re_r0", "im_r0", "re_r1", "im_r1", "eta1", "p2"],
                 id="reflection"),
    pytest.param(["efficiency-map", "--g-over-ks", "0.5:3:3", "--k-over-ks", "2:20:4:log"],
                 ["g_over_ks", "k_over_ks", "eta_n_s"], id="efficiency-map"),
    pytest.param(["table1", "--n-list", "2,5,20"], TABLE1_COLUMNS, id="table1"),
    pytest.param(["swap", "--pairs", "2"], SWAP_COLUMNS, id="swap-2"),
    pytest.param(["swap", "--pairs", "3", "--mode", "realistic", "--eta0", "0.9"],
                 SWAP_COLUMNS, id="swap-3-eta0-0.9"),
    pytest.param(["swap", "--pairs", "2", "--mode", "realistic", "--omega", "1.7",
                  "--eta0", "0.5"], SWAP_COLUMNS, id="swap-2-detuned-eta0-0.5"),
])
def test_table_output_matches_text_built_from_dict_rows(argv, columns, fmt, tmp_path):
    # the JSON document is the reference: json.dumps must reproduce it, and
    # CSV and Markdown must hold its rows, written one dict at a time
    code, text = run_cli(argv + ["--format", "json"], tmp_path, "doc.json")
    assert code == 0
    doc = json.loads(text)
    rows = doc["outcomes"] if argv[0] == "swap" else doc["rows"]
    assert all(list(row) == columns for row in rows)
    assert rows
    if "--eta0" in argv:
        assert {type(row["fidelity"]) for row in rows} == {str, float}
    if fmt == "json":
        expected = json.dumps(doc, indent=2) + "\n"
    else:
        expected = text_from_rows(doc["metadata"], columns, rows, fmt)
    code, out = run_cli(argv + ["--format", fmt], tmp_path)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_columns_of_distinct_values_render_as_their_rows(fmt):
    # each distinct probability is written once and copied to its rows by index;
    # 0.0 and -0.0 are equal floats that print apart, so they must stay two values
    special = [0.0, -0.0, math.nan, math.inf, 5e-324, 0.25]
    probs = np.array(special * 3 + [0.25, -0.0, 0.0])
    digits = np.random.default_rng(5).integers(0, 5, (len(probs), 4)).astype(np.int8)
    digits[:4, :3] = 0  # records that click D1 every time: one fates key, pattern "HHH"
    records = circuit.Records(digits, probs)
    table = dict(zip(("fates", "pattern", "qd", "probability", "classified"),
                     records.columns()))
    shots = list(range(len(probs)))
    table["shot"] = shots  # a plain column passes through unchanged
    metadata = {"command": "analyze", "zero": -0.0, "tiny": 5e-324, "photons": 3}
    payload = {"state": "GHZ:000", "conditional_fidelity": None, "classification": {},
               "outcomes": table}
    rows = [{**row, "shot": shot} for row, shot in zip(record_rows(records), shots)]
    assert [repr(row["probability"]) for row in rows] == list(map(repr, probs.tolist()))
    text = cli._RENDERERS[fmt](cli.RunReport(metadata, table, payload))
    if fmt == "json":
        assert text == json.dumps({"metadata": metadata, **payload, "outcomes": rows},
                                  indent=2) + "\n"
    else:
        assert text == text_from_rows(metadata, list(table), rows, fmt)


def test_traced_bindings_resolve():
    # the traced benchmark wraps these names where they are looked up
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [(m, attr) for m, attr, _ in tracing.BINDINGS if m.startswith("ghzsim.")]
    assert bindings
    missing = []
    for module, attr in bindings:
        try:
            getattr(importlib.import_module(module), attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


class TestSwapCommand:
    def test_three_pairs_ideal(self, tmp_path):
        code, text = run_cli(["swap", "--pairs", "3"], tmp_path, "s.json")
        assert code == 0
        doc = json.loads(text)
        conclusive = [o for o in doc["outcomes"] if o["predicted"] != "inconclusive"]
        assert len(conclusive) == 16
        for o in conclusive:
            assert o["fidelity"] == pytest.approx(1.0, abs=1e-12)
            assert o["probability"] == pytest.approx(1 / 16, abs=1e-12)

    def test_two_pairs_ideal(self, tmp_path):
        code, text = run_cli(["swap", "--pairs", "2"], tmp_path, "s.json")
        assert code == 0
        doc = json.loads(text)
        conclusive = [o for o in doc["outcomes"] if o["predicted"] != "inconclusive"]
        assert len(conclusive) == 8
        assert {o["predicted"] for o in conclusive} \
            == {"phi+", "phi-", "psi+", "psi-"}

    def test_realistic_success_probability(self, tmp_path):
        code, text = run_cli(["swap", "--pairs", "3", "--mode", "realistic",
                              "--g", "30", "--kappa", "90", "--kappa-s", "30",
                              "--gamma", "0.3"], tmp_path, "s.json")
        assert code == 0
        doc = json.loads(text)
        params = CavityQDParams.resonant(g=30.0, kappa=90.0, kappa_s=30.0, gamma=0.3)
        success = sum(o["probability"] for o in doc["outcomes"]
                      if o["predicted"] != "inconclusive")
        assert success == pytest.approx(eta1(params, 0.0) ** 3, abs=1e-12)

    def test_non_finite_omega_exits_2(self, tmp_path, capsys):
        code, text = run_cli(["swap", "--pairs", "2", "--omega", "inf"], tmp_path, "s.json")
        assert code == 2
        assert text == ""
        assert "omega must be finite, got inf" in capsys.readouterr().err

    def test_sampled_enumeration_from_config_exits_2(self, tmp_path, capsys):
        # swap has no sampler: a config's monte-carlo enumeration is refused, not echoed
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("[analyzer]\nenumeration = monte-carlo\nseed = 5\n")
        code, text = run_cli(["swap", "--pairs", "2", "--config", str(cfg)], tmp_path, "s.json")
        assert code == 2
        assert text == ""
        assert "exhaustive enumeration" in capsys.readouterr().err

    def test_fig5_profile_ignores_pulse(self, tmp_path):
        # the profile's [pulse] sigma is for analyze/table1; swap stays on resonance
        code, text = run_cli(["swap", "--config", "paper_fig5", "--pairs", "2"],
                             tmp_path, "a.json")
        assert code == 0
        _, on_resonance = run_cli(["swap", "--config", "paper_fig5", "--pairs", "2",
                                   "--omega", "0.0"], tmp_path, "b.json")
        assert json.loads(text)["outcomes"] == json.loads(on_resonance)["outcomes"]
        assert "sigma" not in json.loads(text)["metadata"]

    def test_echoes_only_what_the_swap_reads(self, tmp_path):
        # a swap is exhaustive and monochromatic: it reads neither seed nor quad_nodes
        cfg = tmp_path / "f.cfg"
        cfg.write_text("[analyzer]\nseed = 5\nquad_nodes = 8\neta0 = 0.9\n")
        code, text = run_cli(["swap", "--pairs", "2", "--config", str(cfg), "--format", "csv"],
                             tmp_path, "s.csv")
        assert code == 0
        meta = csv_meta(text)
        assert "seed" not in meta and "quad_nodes" not in meta
        assert meta["eta0"] == "0.90000000000000002" and meta["enumeration"] == "exhaustive"

class TestReproducibility:
    def test_byte_identical_csv(self, tmp_path):
        args = ["table1", "--config", "paper_fig5"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a == b

    def test_byte_identical_monte_carlo_json(self, tmp_path):
        args = ["analyze", "GHZ:01", "--enumeration", "monte-carlo",
                "--seed", "7", "--shots", "500"]
        _, a = run_cli(args, tmp_path, "a.json")
        _, b = run_cli(args, tmp_path, "b.json")
        assert a == b

    def test_config_echo_complete(self, tmp_path):
        _, text = run_cli(["table1", "--n-list", "2"], tmp_path)
        meta = csv_meta(text)
        for key in ("command", "version", "g", "kappa", "kappa_s", "gamma",
                    "sigma", "eta0", "quad_nodes"):
            assert key in meta

    def test_csv_17_significant_digits(self, tmp_path):
        _, text = run_cli(["table1", "--n-list", "2"], tmp_path)
        row = csv_rows(text)[0]
        # a 17-significant-digit decimal round-trips float64 exactly
        assert float(row["eta_n_s"]) == float(format(float(row["eta_n_s"]), ".17g"))
        assert len(row["eta_n_s"].replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "my.cfg"
        cfg.write_text("[scattering]\ng = 10\nkappa = 90\nkappa_s = 30\n"
                       "gamma = 0.3\n\n[pulse]\nsigma = 0.3\n")
        _, text = run_cli(["table1", "--config", str(cfg), "--n-list", "2"],
                          tmp_path)
        assert csv_meta(text)["g"] == "10"
        _, text = run_cli(["table1", "--config", str(cfg), "--g", "20",
                           "--n-list", "2"], tmp_path, "o2.csv")
        assert csv_meta(text)["g"] == "20"

    def test_file_in_working_directory_wins_over_cached_profile(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["table1", "--config", "paper_fig5", "--n-list", "2"]
        _, text = run_cli(argv, tmp_path, "a.csv")
        assert (csv_meta(text)["config_file"], csv_meta(text)["g"]) == (
            "builtin:paper_fig5.cfg", "30")
        for g in ("12", "14"):  # the file is read again on every run
            (tmp_path / "paper_fig5.cfg").write_text(f"[scattering]\ng = {g}\n")
            _, text = run_cli(argv, tmp_path, f"{g}.csv")
            assert (csv_meta(text)["config_file"], csv_meta(text)["g"]) == (
                "paper_fig5.cfg", g)

    def test_flag_overrides_leave_the_bundled_profile_unchanged(self, tmp_path):
        argv = ["table1", "--config", "paper_fig5", "--n-list", "2,20"]
        _, before = run_cli(argv, tmp_path, "a.csv")
        _, changed = run_cli(argv + ["--g", "40", "--sigma", "1.1", "--eta0", "0.5",
                                     "--quad-nodes", "32", "--t2", "1,2"], tmp_path, "b.csv")
        assert csv_meta(changed)["g"] == "40"
        _, after = run_cli(argv, tmp_path, "c.csv")
        assert after == before
        parser = configparser.ConfigParser()
        parser.read_string((Path(cli.__file__).parent / "configs" / "paper_fig5.cfg").read_text())
        assert cli._bundled_profile("paper_fig5.cfg") == {
            section: dict(parser.items(section)) for section in parser.sections()}

    def test_missing_config_exits_2(self, tmp_path):
        code, _ = run_cli(["table1", "--config", "no-such-profile"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--shots"])
    @pytest.mark.parametrize("command", [
        ["reflection"], ["efficiency-map"], ["table1"], ["swap", "--pairs", "2"]])
    def test_sampling_flags_only_on_analyze(self, command, flag, tmp_path, capsys):
        code, text = run_cli([*command, flag, "5"], tmp_path)
        assert code == 2
        assert text == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_seed_exits_2_on_monte_carlo_runs_only(self, tmp_path, capsys):
        args = ["analyze", "GHZ:01", "--shots", "5", "--seed", "-1"]
        code, text = run_cli(args + ["--enumeration", "monte-carlo"], tmp_path)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        code, _ = run_cli(args, tmp_path, "exhaustive.json")  # reads no seed
        assert code == 0

    def test_no_state_kept_between_calls(self, tmp_path):
        args = ["analyze", "GHZ:01", "--enumeration", "monte-carlo", "--shots", "10"]
        _, seeded = run_cli(args + ["--seed", "3"], tmp_path, "a.json")
        assert json.loads(seeded)["metadata"]["seed"] == 3
        _, default = run_cli(args, tmp_path, "b.json")
        assert json.loads(default)["metadata"]["seed"] == 0

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_path_exits_2(self, where, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.json" if where == "missing-directory" else tmp_path
        assert main(["analyze", "GHZ:01", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "no-such-dir").exists()

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
