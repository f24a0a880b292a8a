import json
import math
import time

import pytest

from ghzsim.cli import main, parse_state_spec
from ghzsim.scattering import CavityQDParams, PulseSpectrum, average_efficiency, eta1
from ghzsim.states import GhzLabel


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
        # 256 rows of a 2^17 x 4 vector are 2 GiB before the first photon
        start = time.perf_counter()
        code, text = run_cli(["analyze", "GHZ:" + "0" * 17, "--mode", "realistic",
                              "--sigma", "0.6", "--quad-nodes", "256"], tmp_path, "a.json")
        assert time.perf_counter() - start < 10.0
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert "17 photons with 256 quadrature node(s)" in err
        assert str(2 ** 31) in err
        assert "ROADMAP.md item 3" in err

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


    def test_fig5_profile_ignores_pulse(self, tmp_path):
        # the profile's [pulse] sigma is for analyze/table1; swap stays on resonance
        code, text = run_cli(["swap", "--config", "paper_fig5", "--pairs", "2"],
                             tmp_path, "a.json")
        assert code == 0
        _, on_resonance = run_cli(["swap", "--config", "paper_fig5", "--pairs", "2",
                                   "--omega", "0.0"], tmp_path, "b.json")
        assert json.loads(text)["outcomes"] == json.loads(on_resonance)["outcomes"]
        assert "sigma" not in json.loads(text)["metadata"]

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

    def test_no_state_kept_between_calls(self, tmp_path):
        args = ["analyze", "GHZ:01", "--enumeration", "monte-carlo", "--shots", "10"]
        _, seeded = run_cli(args + ["--seed", "3"], tmp_path, "a.json")
        assert json.loads(seeded)["metadata"]["seed"] == 3
        _, default = run_cli(args, tmp_path, "b.json")
        assert json.loads(default)["metadata"]["seed"] == 0

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
