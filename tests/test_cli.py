import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framealign import GroupSpec, cli, cyclic, sampling, save_state, validate_state
from framealign.cli import main
from framealign.povm import povm_from_json

RATE_PSI = 6.299560281858908
GAP_Z4_PAIR = 4.169925001442312

PSI = ["13/64", "18/64", "19/64", "14/64"]
PHI = ["7/20", "3/20", "6/20", "4/20"]


def run_json(tmp_path, argv, name="out.json", expect=0):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == expect
    return json.loads(out.read_text())


class TestRateCommand:
    def test_documented_state_rate(self, tmp_path):
        obj = run_json(
            tmp_path,
            ["rate", "--group", "z4", "--probs", ",".join(PSI), "--n-list", "8,16,32"],
        )
        assert obj["rate_bits"] == pytest.approx(RATE_PSI, abs=1e-9)
        assert obj["r_max"] == pytest.approx(0.11267347735824967, abs=1e-12)
        assert obj["maximizer_set"] == [1, 3]
        assert obj["degeneracy_weight"] == pytest.approx(1.0)
        assert [p["n"] for p in obj["points"]] == [8, 16, 32]
        assert obj["config"]["subcommand"] == "rate"
        assert obj["config"]["tie_tolerance"] == 1e-9

    def test_u1_rate(self, tmp_path):
        obj = run_json(
            tmp_path,
            ["rate", "--group", "u1", "--probs", "0.5,0.5", "--n-list", "2,4"],
        )
        assert obj["rate_bits"] == pytest.approx(math.pi, abs=1e-12)
        assert obj["points"][0]["h_deficit"] is None

    def test_uniform_rate_serializes_inf(self, tmp_path):
        obj = run_json(
            tmp_path,
            ["rate", "--group", "z4", "--probs", "0.25,0.25,0.25,0.25", "--n", "2"],
        )
        assert obj["rate_bits"] == "inf"
        assert obj["points"][0]["lin_h"] == "inf"

    def test_csv_sweep_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "rate",
                "--group",
                "z4",
                "--probs",
                ",".join(PSI),
                "--n-list",
                "2,4,8",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert (
            lines[0]
            == "N,H_bits,H_deficit,I_bits,I_deficit,lin_H_per_N,lin_I_per_N,target"
        )
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4, 8]

    def test_u1_csv_leaves_deficits_empty(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "rate", "--group", "u1", "--probs", "0.5,0.5",
                "--n-list", "2,4", "--format", "csv", "--out", str(out),
            ]
        )
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[2] == "" and row[4] == ""


class TestAsymmetryAndMi:
    def test_asymmetry_rejects_gross_sum(self, capsys):
        rc = main(["asymmetry", "--group", "z2", "--probs", "2,1"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "MalformedInput"
        assert "\n" not in err

    def test_asymmetry_fractions(self, tmp_path):
        obj = run_json(
            tmp_path,
            ["asymmetry", "--group", "z2", "--probs", "3/4,1/4", "--n", "10"],
        )
        point = obj["points"][0]
        assert point["h_deficit"] == pytest.approx(6.879307127949009e-07, rel=1e-9)

    def test_mi_zm(self, tmp_path, z4_psi):
        obj = run_json(
            tmp_path, ["mi", "--group", "z4", "--probs", ",".join(PSI), "--n", "4"]
        )
        from framealign import covariant_mutual_info_zm

        expected, _ = covariant_mutual_info_zm(z4_psi, 4)
        assert obj["points"][0]["i_bits"] == pytest.approx(expected, abs=1e-12)

    def test_mi_u1_analytic(self, tmp_path):
        obj = run_json(
            tmp_path, ["mi", "--group", "u1", "--probs", "0.5,0.5", "--n", "1"]
        )
        assert obj["points"][0]["i_bits"] == pytest.approx(
            1 / math.log(2) - 1, abs=1e-9
        )

    def test_bad_grid_exits_2(self, capsys):
        rc = main(
            ["mi", "--group", "u1", "--probs", "0.5,0.5", "--n", "1", "--grid", "1000"]
        )
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "MalformedInput"

    def test_resource_limit_exit_code(self, capsys):
        rc = main(
            ["asymmetry", "--group", "u1", "--probs", "0.5,0.5", "--n", str(2**21)]
        )
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimit"

    def test_u1_asymmetry_at_the_cap(self, tmp_path, capsys):
        # N = 2^20 - 1 qubit copies fill the 2^20-coefficient cap exactly.
        n = 1048575
        argv = ["asymmetry", "--group", "u1", "--probs", "0.5,0.5", "--n"]
        obj = run_json(tmp_path, argv + [str(n)])
        gaussian = 0.5 * math.log2(math.pi * math.e * n / 2)
        assert obj["points"][0]["h_bits"] == pytest.approx(gaussian, abs=1e-6)
        assert main(argv + [str(n + 2)]) == 3
        assert_one_json_error(capsys, "ResourceLimit")

    @pytest.mark.parametrize(
        "group, probs, deficit",
        [("z3", "0,1,0", math.log2(3)), ("z8", "0,.5,0,0,0,.5,0,0", 2.0)],
    )
    @pytest.mark.parametrize("sub, key", [("asymmetry", "h"), ("mi", "i")])
    def test_coset_states_at_a_million_copies(
        self, tmp_path, group, probs, deficit, sub, key
    ):
        # A state on one coset of a subgroup keeps |z_n| = 1 at every n on
        # the dual subgroup, so its deficits stay log2 of the coset count;
        # a float z_n**N would carry a phase error that grows like N*eps.
        bits = math.log2(int(group[1:])) - deficit
        for n in (2**20, 2**36, 2**53):
            argv = [sub, "--group", group, "--probs", probs, "--n", str(n)]
            point = run_json(tmp_path, argv)["points"][0]
            assert point[f"{key}_deficit"] == pytest.approx(deficit, abs=1e-8)
            assert point[f"{key}_bits"] == pytest.approx(bits, abs=1e-8)

    @pytest.mark.parametrize("sub, key", [("asymmetry", "h"), ("mi", "i")])
    def test_one_label_state_reads_exactly_zero(self, tmp_path, sub, key):
        # Its deficits are log2 3 up to an ulp; the reported bits and
        # deficits are clamped to [0, log2 M].
        argv = [sub, "--group", "z3", "--probs", "0,1,0", "--n", "1"]
        point = run_json(tmp_path, argv)["points"][0]
        assert point[f"{key}_bits"] == 0.0
        assert 0.0 <= point[f"{key}_deficit"] <= math.log2(3)

    def test_u1_grid_counts_live_labels(self, tmp_path):
        # At N = 4096 only 787 labels around the mean are nonzero, so a grid
        # below 8 x 4097 labels still holds 8 points per live label.
        argv = ["mi", "--group", "u1", "--probs", "0.5,0.5", "--n", "4096"]
        default = run_json(tmp_path, argv)["points"][0]["i_bits"]
        grid = run_json(tmp_path, argv + ["--grid", "32768"])
        assert grid["config"]["grid"] == 32768
        assert abs(grid["points"][0]["i_bits"] - default) <= 1e-12

    def test_n_list_must_increase(self, capsys):
        rc = main(["asymmetry", "--group", "z2", "--probs", "3/4,1/4", "--n-list", "4,2"])
        assert rc == 2
        capsys.readouterr()

    def test_exactly_one_input_source(self, capsys, tmp_path):
        rc = main(["asymmetry", "--n", "1"])
        assert rc == 2
        capsys.readouterr()


class TestSuperaddCommand:
    def test_documented_pair_golden(self, tmp_path, z4_psi, z4_phi):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        save_state(z4_psi, a_path)
        save_state(z4_phi, b_path)
        obj = run_json(
            tmp_path, ["superadd", "--a", str(a_path), "--b", str(b_path)]
        )
        assert obj["gap_bits"] == pytest.approx(GAP_Z4_PAIR, abs=1e-9)
        assert obj["r_max_a"] == pytest.approx(0.11267347735824967, abs=5e-4)
        assert obj["r_max_b"] == pytest.approx(0.3, abs=1e-9)
        assert obj["omega_moduli"][1] == pytest.approx(0.00796721798998873, abs=5e-4)
        assert abs(obj["omega_moduli"][2]) <= 1e-12
        assert obj["a"]["group"] == {"kind": "cyclic", "M": 4}

    def test_z3_gap_is_exactly_zero(self, tmp_path):
        rng = np.random.default_rng(53)
        group = GroupSpec.cyclic(3)
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        for _ in range(20):
            save_state(validate_state(rng.dirichlet(np.ones(3)), group), a_path)
            save_state(validate_state(rng.dirichlet(np.ones(3)), group), b_path)
            obj = run_json(
                tmp_path, ["superadd", "--a", str(a_path), "--b", str(b_path)]
            )
            assert obj["gap_bits"] == 0.0

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["superadd", "--a", str(tmp_path / "nope.json"), "--b", str(tmp_path / "nope.json")])
        assert rc == 2
        capsys.readouterr()


class TestSearchCommand:
    def test_witness_file_format(self, tmp_path):
        obj = run_json(
            tmp_path,
            ["search", "--group", "z4", "--trials", "500", "--seed", "1"],
        )
        assert set(obj) >= {"a", "b", "gap_bits", "config"}
        assert obj["a"]["group"] == {"kind": "cyclic", "M": 4}
        assert len(obj["a"]["probs"]) == 4
        assert obj["gap_bits"] > 0

    def test_z2_gap_is_zero(self, tmp_path):
        obj = run_json(
            tmp_path, ["search", "--group", "z2", "--trials", "200", "--seed", "5"]
        )
        assert abs(obj["gap_bits"]) <= 1e-10


class TestOptimizeCommand:
    def test_optimize_and_serialize(self, tmp_path):
        obj = run_json(
            tmp_path,
            [
                "optimize", "--group", "z2", "--probs", "3/4,1/4",
                "--n", "1", "--restarts", "3", "--seed", "0",
            ],
        )
        assert obj["converged"] is True
        assert abs(obj["mi_bits"] - obj["covariant_mi_bits"]) <= 1e-3
        povm = povm_from_json(obj["povm"])
        assert povm.dim == 2

    def test_nonconvergence_still_writes_result(self, tmp_path):
        out = tmp_path / "opt.json"
        rc = main(
            [
                "optimize", "--group", "z3", "--probs", "0.6,0.3,0.1",
                "--n", "1", "--restarts", "1", "--max-iters", "3",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 4
        obj = json.loads(out.read_text())
        assert obj["converged"] is False
        assert obj["mi_bits"] > 0

    def test_nonconvergence_prints_one_json_line(self, capsys, tmp_path):
        argv = ["optimize", "--group", "z3", "--probs", "0.6,0.3,0.1", "--n", "1"]
        argv += ["--restarts", "1", "--max-iters", "3", "--out", str(tmp_path / "o")]
        assert main(argv) == 4
        assert_one_json_error(capsys, "NotConverged")


class TestSampleCommand:
    def test_json_output(self, tmp_path):
        obj = run_json(
            tmp_path,
            [
                "sample", "--group", "z4", "--probs", ",".join(PSI),
                "--n", "2", "--shots", "5000", "--seed", "9",
            ],
        )
        counts = np.array(obj["counts"])
        assert counts.shape == (4, 4)
        assert int(counts.sum()) == 5000
        assert obj["estimate_bits"] >= 0

    def test_u1_rejected(self, capsys):
        # Continuous-outcome sampling has no binning story; cyclic only.
        rc = main(["sample", "--group", "u1", "--probs", "0.5,0.5", "--n", "1"])
        assert rc == 2
        capsys.readouterr()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "counts.csv"
        rc = main(
            [
                "sample", "--group", "z2", "--probs", "3/4,1/4", "--n", "1",
                "--shots", "100", "--seed", "3", "--format", "csv",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y,count"
        assert len(lines) == 5


def test_import_loads_no_scipy():
    # Every command is a fresh process: the CLI's start-up needs numpy only.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import importlib, pkgutil, sys\n"
        "import framealign, framealign.cli\n"
        "for mod in pkgutil.iter_modules(framealign.__path__):\n"
        "    importlib.import_module('framealign.' + mod.name)\n"
        "framealign.cli.build_parser()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "run.json"
        argv = [
            "sample", "--group", "z4", "--probs", ",".join(PSI),
            "--n", "2", "--shots", "2000", "--seed", "7", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_search_byte_identical(self, tmp_path):
        out = tmp_path / "search.json"
        argv = [
            "search", "--group", "z4", "--trials", "300", "--seed", "2",
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


def assert_one_json_error(capsys, error):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


class TestInputRejection:
    def test_nan_in_state_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"group": {"kind": "cyclic", "M": 2}, "probs": [NaN, 1.0]}')
        rc = main(["rate", "--state", str(path), "--n", "2"])
        assert rc == 2
        assert_one_json_error(capsys, "MalformedInput")

    def test_workers_defaults_to_one(self, tmp_path):
        argv = ["search", "--group", "z4", "--trials", "300", "--seed", "2"]
        default = run_json(tmp_path, argv, name="default.json")
        explicit = run_json(tmp_path, argv + ["--workers", "1"], name="one.json")
        assert default["config"]["workers"] == 1
        del default["config"]["out"], explicit["config"]["out"]
        assert default == explicit

    @pytest.mark.parametrize("out", ["missing/x.json", "."])
    def test_unwritable_out_exits_2_before_computing(
        self, capsys, monkeypatch, tmp_path, out
    ):
        def refuse(args, cfg):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(cli, "_cmd_asymmetry", refuse)
        target = tmp_path / out
        rc = main(
            ["asymmetry", "--group", "z2", "--probs", "3/4,1/4", "--out", str(target)]
        )
        assert rc == 2
        assert_one_json_error(capsys, "MalformedInput")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        rc = main(["search", "--group", "z4", "--trials", "10", "--workers", workers])
        assert rc == 2
        assert_one_json_error(capsys, "UsageError")

    @pytest.mark.parametrize(
        "argv",
        [
            ["asymmetry", "--group", "z2", "--probs", "3/4,1/4", "--format", "csv"],
            ["asymmetry", "--group", "u1", "--probs", "0.5,0.5", "--grid", "1024"],
            ["search", "--group", "z4", "--n", "3"],
            ["superadd", "--a", "a.json", "--b", "b.json", "--n-list", "1,2"],
            ["optimize", "--group", "z2", "--probs", "3/4,1/4", "--format", "csv"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert_one_json_error(capsys, "UsageError")

    def test_u1_grid_zero_exits_2(self, capsys):
        rc = main(["mi", "--group", "u1", "--probs", "0.5,0.5", "--n", "1", "--grid", "0"])
        assert rc == 2
        assert_one_json_error(capsys, "MalformedInput")

    @pytest.mark.parametrize("sub", ["mi", "rate"])
    def test_u1_grid_above_limit_exits_3(self, capsys, sub):
        argv = [sub, "--group", "u1", "--probs", "0.5,0.5", "--n", "1"]
        assert main(argv + ["--grid", str(1 << 40)]) == 3
        assert_one_json_error(capsys, "ResourceLimit")

    def test_sample_povm_over_budget_exits_3(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("table built above the sample limit")

        monkeypatch.setattr(sampling, "covariant_table", unreachable)
        probs = ",".join(["1/2049"] * 2049)
        assert main(["sample", "--group", "z2049", "--probs", probs, "--n", "1"]) == 3
        assert_one_json_error(capsys, "ResourceLimit")

    def test_search_order_above_limit_exits_3(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("workspace built above the search limit")

        monkeypatch.setattr(cyclic, "_SearchWorkspace", unreachable)
        group = f"z{cyclic.SEARCH_MAX_M + 1}"
        assert main(["search", "--group", group, "--trials", "1"]) == 3
        assert_one_json_error(capsys, "ResourceLimit")

    def test_sample_z1024_runs(self, tmp_path):
        probs = ",".join(["1/512", "0"] * 512)
        argv = ["sample", "--group", "z1024", "--probs", probs, "--n", "2"]
        obj = run_json(tmp_path, argv + ["--shots", "1000"])
        assert np.array(obj["counts"]).shape == (1024, 1024)

    @pytest.mark.parametrize("sub", ["mi", "rate"])
    def test_grid_on_cyclic_state_exits_2(self, capsys, tmp_path, sub):
        argv = [sub, "--group", "z4", "--probs", "0.4,0.3,0.2,0.1", "--n", "2"]
        out = tmp_path / "out.json"
        assert main(argv + ["--grid", "0", "--out", str(out)]) == 2
        assert_one_json_error(capsys, "MalformedInput")
        assert main(argv + ["--grid", "1024", "--out", str(out)]) == 2
        assert_one_json_error(capsys, "MalformedInput")
        assert not out.exists()

    class ArrayMemoryError(MemoryError):  # like numpy's private subclass
        pass

    @pytest.mark.parametrize("error", [MemoryError, ArrayMemoryError])
    def test_memory_error_exits_3(self, capsys, monkeypatch, error):
        def exhausted(args, cfg):
            raise error("cannot allocate")

        monkeypatch.setattr(cli, "_cmd_rate", exhausted)
        assert main(["rate", "--group", "z2", "--probs", "3/4,1/4"]) == 3
        assert_one_json_error(capsys, "MemoryError")

    def test_negative_seed_exits_2(self, capsys):
        argv = ["sample", "--group", "z2", "--probs", "3/4,1/4"]
        assert main(argv + ["--seed", "-1"]) == 2
        assert_one_json_error(capsys, "UsageError")

    def test_optimize_outcomes_over_budget_exits_3(self, capsys):
        argv = ["optimize", "--group", "z4", "--probs", ",".join(PSI), "--n", "1"]
        assert main(argv + ["--outcomes", str(1 << 21)]) == 3
        assert_one_json_error(capsys, "ResourceLimit")

    def test_optimize_outcomes_not_a_multiple_of_m_exits_2(self, capsys):
        argv = ["optimize", "--group", "z3", "--probs", "0.5,0.5,0", "--n", "1"]
        assert main(argv + ["--outcomes", "4"]) == 2
        assert_one_json_error(capsys, "MalformedInput")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--group", "z4", "--probs", "0.4,0.3,0.2,0.1", "--n", "3",
             "--n-list", "1,2"],
            ["asymmetry", "--group", "z4", "--probs", "0.4,0.3,0.2,0.1",
             "--n-list", ""],
        ],
    )
    def test_n_with_n_list_or_empty_n_list_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert_one_json_error(capsys, "MalformedInput")

    @pytest.mark.parametrize("shots", [2**63, 10**20])
    def test_shots_beyond_int64_exit_2(self, capsys, shots):
        argv = ["sample", "--group", "z4", "--probs", "0.4,0.3,0.2,0.1", "--n", "1"]
        assert main(argv + ["--shots", str(shots)]) == 2
        assert_one_json_error(capsys, "MalformedInput")

    @pytest.mark.parametrize(
        "group, probs",
        [("z4", "1e400,0,0,0"), ("z2", "1e308,1e308"), ("z3", "1e400,-1e400,1")],
    )
    def test_probs_beyond_the_float_range_exit_2(self, capsys, group, probs):
        assert main(["asymmetry", "--group", group, "--probs", probs]) == 2
        assert_one_json_error(capsys, "MalformedInput")

    @pytest.mark.parametrize(
        "probs", ["1e999999999,1", "1e-999999999,1", "1E+1_001,0", "1,0e00001001"]
    )
    def test_probs_exponent_beyond_1000_exits_2_at_once(self, capsys, probs):
        start = time.perf_counter()
        assert main(["asymmetry", "--group", "z2", "--probs", probs]) == 2
        assert time.perf_counter() - start < 1.0
        assert_one_json_error(capsys, "MalformedInput")

    def test_probs_exponent_of_1000_is_read(self, tmp_path):
        argv = ["asymmetry", "--group", "z2", "--probs", "1e-1000,1E+0_0"]
        assert run_json(tmp_path, argv)["config"]["probs"] == [0.0, 1.0]

    @pytest.mark.parametrize("sub", ["asymmetry", "superadd"])
    def test_state_file_summing_past_the_float_range_exits_2(
        self, capsys, tmp_path, sub
    ):
        path = tmp_path / "big.json"
        state = {"group": {"kind": "cyclic", "M": 2}, "probs": [1e308, 1e308]}
        path.write_text(json.dumps(state))
        if sub == "asymmetry":
            argv = ["asymmetry", "--state", str(path)]
        else:
            argv = ["superadd", "--a", str(path), "--b", str(path)]
        assert main(argv) == 2
        assert_one_json_error(capsys, "SumOutOfTolerance")


def ref_jsonify(value):
    """The reference for the JSON writer: json.dumps(ref_jsonify(value),
    indent=2, sort_keys=True) is the text it must write.  Sentinels and
    infinities become the string "inf"."""
    if value is cyclic.INFINITE_RATE:
        return "inf"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            raise ValueError("refusing to serialize NaN")
        return value
    if isinstance(value, (np.floating, np.integer)):
        return ref_jsonify(value.item())
    if isinstance(value, np.ndarray):
        return ref_jsonify(value.tolist())
    if isinstance(value, dict):
        return {k: ref_jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_jsonify(v) for v in value]
    return value


def assert_written_as_reference(value) -> None:
    """cli._json_text(value) is the reference text, or raises as it does."""
    try:
        want = json.dumps(ref_jsonify(value), indent=2, sort_keys=True)
    except ValueError:
        with pytest.raises(ValueError):
            cli._json_text(value)
        return
    # Compared by line: pytest's diff of two long strings takes minutes.
    assert cli._json_text(value).split("\n") == want.split("\n")


class TestJsonify:
    def test_arrays(self):
        assert_written_as_reference(np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert_written_as_reference(np.array([True, False]))
        assert_written_as_reference(np.array([1.5, np.inf]))
        with pytest.raises(ValueError):
            cli._json_text(np.array([np.nan]))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMPY_LEAVES = (
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
_LEAVES = (
    st.none(),
    st.booleans(),
    st.integers(),
    _FINITE,
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, cyclic.INFINITE_RATE]),
    st.text(),
    *_NUMPY_LEAVES,
)
_ARRAYS = st.one_of(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(max_dims=2, max_side=4),
        elements=st.floats(allow_nan=False),
    ),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(max_dims=2, max_side=4)),
)
# Lists of one leaf type take the writer's single-join path, mixed lists and
# containers the per-item path; st.text() draws non-ASCII characters.
_JSON_VALUES = st.recursive(
    st.one_of(*_LEAVES, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        *(st.lists(leaf, max_size=6) for leaf in _LEAVES),
    ),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert_written_as_reference(value)

    @pytest.mark.parametrize(
        "value",
        [
            [1.5, math.inf],
            [-math.inf, math.nan],
            {"a": math.inf, "b": [math.nan]},
            {1: "one", 2: [2.0]},
            [(1, 2), {}, [], "\u00e9\n"],
            {"x": [1, True, None, 1.0]},
            # Finite floats whose sum overflows; float and negative int keys.
            {2.5: [1e308, 1e308], -1: (math.inf, cyclic.INFINITE_RATE)},
        ],
    )
    def test_non_finite_floats_and_other_keys(self, value):
        assert_written_as_reference(value)

    @pytest.mark.parametrize(
        "value",
        [
            [0.0, -0.0, 0.1, 1e-300, 5e-324, -2.5] * 400,
            {"probs": [1 / 3] * 2046 + [-0.0]},  # below the length cut
            [1 / 3] * 2048 + [0.0, -0.0],
            [i / 7 for i in range(1024)] * 2,  # half distinct
            [i / 7 for i in range(1025)] + [0.5] * 1023,
            [-0.0] * 1500 + [i / 7 for i in range(1500)] + [0.0] * 1500,
            [0.5] * 3000 + [math.inf],
            [math.nan] + [0.25, -0.0] * 1500,
            {"a": {"b": [2.0**-1074, -(2.0**-1074)] * 1500}},
        ],
    )
    def test_long_float_lists_with_few_distinct_values(self, value):
        assert_written_as_reference(value)

    def test_float_reprs_call_repr_once_per_distinct_value(self):
        value = [0.1, 0.2, 0.1, -0.0, 0.0] * 1000
        items = cli._float_reprs(value)
        assert items == [repr(v) for v in value]
        assert items[0] is items[2] is items[-5]
        mostly_distinct = [i / 7 for i in range(3000)]
        assert cli._float_reprs(mostly_distinct) == list(map(repr, mostly_distinct))

    def test_every_json_subcommand(self, tmp_path, z4_psi, z4_phi):
        save_state(z4_psi, tmp_path / "a.json")
        save_state(z4_phi, tmp_path / "b.json")
        state = ["--group", "z4", "--probs", ",".join(PSI)]
        commands = [
            ["asymmetry", *state, "--n-list", "2,4"],
            ["mi", "--group", "u1", "--probs", "0.2,0.5,0.3", "--n", "3"],
            ["rate", *state, "--n-list", "8,100000"],
            ["rate", "--group", "z4", "--probs", "0.25,0.25,0.25,0.25", "--n", "2"],
            ["superadd", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")],
            ["search", "--group", "z5", "--trials", "50"],
            ["optimize", *state, "--n", "1", "--restarts", "1"],
            ["sample", *state, "--n", "2", "--shots", "100"],
        ]
        for argv in commands:
            out = tmp_path / "out.json"
            assert main(argv + ["--out", str(out)]) == 0
            text = out.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestRunConfig:
    def test_flag_fields_are_set_only_where_the_subcommand_has_the_flag(
        self, tmp_path, z4_psi
    ):
        save_state(z4_psi, tmp_path / "a.json")
        a = str(tmp_path / "a.json")
        state = ["--group", "z4", "--probs", ",".join(PSI), "--n", "1"]
        commands = [
            (["asymmetry", *state], set()),
            (["mi", *state], set()),
            (["rate", *state], set()),
            (["superadd", "--a", a, "--b", a], set()),
            (["search", "--group", "z4", "--trials", "20"], {"trials"}),
            (
                ["optimize", *state, "--restarts", "1", "--outcomes", "4"],
                {"restarts", "outcomes", "max_iters"},
            ),
            (["sample", *state, "--shots", "50"], {"shots"}),
        ]
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        flag_fields = {"trials", "restarts", "outcomes", "max_iters", "shots"}
        for argv, flags in commands:
            config = run_json(tmp_path, argv)["config"]
            assert set(config) == fields
            assert {k for k in flag_fields if config[k] is not None} == flags, argv
            assert config["seed"] == 0 and config["subcommand"] == argv[0]


class TestStateFileInput:
    def test_state_flag(self, tmp_path, z4_psi):
        path = tmp_path / "psi.json"
        save_state(z4_psi, path)
        obj = run_json(tmp_path, ["rate", "--state", str(path), "--n", "4"])
        assert obj["rate_bits"] == pytest.approx(RATE_PSI, abs=1e-9)
        assert obj["config"]["state_path"] == str(path)

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


# --- CLI fuzz -----------------------------------------------------------------

FUZZ_FILES = {
    "z4": '{"group": {"kind": "cyclic", "M": 4}, "probs": [0.4, 0.3, 0.2, 0.1]}',
    "z3": '{"group": {"kind": "cyclic", "M": 3}, "probs": [0.5, 0.5, 0]}',
    "u1": '{"group": {"kind": "u1", "d": 2}, "probs": [0.5, 0.5]}',
    "nan": '{"group": {"kind": "cyclic", "M": 2}, "probs": [NaN, 1.0]}',
    "junk": "not json",
}
FUZZ_TOKENS = ("1/2", "1/4", "0", "1", "0.3", "-1/4", "nan", "inf", "x", "")
STATE_FLAGS = ("--n", "--n-list", "--seed", "--workers")
FUZZ_FLAGS = {
    "asymmetry": STATE_FLAGS,
    "mi": STATE_FLAGS + ("--grid",),
    "rate": STATE_FLAGS + ("--grid", "--format"),
    "superadd": ("--seed", "--workers"),
    "search": ("--trials", "--seed", "--workers"),
    "optimize": STATE_FLAGS + ("--restarts", "--outcomes", "--max-iters"),
    "sample": STATE_FLAGS + ("--format", "--shots"),
}
_file = st.sampled_from([*FUZZ_FILES, "missing"]).map(lambda k: f"@{k}")
FUZZ_VALUES = {
    "--group": st.sampled_from(["z2", "z3", "Z4", "u1", "z1", "q5"]),
    "--probs": st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=4).map(
        ",".join
    ),
    "--state": _file,
    "--a": _file,
    "--b": _file,
    "--n": st.integers(-1, 6),
    "--n-list": st.lists(st.integers(-1, 12), max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    ),
    "--grid": st.sampled_from([0, 7, 64, 100, 1 << 40]),
    "--trials": st.integers(-5, 200),
    "--restarts": st.integers(-1, 2),
    "--outcomes": st.integers(-1, 6),
    "--max-iters": st.integers(-1, 20),
    "--shots": st.one_of(
        st.integers(-5, 2000), st.sampled_from([2**63 - 1, 2**63, 10**20])
    ),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--workers": st.sampled_from([1, 2, 3, 0]),
    "--seed": st.sampled_from([0, 1, 7, -1]),
}
# Inputs that pass validation, so that most runs reach the numerics.
VALID_INPUTS = {
    "state": st.sampled_from(
        [
            ["--group", "z2", "--probs", "3/4,1/4"],
            ["--group", "z3", "--probs", "1/2,1/4,1/4"],
            ["--group", "z4", "--probs", "0.4,0.3,0.2,0.1"],
            ["--group", "Z4", "--probs", "1,0,0,0"],
            ["--group", "u1", "--probs", "1/2,1/4,1/4"],
            ["--state", "@z4"],
        ]
    ),
    "superadd": st.sampled_from(
        [["--a", "@z4", "--b", "@z4"], ["--a", "@z3", "--b", "@z3"]]
    ),
    # z64 and z65 straddle the search's DFT-matrix / rfft switch.
    "search": st.sampled_from(
        [["--group", g] for g in ("z3", "z4", "z64", "z65")]
    ),
}


@st.composite
def cli_argv(draw):
    """A subcommand with a random subset of its flags; now and then a
    malformed input or a flag it does not read."""
    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub]
    if draw(st.integers(0, 3)):
        argv += draw(VALID_INPUTS.get(sub, VALID_INPUTS["state"]))
    else:
        inputs = {"superadd": ("--a", "--b"), "search": ("--group",)}
        for flag in inputs.get(sub, ("--group", "--probs")):
            argv += [flag, str(draw(FUZZ_VALUES[flag]))]
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[sub]), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    for flag in flags:
        argv += [flag, str(draw(FUZZ_VALUES[flag]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(text)
    return root


class TestCliFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=cli_argv(), out=st.sampled_from(["out.txt", "missing/out.txt"]))
    def test_documented_exit_and_one_json_error_line(
        self, capsys, fuzz_files, argv, out
    ):
        argv = [str(fuzz_files / f"{a[1:]}.json") if a[:1] == "@" else a for a in argv]
        rc = main(argv + ["--out", str(fuzz_files / out)])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4)
        if out.startswith("missing"):
            assert rc == 2
        if rc == 0:
            assert err == ""
        else:
            lines = err.splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
