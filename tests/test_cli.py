"""Command-line interface: outputs, exit codes, determinism."""

import json
import os

import pytest

from greenkit.cli import main
from greenkit.firstorder import Kernel


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def test_basis_writes_modes_and_report(tmp_path):
    code, out = run(tmp_path, "basis", "--model", "well", "--a", "1", "--n", "6")
    assert code == 0
    assert sorted(p for p in os.listdir(out) if p.endswith(".csv")) == [
        f"mode_{n:04d}.csv" for n in range(6)
    ]
    report = json.loads((out / "basis.json").read_text())
    assert report["model"] == "well"
    assert report["n_modes"] == 6
    assert report["completeness_residual"] < 1e-12
    assert report["orthonormality_residual"] < 1e-12


def test_basis_output_is_deterministic(tmp_path):
    args = ("basis", "--model", "free", "--length", "10", "--n", "4")
    _, out1 = run(tmp_path / "a", *args)
    _, out2 = run(tmp_path / "b", *args)
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_kernel_report_first_order(tmp_path):
    code, out = run(tmp_path, "kernel", "--model", "well", "--a", "1", "--n", "8",
                    "--t0", "-1", "--t1", "1", "--nt", "11")
    assert code == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["kind"] == "retarded"
    assert report["support_violation"] == 0.0
    assert report["initial_condition_residual"] < 1e-12
    assert report["composition_residual"] < 1e-10
    assert (out / "kernel_diag.csv").exists()


def test_kernel_minus_i_flag_is_exact_factor(tmp_path):
    code, out = run(tmp_path, "kernel", "--model", "well", "--n", "4",
                    "--convention", "minus-i", "--direction", "auxiliary")
    assert code == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["convention"] == "minus-i"
    assert report["minus_i_factor_exact"] is True


@pytest.mark.parametrize("order", ["first", "second"])
def test_kernel_builds_blocks_one_at_a_time(tmp_path, monkeypatch, order):
    def dense(self):
        raise AssertionError("the kernel subcommand must not build the dense (nt, m, m) values")

    monkeypatch.setattr(Kernel, "values", property(dense))
    code, out = run(tmp_path, "kernel", "--order", order, "--n", "6", "--convention", "minus-i",
                    "--t0", "-1", "--t1", "1", "--nt", "9")
    assert code == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["support_violation"] == 0.0
    assert len((out / "kernel_diag.csv").read_text().strip().splitlines()) == 1 + 9
    if order == "first":
        assert report["minus_i_factor_exact"] is True


def test_kernel_second_order(tmp_path):
    code, out = run(tmp_path, "kernel", "--model", "helmholtz", "--length",
                    "6.283185307179586", "--n", "6", "--order", "second")
    assert code == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["order"] == "second"
    assert report["support_violation"] == 0.0


def test_kernel_second_order_defaults_to_helmholtz(tmp_path):
    code, out = run(tmp_path / "default", "kernel", "--order", "second", "--n", "4")
    assert code == 0
    report = json.loads((out / "kernel_report.json").read_text())
    assert report["order"] == "second"
    assert report["zero_time_value"] == 0.0
    code, _ = run(tmp_path / "well", "kernel", "--model", "well", "--order", "second")
    assert code == 2


def test_propagate_preserves_norm(tmp_path):
    code, out = run(tmp_path, "propagate", "--model", "oscillator", "--n", "32",
                    "--grid-kind", "gauss", "--tau", "0.4")
    assert code == 0
    report = json.loads((out / "propagate_report.json").read_text())
    assert abs(report["final_norm"] - report["initial_norm"]) < 1e-10
    assert (out / "state.csv").exists()


def test_field_writes_samples(tmp_path):
    code, out = run(tmp_path, "field", "--model", "helmholtz", "--length",
                    "6.283185307179586", "--n", "4", "--t1", "1.0", "--nt", "6")
    assert code == 0
    lines = (out / "field.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,re,im"
    assert len(lines) == 1 + 6 * 9  # header + times x grid points


def test_freq_exports_response_and_poles(tmp_path):
    code, out = run(tmp_path, "freq", "--model", "well", "--n", "5", "--i", "2",
                    "--j", "2", "--eta", "0.05", "--nw", "11")
    assert code == 0
    poles = json.loads((out / "poles.json").read_text())
    assert poles["eta"] == 0.05
    assert len(poles["poles"]) == 5
    assert all(p["position"][1] == -0.05 for p in poles["poles"])
    lines = (out / "response.csv").read_text().strip().splitlines()
    assert len(lines) == 12


@pytest.mark.parametrize("index", ["999", "-1"])
def test_freq_index_off_the_grid_exits_2(tmp_path, index):
    code, _ = run(tmp_path, "freq", "--model", "well", "--n", "5", "--i", index, "--j", "0")
    assert code == 2


def test_distcheck_passes(tmp_path):
    code, out = run(tmp_path, "distcheck", "--flavor", "linear", "--eta", "0.01")
    assert code == 0
    reports = json.loads((out / "distcheck.json").read_text())
    assert all(r["pass"] for r in reports)
    assert {r["metric"] for r in reports} >= {"derivative_identity", "step_ft_deviation"}


def test_distcheck_exponential_at_large_eta_fails_its_checks(tmp_path):
    # eta' = eta = 0.8 is below the exponential family's decay rate 1/eta, so
    # the transforms are computed and the checks, not the input, fail
    code, out = run(tmp_path, "distcheck", "--flavor", "exponential", "--eta", "0.8")
    assert code == 1
    reports = json.loads((out / "distcheck.json").read_text())
    assert not all(r["pass"] for r in reports)


@pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
def test_distcheck_bad_eta_exits_2(tmp_path, capsys, eta):
    code, _ = run(tmp_path, "distcheck", "--eta", eta)
    assert code == 2
    assert "eta must be positive and finite" in capsys.readouterr().err


def test_validate_single_criterion(tmp_path):
    code, out = run(tmp_path, "validate", "--only", "9")
    assert code == 0
    payload = json.loads((out / "validation.json").read_text())
    assert len(payload) == 1
    assert payload[0]["number"] == 9
    assert payload[0]["pass"] is True


def test_validate_negative_control_fails(tmp_path):
    code, out = run(tmp_path, "validate", "--only", "8", "--inject-eta-sign-flip")
    assert code == 1
    payload = json.loads((out / "validation.json").read_text())
    assert payload[0]["pass"] is False


def test_configuration_error_exits_2(tmp_path):
    code, _ = run(tmp_path, "propagate", "--model", "well", "--tau", "-1.0")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--model", "pendulum"])
    assert exc.value.code == 2
