"""Command-line interface: outputs, exit codes, determinism."""

import json
import os

import pytest

import numpy as np

from greenkit import build_oscillator_basis, build_well_basis
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
    for args in (("basis", "--model", "free", "--length", "10", "--n", "4"),
                 ("basis", "--model", "well", "--a", "1", "--n", "6")):
        _, out1 = run(tmp_path / args[2] / "a", *args)
        _, out2 = run(tmp_path / args[2] / "b", *args)
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


@pytest.mark.parametrize(
    "model, build",
    [
        ("relativistic", None),
        ("well", lambda: build_well_basis(1.0, 5)),
        ("oscillator", lambda: build_oscillator_basis(n_max=5)),
        ("helmholtz", None),
    ],
)
def test_freq_second_order_per_model(tmp_path, capsys, model, build):
    """Every model but Helmholtz, whose k = 0 mode has no finite-frequency
    line, exports its mirrored +-sqrt(E) c pairs; on the relativistic basis,
    one pair per momentum."""
    code, out = run(tmp_path, "freq", "--model", model, "--order", "second", "--n", "5", "--kmax", "3",
                    "--i", "1", "--j", "2")
    if model == "helmholtz":
        assert code == 2
        assert "zero mode" in capsys.readouterr().err
        return
    assert code == 0
    poles = json.loads((out / "poles.json").read_text())["poles"]
    if build is None:
        assert len(poles) == 2 * 7  # momenta |j| <= 3
        return
    # the well and the oscillator keep every mode, at +-sqrt(E_n) c
    basis = build()
    root = np.sqrt(basis.energies)
    w = basis.mode_values[:, 1] * np.conj(basis.mode_values[:, 2]) / (2j * root)
    assert [p["position"] for p in poles] == [[om, -0.05] for om in np.concatenate([root, -root])]
    assert [p["residue"] for p in poles] == [[r.real, r.imag] for r in np.concatenate([w, -w])]


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


@pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf", "1e-300", "1e300"])
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


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--model", "free", "--points", "0"),
        ("basis", "--model", "helmholtz", "--points", "0"),
        ("kernel", "--model", "free", "--points", "0"),
        ("basis", "--model", "well", "--points", "-1"),
        ("basis", "--model", "oscillator", "--points", "1"),
        ("field", "--nt", "0"),
    ],
)
def test_bad_sizes_exit_2(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("freq", "--eta", "inf"),
        ("freq", "--wmin", "nan"),
        ("freq", "--wmax", "inf"),
        ("propagate", "--x0", "100"),
        ("field", "--x0", "100"),
        ("propagate", "--x0", "1e200"),
        ("propagate", "--sigma", "0"),
        ("propagate", "--sigma", "1e300"),
        ("field", "--sigma", "0"),
        ("basis", "--a", "inf"),
        ("kernel", "--t1", "inf"),
        ("distcheck", "--eta", "1e-300"),
        ("basis", "--a", "1e-300"),
        ("basis", "--a", "1e300"),
        ("basis", "--model", "free", "--length", "1e-300"),
        ("field", "--t1", "1e300"),
        ("kernel", "--t0=-1e308", "--t1", "1e308"),
        ("freq", "--wmin=-1e308", "--wmax", "1e308"),
    ],
)
def test_bad_values_exit_2_before_any_output(tmp_path, capsys, argv):
    """Checked before any array is computed: no warning (tier-1 turns
    warnings into errors), no traceback, no file written."""
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--t1", "inf"),
        ("propagate", "--tau", "1e300"),
        ("field", "--t1", "nan"),
        ("freq", "--wmax", "1e300"),
    ],
)
def test_time_and_omega_bounds_are_checked_before_the_basis(tmp_path, monkeypatch, argv):
    def build(args):
        raise AssertionError("the basis must not be built for a rejected bound")

    monkeypatch.setattr("greenkit.cli._build_basis", build)
    code, _ = run(tmp_path, *argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--hbar", "2", "--only", "1"),
        ("distcheck", "--epsilon0", "1", "--flavor", "linear"),
        ("basis", "--epsilon0", "2"),
    ],
)
def test_flags_the_subcommand_does_not_read_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2


def test_basis_subcommands_take_the_physical_constants(tmp_path):
    code, _ = run(tmp_path / "kernel", "kernel", "--model", "free", "--n", "4", "--hbar", "2", "--c", "3", "--mass", "0.5")
    assert code == 0
    code, out = run(tmp_path / "basis", "basis", "--model", "oscillator", "--n", "4", "--omega-const", "2")
    assert code == 0
    assert json.loads((out / "basis.json").read_text())["energies"] == [1.0, 3.0, 5.0, 7.0]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--model", "pendulum"])
    assert exc.value.code == 2
