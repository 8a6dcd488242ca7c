"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from basis_modes import all_modes
import greenkit
from greenkit import build_oscillator_basis, build_well_basis, io, spectral_density
from greenkit.cli import _BUILDERS, _build_basis, build_parser, main
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


def test_large_mass_oscillator_basis_exits_0(tmp_path):
    code, out = run(tmp_path, "basis", "--model", "oscillator", "--mass", "1e6", "--n", "2")
    assert code == 0
    assert json.loads((out / "basis.json").read_text())["orthonormality_residual"] <= 1e-13


def test_a_failed_atomic_write_keeps_the_old_file(tmp_path):
    """A text UTF-8 cannot encode fails inside the write: the error is
    raised again, the old bytes stay, and the temporary sibling is removed."""
    path = tmp_path / "report.txt"
    io.atomic_write_text(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        io.atomic_write_text(str(path), "x\ud800")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize("rows, cols", [(9, 2), (33, 3), (1_353, 4), (2 * 16_384 + 1, 4)])
def test_csv_rows_are_savetxts_bytes(tmp_path, rows, cols):
    """Rows written in blocks of 16,384 are np.savetxt's %.17g bytes, -0.0
    and a subnormal included, across two block boundaries and a one-row block."""
    table = np.random.default_rng(rows).standard_normal((rows, cols)) * 10.0 ** np.arange(-150, 150, 300 / cols)
    table[rows // 2, 0], table[-1, -1] = -0.0, 5e-320
    header = [f"c{k}" for k in range(cols)]
    io.write_csv(str(tmp_path / "t.csv"), header, list(table.T))
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_cold_subcommands_import_neither_numpy_ma_nor_random(tmp_path):
    """Every subcommand, the full validate included, runs in one fresh child
    that never imports numpy.ma (np.unique's first call without
    return_inverse loads it: 1.5 MB and 15-20 ms) or numpy.random (5.3 MB and
    15 ms): greenkit computes with neither."""
    src = os.path.dirname(os.path.dirname(greenkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, sys\n"
        "from greenkit.cli import main\n"
        "for argv in (['basis'], ['basis', '--model', 'relativistic'], ['kernel'], ['propagate'],\n"
        "             ['field'], ['freq'], ['distcheck'], ['validate']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
        "loaded = sorted({'numpy.ma', 'numpy.random'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)


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


@pytest.mark.parametrize("order", ["first", "second"])
def test_kernel_builds_no_block(tmp_path, monkeypatch, order):
    """Under the default convention the subcommand reads the diagonal entry
    as a row sum of amplitudes times mode products, and no block at all."""
    argv = ["kernel", "--order", order, "--n", "6", "--t0", "-1", "--t1", "1", "--nt", "9"]
    code, out = run(tmp_path / "blocks", *argv)
    assert code == 0
    keys = json.loads((out / "kernel_report.json").read_text()).keys()

    def no_block(*args, **kwargs):
        raise AssertionError("the kernel subcommand must build no block")

    monkeypatch.setattr(Kernel, "at", no_block)
    monkeypatch.setattr(Kernel, "values", property(no_block))
    monkeypatch.setattr("greenkit.spectra.mode_blocks", no_block)
    monkeypatch.setattr("greenkit.firstorder.mode_blocks", no_block)
    code, out = run(tmp_path / "none", *argv)
    assert code == 0
    assert json.loads((out / "kernel_report.json").read_text()).keys() == keys
    assert len((out / "kernel_diag.csv").read_text().strip().splitlines()) == 1 + 9


@pytest.mark.parametrize(
    "argv",
    [["--model", "well", "--n", "12"], ["--model", "free", "--n", "7"],
     ["--model", "oscillator", "--n", "10", "--grid-kind", "gauss"],
     ["--model", "relativistic", "--kmax", "4", "--direction", "advanced"],
     ["--model", "helmholtz", "--order", "second"], ["--model", "well", "--convention", "minus-i"]],
    ids=["well", "free", "oscillator", "relativistic", "helmholtz-second", "minus-i"],
)
def test_kernel_diag_is_the_block_diagonal(tmp_path, argv):
    """kernel_diag.csv reads G(x_mid, x_mid; tau) of each block to round-off,
    and the zeros off the causal side exactly."""
    code, out = run(tmp_path, "kernel", *argv, "--nt", "7")
    assert code == 0
    tau, re, im = np.loadtxt(out / "kernel_diag.csv", delimiter=",", skiprows=1, unpack=True)
    args = build_parser().parse_args(["kernel", *argv])
    basis = _build_basis(args)
    kern = Kernel(basis, tau, kind=args.direction, convention=args.convention if args.order == "first" else "eq24",
                  order=args.order)
    mid = basis.grid.size // 2
    blocks = np.array([kern.at(t)[mid, mid] for t in tau])
    assert np.max(np.abs(re + 1j * im - blocks)) <= 1e-14 * np.max(np.abs(blocks))
    assert np.all(re[blocks == 0] == 0) and np.all(im[blocks == 0] == 0)


def test_model_choices_are_the_builder_table(capsys):
    assert list(_BUILDERS) == ["well", "free", "oscillator", "relativistic", "helmholtz"]
    for model in _BUILDERS:
        assert build_parser().parse_args(["basis", "--model", model]).model == model
    with pytest.raises(SystemExit):
        build_parser().parse_args(["basis", "--model", "nosuch"])
    listed = capsys.readouterr().err.split("choose from")[1]
    assert all(model in listed for model in _BUILDERS)


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
    # the wave law takes any basis with non-negative eigenvalues, the well too
    code, out = run(tmp_path / "well", "kernel", "--model", "well", "--order", "second")
    assert code == 0
    assert json.loads((out / "kernel_report.json").read_text())["zero_time_value"] == 0.0


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


@pytest.mark.parametrize("direction", ["retarded", "advanced"])
@pytest.mark.parametrize("order", ["first", "second"])
def test_freq_files_are_the_per_pole_sum_to_the_byte(tmp_path, order, direction):
    """response.csv holds the pole form summed over the whole axis at once,
    one term r_n / (omega - omega_n + i s eta) at a time in pole order, and
    poles.json the shifted lines, both byte for byte as the writers put them."""
    argv = ["freq", "--model", "well", "--n", "6", "--i", "1", "--j", "2", "--order", order,
            "--eta", "0.05", "--direction", direction, "--nw", "401"]
    code, out = run(tmp_path, *argv)
    assert code == 0
    args = build_parser().parse_args(argv)
    dens = spectral_density(_build_basis(args), 1, 2, order=order)
    shift = {"retarded": -0.05j, "advanced": 0.05j}[direction]
    poles = [(complex(om + shift), complex(w)) for om, w in zip(dens.omegas, dens.weights)]
    omega = np.linspace(args.wmin, args.wmax, args.nw)
    vals = np.zeros(omega.shape, dtype=complex)
    for p, r in poles:
        vals += r / (omega - p)
    io.write_csv(str(tmp_path / "response.csv"), ["omega", "re", "im"], [omega, vals.real, vals.imag])
    io.write_json(str(tmp_path / "poles.json"), {"eta": 0.05, "direction": direction, "poles": io.pole_payload(poles)})
    for name in ("response.csv", "poles.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


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
    modes = all_modes(basis)
    w = modes[:, 1] * np.conj(modes[:, 2]) / (2j * root)
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


# The exit contract under hostile numbers: each subcommand's numeric flags
# (the size flags capped, to bound memory), drawn several at a time.
EXTREMES = (0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf)
MODEL_FLOATS = {"--a": 1.0, "--length": 10.0, "--hbar": 1.0, "--c": 1.0, "--mass": 1.0, "--omega-const": 1.0}
MODEL_SIZES = {"--n": (6, 24), "--kmax": (3, 8), "--points": (16, 64)}
SUBCOMMANDS = {  # name: (float flags with a typical value, size flags (typical, cap), choice flags)
    "basis": (MODEL_FLOATS, MODEL_SIZES, {}),
    "kernel": ({**MODEL_FLOATS, "--t0": -1.0, "--t1": 1.0}, {**MODEL_SIZES, "--nt": (9, 41)},
               {"--order": ["first", "second"], "--direction": ["auxiliary", "retarded", "advanced"],
                "--convention": ["eq24", "minus-i"]}),
    "propagate": ({**MODEL_FLOATS, "--tau": 0.5, "--x0": 0.5, "--sigma": 0.1}, MODEL_SIZES, {}),
    "field": ({**MODEL_FLOATS, "--t1": 2.0, "--x0": 0.5, "--sigma": 0.2}, {**MODEL_SIZES, "--nt": (6, 41)}, {}),
    "freq": ({**MODEL_FLOATS, "--eta": 0.05, "--wmin": -10.0, "--wmax": 10.0}, {**MODEL_SIZES, "--nw": (41, 401)},
             {"--order": ["first", "second"], "--direction": ["retarded", "advanced"], "--i": [0, 1, -1, 10**9],
              "--j": [0, 3, -1, 10**9]}),
    "distcheck": ({"--eta": 1e-2}, {}, {"--flavor": ["arctan", "exponential", "linear"]}),
    "validate": ({}, {}, {"--only": [str(n) for n in range(1, 12)]}),
}
MODEL_CHOICES = {"--model": ["well", "free", "oscillator", "relativistic", "helmholtz"],
                 "--grid-kind": ["uniform", "gauss"]}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    floats, sizes, choices = SUBCOMMANDS[command]
    if "--n" in sizes:
        choices = {**choices, **MODEL_CHOICES}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(floats)), unique=True, max_size=3)) if floats else []:
        argv.append(f"{flag}={draw(st.sampled_from([floats[flag], *EXTREMES]))!r}")
    for flag, (typical, cap) in sizes.items():
        argv.append(f"{flag}={draw(st.sampled_from([typical, 0, -1, 1, 2, cap]))}")
    for flag, options in choices.items():
        argv.append(f"{flag}={draw(st.sampled_from(options))}")
    return argv


def _no_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(hostile_argv())
def test_cli_keeps_its_exit_contract(argv):
    """0 or 2 (1 only where a validation can fail), no other exception, no
    warning, and every file written holds finite numbers only: JSON without
    NaN or Infinity, CSV with finite fields."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", tmp])
        assert code in ((0, 1, 2) if argv[0] in ("distcheck", "validate") else (0, 2))
        assert caught == []
        for path in Path(tmp).iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_no_constant)
            elif path.suffix == ".csv":
                rows = path.read_text().splitlines()[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
