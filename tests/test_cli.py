"""End-to-end command line checks via in-process main()."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import softiga.cli as cli
import softiga.spectral_analysis as spectral
import softiga.tensor as tensor
from softiga.cli import EXIT_CONFIG, EXIT_OK, main
from softiga.spectral_analysis import condition_stats, spectrum_for


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_reports_softened_quadratic_spectrum(capsys):
    code, out = run(["spectrum", "-p", "2", "-N", "100"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["j", "indices", "lambda_exact", "lambda_h",
                      "rel_err", "h1_err"]
    assert len(rows) == 100
    first, last = rows[0], rows[-1]
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(math.pi ** 2, rel=1e-12)
    assert float(first[4]) < 1e-7
    assert float(last[3]) == pytest.approx(4.7059e4, rel=5e-5)


def test_spectrum_handles_piecewise_linear_baseline(capsys):
    code, out = run(["spectrum", "-p", "1", "-N", "4", "--method", "iga"],
                    capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert float(rows[0][3]) == pytest.approx(math.pi ** 2, rel=0.06)


def test_outlier_free_cubic_has_no_spurious_top_modes(capsys):
    code, out = run(["spectrum", "-p", "3", "-N", "100",
                     "--method", "of-iga"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 99
    assert float(rows[-1][3]) == pytest.approx(9.8675e4, rel=5e-5)


def test_condition_matches_quadratic_reference_row(capsys):
    code, out = run(["condition", "-p", "2", "-N", "100"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["d"] == "1" and row["p"] == "2"
    assert float(row["lambda_min"]) == pytest.approx(9.8696, rel=5e-5)
    assert float(row["lambda_max_baseline"]) == pytest.approx(1.0000e5,
                                                              rel=5e-5)
    assert float(row["lambda_max_target"]) == pytest.approx(4.7059e4,
                                                            rel=5e-5)
    assert float(row["gamma_baseline"]) == pytest.approx(1.0132e4,
                                                         rel=5e-5)
    assert float(row["gamma_target"]) == pytest.approx(4.7681e3, rel=5e-5)
    assert float(row["rho"]) == pytest.approx(2.1250, rel=5e-5)
    assert float(row["varrho_pct"]) == pytest.approx(52.94, abs=0.01)


def test_csv_and_json_outputs_agree(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    args = ["spectrum", "-p", "3", "-N", "8"]
    assert main(args + ["--out", str(csv_path)]) == EXIT_OK
    assert main(args + ["--format", "json",
                        "--out", str(json_path)]) == EXIT_OK
    capsys.readouterr()
    header, rows = parse_csv(csv_path.read_text())
    payload = json.loads(json_path.read_text())
    assert len(payload) == len(rows)
    for row, record in zip(rows, payload):
        for name, text in zip(header, row):
            value = record[name]
            if isinstance(value, str):
                assert value == text
            elif isinstance(value, int):
                assert value == int(text)
            else:
                assert value == pytest.approx(float(text), rel=1e-13,
                                              abs=1e-300)


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["condition", "-p", "3", "-N", "40", "-d", "2"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_convergence_subcommand_fits_quartic_slope(capsys):
    code, out = run(["convergence", "-p", "2", "--j", "1"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["N", "error", "fitted_slope"]
    assert len(rows) == 8
    slopes = {row[2] for row in rows}
    assert len(slopes) == 1
    assert float(rows[0][2]) == pytest.approx(4.0, abs=0.2)


def test_eta_sweep_subcommand_rows_and_monotonicity(capsys):
    code, out = run(["eta-sweep", "-p", "2", "-N", "16",
                     "--grid-points", "5"], capsys)
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0
    rhos = [float(row[1]) for row in rows]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))


def test_dispersion_subcommand_super_weight(capsys):
    code, out = run(["dispersion", "-p", "3", "--eta", "super"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["power"] == "8"
    assert float(row["coeff_exact"]) == pytest.approx(1 / 60480,
                                                      rel=1e-12)
    assert float(row["rel_gap"]) < 1e-6


def test_verify_reports_all_green(capsys):
    code, out = run(["verify"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    names = [check["name"] for check in payload["checks"]]
    assert "closed_form_match" in names
    assert "commutators" in names
    assert all(check["pass"] for check in payload["checks"])


@pytest.mark.parametrize("argv", [
    ["spectrum", "-p", "2", "--eta", "0.1"],
    ["spectrum", "-p", "5"],
    ["spectrum", "-p", "2", "--method", "iga", "--eta", "0.001"],
    ["spectrum", "-p", "4", "--eta-b", "paper"],
    ["spectrum", "--eta", "abc"],
    ["spectrum", "-p", "2", "--eta", "-0.001"],
    ["condition", "-p", "2", "-N", "10", "--eta", "nan"],
    ["spectrum", "-p", "2", "-N", "10", "--eta-b", "nan"],
    ["convergence", "-p", "2", "-d", "3", "--N-list", "8,16"],
    ["dispersion", "-p", "3", "-d", "3"],
])
def test_invalid_configurations_exit_with_config_code(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "config error" in captured.err


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["spectrum", "-d", "4"],
    [],
])
def test_usage_errors_exit_with_config_code(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    capsys.readouterr()
    assert excinfo.value.code == EXIT_CONFIG


def test_weight_above_default_warns_but_runs(capsys):
    with pytest.warns(UserWarning):
        code = main(["spectrum", "-p", "2", "-N", "8", "--eta", "0.015"])
    capsys.readouterr()
    assert code == EXIT_OK


@pytest.mark.parametrize("p,N,d,n1", [(3, 16, 2, 15), (2, 12, 3, 12),
                                      (2, 4, 3, 4)])
def test_multi_dimensional_spectrum_pairs_lattice_values(p, N, d, n1,
                                                         capsys):
    code, out = run(["spectrum", "-p", str(p), "-N", str(N), "-d", str(d)],
                    capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["j", "indices", "lambda_exact", "lambda_h",
                      "rel_err"]
    assert len(rows) == n1 ** d
    # every |j|^2 over a box large enough to hold the n1^d smallest
    sums = sorted(sum(j * j for j in idx) for idx in
                  itertools.product(range(1, 2 * n1 + 1), repeat=d))
    exact = np.array([float(row[2]) for row in rows])
    np.testing.assert_allclose(exact / math.pi ** 2, sums[:n1 ** d],
                               rtol=1e-15)
    computed = np.array([float(row[3]) for row in rows])
    assert np.all(np.diff(computed) >= 0)


def _counting_builds(monkeypatch):
    """Record the (p, N) of every assembly the CLI starts."""
    builds = []
    original = cli.build_soft_system

    def counting(*args, **kwargs):
        builds.append(args[:2])
        return original(*args, **kwargs)

    for module in (cli, spectral):
        monkeypatch.setattr(module, "build_soft_system", counting)
    return builds


@pytest.mark.parametrize("baseline", ["iga", "of-iga"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_condition_equals_the_full_lift_route(p, d, baseline, monkeypatch,
                                              capsys):
    argv = ["condition", "-p", str(p), "-N", "20", "-d", str(d),
            "--baseline", baseline]
    builds = _counting_builds(monkeypatch)
    code, out = run(argv, capsys)
    assert code == EXIT_OK
    # a baseline on the target's (outlier-free) space is not reassembled
    assert len(builds) == (1 if baseline == "of-iga" else 2)
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    stats = condition_stats(
        spectrum_for(p, 20, config.eta, d, config.eta_b),
        spectrum_for(p, 20, 0.0, d, 0.0, cli._METHOD_FLAVOR[baseline]))
    cli._emit(config, ["d", "p", "lambda_min", "lambda_max_baseline",
                       "lambda_max_target", "gamma_baseline",
                       "gamma_target", "rho", "varrho_pct"],
              [[d, p, stats.lambda_min, stats.lambda_max_baseline,
                stats.lambda_max_target, stats.gamma_baseline,
                stats.gamma_target, stats.rho, stats.varrho_pct]])
    assert out == capsys.readouterr().out


def test_verify_assembles_each_mesh_once(monkeypatch):
    builds = _counting_builds(monkeypatch)
    cli._verify_checks()
    assert len(builds) == len(set(builds))


@pytest.mark.parametrize("argv", [
    ["spectrum", "-p", "2", "-N", "200", "-d", "3"],
    ["eta-sweep", "-p", "2", "-N", "200", "-d", "3"],
    ["spectrum", "-p", "3", "-N", "1500", "-d", "2", "--method", "iga"],
])
def test_oversized_lifts_are_refused_before_assembly(argv, monkeypatch,
                                                     capsys):
    builds = _counting_builds(monkeypatch)
    code = main(argv)
    assert code == EXIT_CONFIG
    assert "above the limit" in capsys.readouterr().err
    assert builds == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "-p", "2", "-N", "4", "-d", "3"],
    ["eta-sweep", "-p", "3", "-N", "5", "-d", "3", "--grid-points", "2"],
    ["spectrum", "-p", "3", "-N", "5", "-d", "3", "--method", "iga"],
])
def test_lift_limit_boundary(argv, monkeypatch, capsys):
    # n1 = 4 (outlier-free p = 2, N = 4; p = 3, N = 5) and 6 (standard)
    n1 = 6 if "iga" in argv else 4
    monkeypatch.setattr(tensor, "MAX_LIFT_ENTRIES", n1 ** 3)
    code, out = run(argv, capsys)
    assert code == EXIT_OK and out
    monkeypatch.setattr(tensor, "MAX_LIFT_ENTRIES", n1 ** 3 - 1)
    builds = _counting_builds(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    assert "above the limit" in capsys.readouterr().err
    assert builds == []
    # condition builds no lift, so the limit does not apply to it
    assert main(["condition"] + argv[1:7]) == EXIT_OK


def test_import_loads_no_sparse_module():
    import softiga

    source_root = os.path.dirname(os.path.dirname(softiga.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    code = ("import sys, softiga, softiga.cli;"
            " sys.exit('scipy.sparse' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=env).returncode == 0
