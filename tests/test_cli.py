"""End-to-end command line checks via in-process main()."""

import argparse
import contextlib
import functools
import hashlib
import io
import importlib.util
import itertools
import json
import math
import os
import re
import select
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import softiga.assembly as assembly
import softiga.cli as cli
import softiga.eigensolve as eigensolve
import softiga.spectral_analysis as spectral
import softiga.tensor as tensor
from oracles import fresh_assembly_caches, full_lift_values
from softiga.analytic import analytic_eigenvalue, eta_table
from softiga.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from softiga.spectral_analysis import condition_stats


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


def test_convergence_on_one_repeated_mesh_is_refused(monkeypatch, capsys):
    builds = _counting_builds(monkeypatch)
    code = main(["convergence", "-p", "2", "--N-list", "8,8"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert "two distinct meshes" in captured.err
    assert "'8,8'" in captured.err
    assert builds == []


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
    ["eta-sweep", "-p", "5", "-N", "10"],
    # j = 9 fits N = 16 but not N = 8, which comes second
    ["convergence", "-p", "2", "--j", "9", "--quantity", "h1",
     "--N-list", "16,8"],
    ["convergence", "-p", "2", "--j", "0", "--N-list", "8,16"],
    ["convergence", "-p", "2", "--j", "-2", "--quantity", "h1",
     "--N-list", "8,16"],
    ["convergence", "-p", "2", "--j", "40", "--N-list", "8,16"],
    ["convergence", "-p", "2", "--N-list", ""],
    ["dispersion", "-p", "3", "--eta", ""],
    ["eta-sweep", "-p", "2", "-N", "10", "--grid-points", "0"],
    ["eta-sweep", "-p", "2", "-N", "10", "--grid-points", "-2"],
    # --N-list needs two distinct meshes with N >= 1
    ["convergence", "-p", "2", "--N-list", "8"],
    ["convergence", "-p", "2", "--N-list", "0,8"],
    ["convergence", "-p", "2", "--N-list", ","],
    # only softiga takes a mass-side weight
    ["condition", "-p", "3", "-N", "20", "--method", "of-iga",
     "--eta-b", "paper"],
])
def test_invalid_configurations_exit_with_config_code(argv, monkeypatch,
                                                      capsys):
    builds = _counting_builds(monkeypatch)
    _one_line_config_error(argv, capsys)
    assert builds == []


# options the subcommand does not read, which argparse refuses
_UNREAD_OPTIONS = [
    ["verify", "-p", "3"],
    ["verify", "--format", "csv"],
    ["dispersion", "-p", "3", "--eta-b", "paper"],
    ["dispersion", "-p", "3", "-N", "40"],
    ["dispersion", "-p", "3", "--method", "iga"],
    ["dispersion", "-p", "3", "-d", "3"],
    ["eta-sweep", "-p", "2", "-N", "10", "--method", "iga"],
    ["eta-sweep", "-p", "2", "-N", "10", "--eta", "0.001"],
    ["convergence", "-p", "2", "-N", "40"],
    ["convergence", "-p", "2", "-d", "3", "--N-list", "8,16"],
]

# a mesh list that argparse refuses as not integers
_NOT_AN_INTEGER = ["convergence", "-p", "2", "--N-list", "8,x"]


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["spectrum", "-d", "4"],
    [],
] + _UNREAD_OPTIONS + [_NOT_AN_INTEGER])
def test_usage_errors_exit_with_config_code(argv, monkeypatch, capsys):
    builds = _counting_builds(monkeypatch)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == EXIT_CONFIG
    assert builds == []
    if argv in _UNREAD_OPTIONS:
        assert "unrecognized arguments" in err
    if argv == _NOT_AN_INTEGER:
        assert "expected comma-separated integers" in err


def _one_line_config_error(argv, capsys):
    """Run argv; assert exit 1, no stdout and a one-line config error."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith("softiga: config error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def _numerical_failure(argv, capsys):
    """Run argv; assert exit 2, no stdout and a one-line residual-contract
    failure."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert re.fullmatch(r"softiga: numerical failure: .*residual"
                        r" contract.*\n", captured.err)


@pytest.mark.parametrize("argv", [
    ["spectrum", "-p", "16", "-N", "3", "--method", "iga"],
    ["convergence", "-p", "16", "--method", "iga", "--N-list", "3,4"],
])
def test_dense_contract_breach_is_a_numerical_failure(argv, capsys):
    # the standard space of p = 16 on three elements: the dense solve's
    # worst pair misses its residual bound 25-fold
    _numerical_failure(argv, capsys)


@pytest.mark.parametrize("eta_b", ["1e100", "1e150", "1e200", "1e300"])
@pytest.mark.parametrize("command", ["spectrum", "condition"])
def test_huge_mass_side_weight_succeeds_or_fails_in_one_line(command, eta_b,
                                                             capsys):
    # the pencil is finite, but its products may overflow in the solve;
    # up to 1e150 both solvers finish
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "-p", "2", "-N", "8", "--eta-b", eta_b])
    captured = capsys.readouterr()
    if eta_b in ("1e100", "1e150"):
        assert code == EXIT_OK
    if code == EXIT_OK:
        assert captured.out and captured.err == ""
    else:
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert re.fullmatch(r"softiga: numerical failure: [^\n]*\n",
                            captured.err)


@pytest.mark.parametrize("eta_b", ["1e200", "1e300"])
@pytest.mark.parametrize("command", ["spectrum", "condition"])
def test_a_stretched_band_overflows_its_norm_as_a_whole_one(command, eta_b,
                                                            capsys):
    # the Frobenius norm of B overflows in its product, on the mesh of
    # whole bands (N = 8) and on the stretched one (N = 40) alike
    for N in ("8", "40"):
        assert main([command, "-p", "2", "-N", N, "--eta-b", eta_b]) == (
            EXIT_NUMERICAL)
        assert capsys.readouterr() == ("", "softiga: numerical failure:"
                                       " overflow encountered in matmul"
                                       " during the solve\n")


@pytest.mark.parametrize("command", ["spectrum", "condition"])
def test_mass_side_weight_past_the_double_range_fails_in_one_line(command,
                                                                  capsys):
    # the weighted softness band overflows to inf before any solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "-p", "2", "-N", "8", "--eta-b", "1.7e308"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err == ("softiga: numerical failure: non-finite entries"
                            " in the pencil\n")


def test_eta_sweep_contract_breach_is_a_numerical_failure(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(eigensolve, "RESIDUAL_RTOL", 1e-300)
    _numerical_failure(["eta-sweep", "-p", "2", "-N", "10"], capsys)


def test_main_parses_with_the_parser_built_at_import(monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called by main")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["condition", "-p", "2", "-N", "8"]) == EXIT_OK
    capsys.readouterr()


def test_out_to_a_missing_directory_is_a_config_error(tmp_path,
                                                      monkeypatch, capsys):
    path = tmp_path / "missing" / "x"
    builds = _counting_builds(monkeypatch)
    err = _one_line_config_error(["spectrum", "-p", "2", "-N", "8",
                                  "--out", str(path)], capsys)
    assert str(path) in err
    assert not path.parent.exists()
    assert builds == []


def test_failing_run_leaves_an_existing_out_file_unchanged(tmp_path,
                                                          capsys):
    path = tmp_path / "report"
    path.write_bytes(b"an earlier report\n")
    # p = 5 has no default softness weight: a config error
    _one_line_config_error(["spectrum", "-p", "5", "--out", str(path)],
                           capsys)
    assert path.read_bytes() == b"an earlier report\n"


@pytest.mark.parametrize("argv,expected", [
    (["spectrum", "-p", "2", "-N", "8", "--eta-b", "1e400"], EXIT_CONFIG),
    (["condition", "-p", "5", "-N", "40", "--eta", "1"], EXIT_CONFIG),
    (["spectrum", "-p", "16", "-N", "3", "--method", "iga"],
     EXIT_NUMERICAL),
])
def test_failing_run_leaves_no_new_out_file(argv, expected, tmp_path,
                                            capsys):
    path = tmp_path / "report"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--out", str(path)]) == expected
    # eta = 1 is far beyond the sharp weight of p = 5, which the assembly
    # warns about before the run fails
    assert [w.category for w in caught] == (
        [assembly.IndefinitenessWarning] if "--eta" in argv else [])
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert not path.exists()


def test_a_weight_beyond_the_sharp_one_warns_at_an_untabulated_degree(
        capsys):
    # p = 14 tabulates no weight, so --eta is not refused up front; 1e-6
    # is about 4e7 times its sharp weight, and the lowest printed value
    # is negative
    with pytest.warns(assembly.IndefinitenessWarning,
                      match=r"sharp threshold 2\.403441524377253e-14"
                            r" for p=14"):
        code, out = run(["spectrum", "-p", "14", "-N", "15", "--eta",
                         "1e-6", "--eta-b", "1e-4"], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    column = header.index("lambda_h")
    assert float(rows[0][column]) < 0


def test_outlier_free_space_coarser_than_its_degree_is_a_config_error(
        capsys):
    err = _one_line_config_error(["spectrum", "-p", "5", "-N", "4",
                                  "--eta", "zero"], capsys)
    assert "needs N >= 5" in err


def test_outlier_free_spectrum_past_degree_16_runs(capsys):
    code, out = run(["spectrum", "-p", "17", "-N", "40", "--method",
                     "of-iga"], capsys)
    assert code == EXIT_OK
    # a header and the N - 1 eigenvalues of the odd degree
    assert len(out.splitlines()) == 40


def test_dense_solve_above_the_order_limit_is_a_config_error(monkeypatch,
                                                             capsys):
    # condition solves on bands; spectrum needs the dense solve
    argv = ["spectrum", "-p", "2", "-N", "20"]
    monkeypatch.setattr(eigensolve, "MAX_DENSE_ORDER", 10)
    err = _one_line_config_error(argv, capsys)
    assert "above the limit of 10" in err
    # the space of p = 2, N = 20 has order 20
    monkeypatch.setattr(eigensolve, "MAX_DENSE_ORDER", 21)
    assert main(argv) == EXIT_OK


def test_condition_above_the_dense_limit_runs_on_bands(capsys):
    p, N = 3, 6000
    assert N > eigensolve.MAX_DENSE_ORDER
    code, out = run(["condition", "-p", str(p), "-N", str(N)], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    eta = float(eta_table().default[p])
    exact = analytic_eigenvalue(p, eta, N - 1, N)
    assert float(row["lambda_max_target"]) == pytest.approx(exact,
                                                            rel=1e-14)


def test_condition_above_its_order_limit_is_refused_before_assembly(
        monkeypatch, capsys):
    # the standard space of p = 3, N = 20 has order 21, the OF one 19
    argv = ["condition", "-p", "3", "-N", "20"]
    monkeypatch.setattr(cli, "MAX_CONDITION_ORDER", 20)
    builds = _counting_builds(monkeypatch)
    err = _one_line_config_error(argv, capsys)
    assert "order 21 is above the limit of 20" in err
    assert builds == []
    monkeypatch.setattr(cli, "MAX_CONDITION_ORDER", 21)
    assert main(argv) == EXIT_OK


def test_eta_sweep_above_its_grid_limit_is_refused_before_assembly(
        monkeypatch, capsys):
    argv = ["eta-sweep", "-p", "2", "-N", "8", "--grid-points"]
    builds = _counting_builds(monkeypatch)
    err = _one_line_config_error(argv + [str(cli.MAX_GRID_POINTS + 1)],
                                 capsys)
    assert f"--grid-points must be in 1..{cli.MAX_GRID_POINTS}" in err
    assert builds == []
    code, out = run(argv + [str(cli.MAX_GRID_POINTS)], capsys)
    assert code == EXIT_OK
    assert len(parse_csv(out)[1]) == cli.MAX_GRID_POINTS


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # perfbench's tracer times each cmd_* by rebinding it in the module
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert main(["verify"]) == 7


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


def _counting_raw_operators(monkeypatch):
    """Record the (p, N) of every raw assembly of a knot vector, from
    empty per-mesh caches. Only the standard space at p >= 3 has one:
    the outlier-free bands are rounded from the exact completion."""
    fresh_assembly_caches()
    calls = []
    original = assembly._raw_operators

    def counted(kv):
        calls.append((kv.p, kv.N))
        return original(kv)

    monkeypatch.setattr(assembly, "_raw_operators", counted)
    return calls


@pytest.mark.parametrize("baseline", ["iga", "of-iga"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_condition_equals_the_full_lift_route(p, d, baseline, monkeypatch,
                                              capsys):
    argv = ["condition", "-p", str(p), "-N", "20", "-d", str(d),
            "--baseline", baseline]
    calls = _counting_raw_operators(monkeypatch)
    code, out = run(argv, capsys)
    assert code == EXIT_OK
    # the target and the baseline, on one space or two, are stretched
    # from the references of their degree, and only a standard baseline
    # at p >= 3 assembles a raw one
    raw = baseline == "iga" and p >= 3
    assert calls == [(p, assembly._reference_size(p))] * raw
    args = cli.build_parser().parse_args(argv)
    eta, eta_b = cli._weights(args)
    stats = condition_stats(
        full_lift_values(p, 20, eta, d, eta_b),
        full_lift_values(p, 20, 0.0, d, 0.0, cli._METHOD_FLAVOR[baseline]))
    header, rows = parse_csv(out)
    row = dict(zip(header, map(float, rows[0])))
    assert (row["d"], row["p"]) == (d, p)
    # the band ends differ from the dense ones only by round-off, up to
    # eps * lambda_max on lambda_min, so by eps * gamma relative
    rtol = 8 * np.finfo(float).eps * max(stats.gamma_baseline,
                                         stats.gamma_target)
    for name in header[2:]:
        assert row[name] == pytest.approx(getattr(stats, name), rel=rtol)


@pytest.mark.parametrize("command", [
    "condition -p 3 -N 40",
    "condition -p 2 -N 40",
    "condition -p 3 -N 40 --baseline of-iga",
    "condition -p 4 -N 40 --method iga --baseline iga",
])
def test_condition_assembles_each_raw_operator_once(command, monkeypatch,
                                                    capsys):
    calls = _counting_raw_operators(monkeypatch)
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    # a standard space at p >= 3, as target or baseline, reads the one
    # raw reference of its degree, assembled once per process; the
    # outlier-free space assembles none
    args = cli.build_parser().parse_args(command.split())
    p = args.p
    raw = p >= 3 and "standard" in {cli._METHOD_FLAVOR[args.method],
                                    cli._METHOD_FLAVOR[args.baseline]}
    assert calls == [(p, assembly._reference_size(p))] * raw
    assert run(command.split(), capsys) == (EXIT_OK, out)
    assert len(calls) == raw


@pytest.mark.parametrize("mesh", ["-p 2 -N 10", "-p 3 -N 30"])
def test_softiga_baseline_is_the_of_iga_baseline(mesh, capsys):
    # a baseline is always the unsoftened pencil, so softiga names the
    # outlier-free one
    outs = [run(["condition"] + mesh.split() + ["--baseline", baseline],
                capsys) for baseline in ("softiga", "of-iga")]
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK


def test_verify_assembles_each_mesh_once(monkeypatch):
    builds = _counting_builds(monkeypatch)
    cli._verify_checks()
    assert len(builds) == len(set(builds))


def _verify_bands(p):
    """The two bands whose lowest eigenvalue verify reads at degree p:
    the stiffness side just above the sharp weight, and the coercivity
    certificate's A - beta K."""
    table = eta_table()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", assembly.IndefinitenessWarning)
        above = assembly.build_soft_system(
            p, 50, 1.01 * float(table.sharp_max[p]))
    eta = float(table.default[p])
    system = assembly.build_soft_system(p, 20, eta)
    beta = 1.0 - eta / float(table.theoretical_max[p])
    return above.A, system.A.plus(-beta, system.stiffness)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_lowest_eigenvalue_matches_the_dense_solve(p):
    for X in _verify_bands(p):
        dense = np.linalg.eigvalsh(X.toarray())[0]
        low = eigensolve.lowest_eigenvalue(X)
        assert abs(low - dense) <= 1e-13 * X.frobenius()


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_one_factorization_tells_a_positive_pencil(p, factor):
    # the verify read of positivity below the sharp weight, against the
    # bisection of the pencil
    sharp = float(eta_table().sharp_max[p])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", assembly.IndefinitenessWarning)
        system = assembly.build_soft_system(p, 50, factor * sharp)
    positive = eigensolve.extreme_eigenpairs(system.A, system.B).values[0] > 0
    assert (eigensolve.cholesky_pivot(system.A) == 0) == positive
    assert positive == (factor < 1)


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


# md5 of stdout for a fixed command list, recorded from the code that
# still had a separate d = 1 report path and a second condition path, so
# any byte a refactor changes fails here. Every pencil has order <= 60,
# where the output does not depend on the number of BLAS threads. The
# condition digests were recorded again when condition moved from the
# dense solve to the band one, which moves the last one or two digits,
# and the eta-sweep and verify digests when their weights were first
# reweighted from one solve per space instead of solved afresh. The
# spectrum, convergence and verify digests were recorded again when the
# dense solve formed A V and B V as band products instead of dense
# ones, and the mass norms of the H1 errors likewise: the Rayleigh
# quotients, residuals and mode norms move in their last digits. The
# spectrum, convergence, eta-sweep and verify digests were recorded
# again when the outlier-free spectra came from the closed-form
# eigenvectors instead of the dense solve, the weight sweeps read their
# energies from them, and the H1 errors were integrated in blocks of
# modes with the continuum modes from angle addition: values, relative
# errors and H1 errors move in their last digits. The outlier-free
# spectrum and convergence digests, and verify's residual line, were
# recorded again when the closed-form values came from the per-mode
# energies, (k - eta s) / (m + eta_b h^2 s), instead of the band
# quotients x^T A x / x^T B x: values move by at most 1.2e-11 relative,
# within the eps * lambda_max / lambda_j floor both formulas share. The
# digests that print H1 errors of closed-form modes were recorded again
# when those errors came from one element instead of a quadrature over
# all N: only the h1_err and error cells (and the slope fitted through
# the latter) move, by at most 1.2e-12 relative and 1.1e-14 absolute.
# The digests of every mesh above the reference size of its degree
# (``assembly._reference_size``) were recorded again when its bands were
# stretched from one reference per degree instead of assembled on the
# mesh, and those of the dense H1 errors when their sums ran in a fixed
# order per mode: the bands move by round-off, lambda_1 towards its
# closed form, and every printed value by at most 3.6e-10 relative but
# for low-mode errors at the round-off floor (see CHANGES.md). Every
# digest of an outlier-free or p <= 2 pencil was recorded again when
# those bands were rounded from the exact completion of their stencils
# instead of assembled by quadrature and folded: eigenvalues move by at
# most 4.6e-14 relative, the ratios read from them by at most 4.7e-13,
# errors at the round-off floor by more, and one tie of the d = 3 lift
# swaps its index triple (see CHANGES.md). Every digest of an
# outlier-free or p <= 2 pencil but dispersion's was recorded again when
# its values came from the interior symbol of the exact stencils instead
# of quotients of the rounded bands, and condition's two ends from the
# extremes of those values instead of bisection: eigenvalues and the
# ratios read from them move by at most 2.6e-14 relative, relative
# errors at the round-off floor by more (up to 9.6e-4 of a 1.1e-12
# error), and verify's gap and residual lines in their digits; no H1
# error moves (see CHANGES.md). The same digests, but for the two of
# condition -p 2 -N 12 and the outlier-free --quantity h1 one, were
# recorded again when the symbol summed its mass symbols as positive
# polynomials in cos^2(theta/2) instead of cancelling cosine series:
# eigenvalues move by at most 2.2e-15 relative, errors at the round-off
# floor by more (see CHANGES.md). The verify digest was recorded again
# when the closed-form residuals became certificates read from the bands
# ("max residual 2.643e-13" -> "max residual bound 8.777e-12") and its
# coercivity gap within 16 eps ||X||_F of 0 read as 0 ("worst scaled
# slack 0.000e+00 (floor -1e-10)" -> "... (floor -1e-10; gaps within 16
# eps ||X||_F read as 0)"), and again when the certificates took a
# stretched band's first c + hbw rows twice and certified whole bands
# row by row instead of reading regular rows off a scan of the
# written-out bands ("max residual bound 8.777e-12" -> "... 9.409e-12").
# The nine condition digests with a standard pencil at p = 3 and 4 were
# recorded again when its lambda_min came from steps at a certified shift
# and, above 12 hbw + 24 rows, its top from a shift above its leading
# block's top instead of a bisection: lambda_min, lambda_max and the
# ratios read from them move by at most 2.9e-14 relative (see CHANGES.md).
_GOLDEN_STDOUT = {
    "spectrum -p 2 -N 4 -d 3": "e5cc090f24c2f451fb52d865f7d48c02",
    "spectrum -p 3 -N 16 -d 2": "e00fb14db43005c7de3f898d4d516309",
    "spectrum -p 3 -N 12 -d 2 --format json":
        "94f6a9fe5640e8391fc47c2bdc842a4f",
    "spectrum -p 2 -N 8": "299e7b065010e2fc8e9e87234ec549f4",
    "spectrum -p 3 -N 8 --format json": "d784bc3580cd6e705522da0f3a9ea9ff",
    "spectrum -p 1 -N 4 --method iga": "4b527fc12d25d9bff984f1a0d4673c8d",
    "condition -p 4 -N 40 -d 3": "14e31624b1e93ddf8f63a33c486054be",
    "condition -p 3 -N 40 -d 3 --baseline of-iga":
        "7eaa3bea68e2677d0be0fcbdf18f23e4",
    "condition -p 2 -N 60 -d 2": "ed887cc891eac0b52f0bf417b5e18600",
    "condition -p 2 -N 10 -d 1 --format json":
        "5610301fca8b7bb1ffcd17f63c43cc5a",
    "eta-sweep -p 2 -N 10 -d 3": "72644f874836dbbaf4df018e908c417c",
    "eta-sweep -p 2 -N 10 -d 2 --grid-points 4":
        "6de93628113863bba6352cd71dfe58da",
    "eta-sweep -p 3 -N 12": "b80796f85b4ec2ad5c5f4468d1169873",
    "convergence -p 3": "f2e3fe3dae2057772133400a264af5b2",
    "convergence -p 2 --quantity h1 --N-list 8,12,16":
        "842db8e636013d6a392449314a3d7acf",
    "convergence -p 2 --j 3 --N-list 8,16":
        "1cb541f1b767f726ec03d12557aa0bcf",
    "dispersion -p 3 --eta super": "191625458240f70948464229e03030d3",
    "verify": "b7ecae1dec258e65c3d390f94017c61d",
    # recorded from the code that lifted and checked every weight of a
    # sweep in turn, and held every lift
    "eta-sweep -p 2 -N 500 --grid-points 200":
        "d75478e277a46f5e92f48057645da3d1",
    "eta-sweep -p 3 -N 40 -d 2": "15238a42cad867474a35a1b9ac29731c",
    "eta-sweep -p 2 -N 40 -d 3 --grid-points 300":
        "6de349a75042febe267d5dd4d3fb0b41",
    "eta-sweep -p 2 -N 40 -d 3 --grid-points 300 --format json":
        "385644e62fac79fa530d8a933efa5699",
    # recorded from the code that still gave every subcommand the same
    # eight options
    "eta-sweep -p 2 -N 10 --format json":
        "e549c6c3eeb8df73d9930d4e77762a1e",
    "convergence -p 2 --N-list 8,16 --format json":
        "1cfb536226588f36ee997799c1f509fc",
    "dispersion -p 3 --eta super --format json":
        "37a88a9e2ca04c37efd5de551e2d4616",
    # recorded from the code whose SoftSystem.A/.B were dense arrays:
    # a mass side B != M, both space pairings of condition, and p = 4
    "spectrum -p 2 -N 12 --eta-b paper": "5a332147120b2a94f2bf4ba5a38f5005",
    "spectrum -p 3 -N 12 --eta-b paper": "37fa1b6346e427771a2ee8278a03ff9d",
    "condition -p 2 -N 30 --eta-b paper --baseline of-iga":
        "37130dc02c4dbb83e57e50a31e6168bb",
    "condition -p 3 -N 20 --method of-iga --baseline iga":
        "a497951df4630633916b369415b508c3",
    "spectrum -p 4 -N 10 --method iga": "3bf704edc90dce68ac7dfd242fa6e9ad",
    # recorded from the code that reached a mode error through four
    # wrappers: h1 on the standard space, a mass side, a super weight
    "convergence -p 3 --quantity h1 --method iga --N-list 8,12":
        "c0260bf205fd441ebe4790ab440e6ac9",
    "convergence -p 2 --eta-b paper --N-list 8,16":
        "11fdd0a9c4a3ec1fdbf482c2c86b9e30",
    "convergence -p 4 --eta super --N-list 6,9,12":
        "2ba0b88cbb36e421280c59ba5aabc71c",
    # recorded from the code whose p <= 2 outlier-free space was a
    # relabeled copy of the standard one, assembled twice by condition
    "condition -p 2 -N 12 --method of-iga --baseline iga":
        "651d0f42f3b2314a101c69f786d15ff6",
    "condition -p 2 -N 12 --method iga --baseline of-iga":
        "651d0f42f3b2314a101c69f786d15ff6",
    "spectrum -p 1 -N 6 --method of-iga": "3daa3ee08e18957fae77de96200c6db3",
    # recorded from the code that solved a baseline on the target's space
    # through its own route: a standard space, bisected on both pencils,
    # and an outlier-free one whose B differs between them
    "condition -p 4 -N 30 --method iga --baseline iga":
        "1a7a2148f10c656d2536e1036904539f",
    "condition -p 3 -N 30 --eta-b paper --baseline of-iga":
        "40806cdab57f4efd88f89b9388753f15",
    # recorded from the code that formed every closed-form mode at once:
    # several blocks of modes (n = 299) and one (n = 119)
    "eta-sweep -p 3 -N 300": "1f68149142ddac557b6b141370f689d7",
    "eta-sweep -p 3 -N 120": "cc8a4f0d133af954e3b7bb8ba5ec3ab1",
    # the benchmark's cases (perfbench/workloads.py) not pinned above,
    # recorded from the code whose outlier-free space stored its folds
    "condition -p 2 -N 100": "5945436ecff62a6b1770680181e8f26b",
    "condition -p 2 -N 200": "ad5bd5a7391516cefcd900521e616170",
    "condition -p 2 -N 400": "67a542e5c497c36b2b5292eb693dde71",
    "condition -p 3 -N 100": "715cfba0ce293c87ee8e1a49d0683209",
    "condition -p 3 -N 200": "85bf445a7ff31b5f4de33e7de6c515b1",
    "condition -p 3 -N 400": "9db3dbc193820a10b2afc3a285926b5d",
    "condition -p 4 -N 100": "70ff7796a79aea12ba9942166a7aeeab",
    "condition -p 4 -N 200": "7b6d7cf916764ae51b7204b58620afb5",
    "condition -p 4 -N 400": "d5588fb3a19ff55a878e2c4be0d5820e",
    "eta-sweep -p 2 -N 100": "7156f6d3e0a7bc8423a98b745d8e4a55",
    "eta-sweep -p 4 -N 80": "56e4ecb961cda01a6d672a1b8b67865e",
    "spectrum -p 3 -N 200": "74f8f8aeebbb8faf9f1acbc0b26369da",
    "spectrum -p 4 -N 120": "cfce2d1f1091e77f554ab5acac6a519e",
    "convergence -p 2 --quantity h1": "d6c1f7392f8693ccf2dca8b9eba69416",
    "convergence -p 3 --quantity h1": "b99c4c51c3e1b67a32775b5fb2a19370",
    "dispersion -p 5 --eta zero": "15e4939559e521c64303606cbec16256",
    # recorded from the code that formatted a report cell by cell and
    # held every row and the whole text at once: lifts of 64,000 rows in
    # both formats and of 3,481 in JSON, and a sweep of 1000 weights
    "spectrum -p 2 -N 40 -d 3": "e1beaf023e755913a9063e16f097c297",
    "spectrum -p 2 -N 40 -d 3 --format json":
        "1b9dcf62e40478d7cc091363d8bc91d2",
    "spectrum -p 3 -N 60 -d 2 --format json":
        "6ac1a0a582eccc2e2af1f260c89efbda",
    "eta-sweep -p 3 -N 40 --grid-points 1000":
        "ea6534b482d9abab97a4d70db3bf593b",
}


def test_every_benchmark_case_has_a_recorded_digest():
    spec = importlib.util.spec_from_file_location(
        "workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = {" ".join(argv) for argv in
             itertools.chain.from_iterable(workloads.WORKLOADS.values())}
    assert len(cases) == 24
    assert cases <= set(_GOLDEN_STDOUT)


@pytest.mark.parametrize("command", sorted(_GOLDEN_STDOUT))
def test_stdout_matches_recorded_digest(command, capsys):
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.md5(out.encode()).hexdigest() == _GOLDEN_STDOUT[command]


@pytest.mark.parametrize("rows", [1, 7])
def test_every_chunk_size_prints_the_recorded_bytes(rows, monkeypatch,
                                                    capsys):
    # a report is rendered and written a chunk of rows at a time; the
    # chunk size moves no byte, here on chunks of one row and of a size
    # that divides none of the reports
    monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
    moved = [command for command, digest in _GOLDEN_STDOUT.items()
             if hashlib.md5(run(command.split(), capsys)[1].encode())
             .hexdigest() != digest]
    assert moved == []


@pytest.mark.parametrize("command", [
    "spectrum -p 3 -N 8 --format json",
    "spectrum -p 2 -N 40 -d 3",
    "condition -p 2 -N 60 -d 2",
    "convergence -p 2 --N-list 8,16 --format json",
    "eta-sweep -p 2 -N 10 -d 2 --grid-points 4",
    "dispersion -p 3 --eta super",
    "verify",
])
def test_out_file_holds_the_stdout_bytes(command, tmp_path, capsys):
    path = tmp_path / "report"
    code, out = run(command.split() + ["--out", str(path)], capsys)
    assert code == EXIT_OK and out == ""
    digest = hashlib.md5(path.read_bytes()).hexdigest()
    assert digest == _GOLDEN_STDOUT[command]


@pytest.mark.parametrize("rows", [1, 3, 4096])
@pytest.mark.parametrize("n", [0, 1, 15, 16, 40])
def test_rendered_columns_match_the_cell_by_cell_report(n, rows,
                                                        monkeypatch):
    # every kind of column, with repeated values in adjacent rows (as in
    # a lift), both zeros, NaN, infinities and strings that JSON escapes,
    # against the cell-by-cell CSV and json.dumps of the same rows
    monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]
    drawn = np.random.default_rng(n).uniform(-1e3, 1e3, n).tolist()
    values = np.repeat(special + drawn, 2)[:n]
    weights = (special[::-1] + drawn)[:n]
    labels = [f'mode "{k}" \u00e9' for k in range(n)]
    modes = np.arange(1, 2 * n + 1).reshape(n, 2) % 13
    columns = {"value": values, "label": labels, "count": range(1, n + 1),
               "modes": modes, "weight": weights}
    table = [{"value": float(v), "label": s, "count": k + 1,
              "modes": "-".join(map(str, m)), "weight": w}
             for k, (v, s, m, w) in enumerate(zip(values, labels,
                                                  modes.tolist(), weights))]
    csv = "".join(cli._render(columns, as_json=False))
    assert csv == "".join(
        ["value,label,count,modes,weight\n"]
        + [f"{r['value']:.15e},{r['label']},{r['count']},{r['modes']},"
           f"{r['weight']:.15e}\n" for r in table])
    assert "".join(cli._render(columns, as_json=True)) == (
        json.dumps(table, sort_keys=True, indent=2) + "\n")


def _failing_after_the_first_chunk(monkeypatch, error):
    """Make every report raise ``error`` once its first chunk is
    written."""
    render = cli._render

    def failing(columns, as_json):
        chunks = render(columns, as_json)
        yield next(chunks)
        raise error

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_render", failing)


@pytest.mark.parametrize("existed", [True, False])
def test_a_report_failing_midway_leaves_the_out_path_as_it_was(
        existed, tmp_path, monkeypatch, capsys):
    _failing_after_the_first_chunk(
        monkeypatch, OSError("no space left on device"))
    path = tmp_path / "report"
    if existed:
        path.write_bytes(b"an earlier report\n")
    err = _one_line_config_error(["spectrum", "-p", "2", "-N", "40",
                                  "--out", str(path)], capsys)
    assert err == "softiga: config error: no space left on device\n"
    # no temporary file is left, and no new path is created
    assert os.listdir(tmp_path) == (["report"] if existed else [])
    if existed:
        assert path.read_bytes() == b"an earlier report\n"


def test_an_unexpected_failure_creates_no_out_path(tmp_path, monkeypatch):
    # an error main does not report still propagates, and leaves neither
    # the path its probe created nor a temporary file
    _failing_after_the_first_chunk(monkeypatch, RuntimeError("a defect"))
    with pytest.raises(RuntimeError, match="a defect"):
        main(["spectrum", "-p", "2", "-N", "40", "--out",
              str(tmp_path / "report")])
    assert os.listdir(tmp_path) == []


def test_out_keeps_the_mode_and_link_of_the_path_it_replaces(tmp_path,
                                                             capsys):
    target = tmp_path / "report"
    target.write_bytes(b"an earlier report\n")
    target.chmod(0o640)
    link = tmp_path / "link"
    link.symlink_to(target)
    command = "dispersion -p 3 --eta super"
    assert run(command.split() + ["--out", str(link)], capsys)[0] == EXIT_OK
    assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o640
    digest = hashlib.md5(target.read_bytes()).hexdigest()
    assert digest == _GOLDEN_STDOUT[command]
    assert sorted(os.listdir(tmp_path)) == ["link", "report"]


def test_out_streams_into_a_named_pipe_in_place(tmp_path):
    # a path that is no regular file (a pipe, a terminal, /dev/null) is
    # written as the report is rendered, never replaced by a renamed file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # opened for reading and writing, so main's probe finds a reader and
    # its close ends nothing
    fd = os.open(fifo, os.O_RDWR)
    received, finished = [], threading.Event()

    def drain():
        while True:
            done = finished.is_set()
            if select.select([fd], [], [], 0.05)[0]:
                received.append(os.read(fd, 1 << 16))
            elif done:
                return

    reader = threading.Thread(target=drain)
    reader.start()
    command = "spectrum -p 3 -N 60 -d 2 --format json"
    try:
        code = main(command.split() + ["--out", str(fifo)])
    finally:
        finished.set()
        reader.join()
        os.close(fd)
    assert code == EXIT_OK
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
    digest = hashlib.md5(b"".join(received)).hexdigest()
    assert digest == _GOLDEN_STDOUT[command]


def test_out_streams_into_a_named_pipe_read_to_its_end(tmp_path):
    # a plain reader of a named pipe reads until every writer has closed
    # it: a probe that opened and closed the pipe would end its read
    # there, before the report, and the report's own open would then
    # wait for a reader for ever (here, until the timeout)
    import softiga

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def drain():
        fd = os.open(fifo, os.O_RDONLY)
        try:
            while chunk := os.read(fd, 1 << 16):
                received.append(chunk)
        finally:
            os.close(fd)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    command = "spectrum -p 3 -N 60 -d 2 --format json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(softiga.__file__)))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "softiga.cli", *command.split(), "--out",
             str(fifo)], env=env, capture_output=True, text=True, timeout=60)
    finally:
        if reader.is_alive():
            # a reader still waiting for a writer sees end of file
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
        reader.join(10)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert not reader.is_alive()
    digest = hashlib.md5(b"".join(received)).hexdigest()
    assert digest == _GOLDEN_STDOUT[command]


def test_out_in_a_read_only_directory_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys):
    # a regular file is replaced through a temporary file beside it, so
    # its directory must be writable; the tests run as root, whom no
    # permission bit refuses, so the directory's refusal is stood in for
    path = tmp_path / "report"
    path.write_bytes(b"an earlier report\n")
    access = os.access
    asked = []

    def read_only(name, mode, **kwargs):
        asked.append((os.fspath(name), mode))
        if os.fspath(name) == str(tmp_path) and mode & os.W_OK:
            return False
        return access(name, mode, **kwargs)

    monkeypatch.setattr(os, "access", read_only)
    builds = _counting_builds(monkeypatch)
    err = _one_line_config_error(["spectrum", "-p", "2", "-N", "8",
                                  "--out", str(path)], capsys)
    assert err == (f"softiga: config error: --out {path}: its directory"
                   f" {tmp_path} is not writable\n")
    assert asked == [(str(tmp_path), os.W_OK | os.X_OK)]
    assert builds == []
    assert path.read_bytes() == b"an earlier report\n"
    assert os.listdir(tmp_path) == ["report"]


def test_out_that_is_no_regular_file_is_asked_not_opened(tmp_path,
                                                        monkeypatch, capsys):
    # a pipe that may not be written is refused before any work, and one
    # that may is not opened by the probe
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    monkeypatch.setattr(os, "access", lambda name, mode, **kwargs: False)
    builds = _counting_builds(monkeypatch)
    err = _one_line_config_error(["condition", "-p", "2", "-N", "8",
                                  "--out", str(fifo)], capsys)
    assert err == f"softiga: config error: --out {fifo} is not writable\n"
    assert builds == []
    monkeypatch.undo()
    # the probe tells whether it created the path
    assert cli._probe(str(fifo)) is False
    assert cli._probe(str(tmp_path / "new")) is True
    assert cli._probe(str(tmp_path / "new")) is False


# Traced peak bytes per lifted mode of a spectrum report written to a
# file, at 64,000 modes. The report holds 48 bytes a mode (the lifted
# values, three 8-byte indices, the targets and the relative errors),
# and forming the lift peaks at 64. The renderer adds one chunk of 4,096
# rows, about 1.6 MB in CSV and 2.5 MB in JSON whatever the length of
# the report, which is 25 and 40 bytes a mode at this size. It measured
# 68 (CSV) and 78 (JSON); the code that formatted cell by cell and held
# every row and the whole text took 610 and 1,714.
_PEAK_BYTES_PER_MODE = 100


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_lifted_report_peaks_within_its_bound_per_mode(fmt, tmp_path):
    argv = ["spectrum", "-p", "2", "-N", "40", "-d", "3", "--format", fmt,
            "--out", str(tmp_path / "report")]
    assert main(argv) == EXIT_OK  # fills the per-degree caches
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _PEAK_BYTES_PER_MODE * 40 ** 3


def test_spectrum_and_convergence_print_the_same_dense_h1_error(capsys):
    # mode 7 of a dense spectrum, integrated among all ranks and alone
    _, spectrum = run("spectrum -p 3 -N 40 --method iga --eta zero".split(),
                      capsys)
    _, convergence = run(["convergence", "-p", "3", "--method", "iga",
                          "--eta", "zero", "--quantity", "h1", "--j", "7",
                          "--N-list", "40,41"], capsys)
    header, rows = parse_csv(spectrum)
    h1 = rows[6][header.index("h1_err")]
    header, rows = parse_csv(convergence)
    assert rows[0][header.index("error")] == h1


def _readme_option_table():
    """{subcommand: options} from the option table in README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = line.strip().strip("|").split("|")
        if line.startswith("| `") and len(cells) == 2:
            options = re.findall(r"`([^`]+)`", cells[1])
            table[cells[0].strip().strip("`")] = sorted(options)
    return table


def test_readme_option_table_matches_the_parser():
    parser = cli.build_parser()
    sub, = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    options = {command: sorted(s for action in sp._actions
                               for s in action.option_strings
                               if s not in ("-h", "--help"))
               for command, sp in sub.choices.items()}
    assert _readme_option_table() == options


def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports this package."""
    import softiga

    source_root = os.path.dirname(os.path.dirname(softiga.__file__))
    env = dict(os.environ, PYTHONPATH=source_root)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_computes_no_stencil_or_band():
    # every per-process cache of the package is still empty after the
    # import, so its set-up time holds no stencil, completion or band
    code = ("import sys, softiga, softiga.cli\n"
            "full = [f'{name}.{key}' for name, module in sys.modules.items()"
            " if name.startswith('softiga')"
            " for key, value in vars(module).items()"
            " if hasattr(value, 'cache_info')"
            " and value.cache_info().currsize]\n"
            "sys.exit(' '.join(full) or None)")
    result = _fresh_interpreter(code)
    assert (result.returncode, result.stderr) == (0, "")


def test_import_loads_no_solver_sparse_or_mpmath_module():
    # scipy.linalg is imported by the functions that factor or solve;
    # nothing in the package imports mpmath, since the dispersion fits
    # and the commutators run in integers, so neither `dispersion` nor
    # `verify` loads it after the import
    code = ("import contextlib, io, sys, softiga, softiga.cli\n"
            "loaded = [name for name in"
            " ('scipy.linalg', 'scipy.sparse', 'mpmath')"
            " if name in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [softiga.cli.main(argv) for argv in"
            " (['dispersion', '-p', '3', '--eta', 'super'], ['verify'])]\n"
            "loaded += [f'mpmath after {codes}'] * ('mpmath' in sys.modules)\n"
            "sys.exit(' '.join(loaded) or any(codes) and str(codes) or None)")
    result = _fresh_interpreter(code)
    assert (result.returncode, result.stderr) == (0, "")


def test_import_loads_the_modules_it_loaded_before():
    # beyond numpy, the modules the command line has always loaded; the
    # report writer imports tempfile only when it writes to --out
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import softiga.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    result = _fresh_interpreter(code)
    assert result.stderr == ""
    assert result.stdout.split() == [
        "_decimal", "_json", "_locale", "argparse", "copy", "dataclasses",
        "decimal", "fractions", "gettext", "json", "json.decoder",
        "json.encoder", "json.scanner", "locale", "softiga",
        "softiga.analytic", "softiga.assembly", "softiga.cli",
        "softiga.eigensolve", "softiga.spaces", "softiga.spectral_analysis",
        "softiga.splines", "softiga.tensor"]


@pytest.mark.parametrize("argv,code,loaded", [
    (["dispersion", "-p", "3", "--eta", "super"], EXIT_OK, False),
    (["--help"], EXIT_OK, False),
    (["condition", "-p", "3", "-N", "2000000"], EXIT_CONFIG, False),
    # the standard baseline at p >= 3 factors its bands
    (["condition", "-p", "3", "-N", "100"], EXIT_OK, True),
    (["condition", "-p", "3", "-N", "40"], EXIT_OK, True),
    # the outlier-free pencils, and the standard one at p <= 2, which is
    # the same space, prove their mass side positive from the symbol and
    # factor nothing
    (["condition", "-p", "2", "-N", "100"], EXIT_OK, False),
    (["condition", "-p", "3", "-N", "40", "--baseline", "of-iga"], EXIT_OK,
     False),
    (["eta-sweep", "-p", "3", "-N", "120"], EXIT_OK, False),
    (["spectrum", "-p", "3", "-N", "200"], EXIT_OK, False),
], ids=["dispersion", "help", "refusal", "condition", "iga-baseline",
        "p2-condition", "of-iga-baseline", "eta-sweep", "spectrum"])
def test_scipy_linalg_is_loaded_by_the_first_factorization(argv, code,
                                                           loaded):
    program = ("import sys\n"
               "from softiga.cli import main\n"
               "try:\n"
               f"    code = main({argv!r})\n"
               "except SystemExit as exc:\n"
               "    code = exc.code\n"
               "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)")
    result = _fresh_interpreter(program)
    assert result.returncode == 0
    assert result.stderr.split()[-2:] == [str(code), str(loaded)]


@pytest.mark.parametrize("argv,passes,solves", [
    ("condition -p 2 -N 100", 1, 0),
    ("condition -p 3 -N 100", 1, 1),
    ("condition -p 3 -N 100 --method iga --baseline iga", 0, 1),
    ("condition -p 2 -N 100 --method iga --baseline of-iga", 1, 0),
    ("condition -p 3 -N 100 --method of-iga --baseline of-iga", 1, 0),
    ("condition -p 3 -N 100 --baseline of-iga", 1, 0),
    ("condition -p 3 -N 100 --method iga --baseline of-iga", 1, 1),
    ("condition -p 2 -N 100 --eta-b paper", 2, 0),
    ("condition -p 3 -N 100 --eta-b paper --baseline of-iga", 2, 0),
])
def test_condition_solves_each_pencil_once(argv, passes, solves, capsys,
                                           monkeypatch):
    # a closed-form pass serves every weight of one space and mass-side
    # weight, and a baseline identical to the target is solved once
    calls = []
    for name in ("_sine_pairs", "extreme_eigenpairs"):
        original = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, functools.partial(
            lambda f, name, *args, **kwargs: (calls.append(name),
                                              f(*args, **kwargs))[1],
            original, name))
    code, _ = run(argv.split(), capsys)
    assert code == EXIT_OK
    assert calls.count("_sine_pairs") == passes
    assert calls.count("extreme_eigenpairs") == solves


def _condition_grid():
    """condition at p = 1..8, 14 and 16 on meshes from N = 2 to 200,
    every method against both baselines, d = 1..3, with softiga's
    mass-side weight where the paper tabulates one: the high degrees on
    coarse meshes break the residual contract (exit 2)."""
    tabulated = {p for p, w in eta_table().mass_side.items() if w is not None}
    grid = []
    for p in (*range(1, 9), 14, 16):
        for N in sorted({2, p + 1, 4 * p + 2, 4 * p + 3, 60, 200}):
            for baseline in ("iga", "of-iga"):
                for d in (1, 2, 3):
                    common = ["condition", "-p", str(p), "-N", str(N),
                              "--baseline", baseline, "-d", str(d)]
                    grid += [common + ["--method", method]
                             for method in ("iga", "of-iga")]
                    grid += [common + ["--eta-b", eta_b] for eta_b in
                             ("zero", "paper")[:1 + (p in tabulated)]]
    return grid


def _grid_digest(commands):
    """One md5 over the exit code, stdout and stderr (warnings included)
    of every command, run in-process in turn, and the number of commands
    exiting with each code."""
    digest, codes = hashlib.md5(), {}
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        said = "".join(f"{w.category.__name__}: {w.message}\n"
                       for w in caught)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n"
                      f"{err.getvalue()}{said}\n".encode())
        codes[code] = codes.get(code, 0) + 1
    return digest.hexdigest(), codes


def test_condition_grid_prints_the_recorded_bytes():
    # the exit codes recorded from the code that bisected the top of
    # every standard pencil; the bytes recorded from the code that solved
    # the target and the baseline in two passes, and again when the top
    # of a standard pencil came from a shift above its leading block's
    # top instead of a bisection and its lambda_min from steps at a
    # certified shift: 386 runs move, in the columns of standard pencils,
    # by at most 4.5e-14 relative at p <= 8 and 6.9e-13 at p = 14 and 16
    grid = _condition_grid()
    assert len(grid) == 1134
    digest, codes = _grid_digest(grid)
    assert codes == {EXIT_OK: 795, EXIT_CONFIG: 333, EXIT_NUMERICAL: 6}
    assert digest == "8327326abe8e94ae7203fea18c2dab7c"


def test_spectrum_grid_prints_the_recorded_bytes():
    # recorded from the code that certified the closed-form pairs from a
    # scan of the written-out bands: spectrum at p = 1..16 on meshes up
    # to N = 40, below the degree (exit 1) and where the contract breaks
    # (exit 2) among them
    grid = [["spectrum", "-p", str(p), "-N", str(N), "--method", method,
             "--eta", "zero"]
            for p in range(1, 17) for N in (*range(1, 13), 20, 40)
            for method in ("iga", "of-iga")]
    assert len(grid) == 448
    digest, codes = _grid_digest(grid)
    assert codes == {EXIT_OK: 311, EXIT_CONFIG: 115, EXIT_NUMERICAL: 22}
    assert digest == "8ec6307c1996dae5208e7d9b404737c0"
