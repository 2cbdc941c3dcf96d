"""Command-line tests: every subcommand, file outputs, and error handling."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    exact_values,
    overflowing_net,
    overflowing_reset_net,
    random_spline,
    reference_eval_csv,
    slope_overflow_nets,
    text_io_networks,
)
from spline2relu import approx, cli, cpwl
from spline2relu.compiler import compile_spline, takagi_network
from spline2relu.errors import Spline2ReluError
from spline2relu.network import extract_cpwl, read_network, reset_layers, write_network


def _mask_wall(text):
    """Drop the wall-clock column so timing noise cannot affect comparisons."""
    lines = text.splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_parse_sizes_and_terms():
    assert cli._parse_sizes("3:6") == (3, 4, 5, 6)
    assert cli._parse_sizes("1,4,9") == (1, 4, 9)
    assert cli._parse_terms("2:1.5:0,5:0:1") == ((2, 1.5, 0.0), (5, 0.0, 1.0))
    assert cli._parse_terms("") == ()
    with pytest.raises(Spline2ReluError):
        cli._parse_sizes("1:x")
    with pytest.raises(Spline2ReluError):
        cli._parse_terms("1:2")


def test_compile_and_verify_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(60)
    f = random_spline(rng, 25)
    spath = tmp_path / "f.spline"
    npath = tmp_path / "f.relu"
    cpwl.write_spline(f, spath)
    assert cli.main(["compile", str(spath), "--width", "8", "--out", str(npath)]) == 0
    out = capsys.readouterr().out
    assert "width=8" in out and "params=" in out
    assert npath.exists()
    assert cli.main(["verify", str(npath), str(spath)]) == 0
    deviation, at = capsys.readouterr().out.splitlines()
    assert deviation.startswith("max deviation = ")
    assert float(deviation.split("=")[1]) <= 1e-9
    assert at.startswith("at x = ") and 0.0 <= float(at.split("=")[1]) <= 1.0


def test_verify_reports_where_the_deviation_peaks(tmp_path, capsys):
    spath, npath, zero = tmp_path / "f.spline", tmp_path / "f.relu", tmp_path / "zero.spline"
    cpwl.write_spline(cpwl.CPwL([0.0, 0.3, 1.0], [0.0, -2.5, 1.0]), spath)
    cpwl.write_spline(cpwl.line(0.0, 0.0), zero)
    assert cli.main(["compile", str(spath), "--width", "4", "--out", str(npath)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(npath), str(zero)]) == 0
    assert capsys.readouterr().out == "max deviation = 2.5\nat x = 0.29999999999999999\n"


def test_verify_fails_on_an_overflowing_slope(tmp_path, capsys):
    spath = tmp_path / "line.spline"
    cpwl.write_spline(cpwl.line(0.0, 1.0), spath)
    for k, net in enumerate(slope_overflow_nets()):
        npath = tmp_path / f"{k}.relu"
        write_network(net, npath)
        assert cli.main(["verify", str(npath), str(spath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("slope overflows, so a kink cannot be told from a "
                                     "straight node\n")


def test_compile_hat_width4_reports_33_params(tmp_path, capsys):
    spath = tmp_path / "hat.spline"
    cpwl.write_spline(cpwl.hat(), spath)
    assert cli.main(["compile", str(spath), "--width", "4"]) == 0
    assert "params=33" in capsys.readouterr().out


def test_eval_csv(tmp_path, capsys):
    spath = tmp_path / "hat.spline"
    npath = tmp_path / "hat.relu"
    cpwl.write_spline(cpwl.hat(), spath)
    cli.main(["compile", str(spath), "--width", "4", "--out", str(npath)])
    capsys.readouterr()
    assert cli.main(["eval", str(npath), "--grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[0]) == 0.5 and abs(float(mid[1]) - 1.0) <= 1e-12


def test_rates_takagi_deterministic_and_svg(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    svg = tmp_path / "plot.svg"
    args = ["rates", "--family", "takagi", "--ms", "1:6", "--grid", "257"]
    assert cli.main(args + ["--out", str(out1), "--svg", str(svg)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    a = _mask_wall(out1.read_text())
    b = _mask_wall(out2.read_text())
    assert a == b
    assert a[0] == "m,params,sup_error"
    errs = [float(line.split(",")[2]) for line in a[1:]]
    assert all(y <= x for x, y in zip(errs, errs[1:]))
    body = svg.read_text()
    assert body.startswith("<svg") and "<polyline" in body


def test_rates_reports_failed_rows_on_stderr(capsys, monkeypatch):
    target = approx.TargetFunction(lambda x: np.asarray(x, dtype=float) * 0.0)

    def builder(m):
        if m == 2:
            raise Spline2ReluError("no network for m=2")
        return takagi_network([0.0] * m)

    monkeypatch.setattr(cli, "_rates_setup", lambda cfg: (target, builder))
    assert cli.main(["rates", "--ms", "1:3", "--grid", "33"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "m,params,sup_error,wall_ms"
    assert out.splitlines()[2].startswith("2,0,nan,")
    assert err.splitlines() == ["rates: m=2 failed: Spline2ReluError: no network for m=2"]


def test_rates_lip_family(tmp_path, capsys):
    out = tmp_path / "lip.csv"
    assert cli.main(["rates", "--family", "lip", "--alpha", "1.0",
                     "--ms", "8,16", "--grid", "513", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row.split(",")[2]) <= 0.5


def test_riesz_subcommand(tmp_path, capsys):
    out = tmp_path / "riesz.csv"
    assert cli.main(["riesz", "--K", "4", "--gap-k", "8", "--trials", "5",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rows = dict(line.split(",") for line in out.read_text().splitlines())
    assert float(rows["lambda_min"]) >= 1.0 / 6.0 - 1e-6
    assert float(rows["lambda_max"]) <= 0.5 + 1e-6
    assert float(rows["gap_base_cosine"]) <= 0.5 + 1e-6
    assert float(rows["gap_adjoint_sine"]) <= 0.5145 + 1e-6
    assert float(rows["lemsum_worst_ratio"]) <= 1.0
    # identical invocation gives byte-identical output
    again = tmp_path / "riesz2.csv"
    assert cli.main(["riesz", "--K", "4", "--gap-k", "8", "--trials", "5",
                     "--out", str(again)]) == 0
    capsys.readouterr()
    assert out.read_text() == again.read_text()


def test_takagi_subcommand(tmp_path, capsys):
    npath = tmp_path / "t.relu"
    assert cli.main(["takagi", "--order", "8", "--grid", "2049",
                     "--out", str(npath)]) == 0
    out = capsys.readouterr().out
    fields = dict(tok.split("=") for tok in out.split())
    assert fields["order"] == "8" and fields["width"] == "4" and fields["depth"] == "8"
    assert float(fields["sup_error"]) <= 2.0 ** -8
    assert npath.exists()


def test_takagi_past_the_node_budget_measures_on_the_grid(capsys):
    # order 21 has 2^21 + 1 nodes, one more than the default budget
    with pytest.warns(RuntimeWarning, match="2097152 nodes, the node budget"):
        assert cli.main(["takagi", "--order", "21"]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert fields["order"] == "21" and fields["depth"] == "21"
    assert 0.0 < float(fields["sup_error"]) <= 2.0 ** -21


def test_fourier_atom_subcommand(capsys):
    assert cli.main(["fourier", "--kind", "cosine", "--index", "5"]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert float(fields["sup_error"]) <= 1e-10
    assert fields["depth"] == "4"


def test_fourier_index_zero_reaches_the_index_check(capsys):
    assert cli.main(["fourier", "--kind", "cosine", "--index", "0"]) == 1
    assert "index must be >= 1" in capsys.readouterr().err


def test_fourier_sum_subcommand(tmp_path, capsys):
    npath = tmp_path / "sum.relu"
    assert cli.main(["fourier", "--terms", "1:1:0,3:0:0.5", "--width", "6",
                     "--out", str(npath)]) == 0
    out = capsys.readouterr().out
    assert "sup_error=" in out
    assert float(out.split("sup_error=")[1]) <= 1e-10
    assert npath.exists()
    assert cli.main(["fourier"]) == 1
    assert "error:" in capsys.readouterr().err


def test_error_paths(tmp_path, capsys):
    assert cli.main(["compile", str(tmp_path / "missing.spline")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.spline"
    bad.write_text("2\n0 0\nnope nope\n")
    assert cli.main(["compile", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 3" in err

    good = tmp_path / "good.spline"
    cpwl.write_spline(cpwl.hat(), good)
    assert cli.main(["compile", str(good), "--width", "3"]) == 1
    assert "width" in capsys.readouterr().err

    assert cli.main(["eval", str(good), "--grid", "1"]) == 1
    assert "grid" in capsys.readouterr().err

    assert cli.main(["rates", "--ms", "9:x"]) == 1
    assert "size list" in capsys.readouterr().err


def test_unknown_family_raises_through_run():
    args = cli._build_parser().parse_args(["rates", "--ms", "1:2"])
    args.family = "mystery"
    with pytest.raises(Spline2ReluError):
        cli.run(args)


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    takes = {"compile": {"--width", "--out"}, "verify": set(), "eval": {"--grid", "--out"},
             "rates": {"--width", "--grid", "--out", "--svg"}, "riesz": {"--seed", "--out"},
             "takagi": {"--grid", "--out"}, "fourier": {"--width", "--out"}}
    positional = {"compile": ["f.spl"], "verify": ["f.net", "f.spl"], "eval": ["f.net"]}
    parser = cli._build_parser()
    for command, flags in takes.items():
        for flag in ("--width", "--grid", "--seed", "--out", "--svg"):
            argv = [command, *positional.get(command, []), flag, "5"]
            if flag in flags:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
    for argv in (["verify", "f.net", "f.spl", "--width", "8"], ["compile", "f.spl", "--grid", "5"],
                 ["riesz", "--svg", "x"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


def test_eval_csv_matches_reference(tmp_path, capsys):
    """`eval` writes the per-row reference text, to --out and to stdout, on
    grids up to the benchmark's 10001 points and one row past a multiple of
    the formatter's block."""
    csv = tmp_path / "out.csv"
    for i, net in enumerate(text_io_networks(np.random.default_rng(24))):
        npath = tmp_path / f"{i}.relu"
        write_network(net, npath)
        for grid in (2, 101, 1001, 10001, cpwl._FORMAT_BLOCK + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference_eval_csv(read_network(npath), grid)
                assert cli.main(["eval", str(npath), "--grid", str(grid), "--out", str(csv)]) == 0
                assert csv.read_text() == want
                assert cli.main(["eval", str(npath), "--grid", str(grid)]) == 0
            assert capsys.readouterr().out == want


def test_grid_above_the_node_budget_is_refused(tmp_path, capsys):
    """--grid past cpwl.DEFAULT_NODE_BUDGET fails before anything is allocated."""
    npath = tmp_path / "hat.relu"
    write_network(takagi_network([1.0]), npath)
    for grid in (cpwl.DEFAULT_NODE_BUDGET + 1, 100000000000):
        for argv in (["eval", str(npath)], ["rates"], ["takagi"]):
            assert cli.main([*argv, "--grid", str(grid)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --grid must be at most {cpwl.DEFAULT_NODE_BUDGET}\n"


def test_overflowing_network_fails_eval_and_verify(tmp_path, capsys):
    """eval and verify exit 1 and name the layer that overflows."""
    npath, spath = tmp_path / "odd.relu", tmp_path / "line.spline"
    write_network(overflowing_net(), npath)
    cpwl.write_spline(cpwl.line(0.0, 1.0), spath)
    for argv in (["eval", str(npath)], ["verify", str(npath), str(spath)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: network value is not finite: layer 1 of 3 overflows\n")


def test_overflowing_all_reset_network_fails_eval_as_verify(tmp_path, capsys):
    """eval reads an all-reset network in closed form, and an overflow there
    is the error verify prints."""
    npath, spath = tmp_path / "hot.relu", tmp_path / "line.spline"
    net = overflowing_reset_net()
    assert reset_layers(net).size == net.depth
    write_network(net, npath)
    cpwl.write_spline(cpwl.line(0.0, 1.0), spath)
    for argv in (["eval", str(npath)], ["verify", str(npath), str(spath)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: network value is not finite: layer 1 of 2 overflows\n"


def test_eval_reads_all_reset_networks_within_two_kappa_u(tmp_path):
    """At 64 sampled points of the benchmark's 10001-point grid, eval prints
    an all-reset network (W = 4..7) within 2 kappa u of the network's own
    exact function, kappa u = (max|f| + max|f'|) 2^-52; forward reads further
    off."""
    rng = np.random.default_rng(71)
    npath, csv, grid = tmp_path / "net.relu", tmp_path / "out.csv", 10001
    worst_eval = worst_forward = 0.0
    for width, n, scale in ((4, 500, 2.0), (5, 300, 1e4), (6, 200, 2.0), (7, 500, 1e4),
                            (4, 120, 1e4), (7, 60, 2.0)):
        net, _ = compile_spline(random_spline(rng, n, -scale, scale), width)
        assert reset_layers(net).size == net.depth
        write_network(net, npath)
        assert cli.main(["eval", str(npath), "--grid", str(grid), "--out", str(csv)]) == 0
        xs, printed = np.array([list(map(float, line.split(",")))
                                for line in csv.read_text().splitlines()[1:]]).T
        assert np.array_equal(xs, np.linspace(0.0, 1.0, grid))
        f = extract_cpwl(net)
        ku = (np.abs(f.values).max() + np.abs(np.diff(f.values) / np.diff(f.breakpoints)).max()) \
            * 2.0 ** -52
        pick = np.sort(rng.choice(grid, 64, replace=False))
        exact = exact_values(net, xs[pick])

        def error(ys):
            return float(max(abs(Fraction(y) - e) for y, e in zip(ys.tolist(), exact)) / Fraction(ku))

        worst_eval = max(worst_eval, error(printed[pick]))
        worst_forward = max(worst_forward, error(net.forward(xs[pick])))
        assert worst_eval <= 2.0, (width, n, scale)
    assert worst_eval < worst_forward


def test_main_reuses_its_parser_without_leaking_state(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    spath = tmp_path / "hat.spline"
    npath = tmp_path / "a.relu"
    cpwl.write_spline(cpwl.hat(), spath)
    assert cli.main(["compile", str(spath), "--width", "4", "--out", str(npath)]) == 0
    npath.unlink()
    assert cli.main(["compile", str(spath), "--width", "4"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hat.spline"]
    svg = tmp_path / "p.svg"
    assert cli.main(["rates", "--ms", "1:3", "--grid", "33", "--svg", str(svg)]) == 0
    svg.unlink()
    assert cli.main(["rates", "--ms", "1:3", "--grid", "33"]) == 0
    assert not svg.exists()
    cli.main(["compile", str(spath), "--width", "4", "--out", str(npath)])
    capsys.readouterr()
    assert cli.main(["eval", str(npath), "--grid", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert cli.main(["eval", str(npath)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "compile" in capsys.readouterr().out
