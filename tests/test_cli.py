"""Command-line tests: every subcommand, file outputs, and error handling."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    exact_values,
    overflowing_net,
    overflowing_reset_net,
    random_spline,
    slope_overflow_nets,
    text_io_networks,
)
from spline2relu import approx, cli, compiler, cpwl, riesz
from spline2relu.compiler import _compile_wide, compile_spline, takagi_network
from spline2relu.errors import Spline2ReluError
from spline2relu.network import (extract_cpwl, hat_net, read_network, reset_layers,
                                 values_at, write_network)


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


def test_compile_prints_the_same_five_fields_at_every_width(tmp_path, capsys):
    spath = tmp_path / "f.spline"
    f = random_spline(np.random.default_rng(65), 25)
    cpwl.write_spline(f, spath)
    for width in range(4, 15):
        assert cli.main(["compile", str(spath), "--width", str(width)]) == 0
        _, report = compile_spline(cpwl.read_spline(spath), width)
        assert capsys.readouterr().out == (
            f"width={width} depth={report.depth} params={report.params} "
            f"budget={report.budget_bound} breakpoints={report.target_breakpoints}\n"), width


@pytest.mark.parametrize("peak, width", [(7.5e307, 4), (7.5e307, 8), (7.5e307, 14), (7.5e307, 32),
                                         (1e307, 14), (1e307, 32), (1e306, 32)])
def test_compile_refuses_weights_that_overflow_in_one_line(peak, width, tmp_path, capsys):
    # the spline (0, 0), (0.5, peak), (1, 0) reads without a numpy warning
    # (pyproject.toml turns one into an error), and its overflowing weights
    # are named in one error line
    spath = tmp_path / "peak.spline"
    cpwl.write_spline(cpwl.CPwL([0.0, 0.5, 1.0], [0.0, peak, 0.0]), spath)
    assert cli.main(["compile", str(spath), "--width", str(width)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: compiled weights overflow at width {width}: "
                            "the target's values are too large for its knot spacing\n")


@pytest.mark.parametrize("peak, widths", [(1e307, (4, 8)), (1e306, (4, 8, 14)),
                                          (1e300, (4, 8, 14, 32))])
def test_compile_of_a_large_peak_that_fits_prints_its_report(peak, widths, tmp_path, capsys):
    spath = tmp_path / "peak.spline"
    cpwl.write_spline(cpwl.CPwL([0.0, 0.5, 1.0], [0.0, peak, 0.0]), spath)
    params = {4: 33, 8: 97, 14: 253, 32: 1153}
    for width in widths:
        assert cli.main(["compile", str(spath), "--width", str(width)]) == 0
        assert capsys.readouterr().out == (f"width={width} depth=2 params={params[width]} "
                                           f"budget={params[width]} breakpoints=1\n")


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


def test_eval_prints_the_w8_hat_exactly(tmp_path, capsys):
    # the ramps carry the hat's weights exactly, so eval prints 0.5 at 0.75
    spath = tmp_path / "hat.spline"
    npath = tmp_path / "hat8.relu"
    cpwl.write_spline(cpwl.hat(), spath)
    assert cli.main(["compile", str(spath), "--width", "8", "--out", str(npath)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", str(npath), "--grid", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0,0", "0.25,0.5", "0.5,1", "0.75,0.5", "1,0"]


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

    monkeypatch.setattr(approx, "takagi_family", lambda m: (target, builder))
    assert cli.main(["rates", "--ms", "1:3", "--grid", "33"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "m,params,sup_error,wall_ms"
    assert out.splitlines()[2].startswith("2,0,nan,")
    assert err.splitlines() == ["rates: m=2 failed: Spline2ReluError: no network for m=2"]


def test_rates_rows_below_one_fail_with_their_own_size(capsys):
    # each row builds its network from its own m, so m = -1 fails as m = 0
    # does and is not the order-2 network of a shorter coefficient list
    assert cli.main(["rates", "--ms=-1,0,3"]) == 0
    out, err = capsys.readouterr()
    assert _mask_wall(out) == ["m,params,sup_error", "-1,0,nan", "0,0,nan",
                               "3,53,0.083333253860473633"]
    assert err.splitlines() == [f"rates: m={m} failed: DomainError: need at least one coefficient"
                                for m in (-1, 0)]
    # rates builds one target from max(ms), so it stops only when every size
    # is below 1; takagi builds its target from its order
    for argv, m in ((["rates", "--ms=-3,-1"], -1), (["takagi", "--order", "0"], 0)):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: the Takagi family needs a size m >= 1, got {m}\n"


def test_rates_default_grid_holds_the_takagi_tail_peak(capsys):
    # the order-m tail peaks at (2/3) 2^-m at x = 1/3, which the default
    # 4099-point grid holds; on an all-dyadic grid it reads 0 from m = 12 on
    assert cli.main(["rates", "--ms", "11:16"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(11, 17))
    for m, _, error, _ in rows:
        assert 0.5 <= float(error) / (2.0 / 3.0 * 2.0 ** -int(m)) <= 1.0 + 1e-6


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


def test_riesz_refuses_fewer_than_one_trial(capsys):
    for trials in ("0", "-3"):
        assert cli.main(["riesz", "--K", "4", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trials must be at least 1\n"


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


def test_takagi_and_rates_print_the_pinned_errors(capsys):
    # strings printed with the target of reference_dyadic_sawtooth_sum and the
    # network read through its extraction; every error digit depends on both,
    # so a change in the arithmetic of either shows
    assert cli.main(["takagi", "--order", "14"]) == 0
    assert capsys.readouterr().out == (
        "order=14 width=4 depth=14 params=273 sup_error=4.0690065361670413e-05\n")
    assert cli.main(["rates", "--ms", "1:16"]) == 0
    assert _mask_wall(capsys.readouterr().out) == [
        "m,params,sup_error",
        "1,13,0.33333333332363213",
        "2,33,0.16666666665696539",
        "3,53,0.083333333323632131",
        "4,73,0.04166666665696539",
        "5,93,0.020833333323632131",
        "6,113,0.01041666665696539",
        "7,133,0.0052083333236321305",
        "8,153,0.0026041666569653898",
        "9,173,0.0013020833236321305",
        "10,193,0.00065104165696538985",
        "11,213,0.00032552082363213053",
        "12,233,0.00016276040696538985",
        "13,253,8.1380198632130529e-05",
        "14,273,4.0690094465389848e-05",
        "15,293,2.0345042382130529e-05",
        "16,313,1.0172516340389848e-05",
    ]


def test_riesz_sizes_past_the_node_budget_are_refused(capsys, monkeypatch):
    """--K and --gap-k with K * K past cpwl.DEFAULT_NODE_BUDGET exit 1 before
    any K x K array is built; the budget is read at call time."""
    monkeypatch.setattr(cpwl, "DEFAULT_NODE_BUDGET", 100)
    for flags in (["--K", "11"], ["--K", "4", "--gap-k", "11"]):
        assert cli.main(["riesz", *flags, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: K = 11 needs 121 matrix entries, "
                                "over the budget of 100\n")
    assert cli.main(["riesz", "--K", "10", "--gap-k", "10", "--trials", "1"]) == 0
    assert capsys.readouterr().out.startswith("frame_K,10\n")


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


def test_fourier_sum_prints_the_pinned_report(capsys):
    # the report fields of the README example; only sup_error's digits may
    # change with how a pair is built
    assert cli.main(["fourier", "--terms", "3:1:0.5,5:-0.25:0", "--width", "10"]) == 0
    head, error = capsys.readouterr().out.split(" sup_error=")
    assert head == "width=10 depth=5 params=471 budget=1021 breakpoints=19"
    assert float(error) <= 1e-14


def test_fourier_sum_builds_its_oracle_once(monkeypatch, capsys):
    """`compile_fourier_sum` counts the oracle's nodes and the CLI measures
    against it: one `fourier --terms` job builds one sum of basis functions."""
    calls = []
    combine = cpwl.combine

    def counted(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(cpwl, "combine", counted)
    compiler._fourier_oracle.cache_clear()
    assert cli.main(["fourier", "--terms", "24:0.5:-1,7:0:0.25,2:-0.75:0", "--width", "10"]) == 0
    assert float(capsys.readouterr().out.split("sup_error=")[1]) <= 1e-13
    assert len(calls) == 1


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "1e308"])
def test_fourier_sum_refuses_bad_coefficients_in_one_line(coeff, capsys):
    assert cli.main(["fourier", "--terms", f"1:1:0,3:{coeff}:0", "--width", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: coefficients of index 3 ")


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

    assert cli.main(["rates", "--ms", "5:3"]) == 1
    assert capsys.readouterr().err == "error: no sizes given; use --ms\n"

    # on the grid {0, 1} the one row measures 0: its CSV is printed, no plot is written
    svg = tmp_path / "empty.svg"
    assert cli.main(["rates", "--ms", "1", "--grid", "2", "--svg", str(svg)]) == 1
    out, err = capsys.readouterr()
    assert _mask_wall(out) == ["m,params,sup_error", "1,13,0"]
    assert err == "error: nothing to plot: no positive finite points\n" and not svg.exists()


def test_unknown_family_raises_through_run():
    args = cli._build_parser().parse_args(["rates", "--ms", "1:2"])
    args.family = "mystery"
    with pytest.raises(Spline2ReluError):
        cli.run(args)


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    takes = {"compile": {"--width", "--out"}, "verify": set(), "eval": {"--grid", "--out"},
             "rates": {"--grid", "--out", "--svg"}, "riesz": {"--seed", "--out"},
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
                 ["riesz", "--svg", "x"], ["rates", "--alpha", "1.0"],
                 ["rates", "--family", "lip"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_retired_keyword_is_refused():
    """The node budget, the odd-sum cap and the split's panel count are the
    module constants cpwl.DEFAULT_NODE_BUDGET, riesz.ODD_SUM_CAP and
    approx.SPLIT_PANELS; no function takes them as a keyword."""
    calls = [(extract_cpwl, (hat_net(),), "node_budget"),
             (cpwl.hat_iterate, (3,), "node_budget"),
             (cpwl.takagi_partial, ([0.5],), "node_budget"),
             (riesz.lemsum_lhs, ([1.0, 1.0],), "M"),
             (riesz.operator_gap, ("cosine", 4), "cap"),
             (approx.sobolev_split, (lambda x: x, 2.0, 0.1), "panels")]
    for fn, args, keyword in calls:
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            fn(*args, **{keyword: 64})


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])


def test_eval_csv_matches_reference(tmp_path, capsys):
    """`eval` writes `values_at` on the grid as "%.17g,%.17g" rows under an
    "x,value" header, to --out and to stdout, on grids up to the benchmark's
    10001 points and one row past a multiple of the formatter's block.  The
    values themselves are checked against `exact_values` by the
    kappa-u tests below."""
    csv = tmp_path / "out.csv"
    for i, net in enumerate(text_io_networks(np.random.default_rng(24))):
        npath = tmp_path / f"{i}.relu"
        write_network(net, npath)
        for grid in (2, 101, 1001, 10001, cpwl._FORMAT_BLOCK + 1):
            xs = np.linspace(0.0, 1.0, grid)
            with np.errstate(over="ignore", invalid="ignore"):
                ys = values_at(read_network(npath), xs)
                want = "".join(["x,value\n"] + ["%.17g,%.17g\n" % row for row in zip(xs, ys)])
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


def _eval_errors(tmp_path, net, rng, points):
    """The largest errors of eval and of forward at `points` points that rng
    draws from the benchmark's 10001-point grid, against the network's own
    exact function, in kappa u = (max|f| + max|f'|) 2^-52 of its extraction."""
    npath, csv, grid = tmp_path / "net.relu", tmp_path / "out.csv", 10001
    write_network(net, npath)
    assert cli.main(["eval", str(npath), "--grid", str(grid), "--out", str(csv)]) == 0
    xs, printed = np.array([list(map(float, line.split(",")))
                            for line in csv.read_text().splitlines()[1:]]).T
    assert np.array_equal(xs, np.linspace(0.0, 1.0, grid))
    f = extract_cpwl(net)
    ku = (np.abs(f.values).max() + np.abs(np.diff(f.values) / np.diff(f.breakpoints)).max()) \
        * 2.0 ** -52
    pick = np.sort(rng.choice(grid, points, replace=False))
    exact = exact_values(net, xs[pick])

    def error(ys):
        return float(max(abs(Fraction(y) - e) for y, e in zip(ys.tolist(), exact)) / Fraction(ku))

    return error(printed[pick]), error(net.forward(xs[pick]))


def test_eval_reads_all_reset_networks_within_two_kappa_u(tmp_path):
    """At 64 sampled points of the benchmark's 10001-point grid, eval prints
    an all-reset network (W = 4..13) within 2 kappa u of the network's own
    exact function, kappa u = (max|f| + max|f'|) 2^-52; forward reads further
    off."""
    rng = np.random.default_rng(71)
    worst_eval = worst_forward = 0.0
    for width, n, scale in ((4, 500, 2.0), (5, 300, 1e4), (6, 200, 2.0), (7, 500, 1e4),
                            (4, 120, 1e4), (7, 60, 2.0), (8, 500, 2.0), (8, 200, 1e4),
                            (13, 300, 2.0), (13, 800, 1e4)):
        net, _ = compile_spline(random_spline(rng, n, -scale, scale), width)
        assert reset_layers(net).size == net.depth
        on_eval, on_forward = _eval_errors(tmp_path, net, rng, 64)
        worst_eval, worst_forward = max(worst_eval, on_eval), max(worst_forward, on_forward)
        assert worst_eval <= 2.0, (width, n, scale)
    assert worst_eval < worst_forward


def test_eval_reads_two_deep_networks_within_four_kappa_u(tmp_path):
    """At 48 sampled points of the benchmark's 10001-point grid, eval prints
    a wide-form W >= 8 network, read through its two-deep closed form, within
    4 kappa u of the network's own exact function."""
    rng = np.random.default_rng(72)
    for width, n, scale in ((8, 500, 2.0), (9, 300, 1e4), (13, 200, 2.0), (20, 400, 1e4),
                            (26, 120, 1e4), (32, 800, 2.0)):
        net = _compile_wide(random_spline(rng, n, -scale, scale), width)
        assert np.array_equal(reset_layers(net), np.arange(0, net.depth, 2))
        assert _eval_errors(tmp_path, net, rng, 48)[0] <= 4.0, (width, n, scale)


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
