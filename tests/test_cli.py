import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracvel import Direction, default_zoo
from fracvel.cli import (
    DataError,
    _build_parser,
    SampledFunction,
    UsageError,
    build_function,
    load_samples,
    main,
    parse_args,
    render_csv,
    render_json,
)


def write_samples(path, xs, ys):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for x, y in zip(xs, ys):
            w.writerow([repr(float(x)), repr(float(y))])
    return str(path)


class TestParseArgs:
    def test_analyze_defaults(self):
        cfg = parse_args(["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5"])
        assert cfg.command == "analyze"
        assert cfg.direction == "both"
        assert cfg.tol is None
        assert cfg.eps0 == 2.0 ** -4
        assert cfg.ratio == 0.5
        assert cfg.count == 40
        assert cfg.fmt == "json"

    def test_scan_interval_parsed(self):
        cfg = parse_args(["scan", "--fn", "cusp:", "--interval=-1,1",
                          "--beta", "0.5", "--n", "11"])
        assert cfg.interval == (-1.0, 1.0)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "1.5"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0"],
        ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "1"],
        ["verify", "--fn", "cusp:", "--theorem", "mean_value",
         "--interval", "0,1", "--beta", "1"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
         "--ratio", "1.0"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
         "--eps0", "0"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
         "--count", "3"],
        ["scan", "--fn", "cusp:", "--interval", "1,0", "--beta", "0.5",
         "--n", "11"],
        ["scan", "--fn", "cusp:", "--interval", "0;1", "--beta", "0.5",
         "--n", "11"],
        ["zoo", "list", "--format", "csv"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--tol", "nan"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--tol", "inf"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--tol", "-1"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--eps0", "inf"],
        ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--eps0", "nan"],
        ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "11",
         "--threshold", "nan"],
        ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "11",
         "--threshold", "-1"],
        ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "11",
         "--threshold", "inf"],
        ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--kg-tol", "nan"],
        ["analyze", "--fn", "cusp:", "--x", "inf", "--beta", "0.5"],
        ["analyze", "--fn", "cusp:", "--x", "nan", "--beta", "0.5"],
        ["holder", "--fn", "cusp:", "--x=-inf"],
        ["lfd", "--fn", "cusp:", "--x", "nan", "--beta", "0.5"],
        ["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
         "--interval", "0,1", "--beta", "1", "--target", "nan"],
        ["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
         "--interval", "0,1", "--beta", "1", "--target", "inf"],
        ["scan", "--fn", "cusp:", "--interval=-inf,1", "--beta", "0.5", "--n", "11"],
        ["scan", "--fn", "cusp:", "--interval=nan,1", "--beta", "0.5", "--n", "11"],
        ["verify", "--fn", "cusp:", "--theorem", "mean_value",
         "--interval", "0,inf", "--beta", "0.5"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)

    @pytest.mark.parametrize("flag", ["--tol", "--threshold"])
    def test_zero_tolerance_and_threshold_accepted(self, flag):
        cfg = parse_args(["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5",
                          "--n", "11", flag, "0"])
        assert getattr(cfg, flag[2:]) == 0.0

    def test_parser_reuse_leaks_nothing_between_calls(self):
        # parse_args reuses one parser per process; every config must
        # equal the one a freshly built parser gives for the same argv
        sequence = [
            ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--tol", "1e-3"],
            ["zoo", "list"],
            ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "11",
             "--threshold", "2"],
            ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--tol", "nan"],
            ["holder", "--fn", "weierstrass:", "--x", "0.7", "--count", "12"],
            ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
             "--direction", "sideways"],
            ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--scheme",
             "jacobi_weighted", "--nodes", "32"],
            ["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
             "--interval", "0,1", "--beta", "1", "--target", "0.5"],
            ["analyze", "--fn", "cusp:", "--x", "0.25", "--beta", "0.5"],
            ["scan", "--fn", "cusp:", "--interval=0,1", "--beta", "0.3", "--n", "5"],
            ["holder", "--fn", "cusp:", "--x", "0"],
            ["verify", "--fn", "cusp:", "--theorem", "mean_value",
             "--interval", "0,1", "--beta", "0.5"],
        ]

        def outcome(argv):
            try:
                return parse_args(argv)
            except UsageError as e:
                return ("usage", str(e))
            except SystemExit as e:
                return ("exit", e.code)

        fresh = []
        for argv in sequence:
            _build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert ("exit", 2) in fresh
        assert any(o[0] == "usage" for o in fresh if isinstance(o, tuple))
        _build_parser.cache_clear()
        reused = [outcome(argv) for argv in sequence]
        assert _build_parser.cache_info().currsize == 1
        assert reused == fresh

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            parse_args(["analyze", "--fn", "cusp:", "--x", "0",
                        "--beta", "0.5", "--direction", "sideways"])
        assert exc_info.value.code == 2


class TestBuildFunction:
    def test_cusp_with_params(self):
        f = build_function("cusp:a=1,beta=0.25,k=2,c0=3")
        assert f.id == "cusp(a=1,beta=0.25,K=2,c0=3)"
        assert f(1.0) == 3.0

    def test_kind_is_case_insensitive(self):
        f = build_function("CUSP:A=0")
        assert f(0.0) == 0.0

    def test_chirp(self):
        f = build_function("chirp:gamma=0.5")
        assert f(-1.0) == 0.0

    def test_weierstrass_defaults(self):
        f = build_function("weierstrass:")
        assert f.id.startswith("weierstrass(")

    def test_poly(self):
        f = build_function("poly:coeffs=0;0;1,domain=-1;1")
        assert f(0.5) == 0.25
        assert f.domain == (-1.0, 1.0)

    def test_file_kind(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 32)
        path = write_samples(tmp_path / "d.csv", xs, xs)
        f = build_function(f"file:{path}")
        assert isinstance(f, SampledFunction)
        assert f.id == f"file:{path}"

    @pytest.mark.parametrize("spec", [
        "mystery:a=0",
        "cusp:a",
        "cusp:a=zero",
        "cusp:spin=1",
        "poly:",
        "poly:coeffs=1;two",
        "poly:coeffs=1,domain=0",
        "chirp:gamma=1.5",
        "weierstrass:amp=0.2,freq=3",
        "file:",
    ])
    def test_rejected_specs(self, spec):
        with pytest.raises(UsageError):
            build_function(spec)


class TestLoadSamples:
    def test_round_trip(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 64)
        f = load_samples(write_samples(tmp_path / "d.csv", xs, xs ** 2))
        assert f.domain == (0.0, 2.0)
        assert f.resolution == pytest.approx(2.0 / 63.0)
        assert f.eps_floor == pytest.approx(8.0 / 63.0)
        assert f(1.0) == pytest.approx(1.0, abs=1e-3)  # interp error only

    def test_queries_outside_domain_rejected(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 32)
        f = load_samples(write_samples(tmp_path / "d.csv", xs, xs))
        from fracvel import DomainError
        with pytest.raises(DomainError):
            f(1.5)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = "\n".join(f"{i * 0.1},{i}" for i in range(20))
        p.write_text(rows + "\n")
        with pytest.raises(DataError, match="header"):
            load_samples(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_samples(str(p))

    def test_too_few_rows(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 8)
        with pytest.raises(DataError, match="at least 16"):
            load_samples(write_samples(tmp_path / "d.csv", xs, xs))

    def test_one_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n" + "\n".join(str(i) for i in range(20)) + "\n")
        with pytest.raises(DataError, match="two columns"):
            load_samples(str(p))

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        body = "\n".join(f"{i},{i}" for i in range(18))
        p.write_text(f"x,value\n{body}\nnineteen,19\n")
        with pytest.raises(DataError):
            load_samples(str(p))

    def test_non_finite_entries(self, tmp_path):
        p = tmp_path / "d.csv"
        body = "\n".join(f"{i},{i}" for i in range(18))
        p.write_text(f"x,value\n{body}\n18,inf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_samples(str(p))

    def test_non_increasing_abscissae(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 32)
        xs[10] = xs[9]
        with pytest.raises(DataError, match="strictly increasing"):
            load_samples(write_samples(tmp_path / "d.csv", xs, xs))


class TestSampledAnalyze:
    def test_order_one_slope_recovered(self, tmp_path, capsys):
        # 2^14 gaps on [0, 1]; the floor keeps 8 increments, all grid-aligned
        xs = np.linspace(0.0, 1.0, 2 ** 14 + 1)
        path = write_samples(tmp_path / "grid.csv", xs, xs ** 2)
        code = main(["analyze", "--fn", f"file:{path}", "--x", "0.5",
                     "--beta", "1", "--tol", "0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"]["effective_count"] == 8
        fwd = payload["reports"]["forward"]
        assert fwd["status"] == "converged"
        assert abs(fwd["value"] - 1.0) <= 0.02

    def test_floor_leaves_too_little(self, tmp_path, capsys):
        xs = np.linspace(0.0, 1.0, 32)
        path = write_samples(tmp_path / "grid.csv", xs, xs)
        code = main(["analyze", "--fn", f"file:{path}", "--x", "0.5",
                     "--beta", "1"])
        assert code == 1
        assert "usable increments" in capsys.readouterr().err


    @pytest.mark.parametrize("count", [4, 7])
    def test_short_schedule_the_floor_leaves_whole_runs(self, tmp_path, capsys, count):
        # the sample floor cuts nothing from these schedules, so they run
        # as they would on an analytic function
        xs = np.linspace(0.0, 1.0, 2 ** 14 + 1)
        path = write_samples(tmp_path / "grid.csv", xs, xs ** 2)
        code = main(["analyze", "--fn", f"file:{path}", "--x", "0.5",
                     "--beta", "1", "--count", str(count)])
        assert code == 0
        schedule = json.loads(capsys.readouterr().out)["schedule"]
        assert schedule["count"] == schedule["effective_count"] == count

    def test_floor_cutting_below_eight_fails(self, tmp_path, capsys):
        # gaps of 5e-4 floor the probes at 2e-3, leaving 2**-4 .. 2**-8
        xs = np.linspace(0.0, 1.0, 2001)
        path = write_samples(tmp_path / "grid.csv", xs, xs)
        code = main(["analyze", "--fn", f"file:{path}", "--x", "0.5",
                     "--beta", "1", "--count", "12"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sample spacing leaves only 5 usable increments; "
            "coarsen the schedule or resample the data\n")


class TestRendering:
    def test_keys_sorted_and_floats_repr(self):
        text = render_json({"b": 0.1, "a": 2.0, "z": [1, True, None]})
        assert text == '{"a":2.0,"b":0.1,"z":[1,true,null]}'

    def test_non_finite_becomes_null(self):
        assert render_json({"v": math.inf, "w": math.nan}) == '{"v":null,"w":null}'

    def test_enums_render_as_values(self):
        assert render_json([Direction.FORWARD]) == '["forward"]'

    def test_numpy_scalars_and_arrays(self):
        text = render_json({"a": np.float64(0.5), "b": np.arange(3)})
        assert text == '{"a":0.5,"b":[0,1,2]}'

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())
        with pytest.raises(TypeError):
            render_json({"flag": np.bool_(True)})

    @pytest.mark.parametrize("value,text", [
        (-0.0, "-0.0"),
        (1e16, "1e+16"),
        (5e-324, "5e-324"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.int64(-7), "-7"),
        ((1, 2.5, None), "[1,2.5,null]"),
        ({"d": {"e": Direction.BACKWARD}}, '{"d":{"e":"backward"}}'),
        ('sch\u00f6n "x"\n', '"sch\\u00f6n \\"x\\"\\n"'),
        ({1: "a", 10: "b", 2: "c"}, '{"1":"a","2":"c","10":"b"}'),
    ])
    def test_scalars_and_containers(self, value, text):
        assert render_json(value) == text

    def test_csv_unix_newlines(self):
        text = render_csv(("a", "b"), [(1.0, True), (math.inf, False)])
        assert text == "a,b\n1.0,true\nnull,false\n"
        assert "\r" not in text


class TestMainCommands:
    def test_zoo_list_json_lines(self, capsys):
        assert main(["zoo", "list"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [f.id for f in default_zoo()]

    def test_analyze_cusp(self, capsys):
        code = main(["analyze", "--fn", "cusp:a=0,beta=0.5", "--x", "0",
                     "--beta", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"]["forward"]["value"] == 1.0
        assert payload["reports"]["backward"]["value"] == 1.0
        assert payload["meta"]["tool"] == "fracvel"

    def test_analyze_csv_format(self, capsys):
        code = main(["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "direction,status,value,residual,c1_constant,c1_holds"
        assert len(lines) == 3  # header + both directions

    def test_analyze_prints_the_c1_verdict(self, capsys):
        # far above the Weierstrass exponent ln 2/ln 3 the growth ratios
        # blow up on both sides
        code = main(["analyze", "--fn", "weierstrass:", "--x", "0.3", "--beta", "0.9",
                     "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["direction"] for r in rows] == ["backward", "forward"]
        assert [r["c1_holds"] for r in rows] == ["false", "false"]

    def test_analyze_c1_holds_where_the_limit_oscillates(self, capsys):
        # the chirp at its critical order: bounded growth, no limit
        code = main(["analyze", "--fn", "chirp:gamma=0.5", "--x", "0", "--beta", "0.5"])
        assert code == 0
        fwd = json.loads(capsys.readouterr().out)["reports"]["forward"]
        assert fwd["c1_holds"] is True
        assert fwd["status"] == "oscillatory"
        assert "c2_oscillation" not in fwd

    def test_holder_cusp(self, capsys):
        code = main(["holder", "--fn", "cusp:beta=0.5", "--x", "0",
                     "--direction", "fwd", "--eps0", "0.015625",
                     "--count", "15"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"]["exponent"] == pytest.approx(0.5, abs=1e-6)
        assert payload["estimate"]["low_confidence"] is False

    def test_scan_csv_rows(self, capsys):
        code = main(["scan", "--fn", "cusp:", "--interval=-1,1",
                     "--beta", "0.5", "--n", "11", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,direction,status,value,flagged"
        assert len(lines) == 1 + 2 * 11 - 2

    def test_scan_json_flags_cusp(self, capsys):
        code = main(["scan", "--fn", "cusp:", "--interval=-1,1",
                     "--beta", "0.5", "--n", "11", "--threshold", "1e-3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flagged_fraction"] == pytest.approx(1.0 / 11.0)
        assert {w["x"] for w in payload["flagged"]} == {0.0}

    def test_lfd_cusp(self, capsys):
        code = main(["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["velocity"] == 1.0

    def test_verify_mean_value(self, capsys):
        code = main(["verify", "--fn", "cusp:", "--theorem", "mean_value",
                     "--interval", "0,1", "--beta", "0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["witness"]["x"] == 0.0

    def test_verify_rolle_polynomial(self, capsys):
        code = main(["verify", "--fn", "poly:coeffs=0;1;-1,domain=-1;2",
                     "--theorem", "rolle", "--interval", "0,1", "--beta", "1",
                     "--count", "24"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["witness"]["x"] == 0.5

    def test_usage_error_exit_2(self, capsys):
        code = main(["analyze", "--fn", "mystery:", "--x", "0", "--beta", "0.5"])
        assert code == 2
        assert "unknown function kind" in capsys.readouterr().err

    def test_analysis_error_exit_1(self, capsys):
        # cusp domain is (-2, 2); probing at 5 fails inside analysis
        code = main(["analyze", "--fn", "cusp:", "--x", "5", "--beta", "0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["weierstrass:n_terms=1000000000",
                                      "weierstrass:n_terms=inf",
                                      "weierstrass:freq=1e400"])
    def test_unbounded_weierstrass_exit_2(self, spec, capsys):
        # rejected while building the function, before any allocation
        code = main(["analyze", "--fn", spec, "--x", "0", "--beta", "0.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["--theorem", "weak_darboux", "--interval=-1,0", "--beta", "0.5", "--n", "0"],
        ["--theorem", "weak_darboux", "--interval=-1,0", "--beta", "1", "--target", "0",
         "--n", "2"],
        ["--theorem", "rolle", "--interval=-1,1", "--beta", "0.5", "--n", "2"],
    ])
    def test_verify_grid_below_three_points_exit_1(self, argv, capsys):
        code = main(["verify", "--fn", "poly:coeffs=0;0;1"] + argv)
        assert code == 1
        want = f"error: need at least 3 grid points, got {argv[-1]}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_verify_mean_value_needs_an_interior_point(self, n, capsys):
        code = main(["verify", "--fn", "cusp:", "--theorem", "mean_value",
                     "--interval", "0,1", "--beta", "0.5", "--n", n])
        assert code == 1
        want = f"error: need at least 1 interior grid point, got {n}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("argv,flag,cap", [
        (["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--count", "1025"],
         "--count", 1024),
        (["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
          "--approach-count", "1025"], "--approach-count", 1024),
        (["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "65537"],
         "--n", 65536),
        (["verify", "--fn", "cusp:", "--theorem", "mean_value", "--interval", "0,1",
          "--beta", "0.5", "--n", "65537"], "--n", 65536),
    ])
    def test_sizes_past_their_cap_exit_2(self, argv, flag, cap, capsys):
        assert main(argv) == 2
        want = f"error: {flag} must be at most {cap}, got {argv[-1]}\n"
        assert capsys.readouterr().err == want

    def test_sizes_at_their_cap_are_accepted(self):
        cfg = parse_args(["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5",
                          "--n", "65536", "--count", "1024"])
        assert (cfg.n, cfg.count) == (65536, 1024)
        cfg = parse_args(["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
                          "--approach-count", "1024"])
        assert cfg.approach_count == 1024

    def test_missing_file_exit_1(self, capsys):
        code = main(["analyze", "--fn", "file:/no/such/file.csv", "--x", "0",
                     "--beta", "0.5"])
        assert code == 1


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5",
                "--n", "11", "--format", "csv"]
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        dest = tmp_path / "scan.csv"
        assert main(argv + ["--out", str(dest)]) == 0
        assert dest.read_text() == stdout_text



def _num(lo, hi):
    return st.floats(lo, hi).map(repr)


# malformed, non-finite and out-of-range values any flag may get
BAD_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "abc", "1e", "", "0x10", "1,2"]),
)
# in-range values per flag; counts and grid sizes stay small
FLAG_VALUES = {
    "--x": _num(-1.0, 1.0),
    "--beta": _num(0.05, 1.0),
    "--tol": _num(0.0, 0.1),
    "--eps0": st.sampled_from(["0.0625", "0.015625", "0.1"]),
    "--ratio": _num(0.2, 0.8),
    "--count": st.sampled_from(range(12, -3, -1)).map(str),
    "--n": st.sampled_from(range(9, -2, -1)).map(str),
    "--nodes": st.sampled_from([64, 16, 8, 37, 7, 0, -1]).map(str),
    "--approach-count": st.sampled_from(range(12, -2, -1)).map(str),
    "--threshold": _num(0.0, 1.0),
    "--target": _num(-2.0, 2.0),
    "--kg-tol": _num(0.0, 0.1),
    "--interval": st.tuples(_num(-1.0, 0.0), _num(0.0, 1.0)).map(",".join),
    "--direction": st.sampled_from(["fwd", "bwd", "both"]),
    "--scheme": st.sampled_from(["graded_product", "jacobi_weighted"]),
    "--theorem": st.sampled_from(["rolle", "mean_value", "weak_darboux"]),
    "--format": st.sampled_from(["json", "csv"]),
}
SPECS = ["cusp:", "cusp:a=0.25,beta=0.3,k=2", "chirp:gamma=0.5", "chirp:a=1e-300",
         "weierstrass:amp=0.5,freq=3,n_terms=8", "poly:coeffs=0;1;1",
         "poly:coeffs=1;2,domain=0;1", "SAMPLES", "SAMPLES", "poly:coeffs=1;x", "poly:",
         "bogus:", "cusp:beta", "cusp:k=nan", "cusp:beta=2", "file:",
         "file:missing-dir/none.csv", "weierstrass:n_terms=1000000000",
         "weierstrass:n_terms=inf"]
# (required, optional) flags of each subcommand
COMMAND_FLAGS = {
    "zoo": ((), ("--format",)),
    "analyze": (("--x", "--beta"), ("--direction",)),
    "holder": (("--x",), ("--direction",)),
    "scan": (("--interval", "--beta", "--n"), ("--threshold",)),
    "lfd": (("--x", "--beta"), ("--direction", "--kg-tol", "--approach-count",
                                "--scheme", "--nodes")),
    # --n is always given: verify's default grid is 101 points
    "verify": (("--theorem", "--interval", "--beta", "--n"), ("--target",)),
}
SMALL_INTS = ("--count", "--n", "--nodes", "--approach-count")
SCHEDULE_FLAGS = ("--tol", "--eps0", "--ratio", "--count", "--format")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    if command == "zoo":
        argv = ["zoo", draw(st.sampled_from(["list"] * 7 + ["show"]))]
    else:
        argv = [command, "--fn=" + draw(st.sampled_from(SPECS))]
        optional += SCHEDULE_FLAGS
    for flag in required + optional:
        # a required flag is left out one time in sixteen, an optional one in two
        odds = [True] * 15 + [False] if flag in required else [True, False]
        if not draw(st.sampled_from(odds)) and flag != "--n":
            continue
        # one value in twelve is malformed or out of range, but never a
        # large count or grid
        bad = flag not in SMALL_INTS and draw(st.sampled_from([False] * 11 + [True]))
        argv.append(f"{flag}={draw(BAD_NUMBERS if bad else FLAG_VALUES[flag])}")
    return argv


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    xs = np.linspace(-1.0, 1.0, 4001)
    return write_samples(tmp_path_factory.mktemp("argv") / "cusp.csv", xs, np.sqrt(np.abs(xs)))


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["verify", "--fn=cusp:", "--theorem=weak_darboux", "--interval=-1,0",
               "--beta=0.5", "--n=0"])
@example(argv=["verify", "--fn=cusp:", "--theorem=weak_darboux", "--interval=-1,0",
               "--beta=1", "--target=0", "--n=1"])
@example(argv=["verify", "--fn=poly:coeffs=0;0;1", "--theorem=weak_darboux",
               "--interval=-1,1", "--beta=0.5", "--n=2"])
@example(argv=["verify", "--fn=poly:coeffs=0;0;1", "--theorem=rolle",
               "--interval=-1,1", "--beta=0.5", "--n=2"])
@example(argv=["analyze", "--fn=weierstrass:n_terms=1000000000", "--x=0", "--beta=0.5"])
@example(argv=["verify", "--fn=cusp:", "--theorem=mean_value", "--interval=0,1",
               "--beta=0.5", "--n=0"])
@example(argv=["verify", "--fn=cusp:", "--theorem=mean_value", "--interval=0,1",
               "--beta=0.5", "--n=-5"])
@example(argv=["analyze", "--fn=cusp:", "--x=0", "--beta=0.5", "--count=100000000"])
@example(argv=["lfd", "--fn=cusp:", "--x=0", "--beta=0.5", "--approach-count=100000000"])
@example(argv=["scan", "--fn=cusp:", "--interval=-1,1", "--beta=0.5", "--n=100000000"])
@example(argv=["verify", "--fn=cusp:", "--theorem=mean_value", "--interval=0,1",
               "--beta=0.5", "--n=100000000"])
def test_any_command_line_exits_cleanly(sample_file, argv):
    # exit 0, 1 or 2 with a one-line reason, never a traceback; any other
    # exception escapes main and fails the test
    argv = [a.replace("SAMPLES", f"file:{sample_file}") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:   # argparse rejects the line
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
