import contextlib
import csv
import enum
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracvel import (Direction, EpsilonSchedule, LimitStatus, QuadScheme, Theorem,
                     default_zoo)
import fracvel
from fracvel import cli
from fracvel.cli import (
    DataError,
    _build_parser,
    _csv_cell,
    SampledFunction,
    UsageError,
    build_function,
    load_samples,
    main,
    parse_args,
    render_csv,
    render_json,
)
from fracvel.rlcalc import DEFAULT_APPROACH
from fracvel.scanner import scan_change_set
from common import GAMMA_15, interpolant_rl_derivative


def write_samples(path, xs, ys):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value"])
        for x, y in zip(xs, ys):
            w.writerow([repr(float(x)), repr(float(y))])
    return str(path)


# first arguments and later tokens for the parser equivalence property:
# commands and non-commands, every flag with a value, attached or not,
# abbreviations unique and ambiguous, unknown flags, "--", help, version,
# and "--=...", an abbreviation of both top-level options
_PARSE_HEADS = [[c] for c in ("zoo", "analyze", "holder", "scan", "lfd", "verify")] * 3 + [
    [], ["bogus"], ["-h"], ["--version"], ["--"], ["--=x", "analyze"], ["--fn", "cusp:"]]
_PARSE_TOKENS = [
    "--fn", "cusp:", "--fn=poly:coeffs=0;1", "--x", "0", "--x=0.5", "-1", "--beta", "0.5",
    "--beta=1", "--be", "--dir", "fwd", "--direction", "both", "sideways", "--interval",
    "-1,1", "--interval=-1,1", "--n", "5", "--n=-2", "--theorem", "rolle", "--theo=mean_value",
    "--target", "0.5", "--threshold=2", "--t", "--tol", "1e-3", "--eps0", "0.1", "--ratio",
    "0.5", "--count", "12", "--kg-tol", "0.1", "--kg", "--approach-count=6", "--scheme",
    "jacobi_weighted", "--sch", "--nodes", "8", "--format", "csv", "--form=json", "--f",
    "--out", "", "x y", "list", "show", "--", "-h", "--help", "--he=3", "--version", "--ver",
    "--=x", "--=", "-=x", "-=", "-", "-x", "--bogus", "--bogus=1"]


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
        ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--approach-count", "3"],
        ["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
         "--interval", "0,1", "--beta", "1"],
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

    @settings(max_examples=300, deadline=None)
    @given(argv=st.lists(st.sampled_from(_PARSE_TOKENS), max_size=9).flatmap(
        lambda rest: st.sampled_from(_PARSE_HEADS).map(lambda head: head + rest)))
    @example(argv=["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--=x"])
    @example(argv=["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "extra", "--y"])
    @example(argv=["scan", "--fn=cusp:", "--interval=-1,1", "--beta", "0.5", "--n", "5",
                   "--version"])
    @example(argv=["lfd", "--fn", "cusp:", "--x", "0", "--be", "0.5", "--sch", "jacobi_weighted",
                   "--", "-h"])
    @example(argv=["holder", "-h"])
    def test_direct_dispatch_parses_as_the_full_parser(self, argv):
        # argv that starts with a command goes straight to its subparser;
        # the values, or the exit code and every byte printed, must be what
        # a freshly built parser's full parse_args gives
        def outcome(parse):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    got = ("values", sorted(parse(argv).items()))
                except SystemExit as e:
                    got = ("exit", e.code)
            return got, out.getvalue(), err.getvalue()

        fresh, _ = _build_parser.__wrapped__()
        assert outcome(cli._parse_values) == outcome(lambda a: vars(fresh.parse_args(a)))


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

    def test_weierstrass_integral_floats_are_their_ints(self):
        f = build_function("weierstrass:freq=3.0,n_terms=8.0")
        assert f.id == "weierstrass(amp=0.5,freq=3,n_terms=8)"

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

    def test_lfd_approach_stops_at_the_sample_floor(self, tmp_path, capsys):
        # 2^17 gaps on [-1, 1] floor the probes at 2**-14, so the approach
        # ladder ends at 2**-13.  Its tail reads the linear interpolant,
        # whose derivative of order 1/2 at the cusp drifts from Gamma(1.5)
        # as the steps near the knots; the tail is checked against that
        # derivative's closed form.  Every value lies within 5e-4 of it
        # (worst 2.9e-4, graded at 2**-11, where the settle rule stops a
        # level early on the knots; Jacobi 2.4e-6), and the last within
        # 2e-5 (graded 1.0e-5), where the references at the last two
        # steps differ by 3.5e-3
        xs = np.linspace(-1.0, 1.0, 2 ** 17 + 1)
        ys = np.sign(xs) * np.abs(xs) ** 0.5
        path = write_samples(tmp_path / "cusp.csv", xs, ys)
        steps = 2.0 ** -np.arange(10, 14)
        want = np.array([interpolant_rl_derivative(xs, ys, 0.0, 0.5, e) for e in steps])
        for scheme in ("graded_product", "jacobi_weighted"):
            code = main(["lfd", "--fn", f"file:{path}", "--x", "0", "--beta", "0.5",
                         "--direction", "fwd", "--scheme", scheme])
            assert code == 0
            lfd = json.loads(capsys.readouterr().out)["lfd"]
            tail = np.array(lfd["tail_values"])
            assert np.abs(tail - want).max() < 5e-4
            assert lfd["value"] == tail[-1] and abs(tail[-1] - want[-1]) < 2e-5

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


_CSV_SPECIALS = st.sampled_from([",", '"', "\r", "\n", "", "a,b", 'say "x"', "\r\n"])
_CSV_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf,
                                             1e16, 5e-324])
# cell strategies by kind; the first group renders tokens that never need quoting
_TYPED_CELLS = {
    "float": _CSV_FLOATS,
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    **{e.__name__: st.sampled_from(list(e))
       for e in (Direction, LimitStatus, QuadScheme, Theorem)},
}
_OTHER_CELLS = {
    "np.float64": _CSV_FLOATS.map(np.float64),
    "int": st.integers(),
    "text": st.text() | _CSV_SPECIALS,
    "mixed": st.one_of(*_TYPED_CELLS.values(), st.integers(), st.text()),
    "quoted enum": st.sampled_from(list(enum.Enum("Quoted", {"A": "a,b", "E": ""}))),
}


@st.composite
def _csv_tables(draw):
    """(header, columns): columns of one kind each, either all of a kind
    that never needs quoting under identifier names, or of any kind under
    any names."""
    typed_only = draw(st.booleans())
    cells = _TYPED_CELLS if typed_only else {**_TYPED_CELLS, **_OTHER_CELLS}
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 6))
    columns = [tuple(draw(st.lists(cells[k], min_size=n_rows, max_size=n_rows)))
               for k in kinds]
    names = st.sampled_from(["x", "value", "c1_holds"])
    if not typed_only:
        names = names | st.text() | _CSV_SPECIALS
    header = tuple(draw(st.lists(names, min_size=len(kinds), max_size=len(kinds))))
    return header, columns


def _reference_plain(obj):
    # render_json's conversion, one isinstance test after another
    if isinstance(obj, enum.Enum):
        return _reference_plain(obj.value)
    if isinstance(obj, dict):
        return {k: _reference_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_reference_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


# every kind of value a report holds, nested: Python and numpy scalars,
# non-finite floats, enums, arrays, lists, tuples and dicts
_json_values = st.recursive(
    st.one_of(
        _CSV_FLOATS, _CSV_FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
        st.booleans(), st.booleans().map(np.bool_), st.integers(),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
        st.text(max_size=4), st.none(),
        *(st.sampled_from(list(e)) for e in (Direction, LimitStatus, QuadScheme, Theorem)),
        st.lists(_CSV_FLOATS, max_size=4).map(np.array),
        st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
        st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(
            lambda v: np.array(v).reshape(2, 2))),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)
                      | st.dictionaries(st.integers(-3, 3), children, max_size=3)),
    max_leaves=12)


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
            render_json({"flags": {True}})

    def test_numpy_bools_render_as_bools(self):
        # a column computed as an array holds np.bool_, not bool
        flags = np.array([True, False])
        assert render_json({"f": flags[0], "g": flags}) == '{"f":true,"g":[true,false]}'
        assert _csv_cell(flags[0]) == "true" and _csv_cell(flags[1]) == "false"
        text = render_csv(("x", "flagged"), [(0.5, 1.0), (flags[0], flags[1])])
        assert text == "x,flagged\n0.5,true\n1.0,false\n"

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

    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    @example({"a": [np.float32(0.1), np.int64(-7), np.bool_(False), True, 1, -0.0],
              "b": (Direction.FORWARD, LimitStatus.DIVERGED, math.nan, -math.inf),
              "c": np.array([[0.5, math.inf], [1e16, 5e-324]]), "d": {"e": None}})
    def test_render_json_matches_a_reference(self, value):
        # the exact-type fast paths and the shared encoder give the bytes
        # of the isinstance chain under json.dumps, or raise as it raises
        def outcome(render):
            try:
                return render(value)
            except (TypeError, ValueError) as e:
                return type(e)

        assert outcome(render_json) == outcome(lambda v: json.dumps(
            _reference_plain(v), sort_keys=True, separators=(",", ":"), allow_nan=False))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.lists(st.sampled_from([
        0.1, -0.0, math.inf, math.nan, 1e16, np.float64(2.5), np.float32(0.1),
        True, False, np.bool_(True), 3, np.int64(-7), Direction.FORWARD,
        "a, b", 'say "x"', "", None]), min_size=1, max_size=6))
    def test_csv_columns_render_cell_by_cell(self, n_rows, pool):
        # one renderer per column gives the bytes _csv_cell gives each cell,
        # whether a column holds one type or several
        rows = [tuple(pool[(i + j) % len(pool)] for j in range(3)) for i in range(n_rows)]
        rows += [(c, c, 1.0) for c in pool]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("a", "b", "c"))
        writer.writerows([_csv_cell(c) for c in row] for row in rows)
        assert render_csv(("a", "b", "c"), list(zip(*rows))) == buf.getvalue()

    def test_csv_quotes_notes_with_commas(self):
        notes = "forward oscillatory, backward converged"
        text = render_csv(("theorem", "notes"), [(Direction.FORWARD,), (notes,)])
        assert text == 'theorem,notes\nforward,"forward oscillatory, backward converged"\n'

    def test_csv_unix_newlines(self):
        text = render_csv(("a", "b"), [(1.0, math.inf), (True, False)])
        assert text == "a,b\n1.0,true\nnull,false\n"
        assert "\r" not in text

    @settings(max_examples=200, deadline=None)
    @given(_csv_tables(), st.sampled_from([cli.CSV_CHUNK_ROWS, 1, 2, 4]))
    @example((("x", "y", "z"), [
        (-0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324),
        tuple(map(np.float64, (0.1, -0.0, math.nan, 1e16, 5e-324, 2.5))),
        (",", '"', "\r", "\n", "", "a\r\nb")]), 4)
    @example((("x", "flagged", "status"), [
        (0.5, -0.0, 5e-324), (True, False, True),
        (LimitStatus.CONVERGED, LimitStatus.DIVERGED, LimitStatus.OSCILLATORY)]), 2)
    @example((("notes",), [("",)]), 1)
    @example((("",), [()]), 1)
    @example((("x", "notes"), [(0.5, 1.0, 2.0), (Direction.FORWARD, "", "a,b")]), 1)
    def test_csv_bytes_match_the_csv_module(self, table, chunk_rows):
        # typed-only tables are joined directly, any other goes through
        # csv.writer; either way, and in chunks of any number of rows, the
        # bytes are csv.writer's
        header, columns = table
        rows = list(zip(*columns))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(c) for c in row] for row in rows)
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows):
            assert render_csv(header, columns) == buf.getvalue()

    def test_csv_header_and_columns_of_unequal_count_rejected(self):
        with pytest.raises(ValueError):
            render_csv(("a", "b", "c"), [(1.0, 3.0), (2.0, 4.0)])
        with pytest.raises(ValueError):
            render_csv(("a", "b"), [(1.0, 3.0), (2.0,)])

    def test_typed_reports_never_call_the_csv_writer(self, capsys, monkeypatch):
        def no_writer(*args, **kwargs):
            raise AssertionError("csv.writer called")

        monkeypatch.setattr(csv, "writer", no_writer)
        columns = [(0.5, math.nan), (Direction.FORWARD, Direction.BACKWARD),
                   (np.bool_(True), np.bool_(False))]
        text = render_csv(("x", "direction", "flagged"), columns)
        assert text == "x,direction,flagged\n0.5,forward,true\nnull,backward,false\n"
        for argv, first in (
                (["scan", "--fn", "cusp:", "--interval=-1,1", "--beta", "0.5",
                  "--n", "11"], "x,"),
                (["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5"], "direction,"),
                (["holder", "--fn", "cusp:beta=0.5", "--x", "0.1"], "x,"),
                (["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5"], "a,")):
            assert main(argv + ["--format", "csv"]) == 0
            assert capsys.readouterr().out.startswith(first)
        with pytest.raises(AssertionError, match="csv.writer called"):
            render_csv(("theorem", "notes"), [(Theorem.ROLLE,), ("a, b",)])


def record_evaluator_calls(monkeypatch):
    """The number of points of each call the commands make to their
    function, as a list that fills while they run."""
    calls = []
    build = cli.build_function

    def recording_build(spec):
        f = build(spec)

        def recorded(t):
            calls.append(np.size(t))
            return f(t)

        recorded.id, recorded.domain = f.id, f.domain
        return recorded

    monkeypatch.setattr(cli, "build_function", recording_build)
    return calls


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

    def test_scan_csv_is_what_csv_writer_renders_from_the_points(self, capsys,
                                                                 monkeypatch):
        # a 250-point grid of step 2**-8 with the cusp on a grid point
        reports = []

        def recording_scan(*args):
            reports.append(scan_change_set(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "scan_change_set", recording_scan)
        code = main(["scan", "--fn", "cusp:a=0.125,beta=0.5",
                     "--interval=-0.484375,0.48828125", "--beta", "0.5",
                     "--n", "250", "--format", "csv"])
        assert code == 0
        points = reports[0].points
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(points._fields)
        writer.writerows([_csv_cell(c) for c in row] for row in zip(*points))
        out = capsys.readouterr().out
        assert out == buf.getvalue()
        assert len(points.x) == 2 * 250 - 2 and "0.125,forward,converged" in out

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

    def test_lfd_graded_converges_at_small_beta(self, capsys):
        # a cusp of small order from below: the graded rule's weights keep
        # their digits on the finest cells, so the approach converges
        beta, k = 0.16740015231087205, 1.1769108344972294
        code = main(["lfd", "--fn", f"cusp:a=0.0,beta={beta!r},k={k!r}", "--x", "0.0",
                     "--beta", repr(beta), "--direction", "bwd"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lfd"]["status"] == "converged" and payload["passed"] is True
        assert payload["lfd"]["value"] == pytest.approx(math.gamma(1.0 + beta) * k, abs=1e-4)

    @pytest.mark.parametrize("x, direction, err", [
        ("0.95", "fwd", "error: probe of width 0.0625 at x=0.95 (forward) "
                        "leaves the domain [-1, 1]\n"),
        ("-0.95", "bwd", "error: probe of width 0.0625 at x=-0.95 (backward) "
                         "leaves the domain [-1, 1]\n"),
        ("0.937", "fwd", ""),
        ("-0.937", "bwd", ""),
        ("0.9", "fwd", ""),
    ])
    def test_lfd_approach_needs_room_for_its_first_step_alone(self, x, direction, err, capsys):
        # the velocity's widest window and the first approach step, both
        # 0.0625, fit inside [-1, 1] at |x| = 0.937, with no derivative
        # stencil reaching past them; at |x| = 0.95 the velocity's window,
        # checked first, leaves it
        code = main(["lfd", "--fn", "poly:coeffs=1,domain=-1;1", "--x", x, "--beta", "0.5",
                     "--direction", direction])
        out, got = capsys.readouterr()
        assert (code, got) == (1 if err else 0, err)
        if err:
            assert out == ""

    @pytest.mark.parametrize("argv, points", [
        (["analyze", "--fn", "poly:coeffs=0;0;1e308", "--x", "1.3", "--beta", "0.5"],
         2 * 38 * 17),
        (["holder", "--fn", "poly:coeffs=0;0;1e308", "--x", "1.3", "--direction", "fwd"],
         38 * 17),
    ], ids=["analyze", "holder"])
    def test_infinite_oscillation_rows_are_not_doubled(self, argv, points, capsys, monkeypatch):
        # the outer forward annulus overflows to inf on its first grid and
        # is never doubled; the other rows settle at their first doubling,
        # which one call samples with every first grid, so the infinite
        # row's 8 midpoints are evaluated and not read
        calls = record_evaluator_calls(monkeypatch)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["schedule"]["effective_count"] == 38
        assert calls == [points]

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

    def test_analyze_samples_both_sides_in_shared_calls(self, capsys, monkeypatch):
        # the cusp is monotone on each side, so every annulus of both
        # ladders settles at its first doubling: one call for all 2 x 39
        # rows, each its 9-point first grid, which holds f(x) and every
        # f(x +- eps), and the 8 midpoints that double it; no call of its
        # own for the variations
        calls = record_evaluator_calls(monkeypatch)
        code = main(["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["schedule"]["effective_count"] == 39
        assert calls == [2 * 39 * 17]

    @pytest.mark.parametrize("x, side", [("1.99", "forward"), ("-1.99", "backward"),
                                         ("5", "forward")])
    def test_analyze_names_the_first_side_whose_window_leaves_the_domain(
            self, x, side, capsys, monkeypatch):
        # both sides' windows are checked before anything is evaluated, the
        # forward side first, as when each side ran alone in that order
        calls = record_evaluator_calls(monkeypatch)
        code = main(["analyze", "--fn", "cusp:", "--x", x, "--beta", "0.5"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: probe of width 0.0625 at x={x} ({side}) leaves the domain [-2, 2]\n")
        assert calls == []

    def test_verify_leaving_the_domain_exits_1_before_evaluating_the_failing_probe(
            self, capsys, monkeypatch):
        # the first forward probe past x = 4 leaves the domain; before it
        # come the two endpoint values and a few batches, not a replay of
        # its 10,000 predecessors one at a time
        calls = record_evaluator_calls(monkeypatch)
        code = main(["verify", "--fn", "poly:coeffs=0.09;-0.6;1", "--theorem", "rolle",
                     "--interval=-3.9,4.5", "--beta", "0.5", "--n", "10001"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: probe of width 0.0625 at x=4.0002 "
                                           "(forward) leaves the domain [-4, 4]\n")
        assert calls[:2] == [1, 1] and len(calls) < 40, len(calls)

    @pytest.mark.parametrize("interval, x", [("-1,2.5", "2.15"), ("-2.5,1", "-2.5")])
    def test_verify_probe_outside_the_domain_leaves_it_on_either_side(
            self, interval, x, capsys):
        # a forward probe past the domain's far end leaves the domain as one
        # before its near end does; neither reads as no room for the schedule
        code = main(["verify", "--fn", "cusp:", "--theorem", "weak_darboux",
                     f"--interval={interval}", "--beta", "0.5", "--n", "11"])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: probe of width 0.0625 at x={x} (forward) leaves the domain [-2, 2]\n")

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

    @pytest.mark.parametrize("spec,why", [
        ("weierstrass:amp=0.6,freq=3.7", "freq must be an integer, got 3.7"),
        ("weierstrass:n_terms=8.9", "n_terms must be an integer, got 8.9"),
        ("weierstrass:freq=nan", "cannot convert float NaN to integer"),
        ("weierstrass:n_terms=-inf", "cannot convert float infinity to integer"),
    ])
    def test_non_integral_weierstrass_exit_2(self, spec, why, capsys):
        # refused, not truncated to a neighbouring member
        code = main(["analyze", "--fn", spec, "--x", "0.1", "--beta", "0.5"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")

    @pytest.mark.parametrize("argv,header", [
        (["analyze", "--fn", "cusp:", "--x", "0", "--beta", "0.5"],
         "direction,status,value,residual,c1_constant,c1_holds"),
        (["holder", "--fn", "weierstrass:", "--x", "0.7", "--count", "12"],
         "x,direction,exponent,constant,r_squared,scale_min,scale_max,low_confidence"),
        (["scan", "--fn", "poly:coeffs=0;1,domain=-2;2", "--interval=-1,1", "--beta", "0.5",
          "--n", "5"],
         "x,direction,status,value,flagged"),
        (["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5"],
         "a,beta,direction,lfd_status,lfd_value,velocity_scaled,equivalence_gap,passed"),
        (["verify", "--fn", "poly:coeffs=0;0;1", "--theorem", "rolle", "--interval=-1,1",
          "--beta", "0.5", "--n", "11"],
         "theorem,holds,witness,notes"),
    ])
    def test_every_report_has_the_envelope_and_its_header(self, argv, header, capsys):
        f = build_function(argv[2])
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == argv[0]
        assert payload["function"] == {"id": f.id, "domain": list(f.domain)}
        assert payload["meta"] == {"tool": "fracvel", "version": fracvel.__version__}
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == header

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

    @pytest.mark.parametrize("argv,want", [
        (["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5", "--approach-count", "3"],
         "--approach-count must be at least 4, got 3"),
        (["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
          "--interval=0,1", "--beta", "1", "--count", "24"],
         "weak_darboux at --beta 1 needs --target"),
        # the grid-size error no longer comes first
        (["verify", "--fn", "poly:coeffs=0;1", "--theorem", "weak_darboux",
          "--interval=0,1", "--beta", "1", "--n", "2"],
         "weak_darboux at --beta 1 needs --target"),
    ])
    def test_usage_found_before_any_analysis_exits_2(self, argv, want, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

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

    def test_lfd_default_approach_is_the_library_default(self):
        cfg = parse_args(["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5"])
        assert EpsilonSchedule(cfg.eps0, cfg.ratio, cfg.approach_count) == DEFAULT_APPROACH

    @pytest.mark.parametrize("scheme, nodes, most", [
        ("graded_product", 7, 32768),
        ("graded_product", 40000, 32768),
        ("jacobi_weighted", 7, 512),
        ("jacobi_weighted", 513, 512),
    ])
    def test_nodes_the_rule_cannot_double_exit_2(self, scheme, nodes, most, capsys):
        # below 8, or past half the rule's node cap, the first doubling
        # cannot happen: a usage error, not an analysis failure
        argv = ["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
                "--scheme", scheme, "--nodes", str(nodes)]
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        want = f"error: --nodes must lie in [8, {most}] for {scheme}, got {nodes}\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("scheme, most", [("graded_product", 32768),
                                              ("jacobi_weighted", 512)])
    def test_nodes_the_rule_can_double_are_accepted(self, scheme, most):
        for nodes in (8, most):
            cfg = parse_args(["lfd", "--fn", "cusp:", "--x", "0", "--beta", "0.5",
                              "--scheme", scheme, "--nodes", str(nodes)])
            assert cfg.nodes == nodes

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
         "weierstrass:n_terms=inf",
         # values near the largest double overflow, a verdict and no warning
         "cusp:k=1e308,beta=0.1", "cusp:k=-1.7e308,c0=1.7e308,beta=0.9",
         "weierstrass:amp=0.999999,freq=2", "weierstrass:amp=1e-300",
         "poly:coeffs=1e308;1e308", "poly:coeffs=-1.7e308;1.7e308;-1.7e308",
         "poly:coeffs=0;0;0;1e308,domain=-1e100;1e100"]
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
@example(argv=["analyze", "--fn=cusp:k=1e308,beta=0.1", "--x=0", "--beta=0.9"])
@example(argv=["analyze", "--fn=poly:coeffs=1e308;1e308", "--x=3", "--beta=1"])
@example(argv=["scan", "--fn=cusp:k=-1.7e308,c0=1.7e308,beta=0.9", "--interval=-1,1",
               "--beta=0.5", "--n=5"])
@example(argv=["holder", "--fn=poly:coeffs=-1.7e308;1.7e308;-1.7e308", "--x=0"])
# the Hölder fit of an oscillation ladder that overflows: inf - inf and exp overflow
@example(argv=["holder", "--fn=poly:coeffs=-1.7e308;1.7e308;-1.7e308", "--x=0.0",
               "--direction=bwd", "--count=12"])
@example(argv=["holder", "--fn=cusp:k=-1.7e308,c0=1.7e308,beta=0.9", "--x=0.125",
               "--direction=fwd"])
# a graded Marchaud rule whose coarse meshes collapse onto s = 0 and 1
@example(argv=["lfd", "--fn=cusp:", "--x=1.0", "--beta=0.99999", "--direction=fwd",
               "--approach-count=12", "--count=12", "--tol=0.0625"])
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
