"""Command-line interface: generation, bounding, verification, sweeps.

Everything runs in-process through main(argv) so exit codes, stdout
payloads, and written files can be asserted directly.
"""

import csv
import io
import json

import pytest

from gmbe import (
    FactorGraph,
    brute_z,
    emit_uai,
    gen_ising_grid,
    parse_uai,
    to_forney,
)
from gmbe.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VERIFY,
    SweepSpec,
    main,
)
from gmbe.elimination import BoundResult

from conftest import random_pairwise_graph


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small_grid(tmp_path, capsys, name="m.uai", seed=0):
    path = tmp_path / name
    code, _, _ = run_cli(
        ["gen", "--model", "ising-grid", "--rows", "3", "--cols", "3",
         "--t", "1.0", "--seed", str(seed), "-o", str(path)], capsys)
    assert code == EXIT_OK
    return path


def gen_small_forney(tmp_path, capsys, name="f.uai", factors=6, seed=1):
    path = tmp_path / name
    code, _, _ = run_cli(
        ["gen", "--model", "forney-3reg", "--factors", str(factors),
         "--t", "1.0", "--seed", str(seed), "-o", str(path)], capsys)
    assert code == EXIT_OK
    return path


def bound_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


class TestGen:
    def test_writes_model_and_sidecar(self, tmp_path, capsys):
        path = gen_small_grid(tmp_path, capsys)
        g = parse_uai(path.read_text())
        assert g.num_vars == 9
        assert g.num_factors == 9 + 12
        meta = json.loads((tmp_path / "m.uai.json").read_text())
        assert meta["model"] == "ising-grid"
        assert meta["rows"] == 3
        assert meta["t"] == 1.0
        assert meta["seed"] == 0
        assert "version" in meta

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = gen_small_grid(tmp_path, capsys, "a.uai", seed=5)
        b = gen_small_grid(tmp_path, capsys, "b.uai", seed=5)
        assert a.read_bytes() == b.read_bytes()
        c = gen_small_grid(tmp_path, capsys, "c.uai", seed=6)
        assert a.read_bytes() != c.read_bytes()

    def test_symmetric_family(self, tmp_path, capsys):
        path = tmp_path / "s.uai"
        code, _, _ = run_cli(
            ["gen", "--model", "forney-3reg-sym", "--factors", "6",
             "--t", "0.5", "-o", str(path)], capsys)
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "s.uai.json").read_text())
        assert meta["factors"] == 6

    def test_missing_output_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--model", "ising-grid"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--model", "tree", "-o", "x.uai"])
        assert err.value.code == EXIT_USAGE


class TestBound:
    def test_exact_method_matches_enumeration(self, tmp_path, capsys):
        path = gen_small_grid(tmp_path, capsys)
        payload = bound_json(["bound", str(path), "--method", "be"],
                             capsys)
        z = brute_z(parse_uai(path.read_text()))
        assert payload["method"] == "be"
        assert payload["direction"] == "exact"
        assert payload["ibound"] is None
        assert payload["log_bound"] == pytest.approx(z.logabs, abs=1e-9)

    def test_generous_ibound_is_exact(self, tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        exact = bound_json(["bound", str(path), "--method", "be"],
                           capsys)["log_bound"]
        loose = bound_json(
            ["bound", str(path), "--method", "wmbe", "--ibound", "99"],
            capsys)["log_bound"]
        assert loose == pytest.approx(exact, abs=1e-9)

    def test_trace_monotone_and_csv(self, tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        trace_path = tmp_path / "trace.csv"
        payload = bound_json(
            ["bound", str(path), "--method", "wmbe-wg", "--ibound", "2",
             "--iters", "5", "--trace", "--trace-csv", str(trace_path)],
            capsys)
        trace = payload["trace"]
        assert len(trace) == 6
        assert payload["iterations"] == 5
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert payload["log_bound"] == trace[-1]
        rows = list(csv.reader(io.StringIO(trace_path.read_text())))
        assert rows[0] == ["iter", "method", "log_bound"]
        assert len(rows) == 7
        assert rows[1][1] == "wmbe-wg"
        assert float(rows[-1][2]) == pytest.approx(payload["log_bound"])

    def test_lower_bound_direction(self, tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        exact = bound_json(["bound", str(path), "--method", "be"],
                           capsys)["log_bound"]
        payload = bound_json(
            ["bound", str(path), "--method", "wmbe-g", "--ibound", "2",
             "--iters", "5", "--lower"], capsys)
        assert payload["direction"] == "lower"
        assert payload["log_bound"] <= exact + 1e-9

    def test_grid_without_sidecar_bounds_as_with_it(self, tmp_path,
                                                    capsys):
        # the grid is recognised from the model itself, so wmbe-g runs on
        # the zero-free plaquette form whether or not the sidecar exists
        path = tmp_path / "g.uai"
        code, _, _ = run_cli(
            ["gen", "--model", "ising-grid", "--rows", "6", "--cols", "6",
             "--seed", "0", "-o", str(path)], capsys)
        assert code == EXIT_OK
        argv = ["bound", str(path), "--method", "wmbe-g", "--ibound", "4",
                "--iters", "5"]
        with_sidecar = bound_json(argv, capsys)["log_bound"]
        (tmp_path / "g.uai.json").unlink()
        assert bound_json(argv, capsys)["log_bound"] == with_sidecar

    def test_non_finite_bound_is_strict_json_null(self, tmp_path, capsys):
        # without singletons the model is no grid and goes through
        # to_forney, whose zero-entry equality factors drive the one-pass
        # lower bound to -inf
        g = gen_ising_grid(4, 4, t=1.0, seed=0)
        path = tmp_path / "m.uai"
        path.write_text(emit_uai(FactorGraph(
            g.cards, tuple(f for f in g.factors if f.arity == 2))))
        code, out, _ = run_cli(
            ["bound", str(path), "--method", "wmbe", "--lower",
             "--ibound", "4", "--trace"], capsys)
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["log_bound"] is None
        assert payload["trace"] == [None]

    @pytest.mark.parametrize("method", ["mbe", "wmbe-w", "wmbe-wtheta",
                                        "wmbe-wg"])
    def test_lower_with_weight_methods_is_usage_error(self, method,
                                                      tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        code, _, err = run_cli(
            ["bound", str(path), "--method", method, "--ibound", "2",
             "--lower"], capsys)
        assert code == EXIT_USAGE
        assert "upper bounds" in err

    def test_lower_with_exact_method_is_usage_error(self, tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        code, out, err = run_cli(
            ["bound", str(path), "--method", "be", "--lower"], capsys)
        assert code == EXIT_USAGE
        assert "exact values" in err
        assert "log_bound" not in out

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["bound", str(tmp_path / "absent.uai")], capsys)
        assert code == EXIT_RUNTIME
        assert "error" in err

    def test_malformed_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.uai"
        bad.write_text("MARKOV\n1\n2\nnope\n")
        code, _, err = run_cli(["bound", str(bad)], capsys)
        assert code == EXIT_RUNTIME
        assert "ParseError" in err


class TestVerify:
    def test_clean_model_passes(self, tmp_path, capsys):
        path = gen_small_grid(tmp_path, capsys)
        code, out, _ = run_cli(
            ["verify", str(path), "--ibound", "3", "--iters", "5"],
            capsys)
        assert code == EXIT_OK
        assert "brute-force log Z" in out
        assert out.count("[ok]") == 4
        assert "VIOLATION" not in out

    def test_forney_model_with_optimized_methods(self, tmp_path, capsys):
        path = gen_small_forney(tmp_path, capsys)
        code, out, _ = run_cli(
            ["verify", str(path), "--ibound", "2", "--iters", "5",
             "--methods", "be,wmbe-wg,wmbe-g-lower"], capsys)
        assert code == EXIT_OK
        assert out.count("[ok]") == 3

    def test_violation_exits_three(self, tmp_path, capsys, monkeypatch):
        path = gen_small_grid(tmp_path, capsys)
        import gmbe.cli as cli_mod
        real = cli_mod._compute_bound

        def corrupted(g, fg, method, ibound, iters, lower=False,
                      order=None):
            res = real(g, fg, method, ibound, iters, lower=lower,
                       order=order)
            if method == "wmbe":
                return BoundResult(res.method, res.direction,
                                   res.log_bound - 5.0, res.trace,
                                   res.wall_time)
            return res

        monkeypatch.setattr(cli_mod, "_compute_bound", corrupted)
        code, out, _ = run_cli(
            ["verify", str(path), "--ibound", "3", "--iters", "2",
             "--methods", "be,wmbe"], capsys)
        assert code == EXIT_VERIFY
        assert "VIOLATION" in out

    def test_orders_the_model_once(self, tmp_path, capsys, monkeypatch):
        path = gen_small_grid(tmp_path, capsys)
        import gmbe.cli as cli_mod
        calls = []
        real = cli_mod.default_order

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(cli_mod, "default_order", counted)
        code, out, _ = run_cli(
            ["verify", str(path), "--ibound", "3", "--iters", "2",
             "--methods", "mbe,wmbe,wmbe-theta,wmbe-g,wmbe-lower"], capsys)
        assert code == EXIT_OK
        assert out.count("[ok]") == 5
        assert len(calls) == 1

    def test_gauges_on_model_with_zero_entries(self, tmp_path, capsys):
        # not a grid, so the equality factors of to_forney, which hold
        # zeros, carry the gauge steps
        g = random_pairwise_graph(8, 12, 0)
        fg, copies = to_forney(g)
        assert copies
        path = tmp_path / "pairwise.uai"
        path.write_text(emit_uai(g))
        code, out, _ = run_cli(
            ["verify", str(path), "--iters", "5",
             "--ibound", str(max(f.arity for f in fg.factors)),
             "--methods", "wmbe-g,wmbe-wg,wmbe-theta"], capsys)
        assert code == EXIT_OK
        assert out.count("[ok]") == 3

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        path = gen_small_grid(tmp_path, capsys)
        code, _, err = run_cli(
            ["verify", str(path), "--methods", "be,hybrid"], capsys)
        assert code == EXIT_USAGE
        assert "unknown method" in err

    @pytest.mark.parametrize("method", ["mbe", "wmbe-w", "wmbe-wtheta",
                                        "wmbe-wg"])
    def test_lower_with_weight_methods_is_usage_error(self, method,
                                                      tmp_path, capsys):
        # rejected before any bound runs: no upper bound reported under
        # a -lower name, no exception from the weight steps
        path = gen_small_forney(tmp_path, capsys)
        code, out, err = run_cli(
            ["verify", str(path), "--ibound", "2", "--iters", "2",
             "--methods", f"be,{method}-lower"], capsys)
        assert code == EXIT_USAGE
        assert "upper bounds" in err
        assert "log bound" not in out

    def test_lower_with_exact_method_is_usage_error(self, tmp_path, capsys):
        # be is exact: a be-lower row would repeat it under a lower name
        path = gen_small_forney(tmp_path, capsys)
        code, out, err = run_cli(
            ["verify", str(path), "--ibound", "2", "--methods",
             "wmbe,be-lower"], capsys)
        assert code == EXIT_USAGE
        assert "exact values" in err
        assert "log bound" not in out


class TestSweepSpec:
    def test_t_points_inclusive(self):
        spec = SweepSpec(model="ising-grid", t_start=0.5, t_stop=1.5,
                         t_step=0.5, trials=1, methods=("mbe",),
                         ibound=2, iterations=1, seed_base=0)
        assert spec.t_points() == [0.5, 1.0, 1.5]

    def test_fractional_grid(self):
        spec = SweepSpec(model="ising-grid", t_start=0.1, t_stop=0.3,
                         t_step=0.1, trials=1, methods=("mbe",),
                         ibound=2, iterations=1, seed_base=0)
        assert spec.t_points() == [0.1, 0.2, 0.3]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(model="ising-grid", t_start=0.5, t_stop=1.0,
                      t_step=0.0, trials=1, methods=("mbe",), ibound=2,
                      iterations=1, seed_base=0)
        with pytest.raises(ValueError):
            SweepSpec(model="ising-grid", t_start=0.5, t_stop=1.0,
                      t_step=0.5, trials=0, methods=("mbe",), ibound=2,
                      iterations=1, seed_base=0)


class TestSweep:
    def _run(self, tmp_path, capsys, out_name="sweep.csv", extra=()):
        out = tmp_path / out_name
        argv = ["sweep", "--model", "ising-grid", "--rows", "3",
                "--cols", "3", "--t-range", "0.5:1.0:0.5", "--trials",
                "2", "--methods", "mbe,wmbe-w", "--ibound", "3",
                "--iters", "3", "-o", str(out)] + list(extra)
        code, stdout, _ = run_cli(argv, capsys)
        assert code == EXIT_OK, stdout
        return out

    def test_row_grid_and_metrics(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys)
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        # 2 strengths x 2 trials x 2 methods
        assert len(rows) == 8
        assert {r["method"] for r in rows} == {"mbe", "wmbe-w"}
        assert {r["t"] for r in rows} == {"0.5", "1"}
        for r in rows:
            assert r["status"] == "ok"
            assert r["wall_time"] == ""
            gap = float(r["log_bound"]) - float(r["ref_log_z"])
            assert float(r["metric"]) == pytest.approx(gap, abs=1e-12)
            assert gap >= -1e-9  # upper bounds above the exact value
        meta = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert meta["methods"] == ["mbe", "wmbe-w"]
        assert meta["trials"] == 2

    def test_bytes_identical_across_worker_counts(self, tmp_path,
                                                  capsys, monkeypatch):
        monkeypatch.setenv("GMBE_THREADS", "1")
        serial = self._run(tmp_path, capsys, "serial.csv")
        monkeypatch.setenv("GMBE_THREADS", "2")
        pooled = self._run(tmp_path, capsys, "pooled.csv")
        assert serial.read_bytes() == pooled.read_bytes()

    def test_one_order_per_instance(self, tmp_path, capsys, monkeypatch):
        import gmbe.cli as cli_mod
        real = cli_mod.default_order
        calls = []

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setenv("GMBE_THREADS", "1")
        monkeypatch.setattr(cli_mod, "default_order", counted)
        self._run(tmp_path, capsys, extra=(
            "--methods", "mbe,wmbe,wmbe-w,wmbe-theta,wmbe-wtheta,wmbe-g,"
                         "wmbe-wg"))
        # 2 strengths x 2 trials, each ordered once for all 7 methods
        assert len(calls) == 4

    def test_timings_flag_adds_wall_time(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "timed.csv",
                        extra=("--timings",))
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert all(float(r["wall_time"]) >= 0.0 for r in rows)

    def test_bad_t_range_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "ising-grid", "--t-range", "oops",
             "-o", str(tmp_path / "x.csv")], capsys)
        assert code == EXIT_USAGE
        assert "t-range" in err

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "ising-grid", "--t-range", "0.5:1:0.5",
             "--methods", "mbe,magic", "-o", str(tmp_path / "x.csv")],
            capsys)
        assert code == EXIT_USAGE
        assert "unknown method" in err

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "ising-grid", "--t-range", "0.5:1:0.5",
             "--trials", "0", "-o", str(tmp_path / "x.csv")], capsys)
        assert code == EXIT_USAGE


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE
