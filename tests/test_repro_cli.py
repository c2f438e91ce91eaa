"""Reproduction report assembly, the command-line front end and the package surface."""

import ast
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avgcycles import cli, repro
from avgcycles.cli import main, _parse_phi
from avgcycles.flowsim import (
    DEFAULT_EPS_SWEEP,
    DenominatorVanishedError,
    IntegrationFailure,
    NoConvergenceError,
    RCrossedZeroError,
)
from avgcycles.generators import ConstructionError, gen_prop10, gen_prop12
from avgcycles.repro import Report, RunConfig, _run_case, build_report
from avgcycles.sysspec import zero_spec

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_imports_no_scipy():
    # scipy serves the tests' references only; the runtime must not pay its import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, avgcycles, avgcycles.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_package_exports_resolve_once():
    import avgcycles

    assert len(set(avgcycles.__all__)) == len(avgcycles.__all__)
    missing = [name for name in avgcycles.__all__ if not hasattr(avgcycles, name)]
    assert not missing


def test_every_public_definition_is_used_or_exported():
    # src/ ships only what the pipeline runs: a public module-level def or
    # class is referenced by another statement of the package, exported in
    # avgcycles.__all__, or the console entry point cli.main
    import avgcycles

    statements = [(path.stem, stmt) for path in sorted((SRC / "avgcycles").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    refs = [{node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))} for _, stmt in statements]
    unused = [f"{module}.{stmt.name}" for k, (module, stmt) in enumerate(statements)
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_") and stmt.name not in avgcycles.__all__
              and f"{module}.{stmt.name}" != "cli.main"
              and not any(stmt.name in names for j, names in enumerate(refs) if j != k)]
    assert not unused, f"public definitions nothing in src/ uses or exports: {unused}"


class TestRunConfig:
    def test_suite_validation(self):
        with pytest.raises(ValueError, match="unknown suite"):
            RunConfig(suite="th99")

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            RunConfig(max_n=9)
        with pytest.raises(ValueError):
            RunConfig(m_values=(5,))

    def test_generic_angle_checked_only_when_th3_runs(self):
        for suite in ("th3", "all"):
            with pytest.raises(ValueError, match=r"^the th3 suite \(phi = 3.141592654\) needs phi"):
                RunConfig(suite=suite, phi=math.pi)
        for suite in ("th6", "th7"):
            assert RunConfig(suite=suite, phi=math.pi).phi == math.pi

    @pytest.mark.parametrize("eps", [0.0, -1e-2, math.nan, math.inf])
    def test_eps_values_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps values must be finite and > 0"):
            RunConfig(eps_values=(1e-2, eps))
        assert RunConfig(eps_values=("1e-2", 5e-3)).eps_values == (1e-2, 5e-3)


@pytest.fixture(scope="module")
def report():
    return build_report(RunConfig(suite="th6", max_n=1, m_values=(0,), seed=3))


class TestReport:
    def test_rows_and_formula_sourced_counts(self, report):
        by_gen = {row.generator: row for row in report.rows}
        assert by_gen["gen_prop16"].expected == 1  # n^(m+1) at n=1, m=0
        assert by_gen["gen_prop18"].expected == 1  # (2n-1)^(m+1) at n=1
        assert all(row.passed for row in report.rows)

    def test_metadata_embeds_seed(self, report):
        assert report.metadata["seed"] == 3

    def test_header_angle_is_labelled_th3(self, report):
        # the th6 rows use pi: the configured angle is not theirs to report
        assert "phi" not in report.metadata and "th3_phi" not in report.metadata
        for suite in ("th3", "all"):
            meta = Report(RunConfig(suite=suite, phi=math.pi / 4)).metadata
            assert meta["th3_phi"] == f"{math.pi / 4:.10g}" and "phi" not in meta

    def test_csv_round_trip(self, report, tmp_path):
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        assert rows[0] == Report.HEADER
        assert len(rows) == len(report.rows) + 1

    def test_text_table_contains_rows(self, report):
        table = report.text_table()
        assert "gen_prop16" in table and "seed=3" in table

    def test_first_order_found_is_certified_not_planted(self):
        # a generator whose planted list is padded still gets the count the
        # root search certifies
        def padded():
            result = gen_prop10(1, 0, math.pi / 3)
            result.zeros = result.zeros + [np.array([1.9]), np.array([2.0])]
            return result

        row = _run_case("gen_prop10", 1, 0, math.pi / 3, 1, padded, False, ())
        assert (row.found, row.bezout, row.status) == (1, 1, "ok")

    def test_infeasible_row_is_reported_not_raised(self):
        report = build_report(RunConfig(suite="th7", max_n=2, m_values=(0,)))
        row = next(r for r in report.rows if r.generator == "gen_prop21" and r.n == 2)
        assert row.status == "infeasible"
        assert "even powers" in row.detail
        assert report.all_passed  # infeasible rows carry their diagnostic

    def test_construction_failure_is_a_failed_row(self, monkeypatch, tmp_path):
        def gives_up(*args, **kwargs):
            raise ConstructionError("second-order tuning stalled: stub")

        monkeypatch.setattr(repro, "gen_prop12", gives_up)
        report = build_report(RunConfig(suite="th3", max_n=1, m_values=(0,)))
        row = next(r for r in report.rows if r.generator == "gen_prop12")
        assert (row.status, row.found) == ("failed", 0)
        assert "tuning stalled" in row.detail
        assert not report.all_passed
        code = main(["reproduce", "--suite", "th3", "--max-n", "1", "--m", "0",
                     "--out-dir", str(tmp_path)])
        assert code == 1


    def test_failed_cycle_sweep_is_an_unverified_row(self, tmp_path):
        # eps = 3 stops the flow's angular speed: the sweep fails, the row
        # reports 0 verified cycles and the run fails instead of crashing
        row = _run_case("gen_prop10", 1, 0, math.pi / 3, 1,
                        lambda: gen_prop10(1, 0, math.pi / 3), True, (3.0, 1e-2))
        assert (row.found, row.verified_cycles, row.status) == (1, 0, "unverified")
        assert "DenominatorVanishedError" in row.detail
        assert not row.passed
        code = main(["reproduce", "--suite", "th6", "--max-n", "1", "--m", "0", "--phi", "pi",
                     "--verify-cycles", "--eps-sweep", "3.0,1e-2", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unverified" in (tmp_path / "report.csv").read_text()

    @pytest.mark.parametrize("error", [
        NoConvergenceError("return-map Newton stalled", 1e-3),
        DenominatorVanishedError("angular speed -1e-3"),
        RCrossedZeroError("r = -1e-15"),
        IntegrationFailure("segment [1.047198, 6.283185]: the Chebyshev-Picard rule ..."),
    ], ids=lambda e: type(e).__name__)
    def test_each_cycle_error_is_reported(self, monkeypatch, error):
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(repro, "eps_sweep", fails)
        row = _run_case("gen_prop10", 1, 0, math.pi / 3, 1,
                        lambda: gen_prop10(1, 0, math.pi / 3), True, ())
        assert (row.verified_cycles, row.status) == (0, "unverified")
        assert type(error).__name__ in row.detail


def _spec_text(mu=None, fields=(), **tables):
    """JSON of a zero n = 1, m = 0, d = 1 spec with the given mu, top-level fields and tables."""
    data = zero_spec(1, 0, 1, 1.0).to_json_dict()
    data["tables"].update(tables)
    data.update(fields)
    if mu is not None:
        data["mu"] = mu
    return json.dumps(data)  # writes inf and nan as Infinity and NaN, which json.load reads back


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("spec")
    path = d / "spec.json"
    gen_prop10(1, 0, math.pi / 2).spec.save(path)
    return str(path)


class TestCli:
    def test_parse_phi(self):
        assert _parse_phi("pi") == math.pi
        assert _parse_phi("2pi") == 2 * math.pi
        assert _parse_phi("pi/3") == pytest.approx(math.pi / 3)
        assert _parse_phi("1.5") == 1.5

    @pytest.mark.parametrize("text", ["2pi/3", "pi/0", "abc", "nan"])
    def test_bad_phi_is_a_usage_error(self, text, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--phi", text, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"bad angle {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("args,shown", [
        (["--suite", "th3", "--phi", "pi"], "phi = 3.141592654"),
        (["--phi", "7"], "phi = 7"),
    ])
    def test_non_generic_phi_is_a_usage_error_for_th3(self, args, shown, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", *args, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"the th3 suite ({shown}) needs phi in (0, 2*pi)" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "reproduce"])
    @pytest.mark.parametrize("text", ["1e-2,abc", "0,1e-2", "1e-2,-5e-3", "nan", "inf", ""])
    def test_bad_eps_sweep_is_a_usage_error(self, command, text, spec_path, tmp_path, capsys):
        # eps = 0 would verify anything: the return map is the identity
        args = [command, "--eps-sweep", text, "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(args + (["--spec", spec_path] if command == "verify" else []))
        assert exc.value.code == 2
        assert f"bad eps sweep {text!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_averaged(self, spec_path, tmp_path, capsys):
        code = main(["averaged", "--spec", spec_path, "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "averaged.txt").exists()
        assert (tmp_path / "averaged.json").exists()
        assert "f1_0" in capsys.readouterr().out

    def test_zeros(self, spec_path, tmp_path):
        code = main(["zeros", "--spec", spec_path, "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "zeros.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one zero

    def test_zeros_uses_second_order_when_f1_vanishes(self, tmp_path):
        path = tmp_path / "spec2.json"
        gen_prop12(1, 0, math.pi / 3).spec.save(path)
        code = main(["zeros", "--spec", str(path), "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "zeros.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two zeros

    def test_verify(self, spec_path, tmp_path, capsys):
        code = main(["verify", "--spec", spec_path, "--out-dir", str(tmp_path),
                     "--eps-sweep", "1e-2,5e-3"])
        assert code == 0
        assert (tmp_path / "cycles_0.csv").exists()
        assert "2/2 eps values verified" in capsys.readouterr().out

    def test_verify_reports_a_failed_sweep(self, spec_path, tmp_path, capsys):
        # eps = 3 stops the flow's angular speed: the zero is reported as
        # unverified and the command exits 1 instead of crashing
        code = main(["verify", "--spec", spec_path, "--out-dir", str(tmp_path),
                     "--eps-sweep", "3.0,1e-2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "0/2 eps values verified (DenominatorVanishedError" in out
        assert not (tmp_path / "cycles_0.csv").exists()

    @pytest.mark.parametrize("error", [
        NoConvergenceError("return-map Newton stalled", 1e-3),
        DenominatorVanishedError("angular speed -1e-3"),
        RCrossedZeroError("r = -1e-15"),
        IntegrationFailure("segment [1.047198, 6.283185]: the Chebyshev-Picard rule ..."),
    ], ids=lambda e: type(e).__name__)
    def test_verify_reports_each_cycle_error(self, spec_path, tmp_path, capsys, monkeypatch, error):
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "eps_sweep", fails)
        code = main(["verify", "--spec", spec_path, "--out-dir", str(tmp_path),
                     "--eps-sweep", "1e-2,5e-3"])
        assert code == 1
        assert f"0/2 eps values verified ({type(error).__name__}" in capsys.readouterr().out

    def test_reproduce(self, tmp_path):
        # th6 runs at pi: the generic-angle check belongs to th3 alone
        code = main(["reproduce", "--suite", "th6", "--max-n", "1", "--m", "0", "--phi", "pi",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.txt").exists()

    def test_reproduce_verify_cycles(self, tmp_path):
        # first-order rows verify one planted cycle over the default sweep;
        # second-order rows have no cycle verification
        code = main(["reproduce", "--suite", "th6", "--max-n", "1", "--m", "0", "--phi", "pi",
                     "--verify-cycles", "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("# ")))
        verified = {row["generator"]: int(row["verified_cycles"]) for row in rows}
        assert verified == {"gen_prop16": len(DEFAULT_EPS_SWEEP), "gen_prop18": 0}

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["averaged", "--spec", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("command,spec_text,box,shown", [
        *((c, '{"n": 1}', None, "missing spec fields") for c in ("averaged", "zeros", "verify")),
        *((c, "not json", None, "invalid JSON at line 1") for c in ("averaged", "zeros", "verify")),
        *((c, None, box, shown) for c in ("zeros", "verify") for box, shown in [
            ("0.5:0.4", "degenerate box"),
            ("0:1", "lo[0] > 0"),
            ("0.1:2,3", "lo has 1 values and hi has 2, the system needs 1"),
            ("abc", "expected 'lo1,..:hi1,..'"),
            ("0.1:inf", "box bounds must be finite"),
            ("nan:1", "box bounds must be finite"),
        ]),
    ])
    def test_bad_input_is_a_usage_error(self, command, spec_text, box, shown, spec_path, tmp_path, capsys):
        path = spec_path
        if spec_text is not None:
            path = str(tmp_path / "bad.json")
            (tmp_path / "bad.json").write_text(spec_text)
        args = [command, "--spec", path, "--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(args + (["--box", box] if box else []))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"bad --box {box!r}" if box else f"bad --spec {path!r}") in err
        assert shown in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec_text,shown", [
        (_spec_text(b_plus={"1,0,0": math.inf}), "non-finite coefficient inf at index (1, 0, 0)"),
        (_spec_text(mu=[math.nan]), "mu must be finite"),
        (_spec_text(fields={"n": 2.7}), "spec field 'n' must be an integer, got 2.7"),
        (_spec_text(fields={"m": True}), "spec field 'm' must be an integer, got True"),
        (_spec_text(fields={"d": "3"}), "spec field 'd' must be an integer, got '3'"),
        (_spec_text(fields={"phi": True}), "spec field 'phi' must be a number, got True"),
        (_spec_text(fields={"phi": "1.0"}), "spec field 'phi' must be a number, got '1.0'"),
        (_spec_text(mu=["-0.5"]), "spec field 'mu' entry 0 must be a number, got '-0.5'"),
        (_spec_text(mu=[True]), "spec field 'mu' entry 0 must be a number, got True"),
        (_spec_text(b_plus={"1,0,0": True}), "table b_plus entry '1,0,0' must be a number, got True"),
    ], ids=["inf_table_entry", "nan_mu", "float_n", "bool_m", "string_d",
            "bool_phi", "string_phi", "string_mu", "bool_mu", "bool_table_entry"])
    @pytest.mark.parametrize("command", ["averaged", "zeros", "verify"])
    def test_non_finite_spec_is_a_usage_error(self, command, spec_text, shown, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(spec_text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", str(path), "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad --spec {str(path)!r}" in err and shown in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,shown", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--m", "1,1"], "m values must be distinct, got (1, 1)"),
    ])
    def test_bad_run_config_is_a_usage_error(self, args, shown, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", *args, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_bad_box_rejected(self, spec_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["zeros", "--spec", spec_path, "--box", "0.1:2.0,1.0",
                  "--out-dir", str(tmp_path)])
