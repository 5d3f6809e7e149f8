import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import homocat
from homocat.cli import (
    main, run_scenario, emit_report, report_exit_code, SchemaViolation,
    cyclic_scenario, RINGS,
)


def render(report, fmt="json"):
    buf = io.StringIO()
    emit_report(report, fmt, out=buf)
    return buf.getvalue()


class TestDemos:
    def test_mixed_demo_passes(self, capsys):
        code = main(["demo", "mixed", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["status"] for r in report["checks"]] == ["PASS"] * 3

    def test_integers_demo_passes(self, capsys):
        code = main(["demo", "integers"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS") == 3

    def test_cyclic_scenario_generalizes_m(self):
        alg, A, one, F, ea, eb = cyclic_scenario(RINGS["f2"], 3)
        assert A.dim == 3
        assert F.diff(1).rows == 1

    def test_cyclic_subset_of_checks(self, capsys):
        report = run_scenario({"demo": "cyclic", "ring": "f2",
                               "depth": 3, "edge": 4,
                               "checks": ["pd1", "pd2"]})
        assert [r["id"] for r in report["checks"]] == ["pd1", "pd2"]
        assert report_exit_code(report) == 0

    def test_rationals_skip_note(self, capsys):
        report = run_scenario({"demo": "cyclic", "ring": "q",
                               "checks": ["semisimple_collapse",
                                          "orthogonality"]})
        by_id = {r["id"]: r["status"] for r in report["checks"]}
        assert by_id["semisimple_collapse"] == "PASS"
        assert by_id["orthogonality"] == "SKIPPED"


class TestDeterminism:
    def test_reports_byte_identical(self):
        scenario = {"demo": "integers", "seed": 7}
        a = render(run_scenario(dict(scenario)))
        b = render(run_scenario(dict(scenario)))
        assert a == b

    def test_file_config_equals_direct_invocation(self, tmp_path, capsys):
        scenario = {"demo": "mixed", "seed": 12648430}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = main(["verify", "--scenario", str(path), "--format", "json"])
        from_file = capsys.readouterr().out
        assert code == 0
        code = main(["demo", "mixed", "--format", "json"])
        direct = capsys.readouterr().out
        assert code == 0
        assert from_file == direct

    def test_timing_fields_are_fixed(self):
        report = run_scenario({"demo": "mixed"})
        assert all(r["timing_ms"] == 0 for r in report["checks"])


class TestExitCodes:
    def test_empty_check_list(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"demo": "cyclic", "checks": []}))
        code = main(["verify", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and "summary:" in out

    def test_unknown_check_id(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"demo": "mixed", "checks": ["bogus"]}))
        assert main(["verify", "--scenario", str(path)]) == 3

    def test_unknown_demo(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"demo": "nope"}))
        assert main(["verify", "--scenario", str(path)]) == 3

    def test_unreadable_scenario(self, tmp_path):
        assert main(["verify", "--scenario", str(tmp_path / "none.json")]) \
            == 3

    def test_fail_beats_inconclusive(self):
        rep = {"checks": [{"status": "PASS"}, {"status": "FAIL"},
                          {"status": "INCONCLUSIVE"}]}
        assert report_exit_code(rep) == 1

    def test_inconclusive_gives_two(self):
        rep = {"checks": [{"status": "PASS"}, {"status": "INCONCLUSIVE"}]}
        assert report_exit_code(rep) == 2

    def test_skipped_never_affects_exit(self):
        rep = {"checks": [{"status": "SKIPPED"}]}
        assert report_exit_code(rep) == 0


def checkout_env():
    """The environment that makes a fresh interpreter import this checkout's
    homocat."""
    src = str(Path(homocat.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def run_python(*args):
    """Run the interpreter on this checkout's homocat in a fresh process."""
    return subprocess.run([sys.executable, *args], env=checkout_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, scenario", [
    (["--depth", "0"], None),
    (["--edge", "-1"], None),
    (None, {"demo": "cyclic", "m": "2"}),
    (None, {"demo": "cyclic", "depth": None}),
    (None, {"demo": "cyclic", "direction": "sideways"}),
], ids=["depth-0", "edge-minus-1", "m-string", "depth-null",
        "direction-sideways"])
def test_bad_cyclic_configuration_exits_3(tmp_path, args, scenario):
    if scenario is None:
        argv = ["demo", "cyclic", *args]
    else:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        argv = ["verify", "--scenario", str(path)]
    proc = run_python("-m", "homocat.cli", *argv)
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_output_pipe_ends_without_traceback():
    """`homocat demo integers | head -2`: the reader is gone before the
    report is written.  The CLI still exits with the report's code and
    writes nothing to stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "homocat.cli", "demo", "integers"],
        env=checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == ""


class TestObstructionsSubcommand:
    def test_restricted_to_obstruction_checks(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"demo": "cyclic", "ring": "f2",
                                    "depth": 3, "edge": 4}))
        code = main(["obstructions", "--scenario", str(path),
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        ids = {r["id"] for r in report["checks"]}
        assert ids == {"obstruction_z", "obstruction_w", "cones_commute",
                       "self_obstruction"}
        assert all(r["status"] == "PASS" for r in report["checks"])


def test_imports_only_the_standard_library():
    """homocat has no runtime dependencies: importing the CLI, which imports
    every module, loads nothing from outside the standard library."""
    code = ("import json, sys; before = set(sys.modules); import homocat.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" not in loaded
    third_party = {n.split(".")[0] for n in loaded} \
        - set(sys.stdlib_module_names) - {"homocat"}
    assert not third_party


def test_m6_over_f2_has_no_fail():
    """x^6 - 1 = (x + 1)^2 (x^2 + x + 1)^2 over F2: a stable projector degree
    is the projective cover of the trivial module (dimension 2, not 6), and
    the eigencone minimizes before it is compared with the cone of the
    periodicity map."""
    proc = run_python("-m", "homocat.cli", "demo", "cyclic", "--m", "6",
                      "--depth", "4")
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2)
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv, scenario, field", [
    (["demo", "integers", "--depth", "3"], None, "depth"),
    (["demo", "mixed", "--ring", "q"], None, "ring"),
    (None, {"demo": "integers", "depth": 3}, "depth"),
    (None, {"demo": "mixed", "m": 2, "seed": 1}, "m"),
    (None, {"demo": "integers", "direction": "above"}, "direction"),
    (None, {"demo": "cyclic", "colour": "red"}, "colour"),
], ids=["integers-flag", "mixed-flag", "integers-depth", "mixed-m",
        "integers-direction", "cyclic-unknown-key"])
def test_unused_scenario_field_exits_3(tmp_path, argv, scenario, field):
    """A field the demo does not read is a configuration error, not a
    setting that is silently ignored."""
    if scenario is not None:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        argv = ["verify", "--scenario", str(path)]
    proc = run_python("-m", "homocat.cli", *argv)
    assert proc.returncode == 3
    assert "error:" in proc.stderr and repr(field) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("depth", [1, 2])
def test_empty_stable_window_is_inconclusive(depth):
    proc = run_python("-m", "homocat.cli", "demo", "cyclic",
                      "--depth", str(depth), "--format", "json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    checks = json.loads(proc.stdout)["checks"]
    assert "FAIL" not in {r["status"] for r in checks}
    inconclusive = {r["id"]: r["detail"] for r in checks
                    if r["status"] == "INCONCLUSIVE"}
    assert "decomposition_of_identity" in inconclusive
    assert all("stable window is empty" in d for d in inconclusive.values())


def test_f2_with_odd_m_is_semisimple(capsys):
    """char 2 does not divide 3, so F2[x]/(x^3 - 1) is semisimple: the
    collapse check runs and the non-semisimple checks are skipped."""
    code = main(["demo", "cyclic", "--m", "3", "--format", "json"])
    by_id = {r["id"]: r["status"]
             for r in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 0
    assert by_id.pop("semisimple_collapse") == "PASS"
    assert set(by_id.values()) == {"SKIPPED"}


def test_direction_below_is_inconclusive():
    """The cyclic ladder is small only above: under --direction below the
    checks that need it are INCONCLUSIVE and the report still comes out."""
    proc = run_python("-m", "homocat.cli", "demo", "cyclic",
                      "--direction", "below", "--depth", "4")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert "[FAIL" not in proc.stdout
    assert "[INCONCLUSIVE] periodicity: consecutive scalar shifts -2 and 0 " \
        "differ by 2, which is not small (below)" in proc.stdout


@pytest.mark.parametrize("edge", [3, 5])
def test_projector_form_skips_the_cut_degree(tmp_path, capsys, edge):
    """With an odd edge the cut degree minimizes to dimension 3; only the
    degrees strictly inside it are judged."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"demo": "cyclic", "edge": edge,
                                "checks": ["projector_form"]}))
    code = main(["verify", "--scenario", str(path)])
    assert "[PASS        ] projector_form" in capsys.readouterr().out
    assert code == 0


def test_tightness_on_too_shallow_window_is_inconclusive(capsys):
    code = main(["demo", "cyclic", "--depth", "1", "--edge", "1",
                 "--format", "json"])
    by_id = {r["id"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 2
    assert "FAIL" not in {r["status"] for r in by_id.values()}
    assert by_id["tightness"]["status"] == "INCONCLUSIVE"
    assert "misses object" in by_id["tightness"]["detail"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=st.one_of(st.tuples(st.just("f2"), st.sampled_from([2, 4, 6]),
                                st.integers(1, 3)),
                      st.tuples(st.sampled_from(["q", "z"]),
                                st.sampled_from([2, 3]), st.integers(1, 4))),
       edge=st.none() | st.integers(1, 5),
       direction=st.sampled_from(["above", "below"]))
@example(case=("f2", 6, 3), edge=None, direction="above")
def test_cyclic_scenarios_never_fail(case, edge, direction):
    """Every check of the cyclic demo is sound on small windows: a
    window too shallow or a direction the ladder does not suit gives
    INCONCLUSIVE, never FAIL or an exception.  Over F2, m = 6 is not a
    power of the characteristic, so its projectors are not built from
    whole regular modules."""
    ring, m, depth = case
    argv = ["demo", "cyclic", "--ring", ring, "--m", str(m),
            "--depth", str(depth), "--direction", direction,
            "--format", "json"]
    if edge is not None:
        argv += ["--edge", str(edge)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    statuses = {r["status"] for r in json.loads(out.getvalue())["checks"]}
    assert code in (0, 2)
    assert "FAIL" not in statuses
