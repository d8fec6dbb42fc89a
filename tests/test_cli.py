import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import gtassoc
from gtassoc.cli import BOUNDS, VERIFY_SUITES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_associator(capsys):
    code, out, _ = run(capsys, "verify", "associator", "--degree", "5")
    assert code == 0
    assert "suite associator: PASS" in out
    assert "1,6,25,90,301,966,3025" in out


def test_verify_json_format(capsys, tmp_path):
    path = str(tmp_path / "report.json")
    code, out, _ = run(capsys, "verify", "grt", "--out", path, "--format", "json")
    assert code == 0
    data = json.loads(open(path).read())
    assert data["suite"] == "grt"
    assert all(c["status"] == "pass" for c in data["checks"])
    assert {"id", "anchor", "status", "witness", "duration_ms"} <= set(data["checks"][0])


def test_report_deterministic(capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "resonance", "--n", "5", "--out", p1, "--format", "json")
    run(capsys, "resonance", "--n", "5", "--out", p2, "--format", "json")
    a = json.loads(open(p1).read())
    b = json.loads(open(p2).read())
    # durations are the documented non-deterministic part of a report
    for rep in (a, b):
        rep.pop("duration_ms")
        for check in rep["checks"]:
            check.pop("duration_ms")
    assert a == b


def test_check_durations(capsys):
    code, out, _ = run(capsys, "verify", "associator", "--format", "json")
    assert code == 0
    data = json.loads(out)
    durations = {c["id"]: c["duration_ms"] for c in data["checks"]}
    assert durations["extend-deg3"] > 0
    assert sum(durations.values()) <= data["duration_ms"] + len(durations)


def test_each_defining_equation_carries_its_own_time(capsys, monkeypatch):
    import time
    from gtassoc import associators
    check = associators.pentagon_check

    def slow_pentagon_check(*args, **kwargs):
        time.sleep(0.02)
        return check(*args, **kwargs)

    monkeypatch.setattr(associators, "pentagon_check", slow_pentagon_check)
    code, out, _ = run(capsys, "verify", "associator", "--format", "json")
    assert code == 0
    durations = {c["id"]: c["duration_ms"] for c in json.loads(out)["checks"]}
    assert durations["phi0-pentagon"] >= 20


def test_chars_diagonal(capsys):
    code, out, _ = run(capsys, "chars", "--partition", "3,2", "--g", "a,b",
                       "--order", "5")
    assert code == 0
    assert "1 chi3 chi2*chi3 chi2*chi3 chi2^2*chi3" in out
    assert "(-32*a) h^3" in out and "(-2304*b) h^5" in out


def test_resonance_scan(capsys):
    code, out, _ = run(capsys, "resonance", "--n", "6")
    assert code == 0
    assert "res-3,2" in out
    for line in out.splitlines():
        if "res-3,2 " in line:
            assert "False" in line
        if "res-2,2 " in line:
            assert "True" in line


def test_extend(capsys):
    code, out, _ = run(capsys, "extend", "--degree", "4", "--parity")
    assert code == 0
    assert "kernel dimension at degree 5: 1" in out
    assert "lambda=1" in out


def test_extend_labels_the_degree_reached(capsys):
    from gtassoc.ncseries import from_text
    code, out, _ = run(capsys, "extend", "--degree", "5")
    assert code == 0
    body, _, label = out.rpartition("# ")
    assert label == "kernel dimension at degree 6: 0\n"
    series, _ = from_text(body)
    assert series.known_order == 6
    # t_4 in degree 9 is past the resource bound: refused before any solving
    code, out, err = run(capsys, "extend", "--degree", "8")
    assert code == 3 and not out and "resource bound" in err
    code, _, _ = run(capsys, "extend", "--degree", "-1")
    assert code == 2


def test_kz_report(capsys):
    code, out, _ = run(capsys, "kz-report", "--dmax", "2", "--order", "8")
    assert code == 0
    assert "log_h_tilde d=2 hbar^3\t-32*zeta3" in out


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "chars", "--partition", "2,1", "--g", "a")
    assert code == 2


@pytest.mark.parametrize("suite", ["gt", "braid", "all"])
def test_verify_below_degree_five_is_a_usage_error(capsys, monkeypatch, suite):
    from gtassoc import cli

    def no_work(degree):
        raise AssertionError("a suite ran")
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli.VERIFY_SUITES, name, no_work)
    code, out, err = run(capsys, "verify", suite, "--degree", "4")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "--degree must be at least 5" in err


@pytest.mark.parametrize("suite, degree, least", [
    ("hecke", 3, 4), ("kz", 2, 3), ("associator", 2, 3), ("grt", 0, 3), ("all", 4, 5),
], ids=str)
def test_verify_below_the_suites_least_degree_is_a_usage_error(capsys, monkeypatch, suite,
                                                                degree, least):
    """hecke at degree 3 would read the h^4 term of b_d past its known order
    and report a false FAIL; kz would drop the degree."""
    from gtassoc import cli

    def no_work(degree, **kwargs):
        raise AssertionError("a suite ran")
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli.VERIFY_SUITES, name, no_work)
    code, out, err = run(capsys, "verify", suite, "--degree", str(degree))
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "--degree must be at least %d" % least in err


@pytest.mark.parametrize("argv", [
    ("hecke", "--degree", "4", "--nmax", "3"),
    ("kz", "--degree", "3"),
], ids=" ".join)
def test_verify_at_the_suites_least_degree_passes(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and out.startswith("suite %s: PASS" % argv[0])


def test_verify_kz_builds_its_associators_at_the_degree(capsys, monkeypatch):
    from gtassoc import kz, report
    degrees = []

    def recorded(build):
        def wrapper(degree, *args, **kwargs):
            degrees.append((build.__name__, degree))
            return build(degree, *args, **kwargs)
        return wrapper
    monkeypatch.setattr(kz, "phi_kz_symbolic", recorded(kz.phi_kz_symbolic))
    monkeypatch.setattr(report, "phi0_reference", recorded(report.phi0_reference))
    code, out, _ = run(capsys, "verify", "kz", "--degree", "4")
    assert code == 0 and out.startswith("suite kz: PASS")
    assert sorted(degrees) == [("phi0_reference", 4), ("phi_kz_symbolic", 4)]


@pytest.mark.parametrize("suite", sorted(VERIFY_SUITES) + ["all"])
def test_verify_above_degree_five_is_a_usage_error(capsys, monkeypatch, suite):
    from gtassoc import cli

    def no_work(degree, **kwargs):
        raise AssertionError("a suite ran")
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli.VERIFY_SUITES, name, no_work)
    code, out, err = run(capsys, "verify", suite, "--degree", "9")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "--degree must be at most 5" in err


@pytest.mark.parametrize("suite", ["associator", "grt", "gt", "braid", "hecke", "kz"])
def test_suite_past_the_reference_degree_raises_before_any_work(monkeypatch, suite):
    """A library call at degree 6 is refused as phi0_reference refuses it,
    not run at degree 5."""
    from gtassoc import grtgt, report

    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(grtgt, "grt_cap_psi", no_work)
    with pytest.raises(ValueError, match="reference data stops at degree 5"):
        getattr(report, "verify_" + suite)(6)


@pytest.mark.parametrize("suite", ["associator", "grt", "gt", "braid", "hecke", "kz"])
def test_suite_below_its_least_degree_raises_before_any_work(monkeypatch, suite):
    """verify_gt(4) used to raise a bare KeyError, verify_braid(2) a ValueError
    from deep inside a check, and verify_associator(0) passed vacuously."""
    from gtassoc import report

    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran")
    monkeypatch.setattr(report, "phi0_reference", no_work)
    for degree in range(report.MIN_DEGREE[suite]):
        with pytest.raises(ValueError, match="the %s suite needs degree %d or more, not %d$"
                           % (suite, report.MIN_DEGREE[suite], degree)):
            getattr(report, "verify_" + suite)(degree)


NMAX_REFUSALS = [
    (("hecke", "--nmax", "1"), "--nmax must be at least 3"),
    (("hecke", "--nmax", "9"), "--nmax must be at most 8"),
    (("all", "--nmax", "0"), "--nmax must be at least 3"),
    (("gt", "--nmax", "7"), "verify gt: --nmax is for the hecke suite only"),
]


@pytest.mark.parametrize("argv, message", NMAX_REFUSALS,
                         ids=[" ".join(argv) for argv, _ in NMAX_REFUSALS])
def test_verify_nmax_outside_two_to_eight_is_a_usage_error(capsys, monkeypatch, argv, message):
    from gtassoc import cli

    def no_work(degree, **kwargs):
        raise AssertionError("a suite ran")
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli.VERIFY_SUITES, name, no_work)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and message in err


def test_verify_hecke_passes_nmax_through(capsys, monkeypatch):
    from gtassoc import cli
    from gtassoc.report import Report
    calls = []

    def hecke(degree, **kwargs):
        calls.append(kwargs)
        return Report("hecke")
    monkeypatch.setitem(cli.VERIFY_SUITES, "hecke", hecke)
    for argv, want in ((("--nmax", "8"), {"nmax": 8}), ((), {})):
        code, out, _ = run(capsys, "verify", "hecke", *argv)
        assert code == 0 and out.startswith("suite hecke: PASS")
        assert calls.pop() == want


def test_verify_all_out_holds_every_suite(capsys, tmp_path, monkeypatch):
    from gtassoc import cli
    # each suite runs once; both invocations print the same reports, durations included
    reports = {name: fn(5) for name, fn in cli.VERIFY_SUITES.items()}
    for name, rep in reports.items():
        monkeypatch.setitem(cli.VERIFY_SUITES, name, lambda degree, rep=rep: rep)
    path = str(tmp_path / "report.txt")
    code, out, _ = run(capsys, "verify", "all", "--out", path)
    assert code == 0 and out == ""
    written = open(path).read()
    assert sum(line.startswith("suite ") for line in written.splitlines()) == 6
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and written == out


def test_no_cache_subcommand(capsys):
    code, _, err = run(capsys, "cache", "inspect")
    assert code == 2 and "invalid choice: 'cache'" in err


@pytest.mark.parametrize("argv", [
    ("chars", "--partition", "3,x"),
    ("chars", "--partition", "1,2"),
    ("chars", "--partition", "3,2", "--order", "-1"),
    ("chars", "--partition", "2,1", "--order", "7"),
    ("verify", "associator", "--degree", "-2"),
    ("kz-report", "--order", "-1"),
    ("kz-report", "--dmax", "-1"),
    ("kz-report", "--dmax", "1"),
    ("resonance", "--n", "-1"),
], ids=" ".join)
def test_bad_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "invalid" in err


@pytest.mark.parametrize("argv", [
    ("chars", "--partition", "2,1", "--g", "a,a"),
    ("verify", "associator", "--out", "{missing}/x.txt"),
    ("chars", "--partition", "2,1", "--out", "{missing}/x.txt"),
    ("kz-report", "--order", "10"),
], ids=" ".join)
def test_refused_before_any_work(capsys, monkeypatch, tmp_path, argv):
    """A repeated symbol name, an --out that cannot be written and a kz-report
    order past the default ring's zeta bound are usage errors, met before
    any work and without a traceback."""
    from gtassoc import cli, kz, report

    def no_work(*args, **kwargs):
        raise AssertionError("work ran")
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli.VERIFY_SUITES, name, no_work)
    monkeypatch.setattr(report, "chars_report", no_work)
    monkeypatch.setattr(kz, "h_tilde", no_work)
    code, out, err = run(capsys, *(a.format(missing=tmp_path / "missing") for a in argv))
    assert code == 2 and not out and err and "Traceback" not in err


def test_resonance_past_its_bound_is_a_resource_error_before_any_work(capsys, monkeypatch):
    from gtassoc import cli, report

    def no_work(*args, **kwargs):
        raise AssertionError("work ran")
    monkeypatch.setattr(report, "resonance_report", no_work)
    code, out, err = run(capsys, "resonance", "--n", str(cli.RESONANCE_NMAX + 1))
    assert code == 3 and not out and len(err.splitlines()) == 1 and "Traceback" not in err


def test_kz_report_past_its_bound_is_a_resource_error_before_any_work(capsys, monkeypatch):
    from gtassoc import cli, kz

    def no_work(*args, **kwargs):
        raise AssertionError("work ran")
    monkeypatch.setattr(kz, "h_tilde", no_work)
    code, out, err = run(capsys, "kz-report", "--dmax", str(cli.KZ_DMAX + 1))
    assert code == 3 and not out and len(err.splitlines()) == 1 and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(gtassoc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "gtassoc", "verify", "associator"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0 and "suite associator: PASS" in done.stdout


def test_kz_report_at_the_zeta_bound_runs(capsys):
    code, out, _ = run(capsys, "kz-report", "--dmax", "2", "--order", "9")
    assert code == 0 and "log_h_tilde d=2 hbar^9\t" in out


def test_a_refusal_leaves_an_existing_out_file_as_it_was(capsys, tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("an earlier report\n")
    code, out, _ = run(capsys, "verify", "associator", "--degree", "9", "--out", str(path))
    assert code == 2 and not out and path.read_text() == "an earlier report\n"
    code, out, _ = run(capsys, "kz-report", "--dmax", "2", "--order", "3", "--out", str(path))
    assert code == 0 and not out and path.read_text() == "log_h_tilde d=2 hbar^3\t-32*zeta3\n"


# the least argv of each subcommand; a BOUNDS row appends its option
BASE_ARGV = {"verify": ("verify", "hecke"), "chars": ("chars", "--partition", "2,1"),
             "resonance": ("resonance",), "extend": ("extend",), "kz-report": ("kz-report",)}


@pytest.mark.parametrize("row", sorted(BOUNDS), ids=" --".join)
def test_every_bound_is_refused_before_any_work(capsys, monkeypatch, row):
    """least and most reach the work; least - 1 exits 2 and most + 1 the row's
    code, each with one stderr line, nothing on stdout and no work run."""
    from gtassoc import cli
    ran = []
    for name in ("cmd_verify", "cmd_chars", "cmd_resonance", "cmd_extend", "cmd_kz_report"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    command, option = row
    least, most, code = BOUNDS[row]
    if isinstance(least, dict):
        assert set(least) == set(VERIFY_SUITES) | {"all"}
        cases = [((command, suite), least[suite]) for suite in sorted(least)]
    else:
        cases = [(BASE_ARGV[command], least)]
    for prefix, least in cases:
        for value in (least, most):
            if value is not None:
                assert run(capsys, *prefix, "--" + option, str(value)) == (0, "", "")
                assert getattr(ran.pop(), option) == value
        refusals = [(least - 1, 2, "--%s must be at least %d" % (option, least))]
        if most is not None:
            refusals.append((most + 1, code, "--%s must be at most %d" % (option, most)
                             if code == 2 else "resource bound: %s --%s" % (command, option)))
        for value, want, message in refusals:
            start = time.monotonic()
            got, out, err = run(capsys, *prefix, "--" + option, str(value))
            assert time.monotonic() - start < 1
            assert (got, out, ran) == (want, "", [])
            assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(row=st.sampled_from(sorted(BOUNDS)), text=st.text(max_size=8).filter(_not_an_int))
def test_non_integer_text_for_an_integer_option_is_a_usage_error(row, text):
    command, option = row
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*BASE_ARGV[command], "--%s=%s" % (option, text)])
    assert code == 2 and not out.getvalue() and "Traceback" not in err.getvalue()


def test_the_readme_table_lists_every_bound():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = [line.strip().strip("|").split("|") for line in fh if line.startswith("| `")]
    rows = {cells[0].strip(): [cell.strip() for cell in cells[1:4]] for cells in table}
    bound_rows = {cell for cell in rows if re.fullmatch(r"`[a-z-]+ --[a-z]+`", cell)}
    assert bound_rows == {"`%s --%s`" % row for row in BOUNDS}
    for (command, option), (least, most, code) in BOUNDS.items():
        if isinstance(least, dict):
            least = "; ".join("%d %s" % (n, ", ".join("`%s`" % s for s in least if least[s] == n))
                              for n in sorted(set(least.values())))
        assert rows["`%s --%s`" % (command, option)] == [
            str(least), "—" if most is None else str(most), "—" if code is None else str(code)]
