import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from clusterext import cli, posets, profiles, sampling
from clusterext.exact_counts import exact_count
from clusterext.posets import ClusterParams


def run_cli(*argv):
    buf = io.StringIO()
    status = cli.run(list(argv), out=buf)
    return status, buf.getvalue()


def test_count_exact_and_brute_agree():
    status, out = run_cli("count", "--m", "3", "--a", "1", "--b", "2",
                          "--n", "2", "--variant", "p", "--method", "exact")
    assert status == 0 and out == "3\n"
    status, out = run_cli("count", "--m", "3", "--a", "1", "--b", "2",
                          "--n", "2", "--method", "brute")
    assert status == 0 and out == "3\n"


def test_count_methods_match_across_params():
    for (m, a, b, n, variant) in [(4, 1, 3, 2, "p"), (4, 1, 3, 2, "q"),
                                  (5, 2, 4, 2, "p"), (3, 1, 2, 4, "q")]:
        _, exact = run_cli("count", "--m", str(m), "--a", str(a), "--b", str(b),
                           "--n", str(n), "--variant", variant)
        _, brute = run_cli("count", "--m", str(m), "--a", str(a), "--b", str(b),
                           "--n", str(n), "--variant", variant,
                           "--method", "brute")
        assert exact == brute


def test_count_json_roundtrip():
    status, out = run_cli("count", "--m", "6", "--a", "2", "--b", "4",
                          "--n", "30", "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["count"] > 10 ** 20  # huge integer survives the round trip


def _big_int(digits):
    """int(digits) in chunks, clear of the interpreter's str-to-int digit limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_json_beyond_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    status, out = run_cli("count", "--m", "20", "--a", "5", "--b", "12",
                          "--n", "160", "--format", "json")
    assert status == 0
    assert sys.get_int_max_str_digits() == limit
    count = json.loads(out, parse_int=_big_int)["count"]
    assert count == exact_count(ClusterParams(20, 5, 12, 160), "p")
    assert count.bit_length() > 4300 * math.log2(10)
    # the limit is restored on the error paths too
    assert run_cli("count", "--m", "8", "--a", "3", "--b", "5",
                   "--n", "10000")[0] == 3
    assert sys.get_int_max_str_digits() == limit


def test_constant_output():
    status, out = run_cli("constant", "--m", "4", "--a", "1", "--b", "3")
    assert status == 0
    assert out.startswith("leading=1 c=0.0986122886681")
    status, out = run_cli("constant", "--m", "3", "--a", "1", "--b", "2",
                          "--format", "json")
    data = json.loads(out)
    assert data["c"] == pytest.approx(math.log(2) - 1, abs=1e-10)


def test_fit_csv_deterministic():
    args = ("fit", "--m", "3", "--a", "1", "--b", "2", "--n-max", "10",
            "--format", "csv")
    status, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert status == 0 and out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "n,empirical_c,c,abs_error"
    assert len(lines) == 11


def test_fit_points_subsample():
    status, out = run_cli("fit", "--m", "3", "--a", "1", "--b", "2",
                          "--n-max", "20", "--points", "5", "--format", "csv")
    lines = out.strip().split("\n")
    assert status == 0
    assert 3 <= len(lines) - 1 <= 6
    assert lines[-1].startswith("20,")


def test_fit_single_point_is_n_max():
    status, out = run_cli("fit", "--m", "3", "--a", "1", "--b", "2",
                          "--n-max", "20", "--points", "1", "--format", "json")
    assert status == 0
    assert [row["n"] for row in json.loads(out)] == [20]


def test_fit_negative_points_exits_2():
    status, out = run_cli("fit", "--m", "3", "--a", "1", "--b", "2",
                          "--n-max", "20", "--points", "-3")
    assert status == 2 and out == ""


def test_negative_seed_exits_2():
    status, out = run_cli(*"sample --m 3 --a 1 --b 2 --n 2 --samples 1 --seed -1".split())
    assert status == 2 and out == ""


def test_compare_json():
    status, out = run_cli("compare", "--m", "6", "--a", "1", "--b", "3",
                          "--a2", "2", "--b2", "4", "--n-max", "8",
                          "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["n0"] == 2
    assert len(data["rows"]) == 8


@pytest.mark.parametrize("n_max,n0", [("8", "2"), ("1", "none")])
def test_compare_csv_ends_with_n0(n_max, n0):
    # every format prints n0: the table as n0=<value>, csv as a last line
    status, out = run_cli("compare", "--m", "6", "--a", "1", "--b", "3",
                          "--a2", "2", "--b2", "4", "--n-max", n_max,
                          "--format", "csv")
    lines = out.splitlines()
    assert status == 0 and lines[0] == "n,count_1,count_2,ordered"
    assert len(lines) == int(n_max) + 2 and lines[-1] == f"n0,{n0}"


SUMMARY_REQUESTS = {
    "compare-n0=2": ("compare --m 6 --a 1 --b 3 --a2 2 --b2 4 --n-max 8", ["n0"]),
    "compare-n0=none": ("compare --m 6 --a 1 --b 3 --a2 2 --b2 4 --n-max 1",
                        ["n0"]),
    "profile": ("profile --m 8 --a 3 --b 5 --points 20", ["lambda"]),
    "sample": ("sample --m 3 --a 1 --b 2 --n 4 --samples 40 --burnin 20000 "
               "--thinning 200 --seed 7", ["max_deviation", "mean_deviation"]),
}


@pytest.mark.parametrize("request_argv, names", SUMMARY_REQUESTS.values(),
                         ids=SUMMARY_REQUESTS)
def test_summary_is_printed_in_every_format(request_argv, names):
    argv = request_argv.split()
    status, out = run_cli(*argv, "--format", "json")
    document = json.loads(out)
    assert status == 0
    pairs = [(name, "none" if document[name] is None else cli._fmt(document[name]))
             for name in names]
    status, out = run_cli(*argv)
    assert status == 0
    assert out.splitlines()[-1] == " ".join(f"{k}={v}" for k, v in pairs)
    status, out = run_cli(*argv, "--format", "csv")
    assert status == 0
    assert out.splitlines()[-len(pairs):] == [f"{k},{v}" for k, v in pairs]


def test_compare_runs_each_sweep_once(monkeypatch):
    from clusterext import asymptotics

    calls = []
    sweep = asymptotics.exact_count_sweep

    def counting_sweep(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(asymptotics, "exact_count_sweep", counting_sweep)
    status, out = run_cli("compare", "--m", "6", "--a", "1", "--b", "3",
                          "--a2", "2", "--b2", "4", "--n-max", "8",
                          "--format", "json")
    assert status == 0
    assert calls == [(6, 1, 3, 8, "p"), (6, 2, 4, 8, "p")]
    data = json.loads(out)
    assert [r["count_1"] for r in data["rows"]] == sweep(6, 1, 3, 8, "p")


def test_profile_csv_and_svg(tmp_path):
    svg_path = tmp_path / "profile.svg"
    status, out = run_cli("profile", "--m", "8", "--a", "3", "--b", "5",
                          "--points", "20", "--format", "csv",
                          "--svg", str(svg_path))
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,f,fprime"
    assert len(lines) == 23 and lines[-1].startswith("lambda,")
    text = svg_path.read_text()
    assert text.startswith("<svg") and "polyline" in text
    # (3,1,2) has the closed form f(t) = 1 - sqrt(1 - t)
    status, out = run_cli("profile", "--m", "3", "--a", "1", "--b", "2",
                          "--points", "4", "--format", "csv")
    assert status == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,f,fprime"
    assert len(lines) == 7
    row = lines[3].split(",")
    assert float(row[0]) == pytest.approx(0.5)
    assert float(row[1]) == pytest.approx(1 - math.sqrt(0.5), abs=1e-10)


def test_profile_json_handles_infinities():
    status, out = run_cli("profile", "--m", "8", "--a", "3", "--b", "5",
                          "--points", "10", "--format", "json")
    assert status == 0
    data = json.loads(out)
    assert data["fprime"][0] is None  # divergent endpoint serialized as null
    assert data["lambda"] == pytest.approx(0.4423, abs=1e-3)


@pytest.mark.parametrize("m,a,b", [(1100, 550, 551), (100000, 50000, 50001)])
def test_profile_of_large_balanced_shapes(m, a, b):
    from scipy.stats import beta as beta_dist

    status, out = run_cli("profile", "--m", str(m), "--a", str(a), "--b", str(b),
                          "--points", "4", "--format", "json")
    assert status == 0
    data = json.loads(out)
    shape = (a - 1) / (b - a) + 1.0, (m - b) / (b - a) + 1.0
    for f, slope in zip(data["f"][1:-1], data["fprime"][1:-1]):
        assert math.isfinite(slope)
        assert slope == pytest.approx(1 / beta_dist.pdf(f, *shape), rel=1e-9)


# m = 10^k with b = 2 puts log_beta (k = 306) or the Beta shape (k >= 309)
# beyond the float range; with b = m, the growth constant's own terms.  A
# grid over its cap as well is still a malformed request first (exit 2).
HUGE_REST = {"constant": (), "fit": ("--n-max", "3"), "profile": ("--points", "4")}
HUGE_REQUESTS = ([(command, k, "2", HUGE_REST[command]) for command in HUGE_REST
                  for k in (306, 309, 400)]
                 + [(command, k, "m", HUGE_REST[command]) for command in ("constant", "fit")
                    for k in (309, 400)]
                 + [("profile", 306, "2", ("--points", "1000001"))])
HUGE_IDS = [f"{c}-m=1e{k}-b={b}" + ("" if rest == HUGE_REST[c] else "-over-cap")
            for c, k, b, rest in HUGE_REQUESTS]


@pytest.mark.parametrize("command, k, b, rest", HUGE_REQUESTS, ids=HUGE_IDS)
def test_shapes_beyond_the_float_range_exit_2(capsys, command, k, b, rest):
    m = str(10 ** k)
    status, out = run_cli(command, "--m", m, "--a", "1", "--b", m if b == "m" else b,
                          *rest)
    err = capsys.readouterr().err
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sample_csv_and_svg(tmp_path):
    svg_path = tmp_path / "heights.svg"
    args = ("sample", "--m", "3", "--a", "1", "--b", "2", "--n", "4",
            "--samples", "40", "--burnin", "20000", "--thinning", "200",
            "--seed", "7", "--format", "csv", "--svg", str(svg_path))
    status, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert status == 0 and out1 == out2  # deterministic given seed
    lines = out1.strip().split("\n")
    assert lines[0] == "i,mean_height,reference_f,abs_deviation"
    # header, n + 1 glue elements and the two deviations
    assert len(lines) == 4 + 2 + 2
    assert [line.split(",")[0] for line in lines[-2:]] == ["max_deviation",
                                                          "mean_deviation"]
    rows = [line.split(",") for line in lines[1:-2]]
    assert [int(row[0]) for row in rows] == list(range(5))
    for _, mh, ref, dev in rows:
        assert abs(float(mh) - float(ref)) == pytest.approx(float(dev), abs=1e-12)
    assert svg_path.read_text().count("circle") == 5


@pytest.mark.parametrize("request_argv", [
    ["profile", "--m", "8", "--a", "3", "--b", "5", "--points", "20"],
    ["sample", "--m", "3", "--a", "1", "--b", "2", "--n", "2", "--samples", "3",
     "--burnin", "100", "--thinning", "10"],
], ids=lambda argv: argv[0])
def test_unwritable_svg_exits_2_before_any_output(tmp_path, request_argv):
    missing = tmp_path / "no-such-dir" / "plot.svg"
    status, out = run_cli(*request_argv, "--svg", str(missing))
    assert status == 2 and out == ""
    assert not missing.parent.exists()


def test_classify_table():
    status, out = run_cli("classify", "--m", "3", "--n-max", "6")
    assert status == 0
    assert "evidence up to n=6" in out
    assert "123 321" in out


def test_classify_json():
    status, out = run_cli("classify", "--m", "4", "--n-max", "6",
                          "--format", "json")
    data = json.loads(out)
    assert status == 0
    assert data["evidence"] == "strong"
    assert sum(len(c) for c in data["classes"]) == 24


@pytest.mark.parametrize("n_max", ["0", "-4"])
def test_classify_empty_horizon_exits_2(n_max):
    status, out = run_cli("classify", "--m", "3", "--n-max", n_max)
    assert status == 2 and out == ""


def test_classify_bad_horizon_exits_2_past_the_length_cap():
    # the horizon is refused as bad input (2), not as too large a sweep (3)
    status, out = run_cli("classify", "--m", "8", "--n-max", "0")
    assert status == 2 and out == ""


@pytest.mark.slow
def test_classify_largest_request_finishes():
    # m = MAX_CLASSIFY_LENGTH at n = MAX_TEXT_LENGTH: all of S_1..S_10
    status, out = run_cli("classify", "--m", "7", "--n-max", "10",
                          "--format", "json")
    assert status == 0
    classes = json.loads(out)["classes"]
    assert sum(len(c) for c in classes) == math.factorial(7)


def test_check_subcommand():
    status, out = run_cli("check")
    assert status == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_check_reports_a_failure_and_exits_4(monkeypatch):
    exact = cli.exact_counts.exact_count
    monkeypatch.setattr(cli.exact_counts, "exact_count",
                        lambda params, variant: exact(params, variant) + 1)
    status, out = run_cli("check")
    assert status == 4
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed[0] == "FAIL  exact counts match brute force for (m,a,b,n)=(3,1,2,2)"
    assert "all checks passed" not in out


# requests on the exact, integer-only paths, then the two that need numpy
INTEGER_REQUESTS = [
    ["count", "--m", "6", "--a", "2", "--b", "4", "--n", "12", "--format", "json"],
    ["count", "--m", "4", "--a", "1", "--b", "3", "--n", "3", "--variant", "q",
     "--method", "brute"],
    ["constant", "--m", "8", "--a", "3", "--b", "5", "--format", "json"],
    ["fit", "--m", "5", "--a", "2", "--b", "4", "--n-max", "12", "--points", "4"],
    ["compare", "--m", "6", "--a", "1", "--b", "3", "--a2", "2", "--b2", "4",
     "--n-max", "8", "--format", "json"],
    ["classify", "--m", "4", "--n-max", "6", "--format", "json"],
    ["check"],
]
NUMPY_REQUESTS = [
    ["profile", "--m", "8", "--a", "3", "--b", "5", "--points", "50",
     "--format", "json"],
    ["sample", "--m", "4", "--a", "2", "--b", "3", "--n", "3", "--samples", "5",
     "--burnin", "200", "--thinning", "20", "--seed", "7", "--format", "json"],
]

FRESH_PROCESS = """
import io, json, sys
from clusterext import cli

def run(argv):
    buf = io.StringIO()
    return [cli.run(argv, out=buf), buf.getvalue()]

integer, numeric = json.loads(sys.argv[1])
report = {"integer": [run(argv) for argv in integer]}
report["numpy_after_integer"] = "numpy" in sys.modules
report["numeric"] = [run(argv) for argv in numeric]
report["numpy_after_numeric"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def _checkout_env():
    """os.environ, with this checkout's src first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_integer_commands_do_not_import_numpy():
    env = _checkout_env()
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS,
         json.dumps([INTEGER_REQUESTS, NUMPY_REQUESTS])],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert not report["numpy_after_integer"]
    assert report["numpy_after_numeric"]
    for argv, (status, out) in zip(INTEGER_REQUESTS + NUMPY_REQUESTS,
                                   report["integer"] + report["numeric"]):
        assert status == 0, argv
        assert out == run_cli(*argv)[1], argv


# json is imported only after the import check, by the request itself
IMPORT_PROBE = """
import io, sys
from clusterext import cli

unneeded = ("dataclasses", "inspect", "json", "numpy", "fractions", "decimal")
print(*[name for name in unneeded if name in sys.modules])
cli.run(["constant", "--m", "8", "--a", "3", "--b", "5"], out=io.StringIO())
print("json" in sys.modules)
cli.run(["constant", "--m", "8", "--a", "3", "--b", "5", "--format", "json"],
        out=io.StringIO())
print("json" in sys.modules)
"""


def test_cli_import_loads_nothing_it_does_not_need():
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=_checkout_env(),
                          timeout=120, check=True)
    assert done.stdout.splitlines() == ["", "False", "True"]


def test_usage_errors_exit_2():
    assert run_cli("count", "--m", "3", "--a", "5", "--b", "2", "--n", "1")[0] == 2
    assert run_cli("count", "--m", "3")[0] == 2
    assert run_cli("definitely-not-a-command")[0] == 2
    assert run_cli("count", "--m", "3", "--a", "1", "--b", "2", "--n", "1",
                   "--method", "bogus")[0] == 2


def test_help_goes_to_out(capsys):
    status, out = run_cli("-h")
    assert status == 0
    assert out.startswith("usage: clusterext [-h]")
    assert all(name in out for name in cli._COMMANDS)
    status, out = run_cli("count", "--help")
    assert status == 0
    assert out.startswith("usage: clusterext count [-h] --m M")
    assert capsys.readouterr() == ("", "")


def _parse(argv):
    """What the full parser makes of argv: the namespace, or the exit and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


PARITY_ARGV = (
    [key.split() for key in
     json.loads(Path(__file__).with_name("cli_digests.json").read_text())]
    + [[], ["-h"]] + [[name, "--help"] for name in cli._COMMANDS]
    + [["definitely-not-a-command"], ["--bogus", "count"],
       ["classify", "--m", "3", "--bogus"],
       ["count", "--m", "3", "--a", "1", "--b", "2"],
       ["fit", "--m", "3", "--a", "1", "--b", "x"],
       ["count", "--m", "3", "--a", "1", "--b", "2", "--n", "1",
        "--method", "bogus"]]
    + [line.split() for line in (
        "classify --m 3 --", "classify -- --m 3", "classify --m=3 --n-max=6",
        "classify --m 3 --n-m 6", "classify --m 3 --m 4", "classify --m 3 extra",
        "classify --m 3 -h --bogus", "classify --m", "check --bogus",
        "classify --m 3 --format xml")])


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_one_command_parser_matches_full_parser(argv):
    full = _parse(argv)
    if isinstance(full, tuple):  # run exits as the full parser does
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status, out = run_cli(*argv)
        assert (status, out, err.getvalue()) == full
    else:  # run's parser makes the same namespace, less the command name
        args, extra = cli._command_parser(argv[0]).parse_known_args(argv[1:])
        assert extra == [] and vars(full) == dict(vars(args), command=argv[0])


def test_full_parser_names_the_missing_command():
    status, _, err = _parse([])
    assert status == 2 and err.endswith("required: command\n")


def test_run_builds_only_the_named_subcommand(monkeypatch):
    def fail(parser):
        raise AssertionError("another subcommand's arguments were built")

    for name, (help_line, _, handler) in list(cli._COMMANDS.items()):
        if name != "classify":
            monkeypatch.setitem(cli._COMMANDS, name, (help_line, fail, handler))
    status, out = run_cli("classify", "--m", "4", "--n-max", "6")
    assert status == 0 and out.startswith("strong evidence up to n=6")


def test_run_builds_one_parser_per_valid_request(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["classify", "--m", "4", "--n-max", "6"],
                 ["count", "--m", "3", "--a", "1", "--b", "2", "--n", "2"]):
        built.clear()
        assert run_cli(*argv)[0] == 0
        assert built == [f"clusterext {argv[0]}"]
    # an unrecognized argument sends the argv to the full parser too
    built.clear()
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli("classify", "--m", "3", "--bogus")[0] == 2
    assert built == ["clusterext classify", "clusterext",
                     *[f"clusterext {name}" for name in cli._COMMANDS]]


# the required arguments of each subcommand that prints a _Result
REQUIRED_ARGV = {
    "count": "--m 3 --a 1 --b 2 --n 2",
    "constant": "--m 3 --a 1 --b 2",
    "fit": "--m 3 --a 1 --b 2",
    "compare": "--m 3 --a 1 --b 2 --a2 1 --b2 3",
    "profile": "--m 3 --a 1 --b 2",
    "sample": "--m 3 --a 1 --b 2 --n 2",
    "classify": "--m 3",
}


def test_command_table_drives_format_and_handler(monkeypatch):
    assert sorted(REQUIRED_ARGV) == sorted(
        name for name, (_, _, handler) in cli._COMMANDS.items() if handler)
    for name, required in REQUIRED_ARGV.items():
        argv = [name, *required.split(), "--format", "json"]
        assert cli._command_parser(name).parse_args(argv[1:]).format == "json"
        assert cli.build_parser().parse_args(argv).format == "json"
    assert run_cli("check", "--format", "json")[0] == 2

    help_line, add_arguments, _ = cli._COMMANDS["constant"]
    stub = cli._Result({"stub": True}, ("k",), [(1,)], summary=[("end", 2)])
    monkeypatch.setitem(cli._COMMANDS, "constant",
                        (help_line, add_arguments, lambda args: stub))
    argv = ["constant", *REQUIRED_ARGV["constant"].split()]
    assert run_cli(*argv, "--format", "json") == (0, '{"stub": true}\n')
    assert run_cli(*argv, "--format", "csv") == (0, "k\n1\nend,2\n")
    assert run_cli(*argv) == (0, "k\n1\nend=2\n")


def test_module_entry_point_matches_run(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help's line width, in both
    env = _checkout_env()
    for argv in (["classify", "--m", "3", "--n-max", "6", "--format", "csv"],
                 ["count", "--help"], ["count", "--m", "3"]):
        done = subprocess.run([sys.executable, "-m", "clusterext", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stdout) == run_cli(*argv), argv


def test_resource_errors_exit_3(monkeypatch):
    status, _ = run_cli("count", "--m", "3", "--a", "1", "--b", "2",
                        "--n", "50", "--method", "brute")
    assert status == 3
    # about 3e12 chain steps with the default burn-in
    status, out = run_cli("sample", "--m", "8", "--a", "3", "--b", "5",
                          "--n", "1000")
    assert status == 3 and out == ""

    def fail(*args):
        raise AssertionError("a profile point was evaluated")

    # just past the grid cap, refused before the first point
    monkeypatch.setattr(profiles, "limit_profile", fail)
    status, out = run_cli("profile", "--m", "8", "--a", "3", "--b", "5",
                          "--points", str(profiles.MAX_PROFILE_POINTS + 1))
    assert status == 3 and out == ""


def test_bad_arguments_exit_2_before_the_caps(capsys):
    # each request is over a cap too: the seed, the shape (a > b) and --n-max
    # are refused first
    for argv in (("sample", "--m", "8", "--a", "3", "--b", "5", "--n", "1000",
                  "--seed", "-1"),
                 ("profile", "--m", "3", "--a", "2", "--b", "1",
                  "--points", "1000000")):
        assert run_cli(*argv) == (2, ""), argv
    for argv in (("fit", "--m", "3", "--a", "1", "--b", "2"),
                 ("compare", "--m", "6", "--a", "1", "--b", "3", "--a2", "2",
                  "--b2", "4")):
        capsys.readouterr()
        assert run_cli(*argv, "--n-max", "0") == (2, ""), argv
        assert capsys.readouterr().err == (
            "error: n_max must be an integer >= 1, got 0\n"), argv


def test_over_cap_brute_count_exits_3_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(posets, "_glued_chains", fail)
    for variant in ("p", "q"):
        status, out = run_cli("count", "--m", "3", "--a", "1", "--b", "2",
                              "--n", "1000000000", "--variant", variant,
                              "--method", "brute")
        assert status == 3 and out == ""


def test_nonconvergence_exits_4(monkeypatch):
    monkeypatch.setattr(profiles, "_PROFILE_MAX_ITER", 2)
    status, out = run_cli("profile", "--m", "8", "--a", "3", "--b", "5")
    assert status == 4 and out == ""


# just past every cap, so a drawn huge value can never make a request that runs
HUGE = st.integers(sampling.MAX_CHAIN_STEPS + 1, 10 ** 30)


def expected_sample_status(m, a, b, n, samples, burnin, thinning):
    if not (1 <= a < b <= m and n >= 1):
        return 2
    if samples < 1 or (burnin is not None and burnin < 0) or \
            (thinning is not None and thinning < 1):
        return 2
    size = (m - 1) * n + 1
    if size > sampling.MAX_CHAIN_ELEMENTS:
        return 3
    burnin = sampling.default_burnin(size) if burnin is None else burnin
    thinning = sampling.default_thinning(size) if thinning is None else thinning
    return 3 if burnin + samples * thinning > sampling.MAX_CHAIN_STEPS else 0


@st.composite
def valid_mab(draw):
    m = draw(st.integers(2, 6))
    a = draw(st.integers(1, m - 1))
    return m, a, draw(st.integers(a + 1, m))


def mixed(valid, invalid):
    return st.one_of(valid, valid, invalid, HUGE)


@settings(max_examples=150, deadline=None)
@given(mab=st.one_of(valid_mab(), valid_mab(),
                     st.tuples(st.one_of(st.integers(-2, 6), HUGE),
                               st.integers(-2, 6), st.integers(-2, 7))),
       n=mixed(st.integers(1, 4), st.integers(-2, 0)),
       samples=mixed(st.integers(1, 5), st.integers(-2, 0)),
       burnin=st.one_of(st.none(), mixed(st.integers(0, 3000), st.integers(-5, -1))),
       thinning=st.one_of(st.none(), mixed(st.integers(1, 50), st.integers(-2, 0))))
def test_sample_exit_codes_fuzz(mab, n, samples, burnin, thinning):
    m, a, b = mab
    argv = ["sample", f"--m={m}", f"--a={a}", f"--b={b}", f"--n={n}",
            f"--samples={samples}", "--format=json"]
    if burnin is not None:
        argv.append(f"--burnin={burnin}")
    if thinning is not None:
        argv.append(f"--thinning={thinning}")
    expected = expected_sample_status(m, a, b, n, samples, burnin, thinning)
    with mock.patch.object(sampling, "cluster_poset",
                           wraps=sampling.cluster_poset) as built:
        status, out = run_cli(*argv)
    event(f"exit {status}")
    assert status == expected
    # refused requests never build the poset, let alone run the chain
    assert built.call_count == (1 if status == 0 else 0)
    if status == 0:
        assert json.loads(out)["samples"] == samples
