import csv
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from apfree import cli, verify
from apfree.cli import main
from apfree.codec import APFreeSet
from apfree.numeric import feasibility_gap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_behrend_explicit_ky(self, capsys, tmp_path):
        out = tmp_path / "set.json"
        code, stdout, _ = run(
            capsys, "construct", "--method", "behrend",
            "--k", "3", "--y", "2", "--out", str(out), "--reproducible",
        )
        assert code == 0
        assert stdout.splitlines()[-1] == (
            "method=behrend n=64 k=3 y=2 shell=[1,1] size=3 density=0.046875"
        )
        doc = json.loads(out.read_text())
        assert doc["elements"] == ["1", "4", "16"]
        assert "created" not in doc

    def test_elkin_empty_result_exits_2(self, capsys):
        code, stdout, stderr = run(
            capsys, "construct", "--method", "elkin", "--k", "2", "--y", "3", "--g", "1",
        )
        assert code == 2
        assert "size=0" in stdout
        assert "empty result" in stderr

    def test_elkin_with_an_empty_sub_cube_exits_2_at_once(self, capsys):
        # [7, 1]^26 holds no annulus point, so the 17M witnesses are never built.
        start = time.perf_counter()
        code, stdout, stderr = run(
            capsys, "construct", "--method", "elkin", "--k", "26", "--y", "2", "--g", "6",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "size=0" in stdout and "empty result" in stderr

    def test_derives_params_from_n(self, capsys):
        code, stdout, _ = run(capsys, "construct", "--method", "behrend", "--n", "1296")
        assert code == 0
        assert "k=5 y=2" in stdout

    def test_exact_power_echoes_parameters(self, capsys, tmp_path):
        out = tmp_path / "big.json"
        code, stdout, _ = run(
            capsys, "construct", "--method", "behrend", "--n", str(2**32),
            "--out", str(out), "--reproducible",
        )
        assert code == 0
        assert "k=8 y=8" in stdout
        assert json.loads(out.read_text())["params"]["n_effective"] == str(2**32)

    def test_rejects_both_n_and_ky(self, capsys):
        code, _, stderr = run(
            capsys, "construct", "--method", "behrend", "--n", "64", "--k", "3", "--y", "2",
        )
        assert code == 1
        assert "exactly one" in stderr

    def test_rejects_degenerate_n(self, capsys):
        code, _, stderr = run(capsys, "construct", "--method", "behrend", "--n", "100")
        assert code == 1

    def test_k_without_y_exits_1(self, capsys):
        code, stdout, stderr = run(capsys, "construct", "--method", "behrend", "--k", "3")
        assert code == 1 and stdout == ""
        assert "error: --k and --y must be given together" in stderr

    def test_n_below_2_exits_1(self, capsys):
        code, stdout, stderr = run(capsys, "construct", "--method", "behrend", "--n", "1")
        assert code == 1 and stdout == ""
        assert "error: n must be >= 2, got 1" in stderr

    def test_non_integer_budget_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["construct", "--method", "behrend", "--n", "64", "--budget", "abc"])
        assert exc_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget: expected a positive integer, got 'abc'" in captured.err

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "set.csv"
        code, _, _ = run(
            capsys, "construct", "--method", "behrend", "--k", "3", "--y", "2",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["index", "element"]
        assert [r[1] for r in rows[1:]] == ["1", "4", "16"]

    @pytest.mark.parametrize("flag", ["--a", "--epsilon"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_knob_exits_1(self, capsys, flag, value):
        code, stdout, stderr = run(capsys, "construct", "--method", "behrend",
                                   "--k", "3", "--y", "4", flag, value)
        assert code == 1 and stdout == ""
        assert f"{flag[2:]} must be finite and > 0, got {value}" in stderr

    def test_oversized_cube_is_refused_before_the_census(self, capsys):
        # n = 2^105 gives k=15, y=64: y^k = 2^90, while the census alone runs ~3 s.
        # k=1, y=10^6 passes the cube check; its census array would hold ~1e12 cells.
        for size, refusal in [(["--n", str(2**105)], "exceeds the enumeration budget"),
                              (["--k", "1", "--y", str(10**6)], "norm-count work")]:
            start = time.perf_counter()
            code, stdout, stderr = run(capsys, "construct", "--method", "behrend", *size)
            assert time.perf_counter() - start < 1.0
            assert code == 1 and stdout == ""
            assert refusal in stderr

    @pytest.mark.parametrize("argv, refusal", [
        (["construct", "--method", "behrend", "--k", "100000000", "--y", "2"],
         "exceeds the enumeration budget"),
        (["construct", "--method", "elkin", "--k", "100000000", "--y", "2"],
         "exceeds the enumeration budget"),
        (["sweep", "--method", "behrend", "--k-range", "100000000:100000000",
          "--y-range", "2:2", "--out", "unused.csv"], "exceeds the enumeration budget"),
        # y^k = 1 passes the budget; 2^(10^9) takes seconds and hundreds of MB
        (["construct", "--method", "behrend", "--k", "1000000000", "--y", "1"],
         "y must be >= 2, got 1"),
        (["construct", "--method", "elkin", "--k", "1000000000", "--y", "1"],
         "y must be >= 2, got 1"),
        (["sweep", "--method", "behrend", "--k-range", "1000000000:1000000000",
          "--y-range", "1:1", "--out", "unused.csv"], "y must be >= 2, got 1"),
    ], ids=[f"argv{i}" for i in range(6)])
    def test_huge_k_is_refused_before_2y_to_the_k_is_formed(self, capsys, argv, refusal):
        # (2y)^k would have 2e8 bits; its decimal string passes int's digit limit
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and stdout == ""
        assert refusal in stderr

    @pytest.mark.parametrize("argv", [
        ["construct", "--method", "behrend", "--k", "3", "--y", "5", "--a", "1e-300"],
        ["sweep", "--method", "behrend", "--k-range", "3:3", "--y-range", "5:5",
         "--a", "1e-300", "--out", "unused.csv"],
    ], ids=["construct", "sweep"])
    def test_a_too_small_for_a_float_floor_exits_1(self, capsys, argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert stderr == "error: the pigeonhole floor at a = 1e-300 overflows floats\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["construct"])  # --method missing
        assert exc_info.value.code == 1


# Runs `python -m apfree ARGS` (or, with no ARGS, only imports apfree.cli) and
# prints the process's peak resident set, VmHWM in KiB, as its last stderr line.
_PEAK_RSS_WRAPPER = """
import runpy, sys
try:
    if sys.argv[1:]:
        sys.argv[0] = "apfree"
        runpy.run_module("apfree", run_name="__main__", alter_sys=True)
    else:
        import apfree.cli
finally:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")),
              file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for the peak resident set")
def test_2_32_construct_peaks_within_4_5_mib_of_the_import(tmp_path):
    # The 2^32 set is 160,217 rows of eight one-byte digits and as many int64
    # codes, 2.45 MiB; about 1.1 MiB more is code and objects any construct
    # first touches.  Beyond the import of apfree.cli, the construct peaks
    # 3.4-3.8 MiB higher; with an int64 scan chunk and column copies in the
    # encoder it peaked 5.4-5.8 MiB higher.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def peak_kib(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_WRAPPER, *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.split()[-1])

    construct = peak_kib("construct", "--method", "behrend", "--n", str(2**32),
                         "--reproducible", "--out", "set.json")
    assert json.loads((tmp_path / "set.json").read_text())["elements"]
    assert construct - peak_kib() <= 4.5 * 1024


def test_help_describes_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrap inside "witness-count"
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    # the description, not the usage line that argparse fills in itself
    description = capsys.readouterr().out.split("\n\n")[1]
    for name in cli._COMMANDS:
        assert name in description, name


class TestParamsResolution:
    """construct's JSON params for every base and knob: one rule for both methods.

    A knob left out takes its default; elkin carries g = effective_g(), which
    is 1 here, unless --g is given; behrend echoes g only when given.
    """

    BASES = {
        "n": ["--n", str(2**28)],                   # k=8, y=5: elkin keeps 56 at g=1
        "ky": ["--k", "4", "--y", "6"],             # elkin empty at every g
        "mixed": ["--n", "64", "--k", "3", "--y", "2"],
    }
    KNOBS = {
        "none": [],
        "a": ["--a", "3"],
        "epsilon": ["--epsilon", "0.06"],
        "infeasible_epsilon": ["--epsilon", "0.3"],
        "g": ["--g", "2"],
        "g0": ["--g", "0"],
        "epsilon_and_g": ["--epsilon", "0.3", "--g", "2"],
    }

    @staticmethod
    def expected(method, base, knob_args):
        """(exit code, stderr fragment or the params echo)."""
        knobs = dict(zip(knob_args[::2], knob_args[1::2]))
        if base == "mixed":
            return 1, "give exactly one of --n or (--k and --y)"
        if knobs.get("--g") == "0":
            return 1, "g must be >= 1, got 0"
        epsilon = float(knobs.get("--epsilon", 0.05))
        g = int(knobs["--g"]) if "--g" in knobs else None
        if method == "elkin" and g is None:
            if feasibility_gap(epsilon) <= 0:
                return 1, f"epsilon = {epsilon} violates eps + eta(eps)"
            g = 1
        code = 2 if method == "elkin" and (base != "n" or g != 1) else 0
        return code, {"a": float(knobs.get("--a", 2.0)), "epsilon": epsilon, "g": g}

    @pytest.mark.parametrize("knob", KNOBS)
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("method", ["behrend", "elkin"])
    def test_params(self, capsys, tmp_path, method, base, knob):
        out = tmp_path / "set.json"
        code, _, stderr = run(capsys, "construct", "--method", method,
                              *self.BASES[base], *self.KNOBS[knob],
                              "--out", str(out), "--reproducible")
        want_code, want = self.expected(method, base, self.KNOBS[knob])
        assert code == want_code
        if code == 1:
            assert want in stderr and not out.exists()
        else:
            params = json.loads(out.read_text())["params"]
            assert {key: params[key] for key in want} == want


class TestVerify:
    def test_valid_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        with open(path, "w") as fh:
            APFreeSet(n=10, elements=(1, 2, 4, 5), method="external").write_json(fh)
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 0 and stdout.startswith("ok")

    def test_witness_printed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            APFreeSet(n=4, elements=(1, 2, 3), method="external").write_json(fh)
        code, stdout, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert stdout.strip() == "witness 2 = (1+3)/2"

    def test_budget_is_priced_in_same_parity_pairs(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        with open(path, "w") as fh:
            APFreeSet(n=10, elements=(1, 2, 4, 5), method="external").write_json(fh)
        code, stdout, _ = run(capsys, "verify", str(path), "--budget", "2")
        assert code == 0
        assert stdout.strip() == "ok size=4 check=midpoint pairs_checked=2"
        code, stdout, stderr = run(capsys, "verify", str(path), "--budget", "1")
        assert code == 1 and stdout == ""
        assert "2 same-parity pairs exceed the verify budget 1" in stderr

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, stderr = run(capsys, "verify", str(path))
        assert code == 3 and "parse error" in stderr

    def test_non_utf8_exits_3(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 3 and "parse error" in stderr and stdout == ""

    def test_wrong_schema_exits_3(self, capsys, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"schema": "other/1", "n": "5", "elements": []}')
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 3

    def test_interval_bound_below_1_exits_3(self, capsys, tmp_path):
        # n = 0 used to verify as "ok size=0" and break density
        path = tmp_path / "zero.json"
        path.write_text('{"schema": "apfree-set/1", "n": "0", "elements": []}')
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 3 and "parse error" in stderr and stdout == ""

    def test_over_long_json_number_exits_3(self, capsys, tmp_path):
        # the same value as a digit string parses; as a JSON number, json.load
        # refuses it with a ValueError that is not a JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text('{"schema": "apfree-set/1", "n": %s, "elements": []}'
                        % ("9" * 5000))
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "parse error" in stderr and stdout == ""

    def test_deeply_nested_json_exits_3(self, capsys, tmp_path):
        # json.load raises RecursionError, not a ValueError, on deep nesting
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "parse error" in stderr and stdout == ""

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run(capsys, "verify", "/no/such/file.json")
        assert code == 1

    @pytest.mark.parametrize("elements", [
        "[1.5, 2.9, 4]",      # floats used to be truncated to 1, 2, 4
        '"1249"',             # a string used to be read digit by digit
        "[true, 2]",          # a bool used to count as 1
    ])
    def test_malformed_elements_exit_3(self, capsys, tmp_path, elements):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"schema": "apfree-set/1", "n": "10", "elements": %s}' % elements
        )
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert code == 3 and "parse error" in stderr and stdout == ""

    def test_construct_then_verify_round_trip(self, capsys, tmp_path):
        path = tmp_path / "round.json"
        assert run(capsys, "construct", "--method", "behrend", "--k", "4", "--y", "3",
                   "--out", str(path))[0] == 0
        assert run(capsys, "verify", str(path))[0] == 0

    def test_verify_names_the_short_difference_check(self, capsys, tmp_path):
        path = tmp_path / "shell.json"
        run(capsys, "construct", "--method", "behrend", "--k", "4", "--y", "3",
            "--out", str(path))
        code, stdout, _ = run(capsys, "verify", str(path))
        size = json.loads(path.read_text())["size"]
        assert code == 0
        assert stdout.strip() == f"ok size={size} check=short-difference pairs_checked=0"


class TestSweep:
    def test_headers_and_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--method", "elkin", "--k-range", "2:3",
            "--y-range", "2:4", "--g", "1", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["k", "y", "n", "shell_lo", "shell_hi", "size", "density",
                           "behrend_bound", "elkin_bound", "survivor_fraction"]
        assert len(rows) == 1 + 2 * 3

    def test_range_without_colon_exits_1(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "sweep", "--method", "behrend", "--k-range", "2",
            "--y-range", "2:3", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 1
        assert "range '2' must be LO:HI" in stderr

    @pytest.mark.parametrize("k_range, y_range, empty", [
        ("4:2", "3:4", "4:2"),
        ("2:3", "5:3", "5:3"),
    ])
    def test_empty_range_exits_1(self, capsys, tmp_path, k_range, y_range, empty):
        out = tmp_path / "s.csv"
        code, stdout, stderr = run(
            capsys, "sweep", "--method", "behrend", "--k-range", k_range,
            "--y-range", y_range, "--out", str(out),
        )
        assert code == 1 and stdout == "" and not out.exists()
        assert f"range {empty!r} is empty" in stderr

    def test_n_past_the_float_range_writes_inf_comparators(self, capsys, tmp_path):
        # n = 4^600: the sub-cube [31, 1]^600 is empty, and the comparators
        # 2^(log2 n - ...) pass the float range
        out = tmp_path / "s.csv"
        start = time.perf_counter()
        code, _, _ = run(capsys, "sweep", "--method", "elkin", "--k-range", "600:600",
                         "--y-range", "2:2", "--budget", str(10**200), "--out", str(out))
        assert time.perf_counter() - start < 2.0
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][2] == str(4**600)
        assert rows[1][5:] == ["0", "0.0", "inf", "inf", "0.0"]

    def test_behrend_leaves_fraction_blank(self, capsys, tmp_path):
        out = tmp_path / "sweep_b.csv"
        run(capsys, "sweep", "--method", "behrend", "--k-range", "2:2",
            "--y-range", "3:3", "--out", str(out))
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][-1] == ""
        assert rows[1][:6] == ["2", "3", "36", "1", "1", "2"]


class TestNu:
    def test_agreeing_oracles(self, capsys):
        code, stdout, _ = run(capsys, "nu", "--n", "9")
        assert code == 0
        assert stdout.strip() == "nu=5 oracle_agree=true"

    def test_disagreeing_oracles_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "exact_nu_bb", lambda n: 4)
        code, stdout, _ = run(capsys, "nu", "--n", "9")
        assert code == 4
        assert stdout.strip() == "nu=5 nu_bb=4 oracle_agree=false"


class TestDiscrepancy:
    def test_last_row_is_gauss_count(self, capsys):
        code, stdout, _ = run(capsys, "discrepancy", "--k", "2", "--t-max", "25", "--m", "3")
        assert code == 0
        rows = stdout.strip().splitlines()
        assert rows[0] == "k,t,m,count_exact,volume,reference_volume,ratio"
        last = rows[-1].split(",")
        assert last[:4] == ["2", "25", "3", "81"]

    def test_zero_step_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["discrepancy", "--k", "2", "--t-max", "25", "--m", "3",
                  "--t-step", "0"])
        assert exc_info.value.code == 1
        assert ("--t-step: expected a positive integer, got '0'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("t_max", ["0", "-4", "2"])
    def test_empty_grid_exits_1(self, capsys, tmp_path, t_max):
        out = tmp_path / "disc.csv"
        code, stdout, stderr = run(capsys, "discrepancy", "--k", "2", "--t-max", t_max,
                                   "--m", "3", "--t-step", "3", "--out", str(out))
        assert code == 1 and stdout == ""
        assert f"empty t grid: --t-max {t_max} is below --t-step 3" in stderr
        assert not out.exists()

    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "disc.csv"
        code, _, _ = run(capsys, "discrepancy", "--k", "3", "--t-max", "10",
                         "--m", "1", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 11

    def test_k_below_2_exits_1(self, capsys):
        code, stdout, stderr = run(capsys, "discrepancy", "--k", "1", "--t-max", "5",
                                   "--m", "1")
        assert code == 1 and stdout == ""
        assert "error: discrepancy scans need k >= 2, got 1" in stderr

    @pytest.mark.parametrize("argv", [
        ("--k", "400", "--t-max", "1", "--m", "1"),  # Gamma(201) passes the float range
        ("--k", "200", "--t-max", "2000", "--t-step", "2000", "--m", "1"),  # t^(k/2)
        ("--k", "10000000", "--t-max", "1", "--m", "1"),  # a factorial would take minutes
    ])
    def test_volumes_past_the_float_range_exit_1_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "discrepancy", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and stdout == ""
        assert "overflow floats" in stderr


class TestWitnessCount:
    def test_output(self, capsys):
        code, stdout, _ = run(capsys, "witness-count", "--k", "2", "--g", "2")
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert fields["dhat"] == "8" and fields["ok"] == "true"

    def test_budget_is_enforced(self, capsys):
        code, stdout, stderr = run(capsys, "witness-count", "--k", "4", "--g", "2",
                                   "--budget", "1")
        assert code == 1 and stdout == ""
        assert "exceeds 1" in stderr

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_invalid_epsilon_exits_1(self, capsys, value):
        code, stdout, stderr = run(capsys, "witness-count", "--k", "4", "--g", "2",
                                   "--epsilon", value)
        assert code == 1 and stdout == ""
        assert "epsilon must be finite and > 0" in stderr

    def test_g_below_1_exits_1(self, capsys):
        code, stdout, stderr = run(capsys, "witness-count", "--k", "3", "--g", "0")
        assert code == 1 and stdout == ""
        assert "error: need k >= 1 and g >= 1, got k=3, g=0" in stderr

    def test_large_k_is_counted_in_under_a_second(self, capsys):
        start = time.perf_counter()
        code, stdout, _ = run(capsys, "witness-count", "--k", "200", "--g", "8")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert fields["dhat"] == "14403447950873280"

    def test_huge_k_is_refused_by_its_rounds_at_once(self, capsys):
        # about 4e7 cells, but 10^7 rounds of a few microseconds each
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "witness-count", "--k", "10000000", "--g", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and stdout == ""
        assert "norm-count work" in stderr


class TestHistogram:
    def test_stdout_csv(self, capsys):
        code, stdout, _ = run(capsys, "histogram", "--k", "2", "--y", "3")
        assert code == 0
        assert stdout == "norm_sq,count\n0,1\n1,2\n2,1\n4,2\n5,2\n8,1\n"

    def test_k_below_1_exits_1(self, capsys):
        code, stdout, stderr = run(capsys, "histogram", "--k", "0", "--y", "3")
        assert code == 1 and stdout == ""
        assert "error: need k >= 1 and y >= 1, got k=0, y=3" in stderr

    def test_k2_y400_answers_at_the_default_budget(self, capsys):
        code, stdout, _ = run(capsys, "histogram", "--k", "2", "--y", "400")
        assert code == 0
        squares = [x * x for x in range(400)]
        brute = Counter(a + b for a in squares for b in squares)
        expected = "".join(f"{t},{brute[t]}\n" for t in sorted(brute))
        assert stdout == "norm_sq,count\n" + expected

    def test_k12_y20_answers_at_the_default_budget(self, capsys):
        code, stdout, _ = run(capsys, "histogram", "--k", "12", "--y", "20")
        assert code == 0
        assert sum(int(row.split(",")[1]) for row in stdout.split()[1:]) == 20**12

    def test_python_int_cells_are_priced_at_their_cost(self, capsys):
        # 73.5M cells and 7000 rounds fit the default budget as int64 ones, but
        # the counts reach 2^7000, and as object cells they take 8-12 s
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "histogram", "--k", "7000", "--y", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and stdout == ""
        assert "norm-count work" in stderr

    def test_negative_budget_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["histogram", "--k", "2", "--y", "3", "--budget", "-1"])
        assert exc_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget: expected a positive integer, got '-1'" in captured.err

    def test_huge_k_is_refused_before_its_lists_are_built(self, capsys):
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "histogram", "--k", "10000000", "--y", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and stdout == ""
        assert "norm-count work" in stderr


class TestDeterminism:
    def test_reproducible_outputs_are_byte_identical(self, capsys, tmp_path):
        paths = []
        for i, threads in enumerate((1, 4, 8)):
            p = tmp_path / f"out{i}.json"
            code, _, _ = run(
                capsys, "construct", "--method", "elkin", "--k", "3", "--y", "8",
                "--g", "1", "--threads", str(threads), "--out", str(p), "--reproducible",
            )
            assert code == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_nonpositive_threads_exit_1(self, capsys, threads):
        with pytest.raises(SystemExit) as exc_info:
            main(["construct", "--method", "behrend", "--k", "3", "--y", "2",
                  "--threads", threads])
        assert exc_info.value.code == 1
        assert (f"--threads: expected a positive integer, got '{threads}'"
                in capsys.readouterr().err)

    def test_env_threads_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("APFREE_THREADS", "4")
        p = tmp_path / "env.json"
        code, _, _ = run(capsys, "construct", "--method", "behrend", "--k", "3",
                         "--y", "4", "--out", str(p), "--reproducible")
        assert code == 0
        q = tmp_path / "one.json"
        monkeypatch.setenv("APFREE_THREADS", "1")
        run(capsys, "construct", "--method", "behrend", "--k", "3", "--y", "4",
            "--out", str(q), "--reproducible")
        assert p.read_bytes() == q.read_bytes()


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # The ```sh block under "## CLI", run in order in one directory (verify
    # reads the set the first line writes); each key=value token of a line's
    # comment must be a word of its stdout.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("apfree ")]
    assert len(lines) == len(block.splitlines()) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        code, stdout, stderr = run(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, stderr)
        for token in comment.split():
            if "=" in token:
                assert token in stdout.split(), (line, token)
