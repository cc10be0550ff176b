import math
import os
import resource
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

from permlab.cli import _fmt_from_log, main
from permlab.moments import mu_n
from permlab.verify import REL_TOL, OracleCheck, cross_check_suite
from permlab.core import DomainError, PrecisionError, ScaledValue, SizeLimitError
from test_kernel_accuracy import exact_per01


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "permlab", *args],
        capture_output=True, text=True, **kwargs
    )


def cap_address_space():
    """A child's 1 GiB address-space cap: a run that allocates or loops
    before its checks fails under it instead of exhausting the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def matrix_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2\n3 4\n")
    return str(p)


def diagonal_01(n, seed):
    """A 0-1 matrix whose row i holds column i and n/2 - 1 others, so its
    permanent is at least 1."""
    rng = np.random.default_rng(seed)
    x = np.eye(n)
    for i in range(n):
        x[i, rng.choice(np.delete(np.arange(n), i), size=n // 2 - 1, replace=False)] = 1.0
    return x


class TestPer:
    def test_ryser_output(self, matrix_file, capsys):
        assert main(["per", "--input", matrix_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("per = 1e+01  ")
        assert "log_per = 2.30258509299404" in out

    def test_naive_matches(self, matrix_file, capsys):
        assert main(["per", "--input", matrix_file, "--algorithm", "naive"]) == 0
        assert capsys.readouterr().out.startswith("per = 1e+01  ")

    def test_all_ones_8(self, tmp_path, capsys):
        p = tmp_path / "ones.txt"
        p.write_text("\n".join(" ".join("1" for _ in range(8)) for _ in range(8)) + "\n")
        assert main(["per", "--input", str(p)]) == 0
        assert capsys.readouterr().out.startswith("per = 4.032e+04  ")

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_01_prints_exact_permanent(self, n, tmp_path, capsys):
        # the decimal carries the digits log_per supports, which land on the
        # integer; 17 digits of exp(log_per) printed 286085096.00000012 at n = 16
        x = diagonal_01(n, seed=1)
        p = tmp_path / "m.txt"
        p.write_text("".join(" ".join("1" if v else "0" for v in row) + "\n" for row in x))
        assert main(["per", "--input", str(p)]) == 0
        assert Decimal(capsys.readouterr().out.split()[2]) == exact_per01(x)

    def test_non_integer_entry_prints_its_digits(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("1.0001\n")
        assert main(["per", "--input", str(p)]) == 0
        assert capsys.readouterr().out.startswith("per = 1.0001e+00  ")

    @pytest.mark.parametrize("text", ["1e300 1e-30\n1e300 0\n", "1e300 1e-40\n1e-260 0\n"])
    def test_scaling_flushes_entry_exit_1(self, text, tmp_path, capsys):
        # per = 1e270 and 1e-300, but 1e-30 / 1e300 and 1e-40 / 1e300 are 0.0
        # in doubles, which would drop the only matching from the support
        p = tmp_path / "m.txt"
        p.write_text(text)
        assert main(["per", "--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 0 divided by its scale 1e+300 flushes a nonzero entry to 0" in captured.err

    def test_naive_guard_exit_2(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("\n".join(" ".join("1" for _ in range(12)) for _ in range(12)) + "\n")
        assert main(["per", "--input", str(p), "--algorithm", "naive"]) == 2

    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3\n")
        assert main(["per", "--input", str(p)]) == 2

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["per", "--input", str(tmp_path / "nope.txt")]) == 1

    def test_structural_zero_prints_zero(self, tmp_path, capsys):
        p = tmp_path / "zero.txt"
        # rows 0-2 fit only columns 0-1, though no column is empty
        p.write_text("1 1 0 0\n1 1 0 0\n1 1 0 0\n1 1 1 1\n")
        assert main(["per", "--input", str(p)]) == 0
        assert capsys.readouterr().out == "per = 0  log_per = -inf\n"

    def test_unresolved_permanent_exit_1(self, tmp_path, capsys):
        # per = 1 (triangular), but 1 + 2^60 rounds to 2^60: the two Glynn
        # terms cancel to 0, inside the rounding bound, and the diagonal is
        # a perfect matching, so the value is not reported as 0
        p = tmp_path / "cancel.txt"
        p.write_text(f"1 {2**60}\n0 1\n")
        assert main(["per", "--input", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "rounding bound" in captured.err

    @pytest.mark.parametrize("entry,n,decimal", [
        ("1e-20", 20, "2.43290200818e-382"), ("1e200", 2, "2e+400"), ("1e308", 2, "2e+616")])
    def test_permanent_beyond_double_range_prints_log(self, tmp_path, capsys, entry, n, decimal):
        # n! * entry^n leaves the double range (20! * 1e-400, 2 * 1e400,
        # 2 * 1e616; the last one's row sums overflow too); rows scaled by
        # their largest entry carry it, so log_per is finite and exact, and
        # the decimal is read from it to the 12 digits it supports
        p = tmp_path / "m.txt"
        p.write_text("\n".join(" ".join(entry for _ in range(n)) for _ in range(n)) + "\n")
        assert main(["per", "--input", str(p)]) == 0
        per, log_per = capsys.readouterr().out.split("  ")
        assert per == f"per = {decimal}"
        want = math.lgamma(n + 1) + n * math.log(float(entry))
        assert abs(float(log_per.removeprefix("log_per = ")) - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("entry,n,decimal", [("1e-300", 1, "1e-300"), ("1e-100", 3, "6e-300")])
    def test_scaled_pass_in_range_prints_log_digits(self, tmp_path, capsys, entry, n, decimal):
        # prod rowsum is below 2^-900 but the permanent is a normal double;
        # its decimal is exp(log_per), so it gets the digits the log
        # supports (17 digits printed 1.0000000000000237e-300 for the first)
        p = tmp_path / "m.txt"
        p.write_text("\n".join(" ".join(entry for _ in range(n)) for _ in range(n)) + "\n")
        assert main(["per", "--input", str(p)]) == 0
        assert capsys.readouterr().out.split("  ")[0] == f"per = {decimal}"


class TestUsage:
    def test_unknown_subcommand_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self):
        assert main(["moments", "--n", "3"]) == 2

    def test_bad_r_spec_exit_2(self, capsys):
        assert main(["moments", "--n", "3", "--r", "1,2"]) == 2
        assert main(["moments", "--n", "3", "--r", "x"]) == 2
        assert main(["mc", "--n", "4", "--r", "3,x"]) == 2
        assert "error: bad r spec '3,x'" in capsys.readouterr().err

    def test_bad_dist_exit_2(self):
        assert main(["moments", "--n", "3", "--r", "2", "--dist", "weird:1"]) == 2

    def test_non_finite_dist_exit_2(self, capsys):
        assert main(["moments", "--n", "3", "--r", "2", "--dist", "const:inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite distribution parameter" in captured.err

    def test_domain_error_exit_2(self, monkeypatch, capsys):
        def fail(spec):
            raise DomainError("hypothesis not met")

        monkeypatch.setattr("permlab.cli.moment_report", fail)
        assert main(["moments", "--n", "3", "--r", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: hypothesis not met\n")

    @pytest.mark.parametrize("exc,code", [
        (PrecisionError("unresolved"), 1),
        (SizeLimitError("too big"), 2),
        (ValueError("bad value"), 2),
        (OSError("no such file"), 1),
    ], ids=["precision", "size-limit", "value", "os"])
    def test_error_exit_codes(self, exc, code, monkeypatch, capsys):
        def fail(args):
            raise exc

        monkeypatch.setattr("permlab.cli.cmd_verify", fail)
        assert main(["verify"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: {exc}\n")


class TestEcho:
    @pytest.mark.parametrize("cmd,code", [
        (["mc", "--n", "100000", "--r", "2"], 2),
        (["sample", "--n", "100000", "--r", "2"], 2),
        (["moments", "--n", "100000000", "--r", "2"], 2),
        (["sweep", "--n", "3,3", "--r-rule", "const:2"], 2),
        (["sweep", "--n", "3,x", "--r-rule", "const:2"], 2),
        (["mc", "--n", "4", "--r", "3,x"], 2),
        (["mc", "--n", "3", "--r", "2", "--trials", "10", "--dist", "foo:1"], 2),
        (["mc", "--n", "3", "--r", "2", "--trials", "10", "--seed", "-1"], 2),
        (["per", "--input", "missing.txt"], 1),
    ], ids=["mc-n", "sample-n", "moments-n", "sweep-repeat", "sweep-n-list", "mc-r-list",
            "mc-dist", "mc-seed", "per-missing"])
    def test_refused_run_echoes_once_first(self, cmd, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PERMLAB_WORKERS", raising=False)
        assert main(cmd) == code
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 2
        assert lines[0].startswith(f"# cmd={cmd[0]} ") and "error: " in lines[1]

    def test_long_r_list_echoes_runs(self, tmp_path, capsys):
        cfg = tmp_path / "two-groups.cfg"
        cfg.write_text("n = 100000\ndist = exp:1\nr = "
                       + ",".join(["400"] * 50000 + ["800"] * 50000) + "\n")
        assert main(["moments", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "\nexact_ratio = " in out
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert " r=400*50000,800*50000 " in err

    def test_other_lists_echo_as_given(self, capsys):
        assert main(["sweep", "--n", "3,4", "--r-rule", "const:2", "--dist", "uniform:1,2",
                     "--trials", "10", "--workers", "1"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("# cmd=sweep ") and err.count("\n") == 1
        assert " n=3,4 " in err and " dist=uniform:1,2 " in err


class TestFmtFromLog:
    def test_mantissa_carry_bumps_exponent(self):
        # one ulp below log(10^6): the mantissa 9.99... rounds up to 10
        log_mag = math.nextafter(6 * math.log(10), 0.0)
        assert math.floor(log_mag / math.log(10)) == 5
        assert _fmt_from_log(log_mag) == "1e+06"

    def test_seventeen_digit_cap(self):
        # a log near 0 has a tiny ulp, yet no more digits than a double holds
        assert _fmt_from_log(0.0) == "1e+00"
        assert _fmt_from_log(1e-5) == "1.0000100000500001e+00"


class TestMoments:
    def test_homogeneous_report(self, capsys):
        assert main(["moments", "--n", "3", "--r", "2", "--dist", "const:1"]) == 0
        out = capsys.readouterr().out
        assert "mu = 1.77777777777778e+00\n" in out
        assert "vdw_log" in out
        assert "theta = 1.3591409142295225" in out
        assert "bounds = unavailable (r_low >= 6*delta/nu^2 not met" in out
        assert "exact_ratio = 1.125" in out

    def test_heterogeneous_report(self, capsys):
        assert main(["moments", "--n", "3", "--r", "1,2,3", "--dist", "const:1"]) == 0
        out = capsys.readouterr().out
        assert "mu = 1.33333333333333e+00\n" in out
        assert "vdw" not in out
        assert "theta" not in out

    def test_bounds_present_when_hypothesis_holds(self, capsys):
        assert main(["moments", "--n", "12", "--r", "8", "--dist", "const:1"]) == 0
        out = capsys.readouterr().out
        assert "bound_low = " in out and "bound_up = " in out

    @pytest.mark.parametrize("n,r", [("500", "50"), ("1000", "100")])
    def test_large_n_exact_ratio(self, n, r, capsys):
        assert main(["moments", "--n", n, "--r", r]) == 0
        vals = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert 1.0 < float(vals["exact_ratio"]) < math.inf

    def test_ratio_beyond_double_range_prints_inf(self, capsys):
        assert main(["moments", "--n", "3000", "--r", "2"]) == 0
        assert "exact_ratio = inf\n" in capsys.readouterr().out

    def test_theta_beyond_double_range_prints_inf(self, capsys):
        # q = e^9 under lognormal:0,3, so e^{q/(r-1)} is e^1157.6
        assert main(["moments", "--n", "12", "--r", "8", "--dist", "lognormal:0,3"]) == 0
        assert "theta = inf\n" in capsys.readouterr().out

    @pytest.mark.parametrize("n,r", [("550000", "742"), ("640000", "800"), ("1000000", "1000")])
    def test_alpha_beyond_double_range_keeps_bounds(self, n, r, capsys):
        # alpha ~ e^(-n/r) is subnormal at (550000, 742) and zero as a double
        # past n/r = 745; it is printed from its log, and the bounds come
        # from log alpha + beta - 1
        assert main(["moments", "--n", n, "--r", r]) == 0
        vals = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert "bounds" not in vals
        assert int(vals["alpha_up"].partition("e")[2]) < -300
        assert float(vals["bound_low"]) <= float(vals["exact_ratio"]) <= float(vals["bound_up"])
        assert 1.0 < float(vals["exact_ratio"]) < 2.0

    @pytest.mark.parametrize("n,r,dist", [("8000", "12", "exp:1"), ("60000", "6", "const:1")])
    def test_bounds_beyond_double_range_print_inf(self, n, r, dist, capsys):
        # exp(log alpha + beta - 1) is about e^788 and e^1060 here
        assert main(["moments", "--n", n, "--r", r, "--dist", dist]) == 0
        vals = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert vals["bound_low"] == vals["bound_up"] == vals["exact_ratio"] == "inf"


class TestSample:
    def test_forced_support(self, capsys):
        assert main(["sample", "--n", "2", "--r", "2", "--dist", "const:1", "--seed", "5"]) == 0
        assert capsys.readouterr().out == "1 1\n1 1\n"

    def test_x_matrix_is_binary(self, capsys):
        assert main([
            "sample", "--n", "4", "--r", "1,2,3,4", "--dist", "exp:1",
            "--seed", "3", "--matrix", "x",
        ]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        counts = [sum(float(tok) for tok in row.split()) for row in rows]
        assert counts == [1.0, 2.0, 3.0, 4.0]

    def test_to_file(self, tmp_path):
        out = tmp_path / "y.txt"
        assert main([
            "sample", "--n", "3", "--r", "2", "--dist", "uniform:1,2",
            "--seed", "1", "--out", str(out),
        ]) == 0
        from permlab.core import parse_matrix

        m = parse_matrix(out.read_text())
        assert m.n == 3


class TestVerify:
    def test_exit_zero_and_summary(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "(3,(2,2,2),const:1) mean: " in out
        assert "MISMATCH" not in out
        assert out.strip().endswith("52/52 checks passed")

    def test_mismatch_exit_1(self, monkeypatch, capsys):
        checks = [OracleCheck("a", 1.0, 1.0, True), OracleCheck("b", 1.0, 2.0, False)]
        monkeypatch.setattr("permlab.cli.cross_check_suite", lambda: checks)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "a: formula=1 oracle=1 ok\nb: formula=1 oracle=2 MISMATCH\n" in out
        assert out.endswith("1/2 checks passed\n")

    def test_injected_mean_typo_fails_suite(self, monkeypatch):
        # flip n!/n^n to n^n/n!: every mean check must blow up
        def broken_mu(spec):
            n = spec.n
            log_mu = (
                math.fsum(math.log(ri) for ri in spec.r)
                + n * math.log(spec.dist.nu)
                + n * math.log(n)
                - math.lgamma(n + 1)
            )
            return ScaledValue(log_mu)

        monkeypatch.setattr("permlab.verify.mu_n", broken_mu)
        checks = cross_check_suite()
        mean_checks = [c for c in checks if "mean" in c.label]
        assert mean_checks and all(not c.ok for c in mean_checks)
        assert any(not c.ok for c in checks)

    @pytest.mark.parametrize("rel,ok", [(0.5 * REL_TOL, True), (2 * REL_TOL, False)])
    def test_tolerance_is_relative(self, monkeypatch, rel, ok):
        # every mu off by rel: within REL_TOL of the oracle it passes, past it not
        monkeypatch.setattr("permlab.verify.mu_n",
                            lambda spec: ScaledValue(mu_n(spec).log_mag + math.log1p(rel)))
        mean_checks = [c for c in cross_check_suite() if c.label.endswith(" mean")]
        assert len(mean_checks) == 20
        assert all(c.ok == ok for c in mean_checks)


class TestMcSweep:
    def test_mc_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = main([
            "mc", "--n", "3", "--r", "2", "--dist", "const:1",
            "--trials", "500", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,r_low,r_up,dist,trials,seed,")
        assert len(lines) == 2
        assert lines[1].startswith("3,2,2,const:1,500,7,")

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--n", "3,4", "--r-rule", "const:2", "--dist", "const:1",
            "--trials", "60", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "3"
        assert lines[2].split(",")[0] == "4"

    def test_rows_whose_theta_is_beyond_double_range(self, capsys):
        # each row's moment report takes theta, e^1157.6 under lognormal:0,3
        assert main(["mc", "--n", "6", "--r", "3", "--dist", "lognormal:0,3",
                     "--trials", "20", "--seed", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith('6,3,3,"lognormal:0,3",20,1,')
        assert main(["sweep", "--n", "6,7", "--r-rule", "const:3", "--dist", "lognormal:0,3",
                     "--trials", "10", "--seed", "1", "--workers", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_guard_exit_2(self):
        assert main(["mc", "--n", "40", "--r", "2", "--trials", "10", "--seed", "0"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exit_2(self, seed):
        # a seed that reaches the seeding loop unchecked grows a list until
        # memory runs out
        r = run_cli(["mc", "--n", "3", "--r", "2", "--trials", "10", "--seed", seed,
                     "--workers", "1"], timeout=120, preexec_fn=cap_address_space)
        assert r.returncode == 2 and r.stdout == ""
        assert "master_seed must be a 64-bit nonnegative integer" in r.stderr

    @pytest.mark.parametrize("cmd", [
        ["mc", "--n", "100000", "--r", "2"],
        ["sweep", "--n", "3,100000", "--r-rule", "const:2"],
    ], ids=["mc", "sweep"])
    def test_kernel_size_guard_before_first_draw(self, cmd):
        # the first trial stack at n = 100000 would not fit under the cap
        r = run_cli(cmd + ["--trials", "2", "--workers", "1"], timeout=120,
                    preexec_fn=cap_address_space)
        assert r.returncode == 2 and r.stdout == ""
        assert "Glynn kernel limited to n <= 30, got 100000" in r.stderr

    @pytest.mark.parametrize("cmd,message", [
        (["mc", "--n", "1000000000", "--r", "2", "--trials", "2"],
         "Glynn kernel limited to n <= 30, got 1000000000"),
        (["sample", "--n", "100000", "--r", "2"], "sample limited to n <= 1000, got 100000"),
        (["moments", "--n", "100000000", "--r", "2"],
         "moments limited to n <= 1000000, got 100000000"),
    ], ids=["mc", "sample", "moments"])
    def test_n_limit_before_r_is_expanded(self, cmd, message):
        # --r 2 as an n-tuple, or what the command builds from it, would not
        # fit under the cap
        r = run_cli(cmd, timeout=120, preexec_fn=cap_address_space)
        assert r.returncode == 2 and r.stdout == ""
        assert message in r.stderr

    @pytest.mark.parametrize("cmd,trials", [
        (["mc", "--n", "3", "--r", "2"], "10000001"),
        (["sweep", "--n", "3,4", "--r-rule", "const:2"], "1000000000000"),
    ], ids=["mc", "sweep"])
    def test_trial_ceiling_exit_2(self, cmd, trials):
        # the ratios of 10^12 trials would not fit under the cap
        r = run_cli(cmd + ["--trials", trials, "--workers", "1"], timeout=120,
                    preexec_fn=cap_address_space)
        assert r.returncode == 2 and r.stdout == ""
        assert f"at most 10000000 trials, got {trials}" in r.stderr

    def test_sweep_one_trial_exit_2(self, capsys):
        assert main(["sweep", "--n", "3", "--r-rule", "const:2", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "need at least 2 trials, got 1" in captured.err

    def test_bad_n_list_exit_2(self, capsys):
        assert main(["sweep", "--n", "3,x", "--r-rule", "const:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad n list '3,x'" in captured.err

    @pytest.mark.parametrize("n,rule", [("3", "power:1000"), ("3", "power:1e400"),
                                        ("3", "power:nan"), ("3", "const:"), ("-3", "power:0.5")])
    def test_bad_r_rule_exit_2(self, n, rule, capsys):
        # 3 ** 1000.0 overflows a double, 1e400 and nan are no row count, and
        # (-3) ** 0.5 is complex
        assert main(["sweep", "--n", n, "--r-rule", rule, "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"bad r-rule '{rule}' at n = {n}" in captured.err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_sweep_seed_outside_64_bits_exit_2(self, seed, capsys):
        # refused by the plan, before any row's seed is derived from it
        args = ["sweep", "--n", "3", "--r-rule", "const:2", "--dist", "const:1",
                "--trials", "10", "--seed", seed, "--workers", "1"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "master_seed must be a 64-bit nonnegative integer" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, workers, monkeypatch, capsys):
        args = ["mc", "--n", "3", "--r", "2", "--trials", "10"]
        assert main(args + ["--workers", workers]) == 2
        monkeypatch.setenv("PERMLAB_WORKERS", workers)
        assert main(args) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cmd", [
        ["mc", "--n", "3", "--r", "2", "--trials", "10", "--epsilon", "nan"],
        ["mc", "--n", "3", "--r", "2", "--trials", "10", "--epsilon", "0"],
        ["mc", "--n", "3", "--r", "2", "--trials", "10", "--epsilon", "-1"],
        ["sweep", "--n", "3,4", "--r-rule", "const:2", "--trials", "10", "--epsilon", "nan"],
    ], ids=["mc-nan", "mc-zero", "mc-negative", "sweep-nan"])
    def test_bad_epsilon_exit_2(self, cmd, capsys):
        assert main(cmd) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err


class TestOutFile:
    @pytest.mark.parametrize("cmd", [
        ["sample", "--n", "5", "--r", "2,3,2,4,5", "--dist", "lognormal:0,1", "--seed", "77"],
        ["mc", "--n", "4", "--r", "2", "--dist", "exp:1", "--trials", "200", "--seed", "7"],
        ["sweep", "--n", "3,5", "--r-rule", "const:2", "--trials", "50", "--seed", "7"],
    ], ids=["sample", "mc", "sweep"])
    def test_out_file_equals_stdout(self, cmd, tmp_path, capsys):
        assert main(cmd) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "out.txt"
        assert main(cmd + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == stdout.encode()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nn = 3\nr = 2\ndist = const:1\ntrials = 120\nseed = 9\n")
        out = tmp_path / "c.csv"
        rc = main(["mc", "--n", "3", "--r", "2", "--config", str(cfg),
                   "--trials", "80", "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4] == "80"   # flag beats config
        assert row[5] == "9"    # seed comes from config

    def test_config_without_value_exit_2(self, capsys):
        assert main(["mc", "--config"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--config: expected one argument" in captured.err

    def test_bad_config_line_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        assert main(["mc", "--n", "3", "--r", "2", "--config", str(cfg)]) == 2

    def test_whole_run_from_config_artifact(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nr=2\ndist=const:1\ntrials=50\nseed=4\n")
        assert main(["mc", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("3,2,2,const:1,50,4,")

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n=3\nr=2\ntrails=10\n")
        assert main(["mc", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "trails" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cmd, text, message", [
        ("moments", "n = 3\nr = 2\nn = 5\n", "key 'n' is set on lines 1 and 3"),
        ("sweep", "n=5,6\nr_rule=const:2\n# again\nr-rule=const:3\n",
         "key 'r-rule' is set on lines 2 and 4"),
    ], ids=["same", "underscore"])
    def test_repeated_config_key_exit_2(self, cmd, text, message, tmp_path, capsys):
        # the last value does not silently win
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        assert main([cmd, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_config_cannot_replace_missing_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\n")
        assert main(["mc", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("cmd, text", [
        ("per", "input={matrix}\nalgorithm=bogus\n"),
        ("sample", "n=3\nr=2\nmatrix=z\n"),
    ], ids=["algorithm", "matrix"])
    def test_bad_choice_exit_2(self, cmd, text, tmp_path, matrix_file, capsys):
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(text.format(matrix=matrix_file))
        assert main([cmd, "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_sample_out_from_config(self, tmp_path, capsys):
        out = tmp_path / "y.txt"
        cfg = tmp_path / "sample.cfg"
        cfg.write_text(f"n=3\nr=2\nseed=1\nout={out}\n")
        assert main(["sample", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().count("\n") == 3

    def test_abbreviated_key_exit_2(self, tmp_path, capsys):
        # "trial" must not be taken as a prefix of --trials
        cfg = tmp_path / "abbr.cfg"
        cfg.write_text("n=3\nr=2\ntrial=7\n")
        assert main(["mc", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_config_key_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "nested.cfg"
        cfg.write_text(f"n=3\nr=2\nconfig={cfg}\n")
        assert main(["mc", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""


class TestImports:
    def test_cli_loads_neither_fractions_nor_scipy(self):
        # the package declares numpy only, and import time is start-up cost
        probe = "import sys, permlab.cli; print(sorted({'fractions', 'scipy'} & set(sys.modules)))"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_cli_loads_no_process_pool(self):
        # a run with one worker never starts a pool, so need not import one
        probe = ("import sys, permlab.cli; print(sorted({'multiprocessing', "
                 "'concurrent.futures.process'} & set(sys.modules)))")
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"


def env_without_blas_threads(**extra):
    """This process's environment without the BLAS thread settings, plus extra."""
    drop = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"}
    return {k: v for k, v in os.environ.items() if k not in drop} | extra


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestBlasThreads:
    def test_one_blas_thread_by_default(self):
        probe = ("import os, permlab.cli; task = '/proc/self/task'; "
                 "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                 "len(os.listdir(task)) if os.path.isdir(task) else 1)")
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=env_without_blas_threads())
        assert r.returncode == 0, r.stderr
        assert r.stdout == "1 1\n"

    def test_explicit_setting_wins(self):
        probe = "import os, permlab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=env_without_blas_threads(OPENBLAS_NUM_THREADS="2"))
        assert r.returncode == 0, r.stderr
        assert r.stdout == "2\n"

    @pytest.mark.skipif(usable_cpus() < 2, reason="one BLAS thread either way")
    def test_mc_bytes_independent_of_cpu_count(self):
        # the jackknife's 60 000-element dot product is one OpenBLAS ddot,
        # which a second thread splits and sums in another order
        args = ["mc", "--n", "3", "--r", "2", "--dist", "exp:1", "--trials", "60000",
                "--seed", "7"]
        default = run_cli(args, env=env_without_blas_threads())
        single = run_cli(args, env=env_without_blas_threads(OPENBLAS_NUM_THREADS="1"))
        assert default.returncode == single.returncode == 0
        assert default.stdout == single.stdout


class TestDeterminism:
    def test_mc_byte_identical_and_worker_independent(self, tmp_path):
        args = ["mc", "--n", "3", "--r", "2", "--dist", "const:1",
                "--trials", "300", "--seed", "13"]
        outs = []
        for workers in ("1", "1", "2"):
            r = run_cli(args + ["--workers", workers])
            assert r.returncode == 0
            outs.append(r.stdout)
        assert outs[0] == outs[1] == outs[2]
        assert "seed=13" in run_cli(args + ["--workers", "1"]).stderr

    def test_subcommand_stdout_stable(self, matrix_file):
        a = run_cli(["per", "--input", matrix_file])
        b = run_cli(["per", "--input", matrix_file])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_sample_stable(self):
        args = ["sample", "--n", "5", "--r", "3", "--dist", "lognormal:0,1", "--seed", "21"]
        assert run_cli(args).stdout == run_cli(args).stdout
