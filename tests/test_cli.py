import concurrent.futures
import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavelab import experiments
from wavelab.core import (
    DAMPING_PROFILES, NONLINEARITIES, PROFILES, HypothesisViolation, make_localization,
)
from wavelab.cli import (
    ConfigError, ExperimentSuite, _RUN_KEYS, _SCENARIO_KEYS, main, parse_damping,
    parse_nonlinearity, parse_profile, parse_suite, run_suite, write_energy_csv,
)
from wavelab.energy import (
    FIT_MIN_POINTS, RATIO_MIN_RECORDS, decay_fit, observability_ratio,
)
from wavelab.experiments import EXPERIMENTS, SPEC_KEYS
from wavelab.multipliers import MIN_RECORDS, MultiplierStream
from wavelab.solver import Scenario, run_derivative_system, run_simulation

#: the experiment kind of each bad-value case that is not simulate: with
#: dt = 1/64 the window (0, 0.01) holds one record, and the multiplier terms
#: need 3
BAD_VALUE_KINDS = {"window = 0, 0.01": "multiplier_report",
                   "epsilons = 3e-308, 2e-308, 1e-308": "multiplier_report"}

#: a good value of each key that some kinds read and the others refuse
SPEC_VALUES = {"fit_window": "0.5, 2", "window": "0, 1", "co_integrate_w": "true",
               "alphas": "1, 2", "epsilons": "0.15, 0.1, 0.05"}

GOOD_SUITE = """
[suite]
kind = simulate
output_dir = out

[scenario demo]
n_cells = 64
t_final = 2
p_list = 1.5, 2
g = arctan
a = smooth_indicator(0.7, 1, 2, 0.05)
z0 = sine(1)
amplitude = 0.5
fit_window = 0.5, 2
"""


def _as_kind(text, kind):
    """Suite text of kind `simulate` as one of `kind`, without the fit_window
    line if that kind does not read it."""
    text = text.replace("kind = simulate", f"kind = {kind}")
    if "fit_window" in SPEC_KEYS[kind]:
        return text
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("fit_window ="))


class TestSpecParsing:
    def test_nonlinearity_names(self):
        assert parse_nonlinearity("arctan").label == "arctan"
        with pytest.raises(ConfigError):
            parse_nonlinearity("tanh")

    def test_damping_call_syntax(self):
        a = parse_damping("constant(2.5)")
        assert a.a0 == 2.5
        with pytest.raises(ConfigError):
            parse_damping("constant(2.5")  # unbalanced parenthesis
        with pytest.raises(ConfigError):
            parse_damping("mystery(1)")

    def test_profile_with_kwargs(self):
        p = parse_profile("sine(2, amplitude=0.5)")
        x = np.array([0.25])
        assert np.asarray(p.value(x))[0] == pytest.approx(0.5)  # 0.5 sin(2 pi / 4)


class TestSuiteParsing:
    def test_happy_path(self):
        suite = parse_suite(GOOD_SUITE)
        assert suite.kind == "simulate"
        spec = suite.scenarios[0]
        assert spec.scenario.name == "demo"
        assert spec.scenario.grid.n_cells == 64
        assert spec.scenario.p_list == (1.5, 2.0)
        assert spec.fit_window == (0.5, 2.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_suite(GOOD_SUITE + "\ncfl = 0.5\n")

    def test_unknown_suite_key_rejected(self):
        # a misspelled output_dir must not silently write to the default
        text = GOOD_SUITE.replace("output_dir = out", "outptu_dir = elsewhere")
        with pytest.raises(ConfigError, match="unknown key 'outptu_dir'"):
            parse_suite(text)

    @pytest.mark.parametrize("kind", EXPERIMENTS)
    def test_a_key_the_kind_never_reads_is_refused(self, kind):
        # in the scenario or in [DEFAULT]; the kinds that read it accept it
        base = (f"[suite]\nkind = {kind}\n\n[scenario demo]\nn_cells = 64\n"
                "t_final = 4\ng = arctan\na = smooth_indicator(0.7, 1, 2, 0.05)\n")
        assert set(SPEC_VALUES) == set().union(*SPEC_KEYS.values())
        for key, value in SPEC_VALUES.items():
            for text in (base + f"{key} = {value}\n", f"[DEFAULT]\n{key} = {value}\n" + base):
                if key in SPEC_KEYS[kind]:
                    assert parse_suite(text).scenarios[0].scenario.name == "demo"
                    continue
                with pytest.raises(ConfigError, match=(
                        f"^scenario 'demo': key '{key}' is not read by "
                        f"experiment kind '{kind}'$")):
                    parse_suite(text)

    def test_default_section_keys_reach_scenarios_only(self):
        text = "[DEFAULT]\nn_cells = 32\n" + GOOD_SUITE.replace("n_cells = 64\n", "")
        assert parse_suite(text).scenarios[0].scenario.grid.n_cells == 32

    def test_duplicate_names_rejected(self):
        text = GOOD_SUITE + "\n[scenario demo ]\ng = arctan\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_suite(text)

    def test_p_one_rejected_for_stability_kinds(self):
        text = _as_kind(GOOD_SUITE, "aux_equivalence")
        text = text.replace("p_list = 1.5, 2", "p_list = 1, 2")
        with pytest.raises(ConfigError, match="stability"):
            parse_suite(text)
        # but plain simulation accepts p = 1
        parse_suite(GOOD_SUITE.replace("p_list = 1.5, 2", "p_list = 1, 2"))

    def test_nonmonotone_g_rejected(self):
        with pytest.raises(HypothesisViolation):
            parse_suite(GOOD_SUITE.replace("g = arctan", "g = nonmonotone"))

    def test_inactive_damping_rejected_for_stability_kinds(self):
        text = _as_kind(GOOD_SUITE, "aux_equivalence")
        text = text.replace("a = smooth_indicator(0.7, 1, 2, 0.05)", "a = zero")
        with pytest.raises(HypothesisViolation):
            parse_suite(text)

    def test_bad_localization_rejected(self):
        text = GOOD_SUITE.replace("kind = simulate", "kind = multiplier_report")
        text += "epsilons = 0.3, 0.1, 0.05\n"  # e0 exceeds 1 - b for omega (0.75, 1)
        with pytest.raises(ValueError):
            parse_suite(text.replace("fit_window = 0.5, 2", ""))

    def test_long_sparse_schedule_parses_in_little_memory(self):
        # 4,096,000 steps, 1,001 records: the record clock keeps the records'
        # times only (one array of all step times would be 33 MB)
        text = ("[suite]\nkind = simulate\n[scenario long]\nn_cells = 4096\n"
                "t_final = 1000\nrecord_every = 4096\n")
        parse_suite(text)  # imports and caches out of the measurement
        tracemalloc.start()
        try:
            sc = parse_suite(text).scenarios[0].scenario
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sc.n_steps == 4_096_000 and len(sc.record_steps) == 1001
        assert peak < 5e6

    def test_missing_suite_section(self):
        with pytest.raises(ConfigError, match="suite"):
            parse_suite("[scenario x]\ng = arctan\n")


class TestMainEndToEnd:
    def test_run_writes_reports(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WAVELAB_OUT", raising=False)
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE)
        out = tmp_path / "results"
        code = main(["run", str(suite_file), "--out", str(out)])
        assert code == 0
        csv = (out / "energies_demo.csv").read_text().splitlines()
        assert csv[0] == "t,E_p1.5,E_p2,dEdt_p1.5,dEdt_p2,max_zt"
        assert len(csv) == 2 + 128  # header + dense records
        summary = json.loads((out / "summary_demo.json").read_text())
        assert summary["fits"]["2"]["fitted_rate"] > 0.0

    def test_env_var_overrides_flag(self, tmp_path, monkeypatch):
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE)
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("WAVELAB_OUT", str(env_out))
        code = main(["run", str(suite_file), "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_out / "summary_demo.json").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("line, bad, message", [
        ("g = arctan", "g = mystery",
         "scenario 'demo': key 'g': unknown nonlinearity 'mystery' (available: "),
        # `wavelab verify` is the one verify entry; as a suite kind it is unknown
        ("kind = simulate", "kind = verify", "key 'kind': unknown experiment kind 'verify'\n"),
        # a scenario name becomes part of its report file names
        *(("[scenario demo]", f"[scenario {name}]", f"scenario '{name}': the name must "
           f"not contain '/' or '\\', since it becomes part of the report file names\n")
          for name in ["a/b", "a\\b", "/abs"]),
        # summary_<name>.json must be a file name: no NUL, at most 255 bytes
        *(("[scenario demo]", f"[scenario {name}]", f"scenario {name!r}: the name must "
           f"hold no NUL byte and at most 242 bytes in the file-system encoding, since "
           f"it becomes part of the report file names\n")
          for name in ["a" * 243, "\u00e9" * 122, "a\0b"]),
    ], ids=["unknown-g", "verify-kind", "slash", "backslash", "absolute",
            "243-bytes", "122-chars-of-244-bytes", "nul"])
    def test_parse_error_exit_code(self, tmp_path, capsys, line, bad, message):
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(GOOD_SUITE.replace(line, bad))
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "o").exists()

    def test_output_directory_that_cannot_be_made_exits_2(self, tmp_path, capsys,
                                                          monkeypatch):
        # under a file: refused before any scenario runs, so no work is lost
        monkeypatch.delenv("WAVELAB_OUT", raising=False)
        suite_file = tmp_path / "suite.ini"
        scenario = GOOD_SUITE[GOOD_SUITE.index("[scenario demo]"):]
        suite_file.write_text(GOOD_SUITE + scenario.replace("demo", "second"))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["run", str(suite_file), "--out", str(out)]) == 2
        # the one line on stderr: no scenario ran to print an ERROR line
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory '{out}': Not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "suite.ini"]

    @pytest.mark.parametrize("line, key", [
        ("n_cells = abc", "n_cells"),
        ("n_cells = 2", "n_cells"),
        ("splitting = foo", "splitting"),
        ("record_every = 0", "record_every"),
        ("g = nonmonotone", "g"),
        ("p_list = nan", "p_list"),
        ("p_list = inf", "p_list"),
        ("p_list =", "p_list"),
        ("amplitude = nan", "amplitude"),
        ("alphas = nan", "alphas"),
        ("alphas =", "alphas"),
        ("alphas = 1, 1.0000001", "alphas"),
        ("alphas = 1, 2\nco_integrate_w = true", "alphas"),
        ("fit_window = nan, 1", "fit_window"),
        ("a = constant(nan)", "a"),
        ("t_final = nan", "t_final"),
        ("co_integrate_w = maybe", "co_integrate_w"),
        ("a = smooth_indicator(0.7, 1, 2, 0)", "a"),
        ("p_list = 2, 2.0000001", "p_list"),
        ("p_list = 2, 2", "p_list"),
        ("z0 = bump(width=0)", "z0"),
        ("z0 = bump(width=-0.1)", "z0"),
        ("z0 = bump(width=1e308)", "z0"),  # its width ** 2 is past the float range
        ("window = 0, 100", "window"),
        ("fit_window = 50, 60", "fit_window"),
        ("fit_window = 0.5, 0.6", "fit_window"),
        ("window = 0, 0.01", "window"),
        # ordered, but b + e rounds to one cutoff: each ramp would divide by 0
        ("epsilons = 3e-308, 2e-308, 1e-308", "epsilons"),
        # sizes numpy refuses outright, past any machine's address space; a
        # sparse schedule still passes over every step, so these t_final are
        # past the record clock's MAX_STEPS
        ("n_cells = 100000000000000000", "n_cells"),
        ("n_cells = 100000000000000000000", "n_cells"),
        ("t_final = 1e300", "t_final"),
        ("t_final = 1e15\nrecord_every = 1000000000000", "t_final"),
        ("t_final = 1.7e308", "t_final"),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, line, key):
        lines = [ln for ln in GOOD_SUITE.splitlines() if not ln.startswith(f"{key} =")]
        text = "\n".join(lines + [line, ""])
        text = _as_kind(text, BAD_VALUE_KINDS.get(line, "simulate"))
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(text)
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (err.startswith(f"config error: scenario 'demo': key '{key}': ")
                or err.startswith(f"config error: scenario 'demo': {key} must be"))
        assert not (tmp_path / "o").exists()

    def test_default_multiplier_window_needs_three_records(self, tmp_path, capsys):
        # without window the multiplier terms integrate over (0, t_final),
        # which holds the records at 0 and 2 only
        text = _as_kind(GOOD_SUITE, "multiplier_report")
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(text + "record_every = 128\n")
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: scenario 'demo': key 'window': the default "
                       "(0, 2) holds 2 record(s); the multiplier terms need at least 3\n")
        parse_suite(text + "record_every = 64\n")  # records at 0, 1 and 2

    def test_window_between_two_records_is_a_config_error(self, tmp_path, capsys):
        # records every 64 steps of dt = 1/64 are 1 apart: (0.2, 0.4) holds
        # none of them, and the observability ratio integrates over 2 at least
        suite_file = tmp_path / "suite.ini"
        text = ("[suite]\nkind = simulate\n\n[scenario s]\n"
                "n_cells = 64\nt_final = 4\nrecord_every = 64\n")
        suite_file.write_text(text + "window = 0.2, 0.4\n")
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: scenario 's': key 'window': (0.2, 0.4) holds "
                       "0 record(s); the observability ratio needs at least 2\n")
        assert not (tmp_path / "o").exists()
        with pytest.raises(ConfigError, match=r"\(0.2, 1\) holds 1 record"):
            parse_suite(text + "window = 0.2, 1\n")
        parse_suite(text + "window = 0, 1\n")  # records at 0 and 1

    def test_aux_equivalence_needs_every_step_recorded(self, tmp_path, capsys):
        # the auxiliary rerun records every step, so a sparser schedule is a
        # config error
        suite_file = tmp_path / "suite.ini"
        text = ("[suite]\nkind = aux_equivalence\n\n[scenario aux]\n"
                "n_cells = 32\nt_final = 1\n")
        suite_file.write_text(text + "record_every = 8\n")
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: scenario 'aux': key 'record_every': the "
                       "auxiliary rerun records every step, so it must be 1, not 8\n")
        assert not (tmp_path / "o").exists()
        parse_suite(text + "record_every = 1\n")

    def test_fit_window_on_a_grid_that_is_not_a_power_of_two(self, tmp_path, capsys):
        # dt = 0.01 puts 10 records in (0.1, 0.19), at k dt; a window end a
        # few ulps off a record time is forgiven by the fit as by the parser
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE.replace("n_cells = 64", "n_cells = 100")
                              .replace("fit_window = 0.5, 2", "fit_window = 0.1, 0.19"))
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary_demo.json").read_text())
        for p in ("1.5", "2"):
            assert summary["fits"][p]["window"] == [0.1, 0.19]
            assert summary["fits"][p]["fitted_rate"] > 0.0

    def test_default_multiplier_window_on_a_clock_short_of_n_dt(self, tmp_path, capsys):
        # at n_cells = 40, t_final = 50 a running sum of dt = 1/40 would end
        # 1.8e-12 short of n dt = 50, the default window's T; the last record
        # is at n dt, and the parser and MultiplierStream accept it by one rule
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = multiplier_report\n\n[scenario s]\n"
                              "n_cells = 40\nt_final = 50\n")
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "summary_s.json").read_text())
        assert summary["window"] == [0.0, 50.0]
        assert set(summary["multiplier_tables"]) == {"1.5", "2", "4"}

    def test_default_multiplier_window_holds_the_final_record(self, monkeypatch):
        # at n_cells = 100, t_final = 100 a running sum of dt = 1/100 would end
        # 1.4e-11 past n dt = 100 and the default window (0, 100) would drop
        # the last record; record k is at k dt, so it integrates all 11
        text = ("[suite]\nkind = multiplier_report\n\n[scenario s]\n"
                "n_cells = 100\nt_final = 100\nrecord_every = 1000\n")
        streams = []

        def kept_stream(*args):
            streams.append(MultiplierStream(*args))
            return streams[-1]

        monkeypatch.setattr(experiments._mult, "MultiplierStream", kept_stream)
        result = EXPERIMENTS["multiplier_report"](parse_suite(text).scenarios[0])
        traj, (stream,) = result["traj"], streams
        assert len(traj.times) == len(stream.times) == 11
        assert stream.times[-1] == traj.times[-1] == 100.0
        for p, table in result["summary"]["multiplier_tables"].items():
            energies = traj.diagnostics[f"E_p{p}"]
            assert table["int_energy"] == float(np.trapezoid(energies, traj.times))

    def test_observability_window_to_n_dt_on_a_clock_short_of_it(self, tmp_path, capsys):
        # the same run: a window ending at n dt = 50 is accepted by the
        # parser and gives each p a ratio, not an "error" entry
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = simulate\n\n[scenario s]\n"
                              "n_cells = 40\nt_final = 50\nwindow = 40, 50\n")
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        ratios = json.loads((out / "summary_s.json").read_text())["observability_ratio"]
        assert set(ratios) == {"1.5", "2", "4"}
        assert all(isinstance(r, float) and 0.0 < r <= 10.0 for r in ratios.values())

    def test_fit_window_past_full_decay_keeps_the_reports(self, tmp_path, capsys):
        # E_p falls below the fit floor long before t = 50: the parser cannot
        # see the floor, so the fit is reported as missing, with the reason,
        # and the run that passed its guards still writes both reports
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = simulate\n\n[scenario s]\n"
                              "n_cells = 64\nt_final = 60\ng = identity\n"
                              "a = constant(2)\nfit_window = 50, 60\n")
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in out.iterdir()) == ["energies_s.csv",
                                                         "summary_s.json"]
        summary = json.loads((out / "summary_s.json").read_text())
        assert list(summary["fits"]) == ["1.5", "2", "4"]
        for fit in summary["fits"].values():
            assert fit == {"window": [50.0, 60.0], "error": (
                f"decay_fit needs >= {FIT_MIN_POINTS} points above the floor "
                "in (50.0, 60.0), got 0")}

    def test_fit_error_is_reported_for_its_p_alone(self, tmp_path, capsys):
        # E_4 falls below its fit floor before t = 10, E_1.5 and E_2 later
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = simulate\n\n[scenario s]\n"
                              "n_cells = 64\nt_final = 20\ng = identity\n"
                              "a = constant(2)\nfit_window = 10, 20\n")
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        fits = json.loads((out / "summary_s.json").read_text())["fits"]
        for p in ("1.5", "2"):
            assert fits[p]["window"] == [10.0, 20.0]
            assert fits[p]["fitted_rate"] > 0.0
        assert fits["4"] == {"window": [10.0, 20.0], "error": (
            f"decay_fit needs >= {FIT_MIN_POINTS} points above the floor "
            "in (10.0, 20.0), got 0")}

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_suite_file_is_a_config_error(self, tmp_path, capsys, case):
        path = tmp_path / "suite.ini"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(GOOD_SUITE.encode("utf-16"))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        reason = {"missing": "No such file or directory",
                  "directory": "Is a directory",
                  "not_utf8": "'utf-8' codec can't decode byte 0xff in position 0"}[case]
        assert err.startswith(f"config error: cannot read '{path}': {reason}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys, jobs):
        # no large N is tried here: a valid one starts that many processes
        monkeypatch.delenv("WAVELAB_OUT", raising=False)
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE)
        with pytest.raises(SystemExit) as exited:
            main(["run", str(suite_file), "--jobs", jobs, "--out", str(tmp_path / "o")])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wavelab run ")
        assert err.endswith("wavelab run: error: argument --jobs: "
                            f"must be a whole number >= 1, got '{jobs}'\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs, workers", [(64, 3), (2, 2)])
    def test_jobs_is_capped_at_the_scenario_count(self, tmp_path, monkeypatch, jobs, workers):
        # a forked pool starts max_workers processes at its first submit;
        # this one records max_workers and runs each scenario in this process
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = simulate\n" + "".join(
            f"[scenario s{i}]\nn_cells = 16\nt_final = 1\n" for i in range(3)))
        out = tmp_path / "o"
        assert main(["run", str(suite_file), "--jobs", str(jobs), "--out", str(out)]) == 0
        assert pools == [workers]
        assert len(list(out.iterdir())) == 6

    @pytest.mark.parametrize("kind, lines, key, energy", [
        ("simulate", "amplitude = 1e150\np_list = 2, 4", "amplitude", "E_p4"),
        ("aux_equivalence", "amplitude = 1e150\np_list = 2, 4", "amplitude", "E_p4"),
        ("multiplier_report", "amplitude = 1e150\np_list = 2, 4", "amplitude", "E_p4"),
        # the rows at their largest |alpha|, and E_p(w)(0), which c_p reads
        ("simulate", "alphas = 1, -1e150\np_list = 2, 4", "alphas", "E_p4"),
        ("simulate", "alphas = 1, 4e153", "alphas", "E_pw2"),
        # w(0) = z1, w_t(0) = z0'' - a g(z1): E_p(w)(0) overflows first
        ("simulate", "amplitude = 1e60\np_list = 2\ng = cubic\nz1 = sine(1)\n"
                     "co_integrate_w = true", "amplitude", "E_pw2"),
    ], ids=["simulate", "aux_equivalence", "multiplier_report", "alphas", "alphas-c_p",
            "co_integrate_w"])
    def test_initial_energy_that_is_not_finite_is_a_config_error(
            self, tmp_path, capsys, kind, lines, key, energy):
        keys = {line.partition(" =")[0] for line in lines.splitlines()}
        text = "".join(ln + "\n" for ln in GOOD_SUITE.splitlines()
                       if ln.partition(" =")[0] not in keys) + lines + "\n"
        suite_file = tmp_path / "big.ini"
        suite_file.write_text(_as_kind(text, kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        p = energy.removeprefix("E_pw").removeprefix("E_p")
        assert capsys.readouterr().err == (
            f"config error: scenario 'demo': key '{key}': {energy}(0) is not finite "
            f"at p = {p}: the initial data are too large\n")
        assert not (tmp_path / "o").exists()

    def test_bad_number_in_profile_spec_exit_code(self, tmp_path, capsys):
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(GOOD_SUITE.replace("smooth_indicator(0.7, 1, 2, 0.05)",
                                                 "constant(abc)"))
        assert main(["run", str(suite_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario 'demo': key 'a': ")
        assert err.rstrip().endswith("'abc' in 'constant(abc)'")

    def test_bad_seed_value_is_not_a_traceback(self, tmp_path, monkeypatch,
                                                capsys):
        # `seed` is not a suite key: like any unknown [suite] key it is a
        # config error, not a ValueError traceback
        monkeypatch.delenv("WAVELAB_OUT", raising=False)
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE.replace("output_dir = out",
                                                 "output_dir = out\nseed = abc"))
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'seed'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_runtime_violation_exit_code(self, tmp_path, monkeypatch):
        # sabotage the damping update so energy grows mid-run: the
        # monotonicity guard must surface as a nonzero exit code
        from wavelab import solver

        def pumped(u_old, c, g):
            return u_old * (1.0 + c)

        monkeypatch.setattr(solver, "_implicit_damping_update", pumped)
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text(GOOD_SUITE)
        code = main(["run", str(suite_file), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "modal", "--a0", "10", "--k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energy_rate"] == pytest.approx(2.22043816171871)

    def test_oracle_mode_whose_four_w2_overflows_prints_finite_json(self, capsys):
        # json.loads accepts Infinity, so every number is checked
        assert main(["oracle", "modal", "--a0", "0.5", "--k", "3" + "0" * 153]) == 0
        payload = json.loads(capsys.readouterr().out)
        nums = [*payload["lambda_plus"], *payload["lambda_minus"], payload["energy_rate"]]
        assert all(np.isfinite(v) for v in nums)
        assert payload["lambda_plus"][1] == pytest.approx(9.42477796076938e153, rel=1e-14)
        assert payload["energy_rate"] == 0.5

    @pytest.mark.parametrize("flag, value, why", [
        ("--k", "0", "must be a whole number >= 1, got '0'"),
        ("--k", "-3", "must be a whole number >= 1, got '-3'"),
        ("--k", "1.5", "must be a whole number >= 1, got '1.5'"),
        ("--k", "1" + "0" * 160, "must be a whole number >= 1 whose (k pi)^2 is a "
                                 f"finite float, got '1{'0' * 160}'"),
        ("--k", "1" + "0" * 400, "must be a whole number >= 1 whose (k pi)^2 is a "
                                 f"finite float, got '1{'0' * 400}'"),
        ("--a0", "nan", "invalid _finite value: 'nan'"),
        ("--a0", "-inf", "invalid _finite value: '-inf'"),
        ("--a0", "abc", "invalid _finite value: 'abc'"),
    ])
    def test_bad_oracle_input_is_a_usage_error(self, capsys, flag, value, why):
        with pytest.raises(SystemExit) as exited:
            main(["oracle", "modal", f"{flag}={value}"])
        assert exited.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: wavelab oracle ")
        assert err.endswith(f"wavelab oracle: error: argument {flag}: {why}\n")


#: adversarial numbers: not finite, zero, negative, at the float range's
#: edges, empty, garbage, non-ASCII digits (float() reads '٣' and '２') and a
#: few plain values
ADVERSARIAL = ["nan", "NaN", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e308", "-1e308",
               "1e-308", "5e-324", "", "abc", "٣", "２", "½", "0.05", "0.5", "1", "2", "4"]
#: sizes: small values, and those numpy refuses outright (as in
#: test_bad_value_is_a_config_error), so that no suite allocates more than a
#: few MB; the non-numbers allocate nothing
SIZES = {"n_cells": ["4", "16", "64", "100000000000000000", "100000000000000000000",
                     "nan", "", "-1", "0", "abc", "1e308", "٣"],
         "t_final": ["0.25", "1", "2", "1e300", "1.7e308", "1e15",
                     "nan", "inf", "", "-1", "0", "abc", "5e-324", "1e-308", "٣"],
         "record_every": ["1", "3", "64", "1000000000000", "nan", "", "-1", "0", "1e308"]}
#: a good value of each other key, so that most texts reach the later checks
GOOD = {"p_list": ["2", "1.5, 2", "1, 4"], "amplitude": ["0.5", "1", "1e150"],
        "splitting": ["strang", "lie"], "g": ["arctan", "cubic", "saturating", "identity"],
        "a": ["smooth_indicator(0.7, 1, 2, 0.05)", "indicator(0.5, 1, 1)", "constant(1)",
              "zero"],
        "z0": ["sine(1)", "bump(0.5, 0.1)", "zero"], "z1": ["sine(2)", "zero"],
        "fit_window": ["0.5, 2", "0, 1", "0.1, 0.2"], "window": ["0, 1", "0.5, 2"],
        "epsilons": ["0.15, 0.1, 0.05"], "alphas": ["1, 2", "0, 1", "-1, 1"],
        "co_integrate_w": ["true", "false"]}
#: the call specs of g, a, z0 and z1: every shipped name, and one that is not
CALLEES = sorted({*NONLINEARITIES, *DAMPING_PROFILES, *PROFILES, "mystery"})
#: section and directory names: plain, non-ASCII and, less often, empty or
#: path-like
NAMES = ["demo", "s2", "ρ-run", "日本語", "..", "C:x", "~"] * 3 + ["", " ", "a/b", "a\\b", "/abs"]


@st.composite
def _calls(draw):
    """`name`, `name(args)` or a malformed call, with adversarial arguments."""
    name = draw(st.sampled_from(CALLEES))
    args = draw(st.lists(st.sampled_from(ADVERSARIAL), max_size=4))
    if draw(st.booleans()) and args:
        args[-1] = draw(st.sampled_from(["k", "width", "ramp", "center", "x"])) + "=" + args[-1]
    form = draw(st.sampled_from(["{n}", "{n}({a})", "{n}({a})", "{n}({a}", "{n}(({a}))"]))
    return form.format(n=name, a=", ".join(args))


def _values(key):
    if key in SIZES:
        return st.sampled_from(SIZES[key])
    bad = (_calls() if key in ("g", "a", "z0", "z1")
           else st.lists(st.sampled_from(ADVERSARIAL), max_size=4).map(", ".join))
    return st.sampled_from(GOOD.get(key, ["?"])) | bad


@st.composite
def _suite_texts(draw):
    """Suite text of every kind, [suite] key and scenario key, with good and
    adversarial values, names and sections: a [DEFAULT], an unknown section,
    a missing [suite], a duplicate section, keys that no kind or not this
    kind reads."""
    kind = draw(st.sampled_from([*EXPERIMENTS] * 6 + ["verify", "", "simulaté"]))
    lines = []
    if draw(st.integers(0, 19)):
        lines.append("[suite]")
        if draw(st.integers(0, 9)):
            lines.append(f"kind = {kind}")
        if draw(st.booleans()):
            lines.append(f"output_dir = {draw(st.sampled_from(NAMES))}")
        if not draw(st.integers(0, 19)):
            lines.append("cfl = 0.5")
    read = sorted(_RUN_KEYS.union(SPEC_KEYS.get(kind, ())))
    keys = st.sampled_from(read * 20 + sorted(_SCENARIO_KEYS) + ["n_cell", "ρ"])
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    if not draw(st.integers(0, 19)):
        names.append(names[0])
    sections = [f"scenario {name}" for name in names]
    if not draw(st.integers(0, 9)):
        sections.insert(0, draw(st.sampled_from(["DEFAULT", "other"])))
    for section in sections:
        lines.append(f"[{section}]")
        for key in draw(st.lists(keys, max_size=8, unique=True)):
            lines.append(f"{key} = {draw(_values(key))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_suite_texts())
@example(text="[suite]\nkind = simulate\n[scenario fuzz]\n"
              "a = smooth_indicator(0.7, 1, 2, 0)\n")
@example(text="[suite]\nkind = multiplier_report\n[scenario s]\nn_cells = 16\n"
              "epsilons = 3e-308, 2e-308, 1e-308\n")
@example(text="[suite]\n[scenario s]\nn_cells = 16\na = smooth_indicator(0.5, 1, 2, 5e-324)\n")
@example(text="[suite]\n[scenario s]\nn_cells = 16\nz0 = bump(0.5, 1e154)\n"
              "co_integrate_w = true\n")
def test_parse_suite_raises_only_config_errors(text):
    # parse_suite alone, total: a suite or a ConfigError, no other exception
    # and no warning, for any text of its schema
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            suite = parse_suite(text)
        except ConfigError:
            return
    assert isinstance(suite, ExperimentSuite)
    assert suite.scenarios


@settings(max_examples=40, deadline=None)
@given(n_cells=st.integers(50, 300).filter(lambda n: n & (n - 1)), t_final=st.just(1.0),
       record_every=st.integers(1, 4),
       consumer=st.sampled_from(["decay_fit", "observability_ratio", "multiplier_terms"]),
       lo=st.integers(0, 2 ** 20))
# grids where a running sum of dt would drift each way past the 1e-12
# tolerance: 1.8e-12 short of n dt at n_cells = 40, t_final = 50, and 1.4e-11
# past it at n_cells = 100, t_final = 100; record k is at k dt
@example(n_cells=40, t_final=50.0, record_every=20, consumer="decay_fit", lo=0)
@example(n_cells=40, t_final=50.0, record_every=1, consumer="observability_ratio", lo=7)
@example(n_cells=40, t_final=50.0, record_every=3, consumer="multiplier_terms", lo=11)
@example(n_cells=100, t_final=100.0, record_every=1000, consumer="decay_fit", lo=0)
@example(n_cells=100, t_final=100.0, record_every=100, consumer="observability_ratio", lo=3)
@example(n_cells=100, t_final=100.0, record_every=100, consumer="multiplier_terms", lo=5)
def test_parser_accepts_a_window_iff_its_consumer_does(n_cells, t_final, record_every,
                                                       consumer, lo):
    # windows whose ends lie on record times, k dt (the last n dt), holding
    # one record fewer than their consumer needs, as many and one more, and
    # windows ending at the run's end: the parser counts on the schedule what
    # the consumer picks from the run (one record of the ratio's 2 is the
    # point window (t, t)); a window holds the records within 1e-12 of it
    kind = "multiplier_report" if consumer == "multiplier_terms" else "simulate"
    key = "fit_window" if consumer == "decay_fit" else "window"
    text = (f"[suite]\nkind = {kind}\n\n[scenario w]\nn_cells = {n_cells}\n"
            f"t_final = {t_final!r}\np_list = 2\nrecord_every = {record_every}\n"
            "g = arctan\na = smooth_indicator(0.7, 1, 2, 0.05)\namplitude = 0.5\n")
    sc = parse_suite(text).scenarios[0].scenario
    traj = run_simulation(sc)
    triple = make_localization((sc.a.omega[0], 1.0), None, sc.grid)
    need = {"decay_fit": FIT_MIN_POINTS, "observability_ratio": RATIO_MIN_RECORDS,
            "multiplier_terms": MIN_RECORDS}[consumer]
    last = len(traj.times) - 1
    lo %= last - need + 1
    spans = [(lo, hi) for hi in range(lo + need - 2, lo + need + 1)]
    spans += [(max(last - n, 0), last) for n in range(need - 2, need + 1)]
    times = traj.times
    np.testing.assert_array_equal(times, sc.record_steps * sc.dt)
    for lo_, hi in spans:
        window = (float(times[lo_]), float(times[hi]))
        try:
            parse_suite(text + f"{key} = {window[0]!r}, {window[1]!r}\n")
            accepted = True
        except ConfigError:
            accepted = False
        try:
            if consumer == "decay_fit":
                decay_fit(traj.times, traj.energy_series(2.0), window)
            elif consumer == "observability_ratio":
                observability_ratio(traj, 2.0, window)
            else:
                MultiplierStream(sc, window, triple, [2.0])
            consumed = True
        except ValueError:
            consumed = False
        held = np.count_nonzero((traj.times >= window[0] - 1e-12)
                                & (traj.times <= window[1] + 1e-12))
        assert accepted == consumed == (held >= need), window


@pytest.mark.parametrize("kind, window, alphas", [("simulate", "1, 4", None),
                                                  ("multiplier_report", "1, 4", None),
                                                  ("multiplier_report", None, None),
                                                  ("simulate", None, "1, 2")])
def test_record_schedule_is_built_once(tmp_path, monkeypatch, kind, window, alphas):
    # the record clock is built once: parsing, the window's consumer and
    # the record loop share the one read-only array, and an alphas family
    # runs the parsed scenario itself
    passes = []
    clock = Scenario.__dict__["record_times"].func

    def counted(sc):
        passes.append(sc.name)
        return clock(sc)

    counted_clock = functools.cached_property(counted)
    counted_clock.__set_name__(Scenario, "record_times")
    monkeypatch.setattr(Scenario, "record_times", counted_clock)
    text = (f"[suite]\nkind = {kind}\n\n[scenario s]\nn_cells = 40\nt_final = 5\n"
            + (f"window = {window}\n" if window else "")
            + (f"alphas = {alphas}\n" if alphas else ""))
    suite = parse_suite(text)
    sc = suite.scenarios[0].scenario
    assert passes == ["s"]
    assert sc.record_times is sc.record_times and sc.record_steps is sc.record_steps
    for schedule in (sc.record_times, sc.record_steps):
        assert not schedule.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            schedule[0] = 1
    assert run_suite(suite, str(tmp_path / "o")) == 0
    assert passes == ["s"]


def _write_energy_csv_per_row(path, traj, w_traj=None):
    """Reference: the row-at-a-time writer, one repr(float(x)) per cell."""
    p_list = traj.scenario.p_list
    header = ["t"]
    header += [f"E_p{p:g}" for p in p_list]
    header += [f"dEdt_p{p:g}" for p in p_list]
    header.append("max_zt")
    if w_traj is not None:
        header.append("W1p_zt")
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(traj.times):
            row = [repr(float(t))]
            row += [repr(float(traj.diagnostics[f"E_p{p:g}"][i])) for p in p_list]
            row += [repr(float(traj.diagnostics[f"dEdt_p{p:g}"][i])) for p in p_list]
            row.append(repr(float(traj.diagnostics["max_zt"][i])))
            if w_traj is not None:
                p0 = p_list[0]
                row.append(repr(float(w_traj.diagnostics[f"W1p_zt_p{p0:g}"][i])))
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("with_w", [False, True])
def test_energy_csv_matches_per_row_writer_bytewise(tmp_path, with_w):
    spec = parse_suite(GOOD_SUITE.replace("n_cells = 64", "n_cells = 32")).scenarios[0]
    traj, w_traj = run_derivative_system(spec.scenario)
    w_traj = w_traj if with_w else None
    write_energy_csv(tmp_path / "new.csv", traj, w_traj)
    _write_energy_csv_per_row(tmp_path / "ref.csv", traj, w_traj)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert len(new.splitlines()) == 1 + len(traj.times)
