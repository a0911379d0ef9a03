import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavelab.core import HypothesisViolation
from wavelab.cli import (
    KINDS, ConfigError, ExperimentSuite, _SCENARIO_KEYS, main, parse_damping,
    parse_nonlinearity, parse_profile, parse_suite, write_energy_csv,
)
from wavelab.solver import run_derivative_system

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

    def test_default_section_keys_reach_scenarios_only(self):
        text = "[DEFAULT]\nn_cells = 32\n" + GOOD_SUITE.replace("n_cells = 64\n", "")
        assert parse_suite(text).scenarios[0].scenario.grid.n_cells == 32

    def test_duplicate_names_rejected(self):
        text = GOOD_SUITE + "\n[scenario demo ]\ng = arctan\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_suite(text)

    def test_p_one_rejected_for_stability_kinds(self):
        text = GOOD_SUITE.replace("kind = simulate", "kind = aux_equivalence")
        text = text.replace("p_list = 1.5, 2", "p_list = 1, 2")
        with pytest.raises(ConfigError, match="stability"):
            parse_suite(text)
        # but plain simulation accepts p = 1
        parse_suite(GOOD_SUITE.replace("p_list = 1.5, 2", "p_list = 1, 2"))

    def test_nonmonotone_g_rejected(self):
        with pytest.raises(HypothesisViolation):
            parse_suite(GOOD_SUITE.replace("g = arctan", "g = nonmonotone"))

    def test_inactive_damping_rejected_for_stability_kinds(self):
        text = GOOD_SUITE.replace("kind = simulate", "kind = semi_global_sweep")
        text = text.replace("a = smooth_indicator(0.7, 1, 2, 0.05)", "a = zero")
        with pytest.raises(HypothesisViolation):
            parse_suite(text)

    def test_bad_localization_rejected(self):
        text = GOOD_SUITE.replace("kind = simulate", "kind = multiplier_report")
        text += "epsilons = 0.3, 0.1, 0.05\n"  # e0 exceeds 1 - b for omega (0.75, 1)
        with pytest.raises(ValueError):
            parse_suite(text.replace("fit_window = 0.5, 2", ""))

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

    def test_parse_error_exit_code(self, tmp_path, capsys):
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(GOOD_SUITE.replace("g = arctan", "g = mystery"))
        assert main(["run", str(suite_file)]) == 2

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
        ("fit_window = nan, 1", "fit_window"),
        ("a = constant(nan)", "a"),
        ("t_final = nan", "t_final"),
        ("co_integrate_w = maybe", "co_integrate_w"),
        ("a = smooth_indicator(0.7, 1, 2, 0)", "a"),
        ("p_list = 2, 2.0000001", "p_list"),
        ("p_list = 2, 2", "p_list"),
        ("z0 = bump(width=0)", "z0"),
        ("z0 = bump(width=-0.1)", "z0"),
        ("window = 0, 100", "window"),
        ("fit_window = 50, 60", "fit_window"),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, line, key):
        lines = [ln for ln in GOOD_SUITE.splitlines() if not ln.startswith(f"{key} =")]
        text = "\n".join(lines + [line, ""])
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(text)
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (err.startswith(f"config error: scenario 'demo': key '{key}': ")
                or err.startswith(f"config error: scenario 'demo': {key} must be"))
        assert not (tmp_path / "o").exists()

    def test_empty_default_sweep_fit_window_is_a_config_error(self, tmp_path, capsys):
        # without fit_window the sweep fits on (2, 0.9 t_final), which is
        # empty for t_final = 2
        text = GOOD_SUITE.replace("kind = simulate", "kind = semi_global_sweep")
        suite_file = tmp_path / "bad.ini"
        suite_file.write_text(text.replace("fit_window = 0.5, 2\n", ""))
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: scenario 'demo': key 'fit_window': "
                       "the default (2, 1.8) needs t_lo < t_hi\n")
        assert not (tmp_path / "o").exists()
        parse_suite(text)  # an explicit fit_window replaces the default

    def test_window_between_two_records_is_a_scenario_error(self, tmp_path, capsys):
        # records every 64 steps of dt = 1/64 are 1 apart: s = 0.2 and
        # t = 0.4 both snap to the record at t = 0
        suite_file = tmp_path / "suite.ini"
        suite_file.write_text("[suite]\nkind = simulate\n\n[scenario s]\n"
                              "n_cells = 64\nt_final = 4\nrecord_every = 64\n"
                              "window = 0.2, 0.4\n")
        assert main(["run", str(suite_file), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("ERROR s: ValueError: window (0.2, 0.4): s and t snap to "
                       "the same record, t = 0 (records are 1 apart)\n")

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

    def test_oracle_dalembert_subcommand(self, capsys):
        assert main(["oracle", "dalembert", "--t", "0.5", "--x", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # standing wave cos(pi t) sin(pi x) at the center point
        assert payload["z"] == pytest.approx(np.cos(np.pi * 0.5), abs=1e-10)


#: values that are not a number, not finite, empty, negative, garbage or a
#: malformed or out-of-range profile call
FUZZ_TOKENS = ["nan", "inf", "-inf", "", "-1", "0", "0.5", "1", "2", "16", "abc",
               "constant(nan)", "constant(-1)", "constant(", "indicator(0.7, 1)",
               "smooth_indicator(0.7, 1, 2, 0)", "sine(nan)", "sine(2, k=1)",
               "bump(width=0)", "mystery(1)", "arctan", "true", "maybe"]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS),
       keys=st.dictionaries(st.sampled_from(sorted(_SCENARIO_KEYS)),
                            st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1,
                                     max_size=3).map(", ".join)))
@example(kind="simulate", keys={"a": "smooth_indicator(0.7, 1, 2, 0)"})
def test_parse_suite_raises_only_config_errors(kind, keys):
    text = f"[suite]\nkind = {kind}\n\n[scenario fuzz]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items())
    try:
        suite = parse_suite(text)
    except ConfigError:
        return
    assert isinstance(suite, ExperimentSuite)


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
    traj, w_traj = run_derivative_system(spec.scenario, keep_states=False)
    w_traj = w_traj if with_w else None
    write_energy_csv(tmp_path / "new.csv", traj, w_traj)
    _write_energy_csv_per_row(tmp_path / "ref.csv", traj, w_traj)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert len(new.splitlines()) == 1 + len(traj.times)
