"""End-to-end tests for the command line interface and file formats."""

import json

import numpy as np
import pytest

import rhoarb.lp
from rhoarb.cli import (EXIT_CODES, AnalysisReport, MarketFormatError,
                        analyze_market, load_market, load_risk, main)
from rhoarb.elliptical import critical_alpha
from rhoarb.measures import RiskSpec

BINOMIAL_JSON = {
    "riskless_rate": 0.0,
    "probs": [0.5, 0.5],
    "assets": [{"name": "up_or_flat", "returns": [1.0, 0.0]}],
}

DUO_JSON = {
    "riskless_rate": 0.0,
    "probs": [0.5, 0.5],
    "assets": [{"name": "swing", "returns": [2.0, -1.0]}],
}


@pytest.fixture
def binomial_file(tmp_path):
    path = tmp_path / "binomial.json"
    path.write_text(json.dumps(BINOMIAL_JSON))
    return str(path)


@pytest.fixture
def duo_file(tmp_path):
    path = tmp_path / "duo.json"
    path.write_text(json.dumps(DUO_JSON))
    return str(path)


# -- market loading -----------------------------------------------------------


def test_load_market_binomial_json(binomial_file):
    market = load_market(binomial_file)
    assert market.n_assets == 1
    assert market.n_scenarios == 2
    assert market.riskless_rate == 0.0
    assert np.allclose(market.returns, [[1.0, 0.0]])


def test_load_market_csv_bad_prob_sum(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("prob,asset1\n0.5,1.0\n0.47,0.0\n")
    with pytest.raises(MarketFormatError) as err:
        load_market(str(path))
    assert any(v.startswith("PROB_SUM") for v in err.value.violations)


def test_load_market_csv_duplicate_assets(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("prob,a,b\n0.25,1.0,1.0\n0.25,0.5,0.5\n0.5,-0.2,-0.2\n")
    with pytest.raises(MarketFormatError) as err:
        load_market(str(path))
    assert any(v.startswith("NONREDUNDANT") for v in err.value.violations)


def test_load_market_csv_drops_zero_probability_rows(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("prob,a\n0.5,2.0\n0.0,9.9\n0.5,-1.0\n")
    market = load_market(str(path))
    assert market.n_scenarios == 2
    assert np.allclose(market.returns, [[2.0, -1.0]])


def test_load_market_unknown_format(binomial_file):
    with pytest.raises(MarketFormatError):
        load_market(binomial_file, "yaml")
    with pytest.raises(MarketFormatError):
        load_market("/nonexistent/market.json")


def test_load_risk_inline_and_file(tmp_path):
    spec = load_risk('{"kind": "ES", "alpha": 0.4}', None)
    assert spec.kind == "ES" and spec.alpha == 0.4
    path = tmp_path / "risk.json"
    path.write_text('{"kind": "WC"}')
    assert load_risk(None, str(path)).kind == "WC"
    with pytest.raises(MarketFormatError):
        load_risk(None, None)
    with pytest.raises(MarketFormatError):
        load_risk('{"kind": "WC"}', str(path))


# -- analyze ------------------------------------------------------------------


def test_analyze_binomial_rho_arbitrage_exit(binomial_file, capsys):
    code = main(["analyze", "--market", binomial_file,
                 "--risk", '{"kind": "ES", "alpha": 0.4}'])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == "RHO_ARBITRAGE"


def test_analyze_binomial_strong_exit(binomial_file, capsys):
    code = main(["analyze", "--market", binomial_file,
                 "--risk", '{"kind": "ES", "alpha": 0.75}'])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["verdict"] == "STRONG_RHO_ARBITRAGE"
    assert report["rho1"] == pytest.approx((1 - 2 * 0.75) / 0.75, abs=1e-9)


def test_analyze_duo_no_arbitrage_with_witness(duo_file, capsys):
    code = main(["analyze", "--market", duo_file,
                 "--risk", '{"kind": "ES", "alpha": 0.25}'])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "NO_ARBITRAGE"
    witness = report["dual"]["certificate"]["witness"]["z"]
    assert witness == pytest.approx([2.0 / 3.0, 4.0 / 3.0], abs=1e-8)
    assert report["cross"]["status"] == "AGREE"


def test_analyze_reports_the_dual_newton_solve(duo_file, capsys):
    main(["analyze", "--market", duo_file, "--risk", '{"kind": "TNORM", "p": 2, "alpha": 0.9}'])
    cert = json.loads(capsys.readouterr().out)["dual"]["certificate"]
    assert cert["iterations"] > 0 and 0.0 <= cert["gap"] <= 1e-9


def test_analyze_var_without_dual_is_unsupported(binomial_file, capsys):
    code = main(["analyze", "--market", binomial_file,
                 "--risk", '{"kind": "VAR", "alpha": 0.3}'])
    assert code == 1
    assert "UNSUPPORTED" in capsys.readouterr().err


@pytest.mark.parametrize("market, risk, code", [
    ("duo", {"kind": "WC"}, 0),
    ("duo", {"kind": "ES", "alpha": 0.5}, 0),
    ("duo", {"kind": "ES", "alpha": 0.9}, 3),
    ("binomial", {"kind": "ES", "alpha": 0.4}, 2),
    ("duo", {"kind": "SPECTRAL", "atoms": [[0.25, 0.5], [1.0, 0.5]]}, 0),
    ("duo", {"kind": "EVAR", "alpha": 0.9}, 0),
    ("duo", {"kind": "EVAR", "alpha": 0.96}, 3),
    ("duo", {"kind": "TNORM", "p": 2, "alpha": 0.9}, 0),
    ("duo", {"kind": "TNORM", "p": 2, "alpha": 0.96}, 3),
    ("duo", {"kind": "GENTROPIC", "g_kind": "ENTROPY", "beta": 0.5}, 0),
    ("duo", {"kind": "GENTROPIC", "g_kind": "ENTROPY", "beta": 0.05}, 3),
    ("binomial", {"kind": "GENTROPIC", "g_kind": "POWER", "q": 2, "beta": 3.0}, 2),
    ("duo", {"kind": "VAR", "alpha": 0.3}, 1),
])
def test_analyze_dual_flag_changes_only_the_var_error(market, risk, code, duo_file,
                                                      binomial_file, capsys):
    # The name keeps the test ids of the days of --dual: every measure but
    # VaR runs its dual route, and VaR is an error.
    path = duo_file if market == "duo" else binomial_file
    assert main(["analyze", "--market", path, "--risk", json.dumps(risk)]) == code
    out = capsys.readouterr()
    if code == 1:
        assert out.out == "" and "UNSUPPORTED" in out.err
        return
    report = json.loads(out.out)
    assert list(report["timings"]) == (["dual"] if risk["kind"] == "GENTROPIC" else ["cross"])
    assert report["dual"]["route"] == "DUAL"
    assert (report["primal"] is None) == (risk["kind"] == "GENTROPIC")


# -- frontier -----------------------------------------------------------------


def _parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_frontier_duo_positive_slope(duo_file, capsys):
    code = main(["frontier", "--market", duo_file, "--levels", "0,1,3",
                 "--risk", '{"kind": "ES", "alpha": 0.25}'])
    header, rows = _parse_csv(capsys.readouterr().out)
    assert code == 0
    assert header == ["nu", "rho_nu", "efficient"]
    assert [float(r[1]) for r in rows] == pytest.approx([0.0, 2.0, 6.0], abs=1e-9)
    assert all(r[2] == "true" for r in rows)


def test_frontier_binomial_zero_line(binomial_file, capsys):
    code = main(["frontier", "--market", binomial_file, "--levels", "0,1,2",
                 "--risk", '{"kind": "ES", "alpha": 0.5}'])
    _, rows = _parse_csv(capsys.readouterr().out)
    assert code == 2
    assert [float(r[1]) for r in rows] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    assert all(r[2] == "false" for r in rows)


def test_frontier_binomial_negative_slope(binomial_file, capsys):
    code = main(["frontier", "--market", binomial_file, "--levels", "1,2",
                 "--risk", '{"kind": "ES", "alpha": 0.75}'])
    _, rows = _parse_csv(capsys.readouterr().out)
    assert code == 3
    slope = (1 - 2 * 0.75) / 0.75
    assert [float(r[1]) for r in rows] == pytest.approx([slope, 2 * slope], abs=1e-9)
    assert all(r[2] == "false" for r in rows)


def test_frontier_json_format(duo_file, capsys):
    code = main(["frontier", "--market", duo_file, "--levels", "0,1",
                 "--risk", '{"kind": "ES", "alpha": 0.25}', "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["efficient"] is True
    assert data["iterations"] == 0          # d = 1: the direct route runs no solver
    assert data["points"][1] == {"nu": 1.0, "rho_nu": pytest.approx(2.0, abs=1e-9)}


# -- phase curve ---------------------------------------------------------------


def test_phase_curve_alpha_star_comment(capsys):
    code = main(["phase-curve", "--alphas", "0.01,0.1,0.5,0.9", "--sr", "2.5"])
    out = capsys.readouterr().out
    assert code == 0
    star_line = next(ln for ln in out.split("\n")
                     if ln.startswith("# alpha_star_es="))
    a_star = float(star_line.partition("=")[2])
    assert 0.0155 <= a_star <= 0.0165


def test_phase_curve_json_alpha_star_is_not_rounded(capsys):
    assert main(["phase-curve", "--alphas", "0.1,0.5", "--sr", "0.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha_star_es"] == critical_alpha(0.5, "ES")
    assert data["alpha_star_var"] == critical_alpha(0.5, "VAR")


def test_phase_curve_var_threshold_zero_at_half(capsys):
    main(["phase-curve", "--alphas", "0.25,0.5,0.75"])
    header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["alpha", "es_threshold", "var_threshold"]
    mid = next(r for r in rows if float(r[0]) == 0.5)
    assert mid[2] == "0.0"


def test_phase_curve_es_column_strictly_decreasing(capsys):
    main(["phase-curve", "--alphas", "0.05:0.95:19"])
    _, rows = _parse_csv(capsys.readouterr().out)
    es_col = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(es_col, es_col[1:]))


def test_phase_curve_rejects_bad_grid(capsys):
    code = main(["phase-curve", "--alphas", "0.0,0.5"])
    assert code == 1


# -- elliptical ----------------------------------------------------------------


def test_elliptical_single_asset_no_arbitrage(capsys):
    code = main(["elliptical", "--mu", "0.2", "--sigma", "0.04",
                 "--measure", "ES", "--alpha", "0.05"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["verdict"]["verdict"] == "NO_ARBITRAGE"
    assert data["sr_max"] == pytest.approx(1.0, abs=1e-12)
    assert data["rho1"] == pytest.approx(1.0627128, abs=1e-6)


def test_elliptical_var_beyond_median_is_strong(capsys):
    code = main(["elliptical", "--mu", "0.2", "--sigma", "0.04",
                 "--measure", "VAR", "--alpha", "0.6"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["verdict"]["verdict"] == "STRONG_RHO_ARBITRAGE"
    assert data["rho1"] == "-inf"


def test_elliptical_degenerate_mean_errors(capsys):
    code = main(["elliptical", "--mu", "0.03,0.03", "--sigma", "1,0;0,1",
                 "--r", "0.03"])
    assert code == 1
    assert "NONDEGENERATE" in capsys.readouterr().err


# -- validate ------------------------------------------------------------------


def test_validate_good_market(binomial_file, capsys):
    code = main(["validate", "--market", binomial_file])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data == {"valid": True, "violations": [],
                    "n_scenarios": 2, "n_assets": 1}


def test_validate_bad_market(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("prob,a\n0.5,1.0\n0.47,0.0\n")
    code = main(["validate", "--market", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["valid"] is False
    assert any(v.startswith("PROB_SUM") for v in data["violations"])


def test_validate_non_finite_market(tmp_path, capsys):
    # json reads NaN and Infinity as floats, so such a file loads.
    path = tmp_path / "nan.json"
    path.write_text('{"riskless_rate": 0.0, "probs": [0.25, 0.25, 0.25, NaN], '
                    '"assets": [{"returns": [0.1, -0.1, 0.2, 0.0]}]}')
    code = main(["validate", "--market", str(path)])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["valid"] is False
    assert any(v.startswith("FINITE") for v in data["violations"])


# -- report and protocol -------------------------------------------------------


def test_report_json_round_trip(duo_file):
    market = load_market(duo_file)
    report = analyze_market(market, RiskSpec.es(0.25), market_file=duo_file)
    recovered = AnalysisReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert recovered == report


def test_report_from_dict_ignores_an_old_seed_key(duo_file):
    # Reports once carried a "seed" that nothing read; they still load.
    market = load_market(duo_file)
    report = analyze_market(market, RiskSpec.es(0.25), market_file=duo_file)
    old = dict(report.to_dict(), seed=7)
    assert AnalysisReport.from_dict(old) == report
    assert "seed" not in report.to_dict()


def test_exit_codes_are_pure_verdict_function():
    assert EXIT_CODES == {"NO_ARBITRAGE": 0, "RHO_ARBITRAGE": 2,
                          "STRONG_RHO_ARBITRAGE": 3}


def test_csv_output_is_locale_independent(duo_file, capsys):
    main(["frontier", "--market", duo_file, "--levels", "0,0.5",
          "--risk", '{"kind": "ES", "alpha": 0.25}'])
    out = capsys.readouterr().out
    assert "\r" not in out
    assert ";" not in out
    for token in out.strip().split("\n")[1].split(",")[:2]:
        float(token)  # '.' decimal, parseable


def test_out_flag_writes_file(tmp_path, binomial_file):
    target = tmp_path / "report.json"
    code = main(["analyze", "--market", binomial_file,
                 "--risk", '{"kind": "WC"}', "--out", str(target)])
    data = json.loads(target.read_text())
    assert code == EXIT_CODES[data["verdict"]]


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--risk", '{"kind": "WC"}'])  # --market missing
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_simplex_failure_is_an_error_line(tmp_path, monkeypatch, capsys):
    # A simplex that cannot certify its answer ends the command with one
    # error line and exit code 1, not a traceback.
    rng = np.random.default_rng(3)
    returns = 0.01 + rng.normal(0.02, 0.1, size=(3, 20))
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "riskless_rate": 0.01, "probs": [0.05] * 20,
        "assets": [{"name": f"a{i}", "returns": list(row)} for i, row in enumerate(returns)]}))
    monkeypatch.setattr(rhoarb.lp, "MAX_PIVOTS", 0)
    code = main(["analyze", "--market", str(path), "--risk", '{"kind": "ES", "alpha": 0.1}'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: simplex pivot limit exceeded\n"
