"""End-to-end tests for the command line interface and file formats."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import rhoarb
import rhoarb.cli
import rhoarb.dual
import rhoarb.lp
from rhoarb.cli import (EXIT_CODES, AnalysisReport, MarketFormatError,
                        analyze_market, build_parser, load_market, load_risk, main)
from rhoarb.elliptical import critical_alpha
from rhoarb.frontier import ArbitrageVerdict
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


@pytest.mark.parametrize("text, message", [
    ("p,asset1\n0.5,1.0\n0.5,-1.0\n", "CSV header must start with 'prob'"),
    ("prob,asset1\n0,1.0\n0,-1.0\n", "no scenarios with nonzero probability"),
], ids=["header", "all-zero"])
def test_load_market_csv_rejects_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MarketFormatError, match=message):
        load_market(str(path))


def test_load_market_unknown_format(binomial_file):
    with pytest.raises(MarketFormatError):
        load_market(binomial_file, "yaml")
    with pytest.raises(MarketFormatError):
        load_market("/nonexistent/market.json")


def _csv_module_read(path):
    """Rows of a CSV market as the csv module reads them, one float per field."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray([[float(v) for v in row] for row in rows[1:] if row], dtype=np.float64)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def test_load_market_csv_reads_the_bits_of_the_csv_module(tmp_path):
    rng = np.random.default_rng(61)
    n = 10_000
    probs = rng.dirichlet(np.ones(n))
    returns = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-6, 7, size=(3, n))
    path = tmp_path / "wide.csv"
    path.write_text("prob,a,b,c\n" + "".join(
        ",".join(repr(v) for v in row) + "\n"
        for row in np.column_stack([probs, returns.T]).tolist()))
    market = load_market(str(path))
    ref = _csv_module_read(path)
    assert market.n_scenarios == n
    assert _bits(market.probs) == _bits(ref[:, 0])
    assert _bits(market.returns) == _bits(ref[:, 1:].T)


SMALL_CSV = "prob,a,b\n0.25,1.5,-2\n0.25,0.5,3\n0.5,-1,0.25\n"


@pytest.mark.parametrize("text", [
    '"prob","a","b"\n"0.25",1.5,"-2"\n0.25,"0.5",3\n"0.5","-1","0.25"\n',
    "prob,a,b\n\n0.25,1.5,-2\n\n\n0.25,0.5,3\n0.5,-1,0.25\n\n",
    SMALL_CSV.replace("\n", "\r\n"),
    SMALL_CSV.replace("\n", "\r"),
    "prob,a,b\n0.25, 1.5 ,-2\n0.25,0.5,3\n0.5,-1,0.25",
], ids=["quoted", "blank-lines", "crlf", "cr", "padded-no-final-newline"])
def test_load_market_csv_layouts_read_as_the_csv_module_does(tmp_path, text):
    path = tmp_path / "layout.csv"
    path.write_bytes(text.encode())
    plain = tmp_path / "plain.csv"
    plain.write_text(SMALL_CSV)
    market, ref = load_market(str(path)), _csv_module_read(path)
    assert _bits(market.probs) == _bits(ref[:, 0]) == _bits(load_market(str(plain)).probs)
    assert _bits(market.returns) == _bits(ref[:, 1:].T)
    assert _bits(market.returns) == _bits([[1.5, 0.5, -1.0], [-2.0, 3.0, 0.25]])


@pytest.mark.parametrize("text", [
    "prob,a\n",
    "prob,a\n\n\n",
    "prob,a\n0.5,1\n0.5,2,3\n",
    "prob,a\n0.5,\n0.5,2\n",
    "prob,a\n0.5,1\n# a comment\n0.5,2\n",
    "prob,a\n0.5,abc\n0.5,2\n",
], ids=["header-only", "header-and-blank-lines", "ragged", "empty-field", "comment",
        "non-numeric"])
def test_load_market_csv_rejects_a_bad_body_without_warning(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MarketFormatError):
            load_market(str(path))


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
    assert cert["newton_iterations"] > 0 and 0.0 <= cert["gap"] <= 1e-9


def test_analyze_disagreement_is_reported_and_exits_one(duo_file, monkeypatch, capsys):
    # The primal route finds rho1 = 2 on the duo market; a dual verdict of
    # strong arbitrage far from its threshold contradicts it.
    monkeypatch.setattr(rhoarb.dual, "classify_dual", lambda market, spec, tol: ArbitrageVerdict(
        verdict="STRONG_RHO_ARBITRAGE", route="DUAL",
        certificate={"t_star": 5.0, "box_upper": 4.0}))
    code = main(["analyze", "--market", duo_file, "--risk", '{"kind": "ES", "alpha": 0.25}'])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "DISAGREE"
    assert report["cross"]["status"] == "DISAGREE"
    assert report["primal"]["verdict"] == "NO_ARBITRAGE"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("levels", ["0,nan", "0,inf", "1,-inf"])
def test_frontier_rejects_non_finite_levels(duo_file, capsys, fmt, levels):
    code = main(["frontier", "--market", duo_file, "--levels", levels,
                 "--risk", '{"kind": "ES", "alpha": 0.25}', "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: frontier levels must be finite and >= 0")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("levels, bad", [("0,nan", "nan"), ("0,inf", "inf"), ("1,-1", "-1.0")])
def test_frontier_checks_levels_before_reading_the_market(duo_file, monkeypatch, capsys,
                                                          fmt, levels, bad):
    def unread(*args, **kwargs):
        raise AssertionError("the market was read before the levels were checked")

    monkeypatch.setattr(rhoarb.cli, "load_market", unread)
    code = main(["frontier", "--market", duo_file, "--levels", levels,
                 "--risk", '{"kind": "ES", "alpha": 0.25}', "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: frontier levels must be finite and >= 0, got {bad}\n"


@pytest.fixture(scope="module")
def gaussian_cell_csv(tmp_path_factory):
    """(path, sr) of a 10^5-row CSV market: equal-probability Gaussian cells.

    Cell k holds the standard normal's conditional mean on its k-th 1/N
    quantile slice, N (phi(q_{k-1}) - phi(q_k)), so the mean of the lowest
    m cells is the normal's mean over its lowest m/N probability: ES at a
    level that is a multiple of 1/N is the continuous value.
    """
    n, sr, sigma = 100_000, 0.8, 0.02
    dens = np.concatenate([[0.0], norm.pdf(norm.ppf(np.arange(1, n) / n)), [0.0]])
    cells = n * (dens[:-1] - dens[1:])
    returns = sigma * (sr + cells[np.random.default_rng(67).permutation(n)])
    path = tmp_path_factory.mktemp("cells") / "cells.csv"
    path.write_text("prob,asset\n" + "".join(f"{1.0 / n!r},{x!r}\n" for x in returns.tolist()))
    return str(path), sr


def _normal_es(alpha):
    return norm.pdf(norm.ppf(alpha)) / alpha if alpha < 1.0 else 0.0


@pytest.mark.parametrize("risk, rho_z", [
    ({"kind": "ES", "alpha": 0.05}, _normal_es(0.05)),
    ({"kind": "ES", "alpha": 0.25}, _normal_es(0.25)),
    ({"kind": "SPECTRAL", "atoms": [[0.05, 0.5], [0.5, 0.25], [1.0, 0.25]]},
     0.5 * _normal_es(0.05) + 0.25 * _normal_es(0.5)),
], ids=["ES-0.05", "ES-0.25", "SPECTRAL"])
def test_frontier_on_a_gaussian_cell_csv_is_the_closed_form(gaussian_cell_csv, capsys,
                                                           risk, rho_z):
    path, sr = gaussian_cell_csv
    code = main(["frontier", "--market", path, "--risk", json.dumps(risk),
                 "--levels", "0,1,2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    closed = -1.0 + rho_z / sr           # rho1 of sigma (sr + Z) at r = 0
    assert code == EXIT_CODES["NO_ARBITRAGE"]
    assert abs(data["rho1"] - closed) <= 1e-9
    assert [pt["rho_nu"] for pt in data["points"]] == [0.0, data["rho1"], 2 * data["rho1"]]


# -- phase curve ---------------------------------------------------------------


def test_phase_curve_alpha_star_comment(capsys):
    code = main(["phase-curve", "--alphas", "0.01,0.1,0.5,0.9", "--sr", "2.5"])
    out = capsys.readouterr().out
    assert code == 0
    star_line = next(ln for ln in out.split("\n")
                     if ln.startswith("# alpha_star_es="))
    a_star = float(star_line.partition("=")[2])
    assert 0.0155 <= a_star <= 0.0165


def test_phase_curve_alpha_star_without_a_crossing(capsys):
    # Every threshold on the bracket of levels lies below sr = 20.
    assert main(["phase-curve", "--alphas", "0.1,0.5", "--sr", "20", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha_star_es"] is None and data["alpha_star_var"] is None
    assert main(["phase-curve", "--alphas", "0.1,0.5", "--sr", "20"]) == 0
    out = capsys.readouterr().out
    assert "# alpha_star_es=NA" in out and "# alpha_star_var=NA" in out


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


def test_analyze_unparsable_risk_is_an_error(duo_file, capsys):
    code = main(["analyze", "--market", duo_file, "--risk", '{"kind": "ES", "alpha"'])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: cannot parse risk spec:")


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


def test_elliptical_alpha_star_is_null_without_a_crossing(capsys):
    # SR_max = 20 lies above every ES threshold on the bracket of levels.
    code = main(["elliptical", "--mu", "2.0", "--sigma", "0.01", "--measure", "ES"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["sr_max"] == pytest.approx(20.0, rel=1e-12)
    assert data["alpha_star"] is None


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


# -- malformed input ------------------------------------------------------------

MALFORMED_MARKETS = {
    "no_assets.json": '{"riskless_rate": 0, "probs": [0.5, 0.5], "assets": []}',
    "long_returns.json": ('{"riskless_rate": 0, "probs": [0.5, 0.5], '
                          '"assets": [{"returns": [0.1, -0.1, 0.2]}]}'),
    "probs_2d.json": ('{"riskless_rate": 0, "probs": [[0.5, 0.5]], '
                      '"assets": [{"returns": [0.1, -0.1]}]}'),
    "prob_only.csv": "prob\n0.5\n0.5\n",
}
ES_HALF = '{"kind": "ES", "alpha": 0.5}'


def _malformed(tmp_path, name):
    path = tmp_path / name
    path.write_text(MALFORMED_MARKETS[name])
    return str(path)


@pytest.mark.parametrize("name", sorted(MALFORMED_MARKETS))
def test_market_of_the_wrong_shape_is_a_format_error(tmp_path, capsys, name):
    # No asset, a return row longer than probs, 2-D probs, or a CSV with
    # only the prob column: validate reports it, and analyze exits 1 with
    # one error line.
    path = _malformed(tmp_path, name)
    with pytest.raises(MarketFormatError, match="one probability per scenario"):
        load_market(path)
    code = main(["validate", "--market", path])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["valid"] is False and len(data["violations"]) == 1
    code = main(["analyze", "--market", path, "--risk", ES_HALF])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: market needs one probability per scenario")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("risk", ["[1]", '"ES"', "3"])
def test_risk_spec_that_is_not_an_object_is_an_error(duo_file, capsys, risk):
    with pytest.raises(ValueError, match="a risk spec is a JSON object"):
        RiskSpec.from_json_dict(json.loads(risk))
    code = main(["analyze", "--market", duo_file, "--risk", risk])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: cannot parse risk spec: a risk spec is a JSON object")


@pytest.mark.parametrize("tol, bad", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
@pytest.mark.parametrize("command", [
    ["analyze", "--market", "market.json", "--risk", ES_HALF],
    ["elliptical", "--mu", "0.2", "--sigma", "0.04"]], ids=["analyze", "elliptical"])
def test_tol_must_be_finite_and_non_negative(monkeypatch, capsys, command, tol, bad):
    # A NaN band turns a strong verdict into a disagreement and an infinite
    # one marks every verdict BOUNDARY; analyze rejects either before it
    # reads the market.
    def unread(*args, **kwargs):
        raise AssertionError("the market was read before --tol was checked")

    monkeypatch.setattr(rhoarb.cli, "load_market", unread)
    code = main(command + [f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --tol must be finite and >= 0, got {bad}\n"


def test_tol_zero_is_a_valid_band(tmp_path, capsys):
    path = tmp_path / "strong.json"
    path.write_text('{"riskless_rate": 0, "probs": [0.25, 0.25, 0.25, 0.25], '
                    '"assets": [{"returns": [0.3, 0.2, 0.25, -0.01]}]}')
    for tol in ([], ["--tol", "0"]):
        code = main(["analyze", "--market", str(path), "--risk", ES_HALF] + tol)
        data = json.loads(capsys.readouterr().out)
        assert code == 3 and data["verdict"] == "STRONG_RHO_ARBITRAGE"


SUBPROCESS_CASES = (
    [pytest.param("analyze", name, ES_HALF, None, id=name) for name in sorted(MALFORMED_MARKETS)]
    + [pytest.param("analyze", None, risk, None, id=f"risk={risk}") for risk in ("[1]", '"ES"')]
    + [pytest.param(command, None, ES_HALF, tol, id=f"{command}-tol={tol}")
       for command in ("analyze", "elliptical") for tol in ("nan", "inf", "-1")])


@pytest.mark.parametrize("command, market, risk, tol", SUBPROCESS_CASES)
def test_python_m_rhoarb_ends_malformed_input_with_one_error_line(tmp_path, duo_file, command,
                                                                  market, risk, tol):
    # The installed entry point, python -m rhoarb, in its own process: exit
    # 1, one error line on stderr, and no traceback.
    if command == "elliptical":
        argv = ["elliptical", "--mu", "0.2", "--sigma", "0.04"]
    else:
        path = _malformed(tmp_path, market) if market else duo_file
        argv = ["analyze", "--market", path, "--risk", risk]
    if tol is not None:
        argv.append(f"--tol={tol}")
    src = str(Path(rhoarb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "rhoarb"] + argv, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_main_builds_its_parser_once(monkeypatch, capsys):
    rhoarb.cli._shared_parser.cache_clear()
    built = []
    build = rhoarb.cli.build_parser
    monkeypatch.setattr(rhoarb.cli, "build_parser", lambda: built.append(1) or build())
    try:
        for _ in range(2):
            assert main(["phase-curve", "--alphas", "0.1,0.5"]) == 0
            assert main(["elliptical", "--mu", "0.2", "--sigma", "0.04"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["frontier", "--levels", "0,1"])  # --market missing
        assert err.value.code == 1
    finally:
        rhoarb.cli._shared_parser.cache_clear()
    assert built == [1]
    assert build_parser() is not build_parser()


def test_shared_parser_prints_what_fresh_parsers_print(duo_file, capsys, monkeypatch):
    # Each command's defaults come back on the next call: options given to
    # one call do not stay in the shared parser.
    runs = [["elliptical", "--mu", "0.2", "--sigma", "0.04", "--alpha", "0.3"],
            ["frontier", "--market", duo_file, "--risk", '{"kind": "WC"}', "--levels", "0,1",
             "--format", "json"],
            ["elliptical", "--mu", "0.2", "--sigma", "0.04"],
            ["frontier", "--market", duo_file, "--risk", '{"kind": "WC"}'],
            ["phase-curve", "--alphas", "0.1,0.5", "--sr", "2.5"],
            ["phase-curve"]]

    def outputs():
        got = []
        for argv in runs:
            code = main(argv)
            got.append((code, capsys.readouterr()))
        return got

    shared = outputs()
    monkeypatch.setattr(rhoarb.cli, "_shared_parser", build_parser)
    assert outputs() == shared
    assert len({out for _, (out, _) in shared}) == len(runs)


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
