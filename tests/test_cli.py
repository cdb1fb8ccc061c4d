"""Command-line interface: config parsing, table output, exit codes, determinism."""

import hashlib
import io
import json
import math

import pytest

from levypen import cli

BASE_CONFIG = """\
[model]
kind = brownian
sigma = 1.0

[params]
a = 0.0
b = 1.0
lambda_a = inf
lambda_b = inf
gamma = 0.0

[grid]
dt = 2e-3
horizon = 8.0

[mc]
n_paths = 200
seed = 4242
z = 3.0
censor_budget = 0.6

[output]
directory = out
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


def test_parse_config_round_trip():
    cfg = cli.parse_config(BASE_CONFIG)
    assert cfg.model.kind == "brownian"
    assert cfg.params.lambda_a == math.inf
    assert cfg.grid.eps == pytest.approx(5 * math.sqrt(2e-3))
    again = cli.parse_config(cfg.to_ini())
    assert again.to_ini() == cfg.to_ini()
    assert again.model == cfg.model and again.params == cfg.params
    assert again.grid == cfg.grid and again.seed == cfg.seed


def test_parse_config_errors():
    with pytest.raises(cli.ConfigError):
        cli.parse_config("[model]\nkind = warp-drive\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(BASE_CONFIG.replace("dt = 2e-3", "dt = banana"))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(BASE_CONFIG.replace("kind = brownian\nsigma = 1.0", "kind = stable"))
    with pytest.raises(cli.ConfigError) as err:
        cli.parse_config("[model\nbroken")
    assert "line" in str(err.value).lower()


def test_table_golden_column(config_file, capsys):
    code = cli.main(["table", "--config", str(config_file), "--x-grid=-1,0.5,2"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "x,h,h_gamma,phi,hitting_prob"
    phis = [float(line.split(",")[3]) for line in lines[1:]]
    assert phis == pytest.approx([1.0, 0.0, 1.0], abs=1e-6)


def test_table_empty_grid_header_only(config_file, capsys):
    code = cli.main(["table", "--config", str(config_file), "--x-grid", ""])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip() == "x,h,h_gamma,phi,hitting_prob"


def test_table_hitting_prob_at_the_point(config_file, capsys):
    code = cli.main(["table", "--config", str(config_file), "--x-grid", "0.0"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert float(row.split(",")[4]) == pytest.approx(1.0, abs=1e-9)


def test_table_non_finite_x_is_config_error(config_file, capsys):
    code = cli.main(["table", "--config", str(config_file), "--x-grid=nan"])
    assert code == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_table_linspace(config_file, capsys):
    code = cli.main(["table", "--config", str(config_file), "--x-linspace=-1,1,5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(","))


def test_verify_empty_selector_exit_zero(config_file, tmp_path, capsys):
    out_dir = tmp_path / "empty"
    code = cli.main(["verify", "--config", str(config_file), "--suite", "",
                     "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["reports"] == [] and doc["all_pass"] is True


def test_verify_unknown_selector_config_error(config_file, capsys):
    code = cli.main(["verify", "--config", str(config_file), "--suite", "bogus"])
    assert code == cli.EXIT_CONFIG


def test_verify_identities_deterministic(config_file, tmp_path):
    digests = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        code = cli.main(["verify", "--config", str(config_file),
                         "--suite", "identities", "--out", str(out_dir)])
        assert code == cli.EXIT_OK
        digests.append(hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_verify_seed_override_changes_report(config_file, tmp_path):
    docs = []
    for seed, sub in ((1, "a"), (2, "b")):
        out_dir = tmp_path / sub
        cli.main(["verify", "--config", str(config_file), "--suite", "identities",
                  "--seed", str(seed), "--out", str(out_dir)])
        docs.append((out_dir / "report.json").read_text())
    assert docs[0] != docs[1]


def test_missing_config_is_config_error(tmp_path, capsys):
    code = cli.main(["verify", "--config", str(tmp_path / "nope.ini")])
    assert code == cli.EXIT_CONFIG


def test_verify_limits_suite_smoke(config_file, tmp_path):
    out_dir = tmp_path / "lim"
    code = cli.main(["verify", "--config", str(config_file), "--suite", "limits",
                     "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    doc = json.loads((out_dir / "report.json").read_text())
    assert all(r["name"].startswith("limit:exponential") for r in doc["reports"])
    assert doc["all_pass"] is True


def test_verify_martingales_suite_smoke(config_file, tmp_path):
    out_dir = tmp_path / "mart"
    code = cli.main(["verify", "--config", str(config_file), "--suite", "martingales",
                     "--out", str(out_dir)])
    assert code == cli.EXIT_OK


def test_verify_inverse_clock_suite_reports_known_drift(config_file, tmp_path):
    # the reference process of this suite carries an uncompensated drift;
    # the harness resolves it and the suite exits with a check failure
    out_dir = tmp_path / "inv"
    code = cli.main(["verify", "--config", str(config_file),
                     "--suite", "inverse-clock", "--out", str(out_dir)])
    doc = json.loads((out_dir / "report.json").read_text())
    assert code == cli.EXIT_CHECK_FAILED
    assert any(not r["pass"] for r in doc["reports"])
    assert all(r["estimate"] > 1.0 for r in doc["reports"])


def test_simulate_first_row_and_determinism(config_file, tmp_path):
    out_dir = tmp_path / "paths"
    code = cli.main(["simulate", "--config", str(config_file), "-n", "2",
                     "--out", str(out_dir)])
    assert code == 0
    files = sorted(out_dir.glob("path_*.csv"))
    assert len(files) == 2
    header, first, *_ = files[0].read_text().splitlines()
    assert header.startswith("time,value,lt_")
    cells = first.split(",")
    assert float(cells[0]) == 0.0 and float(cells[1]) == 0.0
    assert all(float(v) == 0.0 for v in cells[2:])
    # the path index salts the stream: files differ
    assert files[0].read_text() != files[1].read_text()
    # re-running reproduces the dumps byte for byte
    first_hash = hashlib.sha256(files[0].read_bytes()).hexdigest()
    out_dir2 = tmp_path / "paths2"
    cli.main(["simulate", "--config", str(config_file), "-n", "2",
              "--out", str(out_dir2)])
    assert hashlib.sha256((out_dir2 / "path_0000.csv").read_bytes()).hexdigest() == first_hash


def test_simulate_bad_count(config_file, tmp_path):
    code = cli.main(["simulate", "--config", str(config_file), "-n", "0",
                     "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_CONFIG


def test_estimate_h_json(config_file, tmp_path, capsys):
    cfg_text = BASE_CONFIG.replace("lambda_a = inf", "lambda_a = 1.0")
    cfg_text = cfg_text.replace("lambda_b = inf", "lambda_b = 1.0")
    cfg_text = cfg_text.replace("a = 0.0", "a = 1.0").replace("b = 1.0", "b = 2.0")
    path = tmp_path / "h.ini"
    path.write_text(cfg_text)
    out_dir = tmp_path / "est"
    code = cli.main(["estimate-h", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "decay_rate.json").read_text())
    assert set(doc) >= {"estimate", "stderr", "u_grid", "residuals"}
    assert doc["estimate"] >= 0.0


def test_cmd_table_full_precision(config_file):
    cfg = cli.parse_config(BASE_CONFIG)
    buf = io.StringIO()
    cli.cmd_table(cfg, [1.0 / 3.0], buf)
    row = buf.getvalue().splitlines()[1]
    x_cell = row.split(",")[0]
    assert float(x_cell) == 1.0 / 3.0  # round-trip precision
