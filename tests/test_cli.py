import math
import re
from pathlib import Path

import pytest

from d2dcache import Scheme, default_config, zipf_popularity
from d2dcache.cli import (
    CSV_HEADER,
    ConfigError,
    _suite_quadrature_vs_mc,
    build_parser,
    main,
    parse_config,
)

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
DEFAULT_CFG = str(REPO / "demos" / "default.cfg")
# Edits of the default config, which the test writes next to the runs'
# directories and CI makes with sed:
# - long.cfg, long contents with few of them (F=2, L=40, M=10): the largest
#   packet budget exceeds F at both mu values, so Monte Carlo draws counts
#   content by content;
# - wide.cfg, many contents (F=80, L=64): the counts cap at 18 levels at
#   mu=1, above LEVEL_LOOP_MAX, and at 9 at mu=2, so Monte Carlo draws counts
#   content by content at one grid point and level by level at the other;
# - l47.cfg, F=3, L=47, M=40, lambda=12: the delivered-packet dots are one
#   term short of a multiple of 16, where the summation order of a dot changes.
EDITED_CONFIGS = {
    "long.cfg": {"F": "2", "L": "40", "M": "10"},
    "wide.cfg": {"F": "80", "L": "64"},
    "l47.cfg": {"F": "3", "L": "47", "M": "40", "lambda": "12"},
}

# The README's four commands, optimize with every method on the default
# config and on L=47, a sweep over lambda, which pins that memoized Poisson
# windows follow the mean, and four Monte Carlo sweeps over mu, which pin each
# grid point's seed: one on the default config, one on long contents, one on
# many contents and one of 30,000 trials, whose blocks are counted in several
# passes.
# Their golden outputs were written by running each command alone in a fresh
# process.
README_RUNS = {
    "eval": ["eval", "--config", DEFAULT_CFG, "--placement", "5,0,0,0,0",
             "--out", "eval.csv"],
    "optimize": ["optimize", "--config", DEFAULT_CFG, "--methods", "greedy,exhaustive",
                 "--schemes", "both"],
    "sweep": ["sweep", "--config", DEFAULT_CFG, "--axis", "snr_db",
              "--values", "0,5,10,15,20,25,30,35,40",
              "--methods", "greedy,exhaustive", "--schemes", "both", "--out", "sweep.csv"],
    "validate": ["validate", "--config", DEFAULT_CFG],
    "optimize_all": ["optimize", "--config", DEFAULT_CFG,
                     "--methods", "greedy,exhaustive,high_mobility", "--schemes", "both"],
    "sweep_lambda": ["sweep", "--config", DEFAULT_CFG, "--axis", "lambda",
                     "--values", "0.5,1,2,4", "--methods", "greedy,exhaustive,high_mobility",
                     "--schemes", "both", "--out", "sweep_lambda.csv"],
    "sweep_mc": ["sweep", "--config", DEFAULT_CFG, "--axis", "mu", "--values", "1,4",
                 "--methods", "greedy,monte_carlo,high_mobility", "--schemes", "both",
                 "--trials", "500", "--seed", "9", "--out", "sweep_mc.csv"],
    "sweep_mc_long": ["sweep", "--config", "../long.cfg", "--axis", "mu",
                      "--values", "0.25,1", "--methods", "greedy,monte_carlo",
                      "--trials", "2000", "--out", "sweep_mc_long.csv"],
    "sweep_mc_wide": ["sweep", "--config", "../wide.cfg", "--axis", "mu",
                      "--values", "1,2", "--methods", "greedy,monte_carlo",
                      "--trials", "200", "--out", "sweep_mc_wide.csv"],
    "sweep_mc_many": ["sweep", "--config", DEFAULT_CFG, "--axis", "mu", "--values", "0.25,1",
                      "--methods", "greedy,monte_carlo", "--schemes", "both",
                      "--trials", "30000", "--seed", "3", "--out", "sweep_mc_many.csv"],
    "optimize_l47": ["optimize", "--config", "../l47.cfg",
                     "--methods", "greedy,exhaustive,high_mobility", "--schemes", "both"],
}

GOOD_CONFIG = """\
# benchmark scenario
F=5
gamma=0.6
L=5
M=5
eta=0.5
lambda=1
mu=1
tau_db=5
radius=5
alpha=4
snr_db=20
scheme=orthogonal
n_trunc_epsilon=1e-9
quad_nodes=64
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestParseConfig:
    def test_full_roundtrip(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.F == 5 and cfg.L == 5 and cfg.M == 5
        assert cfg.lam == 1.0
        assert cfg.tau == pytest.approx(10 ** 0.5)
        assert cfg.snr == pytest.approx(100.0)
        assert cfg.scheme is Scheme.ORTHOGONAL

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("F=5\nbogus=1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus"):
            parse_config(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("F=5\nF=6\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(str(path))

    def test_db_and_linear_conflict(self, tmp_path, config_path):
        path = tmp_path / "conflict.cfg"
        path.write_text(GOOD_CONFIG + "tau=3.16\n")
        with pytest.raises(ConfigError, match="tau"):
            parse_config(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "missing.cfg"
        path.write_text("F=5\n")
        with pytest.raises(ConfigError, match="missing"):
            parse_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "mal.cfg"
        path.write_text("F 5\n")
        with pytest.raises(ConfigError, match=r"mal\.cfg:1"):
            parse_config(str(path))

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "range.cfg"
        path.write_text(GOOD_CONFIG.replace("eta=0.5", "eta=1.5"))
        with pytest.raises(ConfigError):
            parse_config(str(path))


class TestGridInputs:
    def test_unknown_axis_is_an_argparse_error(self, tmp_path, config_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", config_path, "--axis", "power", "--values", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_optimize_is_one_point_of_the_snr_sweep(self, tmp_path, monkeypatch):
        # demos/default.cfg sets snr_db=20, so both commands evaluate one point
        monkeypatch.chdir(tmp_path)
        common = ["--config", DEFAULT_CFG, "--methods", "greedy,exhaustive,high_mobility",
                  "--schemes", "both"]
        assert main(["optimize", *common, "--out", "opt.csv"]) == 0
        assert main(["sweep", "--axis", "snr_db", "--values", "20", *common,
                     "--out", "sweep.csv"]) == 0
        assert (tmp_path / "opt.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


class TestEvalCommand:
    def test_no_neighbor_load(self, tmp_path, config_path):
        # lambda=0: BS serves everything the typical user does not cache
        path = tmp_path / "idle.cfg"
        path.write_text(GOOD_CONFIG.replace("lambda=1", "lambda=0"))
        out = str(tmp_path / "eval.csv")
        rc = main(["eval", "--config", str(path), "--placement", "5,0,0,0,0",
                   "--out", out])
        assert rc == 0
        header, row = open(out).read().splitlines()
        assert header == CSV_HEADER
        load = float(row.split(",")[4])
        f = zipf_popularity(5, 0.6)
        assert load == pytest.approx(float(f[1:].sum() * 5), abs=1e-9)
        manifest = open(out + ".manifest").read()
        assert "placement=5,0,0,0,0" in manifest
        assert "d2dcache_version=" in manifest

    def test_bad_placement(self, config_path, tmp_path):
        rc = main(["eval", "--config", config_path, "--placement", "9,0,0,0,0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSweepCommand:
    def test_fig2_shaped_table(self, tmp_path, config_path):
        out = str(tmp_path / "sweep.csv")
        rc = main(["sweep", "--config", config_path, "--axis", "snr_db",
                   "--values", "0,20,40", "--methods", "greedy,exhaustive",
                   "--schemes", "both", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2 * 2
        for line in lines[1:]:
            axis, value, scheme, method, load, load_norm, bound, seed = line.split(",")
            assert axis == "snr_db"
            assert scheme in ("orthogonal", "non_orthogonal")
            assert method in ("greedy", "exhaustive")
            assert float(load_norm) == pytest.approx(float(load) / 5, rel=1e-10)
            assert float(bound) >= 0.0

    def test_identical_runs_identical_bytes(self, tmp_path, config_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            rc = main(["sweep", "--config", config_path, "--axis", "mu",
                       "--values", "1,4", "--methods", "greedy,monte_carlo",
                       "--schemes", "orthogonal", "--trials", "500",
                       "--seed", "9", "--out", out])
            assert rc == 0
            outs.append(out)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        assert (open(outs[0] + ".manifest", "rb").read()
                == open(outs[1] + ".manifest", "rb").read())

    def test_readme_sweep_builds_one_scenario_per_budget_table(self, tmp_path, monkeypatch):
        # its 18 (snr, scheme) points read 10 distinct packet-budget tables:
        # one for 0-15 dB, where every budget is 0 under both schemes, one
        # for both schemes at 25 dB, and one per scheme at 20 and 30-40 dB
        from d2dcache import load

        monkeypatch.chdir(tmp_path)
        load._build_scenario.cache_clear()
        assert main(README_RUNS["sweep"]) == 0
        assert load._build_scenario.cache_info().misses == 10

    def test_decreasing_values_rejected(self, tmp_path, config_path):
        rc = main(["sweep", "--config", config_path, "--axis", "mu",
                   "--values", "4,1", "--methods", "greedy",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("args", [
        ["sweep", "--axis", "mu", "--values", "0,1"],
        ["sweep", "--axis", "snr_db", "--values", "nan"],
        ["sweep", "--axis", "snr_db", "--values", "abc"],
        ["sweep", "--axis", "snr_db", "--values", "10", "--methods", "monte_carlo",
         "--trials", "0"],
        ["optimize", "--schemes", "bogus"],
        ["sweep", "--axis", "snr_db", "--values", "10", "--methods", "monte_carlo",
         "--seed", "-1"],
        ["validate", "--seed", "-5"],
        pytest.param(["sweep", "--axis", "snr_db", "--values", "0,10", "--methods", ""],
                     id="empty_methods"),
        pytest.param(["sweep", "--axis", "snr_db", "--values", "0,10",
                      "--methods", "annealing"], id="unknown_method"),
        pytest.param(["optimize", "--methods", "greedy,annealing"],
                     id="optimize_unknown_method"),
        pytest.param(["sweep", "--axis", "snr_db", "--values", "0,10", "--schemes", "fdma"],
                     id="unknown_scheme"),
        pytest.param(["sweep", "--axis", "snr_db", "--values", ""], id="empty_values"),
        pytest.param(["sweep", "--axis", "snr_db", "--values", "10,0"],
                     id="decreasing_values"),
        pytest.param(["sweep", "--axis", "mu", "--values", "1,1.0000000000001"],
                     id="values_colliding_at_12_digits"),
    ])
    def test_bad_input_is_one_line_on_stderr(self, args, tmp_path, config_path, capsys):
        # validate writes no CSV and takes no --out
        out = [] if args[0] == "validate" else ["--out", str(tmp_path / "x.csv")]
        rc = main(args + ["--config", config_path] + out)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "x.csv").exists()
        assert captured.out == ""

    def test_lambda_axis_monotone_load(self, tmp_path, config_path):
        # more incoming neighbors can only lower the optimized load
        out = str(tmp_path / "lam.csv")
        rc = main(["sweep", "--config", config_path, "--axis", "lambda",
                   "--values", "0,1,2,4", "--methods", "greedy",
                   "--schemes", "non_orthogonal", "--out", out])
        assert rc == 0
        loads = [float(line.split(",")[4]) for line in
                 open(out).read().splitlines()[1:]]
        assert len(loads) == 4
        assert all(b <= a + 1e-12 for a, b in zip(loads, loads[1:]))

    def test_capacity_errors_surface_verbatim(self, tmp_path, capsys, monkeypatch):
        # F*(min(L,M)+1)*(M+1) = 1000*21*20001 DP steps: the exact search
        # must refuse before building any shortfall table
        from d2dcache import load

        def no_tables(*args):
            raise AssertionError("tables built before the capacity check")

        monkeypatch.setattr(load, "shortfall_tables", no_tables)
        path = tmp_path / "big.cfg"
        path.write_text(GOOD_CONFIG.replace("F=5", "F=1000").replace("L=5", "L=20")
                        .replace("M=5", "M=20000"))
        rc = main(["sweep", "--config", str(path), "--axis", "snr_db",
                   "--values", "0,10", "--methods", "exhaustive",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "exact placement search needs 420021000 steps, above the cap 100000000\n")

    @pytest.mark.parametrize("edits", [
        pytest.param({"lambda=1": "lambda=1e9"}, id="poisson_window"),
        pytest.param({"F=5": "F=1000000", "L=5": "L=50"}, id="table_entries"),
    ])
    def test_config_above_a_cap_is_one_line_on_stderr(self, edits, tmp_path, capsys):
        assert "cap" in self._refused_optimize(edits, tmp_path, capsys)

    @pytest.mark.parametrize("edits", [
        pytest.param({"radius=5": "radius=1e300"}, id="radius_squared_inf"),
        pytest.param({"radius=5": "radius=1e-300"}, id="radius_squared_zero"),
    ])
    def test_extreme_channel_is_one_line_on_stderr(self, edits, tmp_path, capsys):
        self._refused_optimize(edits, tmp_path, capsys)

    def test_powers_below_the_float_range_finish(self, tmp_path, capsys):
        # alpha=120: x**alpha and r**alpha underflow at the quadrature nodes,
        # the ratio r/x they are read through does not
        path = tmp_path / "alpha.cfg"
        path.write_text(GOOD_CONFIG.replace("alpha=4", "alpha=120")
                        .replace("scheme=orthogonal", "scheme=non_orthogonal"))
        out = tmp_path / "x.csv"
        rc = main(["optimize", "--config", str(path), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        loads = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
        assert loads and all(math.isfinite(load) for load in loads)

    @staticmethod
    def _refused_optimize(edits, tmp_path, capsys):
        """stderr of an optimize run on GOOD_CONFIG with ``edits``, which
        must exit 1 with one line there and write no CSV."""
        text = GOOD_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "edited.cfg"
        path.write_text(text)
        rc = main(["optimize", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
        return err


class TestOptimizeCommand:
    def test_each_scheme_builds_tables_and_budget_once(self, tmp_path, config_path,
                                                       monkeypatch):
        from d2dcache import load, optimize

        calls = {"shortfall_tables": 0, "build_link_budget": 0}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (load, optimize):   # every namespace that binds them
            for name in calls:
                if hasattr(module, name):
                    count(module, name)
        load._build_scenario.cache_clear()
        load.link_budget_for.cache_clear()
        rc = main(["optimize", "--config", config_path,
                   "--methods", "greedy,exhaustive,high_mobility", "--schemes", "both",
                   "--out", str(tmp_path / "opt.csv")])
        assert rc == 0
        assert calls == {"shortfall_tables": 2, "build_link_budget": 2}

    def test_noma_optimize_makes_one_quadrature_pass(self, tmp_path, monkeypatch):
        from d2dcache import channel, cli, load, optimize

        calls = []
        for module in (channel, load, optimize, cli):   # every namespace that binds it
            if hasattr(module, "success_probability"):
                original = module.success_probability

                def counted(*args, _original=original, **kwargs):
                    calls.append(args[0])
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, "success_probability", counted)
        load._build_scenario.cache_clear()
        load.link_budget_for.cache_clear()
        rc = main(["optimize", "--config", DEFAULT_CFG,
                   "--methods", "greedy,high_mobility", "--schemes", "non_orthogonal",
                   "--out", str(tmp_path / "opt.csv")])
        assert rc == 0
        # one array call builds the config's packet budgets; the high-mobility
        # delivery mean is a closed form over the quadrature nodes
        assert len(calls) == 1

    def test_writes_placements(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "opt.csv")
        rc = main(["optimize", "--config", config_path,
                   "--methods", "greedy,exhaustive", "--schemes", "orthogonal",
                   "--out", out])
        assert rc == 0
        manifest = open(out + ".manifest").read()
        assert "placement_greedy_orthogonal=" in manifest
        assert "placement_exhaustive_orthogonal=" in manifest
        stdout = capsys.readouterr().out
        assert "greedy" in stdout and "load=" in stdout

    def test_monte_carlo_not_an_optimizer(self, tmp_path, config_path):
        rc = main(["optimize", "--config", config_path,
                   "--methods", "monte_carlo", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestZipfTailUnderflow:
    """gamma=1000 on the default config: the Zipf tail underflows to zero
    popularity, which every config check accepts, so every command runs."""

    @pytest.fixture
    def gamma_path(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        path.write_text(re.sub(r"^gamma=.*$", "gamma=1000", Path(DEFAULT_CFG).read_text(),
                               flags=re.MULTILINE))
        return str(path)

    def test_optimize_places_every_packet_on_the_first_content(self, gamma_path, tmp_path,
                                                               capsys):
        rc = main(["optimize", "--config", gamma_path,
                   "--methods", "greedy,exhaustive,high_mobility", "--schemes", "both",
                   "--out", str(tmp_path / "opt.csv")])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert re.findall(r"placement=\[(\S+)\]", out) == ["5,0,0,0,0"] * 6

    def test_monte_carlo_sweep(self, gamma_path, tmp_path, capsys):
        rc = main(["sweep", "--config", gamma_path, "--axis", "mu", "--values", "1,4",
                   "--methods", "greedy,monte_carlo", "--trials", "500",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        assert capsys.readouterr().err == ""


def test_validate_command(config_path):
    assert main(["validate", "--config", config_path, "--seed", "3"]) == 0


def test_quadrature_suite_at_certain_success():
    # u=1 succeeds in every MC trial here, so the MC standard error is 0; the
    # Wilson interval keeps a width and contains the quadrature value
    ok, detail = _suite_quadrature_vs_mc(default_config(quad_nodes=8, alpha=2.0, snr=1e8), 0)
    assert ok, detail


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_readme_commands_match_golden_bytes(tmp_path, monkeypatch, capsys):
    # all commands run back to back in this one process, so the shared parser
    # and the memoized scenarios must not carry state from one to the next
    for name, edits in EDITED_CONFIGS.items():
        text = Path(DEFAULT_CFG).read_text()
        for key, value in edits.items():
            text = re.sub(rf"^{key}=.*$", f"{key}={value}", text, flags=re.MULTILINE)
        (tmp_path / name).write_text(text)
    for name, argv in README_RUNS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(argv) == 0, name
        # golden files are <name>.stdout, <name>.csv and <name>.csv.manifest
        golden = {p.name[len(name) + 1:]: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
        assert capsys.readouterr().out.encode() == golden.pop("stdout"), name
        written = {p.name.split(".", 1)[1]: p.read_bytes() for p in workdir.iterdir()}
        assert written == golden, name


def test_golden_runs_agree_with_ci_and_demos():
    # a golden run is listed twice, in README_RUNS and in CI's console-script
    # step, and each demo has a golden stdout; neither list may drift
    assert {p.name.split(".", 1)[0] for p in GOLDEN.iterdir() if p.is_file()} <= set(README_RUNS)
    ci = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    for written in [*(f"{name}.stdout" for name in README_RUNS), *EDITED_CONFIGS]:
        assert re.search(rf"> {re.escape(written)}\s", ci), written
    assert ({p.stem for p in (GOLDEN / "demos").glob("*.stdout")}
            == {p.stem for p in (REPO / "demos").glob("*.py")})
