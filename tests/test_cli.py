import json
import os
import pathlib
import re

import numpy as np
import pytest

from multiphase import (UNIT_SQUARE, check_h2, check_h3, cli, first_eigenvalue,
                        structured_mesh)
from multiphase.operator import PhaseDiscretization
from multiphase.cli import (ConfigError, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                            build_domain, build_phase, build_source,
                            load_config, main, _ball_family)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def readme_block(title, lang):
    """The first fenced `lang` block after the README line `title:`."""
    after = README.read_text(encoding="utf-8").split(f"\n{title}:\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def read_csv(path):
    """The rows of a CSV artifact as dicts, below its hash and header lines."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


BASE_CFG = {
    "p": {"const": 1.8},
    "q": {"const": 1.9},
    "r": {"const": 2.0},
    "mu1": {"const": 1.0},
    "mu2": {"const": 1.0},
    "mesh_n": 8,
    "source": {"expr": "sin(3.14159*x1)*sin(3.14159*x2)"},
}


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        cfg = load_config(path)
        assert cfg["mesh_n"] == 8

    def test_unknown_top_key(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE_CFG, "mystery": 1})
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_solver_key(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE_CFG, "solver": {"tolerance": 1}})
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(path)

    def test_malformed_json_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"p": }')
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_readme_key_table_matches_schema(self):
        """The README's key table names exactly the keys load_config accepts,
        the dotted keys of the schema."""
        text = README.read_text(encoding="utf-8")
        after = text.split("Config keys that `load_config` accepts")[1]
        rows = []
        for line in after.splitlines()[1:]:
            if line.startswith("|"):
                rows.append(line)
            elif rows:
                break
        listed = {k for row in rows for k in re.findall(r"`([^`]+)`",
                                                        row.split("|")[1])}
        assert listed == set(cli._SCHEMA)

    def test_readme_quick_example_runs(self, capsys):
        code = compile(readme_block("Quick example", "python"), "README.md", "exec")
        exec(code, {})
        converged, iterations = capsys.readouterr().out.split()
        assert converged == "True" and int(iterations) > 0

    def test_readme_minimal_config_solves(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(readme_block("Minimal config", "json"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "solve"]) == EXIT_OK


class TestBuilders:
    def test_default_domain(self):
        dom = build_domain({})
        assert dom.area == pytest.approx(1.0)

    def test_polygon_domain(self):
        dom = build_domain({"domain": {"polygon": [[0, 0], [2, 0], [1, 1]]}})
        assert dom.area == pytest.approx(1.0)

    def test_bad_domain(self):
        with pytest.raises(ConfigError):
            build_domain({"domain": "circle"})

    def test_phase_defaults(self):
        tf = build_phase({}, build_domain({}))
        assert tf.exp.p_minus == pytest.approx(2.0)
        assert tf.w.sup_mu1 == 0.0

    def test_source_constants_carried(self):
        src = build_source({"source": {"const": 1.0, "k3": 0.1, "k4": 0.2}})
        assert src.constants == {"k3": 0.1, "k4": 0.2}
        assert not src.grad_dependent

    def test_grad_coeff_marks_dependent(self):
        src = build_source({"source": {"grad_coeff": [0.1, 0.0]}})
        assert src.grad_dependent

    def test_default_ball_family_twenty_pairs(self):
        fam = _ball_family({})
        assert len(fam.pairing) == 20

    def test_configured_ball_pairs(self):
        cfg = {"probe": {"ball_pairs": [
            {"center": [0.5, 0.5], "r1": 0.1, "r2": 0.3}]}}
        fam = _ball_family(cfg)
        assert len(fam.pairing) == 1
        assert fam.balls[1].radius == 0.3


class TestMain:
    def test_check_hypotheses_pass(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        code = main(["--config", path, "--out", str(tmp_path / "out"),
                     "check-hypotheses"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "H1" in out and "Hprime" in out

    def test_check_hypotheses_fail(self, tmp_path):
        cfg = {**BASE_CFG, "p": {"const": 2.0}, "q": {"const": 2.0},
               "r": {"const": 2.0}}  # equalities violate H1
        path = write_cfg(tmp_path, cfg)
        code = main(["--config", path, "--out", str(tmp_path / "out"),
                     "check-hypotheses"])
        assert code == EXIT_FAIL

    def test_solve_writes_artifacts(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out), "solve"])
        assert code == EXIT_OK
        assert (out / "solution.vtk").exists()
        assert (out / "convergence.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "solution.vtk" in manifest["outputs"]
        assert "solve" in manifest["stage_seconds"]

    @pytest.mark.parametrize("cfg", [BASE_CFG, {"mesh_n": 1.5}],
                             ids=["solve", "config-error"])
    def test_manifest_records_peak_rss(self, tmp_path, monkeypatch, cfg):
        """Every manifest records the process's peak resident set in MB,
        ru_maxrss in KiB, and null where the resource module is missing."""
        resource = pytest.importorskip("resource")
        path = write_cfg(tmp_path, cfg)
        main(["--config", path, "--out", str(tmp_path / "out"), "solve"])
        peak = json.loads((tmp_path / "out" / "manifest.json").read_text())[
            "peak_rss_mb"]
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert isinstance(peak, float) and 10 < peak <= after
        monkeypatch.setattr(cli, "resource", None)
        main(["--config", path, "--out", str(tmp_path / "none"), "solve"])
        manifest = json.loads((tmp_path / "none" / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] is None

    def test_csv_has_config_hash(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        main(["--config", path, "--out", str(out), "solve"])
        text = (out / "convergence.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert text.splitlines()[0] == f"# config_hash={manifest['config_hash']}"

    def test_eigen(self, tmp_path, capsys):
        cfg = {"mesh_n": 8, "refinements": 1, "eigen_m": 2.0}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out), "eigen"])
        assert code == EXIT_OK
        rows = (out / "eigenvalues.csv").read_text().splitlines()
        assert len(rows) == 2 + 2  # hash + header + two refinement levels
        lam = [float(r.split(",")[1]) for r in rows[2:]]
        assert lam[0] > lam[1] > 2 * np.pi ** 2

    def test_verify_modular(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out), "verify-modular"])
        assert code == EXIT_OK
        assert (out / "modular_checks.csv").exists()

    def test_probe_caccioppoli(self, tmp_path, capsys):
        cfg = {**BASE_CFG, "dirichlet": {"expr": "sin(3.14159*x1)*x2"}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out),
                     "probe", "caccioppoli"])
        assert code == EXIT_OK
        text = (out / "probe_caccioppoli.csv").read_text()
        assert len(text.splitlines()) == 22  # hash + header + 20 pairs

    def test_probe_poincare_w0(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out),
                     "probe", "poincare-w0"])
        assert code == EXIT_OK
        text = (out / "probe_poincare-w0.csv").read_text()
        assert len(text.splitlines()) == 22  # hash + header + 20 samples

    def test_probe_sobolev_poincare(self, tmp_path):
        cfg = {"p": {"const": 2.0}, "q": {"const": 3.0}, "r": {"const": 3.0},
               "mu1": {"const": 1.0}, "mu2": {"const": 0.0}, "mesh_n": 32,
               "solver": {"eps": 0.0}, "probe": {"delta": 0.5},
               "dirichlet": {"expr": "sin(3.14159*x1)*x2"}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out),
                     "probe", "sobolev-poincare"]) == EXIT_OK
        rows = read_csv(out / "probe_sobolev-poincare.csv")
        assert len(rows) == 20
        ratios = np.array([float(row["ratio"]) for row in rows])
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
        assert all(float(row["param"]) == 0.5 for row in rows)

    def test_check_hypotheses_growth_constants(self, tmp_path):
        """With k3 ... k6 the H2 and H3 margins join the manifest, from the
        first eigenvalues for m = p- and m = 2 on the mesh_n mesh."""
        cfg = {**BASE_CFG, "p": {"const": 1.5}, "q": {"const": 1.8},
               "r": {"const": 2.2},
               "source": {**BASE_CFG["source"],
                          "k3": 0.1, "k4": 0.1, "k5": 0.1, "k6": 0.1}}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", path, "--out", str(out),
                     "check-hypotheses"]) == EXIT_OK
        rows = {h["name"]: h for h in
                json.loads((out / "manifest.json").read_text())["hypotheses"]}
        mesh = structured_mesh(UNIT_SQUARE, BASE_CFG["mesh_n"])
        src = build_source(cfg)
        h2 = check_h2(src, first_eigenvalue(mesh, 1.5)[0])
        h3 = check_h3(src, first_eigenvalue(mesh, 2.0)[0])
        for rep in (h2, h3):
            assert rows[rep.name]["margin"] == rep.margin
            assert rows[rep.name]["passed"] == bool(rep.passed)

    def test_seed_flag_overrides_config(self, tmp_path):
        runs = []

        def ratios(cfg, *flags):
            path = write_cfg(tmp_path, cfg)
            out = tmp_path / f"out{len(runs)}"
            assert main(["--config", path, "--out", str(out), *flags,
                         "probe", "poincare-w0"]) == EXIT_OK
            runs.append([row["ratio"]
                         for row in read_csv(out / "probe_poincare-w0.csv")])
            return runs[-1]

        seed0 = ratios({**BASE_CFG, "seed": 0})
        seed5 = ratios({**BASE_CFG, "seed": 0}, "--seed", "5")
        assert seed5 != seed0
        assert seed5 == ratios({**BASE_CFG, "seed": 5})

    def test_probe_d_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**BASE_CFG, "probe": {"d": 0.5}})
        code = main(["--config", path, "--out", str(tmp_path / "out"),
                     "probe", "poincare-w0"])
        assert code == EXIT_USAGE
        assert "'d'" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, message", [
        ({"center": [0.5, 0.5], "r1": 0.1}, "KeyError"),
        ({"center": [0.5, 0.5], "r1": 0.2, "r2": 0.2}, "R1 < R2"),
        ({"center": [0.5, 0.5], "r1": "wide", "r2": 0.2}, "r1 must be a number"),
        ({"center": [0.5, 0.5], "r1": -0.1, "r2": 0.2}, "radius must be positive"),
        ({"center": [0.5], "r1": 0.1, "r2": 0.2}, "center must be two finite"),
        (0.1, "TypeError"),
        ({"center": [0.5, 0.5, 7], "r1": 0.1, "r2": 0.2},
         "center must be two finite numbers, got [0.5, 0.5, 7]"),
        ({"center": [float("nan"), 0.5], "r1": 0.1, "r2": 0.2},
         "center must be two finite numbers, got [nan, 0.5]"),
        ({"center": [0.5, float("inf")], "r1": 0.1, "r2": 0.2},
         "center must be two finite numbers, got [0.5, inf]"),
        ({"center": [0.5, 0.5], "r1": 0.1, "r2": 0.2, "r3": 5},
         "unknown key(s) in a ball pair: ['r3']"),
        ([[0.5, 0.5], 0.1, 0.2], "a ball pair must be an object"),
    ], ids=["missing_r2", "r1_not_below_r2", "non_numeric", "negative",
            "short_center", "not_an_object", "three_entry_center", "nan_center",
            "infinite_center", "extra_key", "list_pair"])
    def test_malformed_ball_pair_exit_usage(self, tmp_path, capsys, pair, message):
        path = write_cfg(tmp_path, {**BASE_CFG, "probe": {"ball_pairs": [pair]}})
        code = main(["--config", path, "--out", str(tmp_path / "out"),
                     "probe", "caccioppoli"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error: probe.ball_pairs" in err and message in err

    def test_probe_without_ratios_fails(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE_CFG, "probe": {"ball_pairs": []}})
        code = main(["--config", path, "--out", str(tmp_path / "out"),
                     "probe", "caccioppoli"])
        assert code == EXIT_FAIL

    def test_threads_flag_removed(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["--config", path, "--threads", "2", "solve"]) == EXIT_USAGE

    def test_unknown_key_exit_usage(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE_CFG, "bogus": True})
        assert main(["--config", path, "--out", str(tmp_path / "out"),
                     "solve"]) == EXIT_USAGE

    def test_missing_file_exit_usage(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "solve"]) == EXIT_USAGE

    def test_bad_subcommand_exit_usage(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["--config", path, "frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("m, code, error", [
        (1.05, EXIT_FAIL, "RuntimeError: inverse power step"),
        (1.0, EXIT_USAGE, "config error: eigen_m must exceed 1"),
    ], ids=["numeric", "config"])
    def test_failed_command_writes_manifest(self, tmp_path, capsys, m, code,
                                            error):
        """A command that raises still leaves a manifest naming the error."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {"eigen_m": m, "mesh_n": 16})
        assert main(["--config", path, "--out", str(out), "eigen"]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(error)
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["outputs"] == []
        # the stage that raised is timed; a config error comes before it
        stages = manifest["stage_seconds"]
        if code == EXIT_FAIL:
            assert list(stages) == ["eigen"] and stages["eigen"] > 0
        else:
            assert stages == {}

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_refinements_exit_usage(self, tmp_path, capsys, k):
        """A negative refinement count is a config error naming the key, not
        an UnboundLocalError from a ladder that never ran."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {"refinements": k, "mesh_n": 4})
        assert main(["--config", path, "--out", str(out), "eigen"]) == EXIT_USAGE
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error == f"config error: refinements must be >= 0, got {k}"
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tol_exit_usage(self, tmp_path, capsys, tol):
        """A solver.tol that is not a positive finite number (JSON reads NaN
        and Infinity) is a config error naming the key, not the solver's
        ValueError from inside the solve stage."""
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {"mesh_n": 4, "solver": {"tol": tol}})
        assert main(["--config", path, "--out", str(out), "solve"]) == EXIT_USAGE
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error == f"config error: solver.tol must be a positive finite number, got {tol}"
        assert error in capsys.readouterr().err

    def test_successful_command_has_no_error(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, {"mesh_n": 4})
        assert main(["--config", path, "--out", str(out), "eigen"]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["error"] is None


class TestConfigKeys:
    """Every key of the strict schema is read; keys nothing read are gone."""

    @pytest.mark.parametrize("cfg", [
        {**BASE_CFG, "probe": {"balls": []}},
        {**BASE_CFG, "source": {**BASE_CFG["source"], "m_exponent": 2.0}},
        {**BASE_CFG, "out_dir": "elsewhere"},
    ], ids=["probe.balls", "source.m_exponent", "out_dir"])
    def test_unread_key_rejected(self, tmp_path, cfg):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))
        assert main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "solve"]) == EXIT_USAGE

    @pytest.mark.parametrize("key", ["k1", "k2", "gamma1_norm",
                                     "gamma2_norm", "gamma3_norm"])
    def test_unread_growth_constant_rejected(self, tmp_path, capsys, key):
        # check_h2 reads only k3 and k4, check_h3 only k5 and k6
        cfg = {**BASE_CFG, "source": {**BASE_CFG["source"], "k3": 0.1,
                                      key: 1.0}}
        assert main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "check-hypotheses"]) == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("source, error", [
        ({"grad_coeff": [0.1]}, "grad_coeff must be a pair"),
        ({"grad_coeff": 0.1}, "grad_coeff must be a pair"),
        ({"expr": "x1", "const": 1.0}, "one of expr, const and affine"),
        ({"expr": "x1 + True"}, "non-numeric constant True"),
    ], ids=["short-grad-coeff", "scalar-grad-coeff", "two-kinds", "bool"])
    def test_bad_source_exit_usage(self, tmp_path, capsys, source, error):
        """A malformed source is a config error, whichever command reads it."""
        cfg = {**BASE_CFG, "source": source}
        assert main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "solve"]) == EXIT_USAGE
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, error", [
        ({**BASE_CFG, "source": {"affine": [1.0, 2.0]}},
         "source: affine spec needs [a0, a1, a2]"),
        ({**BASE_CFG, "source": {"state_coeff": "abc"}},
         "source.state_coeff must be a number, got 'abc'"),
        ({**BASE_CFG, "mesh_n": "eight"},
         "mesh_n must be an integer, got 'eight'"),
        ({**BASE_CFG, "p": {"affine": 1.8}},
         "p: object of type 'float' has no len()"),
    ], ids=["short-affine", "text-state-coeff", "text-mesh-n", "scalar-affine"])
    def test_malformed_value_exit_usage(self, tmp_path, capsys, cfg, error):
        """A value that is present but malformed is a config error, not a
        failed run."""
        assert main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "solve"]) == EXIT_USAGE
        assert f"config error: {error}" in capsys.readouterr().err

    def test_linear_solver_key_removed(self, tmp_path, capsys):
        # every solve runs on one sparse LU factor; no key selects another
        cfg = {**BASE_CFG, "solver": {"linear_solver": "direct"}}
        assert main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "solve"]) == EXIT_USAGE
        assert "linear_solver" in capsys.readouterr().err

    @pytest.mark.parametrize("factor, largest", [(None, "0.4"), (10.0, "0.4"),
                                                 (0.77, "0.1"), (0.5, "None")])
    def test_stability_factor(self, tmp_path, capsys, factor, largest):
        # per-m maximal ratios here: 0.7645, 0.7680, 0.7750, 0.7893
        cfg = {**BASE_CFG, "dirichlet": {"expr": "sin(3.14159*x1)*x2"}}
        if factor is not None:
            cfg["probe"] = {"stability_factor": factor}
        code = main(["--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "probe", "higher-integrability"])
        assert code == EXIT_OK
        assert f"largest_stable_m={largest}\n" in capsys.readouterr().out


def escaping(center):
    return {"probe": {"ball_pairs": [{"center": center, "r1": 0.1, "r2": 0.2}]}}


class TestConfigSweep:
    """A config that breaks one range of the schema or one hypothesis of the
    paper exits 2 with its key named, before any stage runs and before any
    PhaseDiscretization is built."""

    @pytest.fixture
    def disc_builds(self, monkeypatch):
        builds = []
        init = PhaseDiscretization.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PhaseDiscretization, "__init__", counting)
        return builds

    def run(self, tmp_path, change, argv):
        out = tmp_path / "out"
        code = main(["--config", write_cfg(tmp_path, {**BASE_CFG, **change}),
                     "--out", str(out), *argv])
        return code, json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("change, argv, key", [
        ({"mesh_n": 1.5}, ["solve"], "mesh_n"),
        ({"mesh_n": True}, ["solve"], "mesh_n"),
        ({"mesh_n": 0}, ["solve"], "mesh_n"),
        ({"mesh_n": -3}, ["solve"], "mesh_n"),
        ({"refinements": 1.5}, ["eigen"], "refinements"),
        ({"seed": 1.5}, ["probe", "poincare-w0"], "seed"),
        ({"seed": -1}, ["verify-modular"], "seed"),
        ({}, ["--seed", "-1", "probe", "poincare-w0"], "seed"),
        ({"solver": {"max_iter": 0}}, ["solve"], "solver.max_iter"),
        ({"solver": {"max_iter": -5}}, ["solve"], "solver.max_iter"),
        ({"solver": {"eps": -1}}, ["solve"], "solver.eps"),
        ({"solver": {"eps": float("inf")}}, ["solve"], "solver.eps"),
        ({"solver": {"tol": 10 ** 400}}, ["solve"], "solver.tol"),
        ({"solver": {"eps": 0.0}, "p": {"const": 1.5}}, ["solve"], "solver.eps"),
        ({"p": {"const": 0.5}}, ["solve"], "p, q, r"),
        ({"q": {"const": 1.5}}, ["solve"], "p, q, r"),
        ({"p": {"const": float("nan")}}, ["solve"], "p, q, r"),
        ({"r": {"const": float("inf")}, "mu2": {"const": 1.0},
          "source": {"const": 1.0}}, ["solve"], "p, q, r"),
        ({"mu1": {"const": -1.0}}, ["solve"], "mu1, mu2"),
        ({"source": {"expr": 5}}, ["solve"], "source"),
        ({"domain": {"polygon": [[0, 0], [1, 0]]}}, ["eigen"], "domain"),
        ({"domain": {"polygon": [[0, 0], [1, 1], [1, 0], [0, 1]]}}, ["eigen"],
         "domain"),
        ({"probe": {"sigma": 0}}, ["check-hypotheses"], "probe.sigma"),
        ({"probe": {"sigma": 2}}, ["check-hypotheses"], "probe.sigma"),
        ({"probe": {"delta": 1.5}}, ["probe", "sobolev-poincare"], "probe.delta"),
        ({"probe": {"m_grid": 0.1}}, ["probe", "higher-integrability"],
         "probe.m_grid"),
        ({"probe": {"m_grid": [-1]}}, ["probe", "higher-integrability"],
         "probe.m_grid"),
        ({"probe": {"m_grid": []}}, ["probe", "higher-integrability"],
         "probe.m_grid"),
        ({"probe": {"stability_factor": -1}}, ["probe", "higher-integrability"],
         "probe.stability_factor"),
        (escaping([0.05, 0.5]), ["probe", "caccioppoli"], "probe.ball_pairs"),
        (escaping([1.5, 0.5]), ["probe", "caccioppoli"], "probe.ball_pairs"),
        (escaping([0.5, 0.5, 7]), ["probe", "caccioppoli"], "probe.ball_pairs"),
        (escaping([float("nan"), 0.5]), ["probe", "caccioppoli"], "probe.ball_pairs"),
        ({"probe": {"ball_pairs": [{"center": [0.5, 0.5], "r1": 0.1, "r2": 0.2,
                                    "r3": 5}]}}, ["probe", "caccioppoli"],
         "probe.ball_pairs"),
        ({"sample_grid": 2.5}, ["solve"], "sample_grid"),
        ({"quad_degree": 2.7}, ["verify-modular"], "quad_degree"),
        ({"quad_degree": 6}, ["verify-modular"], "quad_degree"),
    ], ids=["mesh_n-fraction", "mesh_n-bool", "mesh_n-zero", "mesh_n-negative",
            "refinements-fraction", "seed-fraction", "seed-negative",
            "seed-flag-negative", "max_iter-zero", "max_iter-negative",
            "eps-negative", "eps-infinite", "tol-beyond-float",
            "eps-zero-below-p2", "p-below-1", "q-below-p", "p-nan", "r-infinite",
            "mu1-negative",
            "expr-not-text", "polygon-two-vertices",
            "polygon-self-crossing", "sigma-zero", "sigma-above-1",
            "delta-above-1", "m_grid-scalar", "m_grid-negative", "m_grid-empty",
            "stability_factor-negative", "ball-across-edge",
            "ball-outside", "ball-three-entry-center", "ball-nan-center",
            "ball-extra-key", "sample_grid-fraction", "quad_degree-fraction",
            "quad_degree-above-5"])
    def test_exit_usage_before_any_work(self, tmp_path, capsys, disc_builds,
                                        change, argv, key):
        code, manifest = self.run(tmp_path, change, argv)
        assert code == EXIT_USAGE
        assert manifest["error"].startswith(f"config error: {key}")
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["stage_seconds"] == {} and manifest["outputs"] == []
        assert disc_builds == []

    @pytest.mark.parametrize("change, argv, key, error", [
        ({"mesh_n": 10 ** 400}, ["solve"], "mesh_n",
         "must not exceed 46340, got an integer of 401 digits"),
        ({"mesh_n": 100000}, ["solve"], "mesh_n", "got 100000"),
        ({"mesh_n": 46341}, ["probe", "caccioppoli"], "mesh_n", "got 46341"),
        ({"sample_grid": 46341}, ["solve"], "sample_grid",
         "must not exceed 46340, got 46341"),
        ({"refinements": 10 ** 400}, ["eigen"], "refinements",
         "must not exceed 15, got an integer of 401 digits"),
        ({"refinements": 16}, ["eigen"], "refinements", "got 16"),
        ({"mesh_n": 16, "refinements": 12}, ["eigen"], "refinements",
         "mesh_n * 2**refinements must not exceed 46340, got 16 * 2**12"),
        ({"mesh_n": 2, "refinements": 15}, ["solve"], "refinements",
         "got 2 * 2**15"),
    ], ids=["mesh_n-401-digits", "mesh_n-100000", "mesh_n-past-int32",
            "sample_grid-past-int32", "refinements-401-digits",
            "refinements-16", "refined-side-past-int32", "refined-side-solve"])
    def test_sizes_past_the_int32_indices_exit_usage(self, tmp_path, capsys,
                                                     disc_builds, change, argv,
                                                     key, error):
        """mesh_n, sample_grid and mesh_n * 2**refinements are bounded by
        the 46,340 per side that the mesh's int32 index arrays can number:
        a larger one exits 2 naming its key before any stage runs."""
        code, manifest = self.run(tmp_path, change, argv)
        assert code == EXIT_USAGE
        assert manifest["error"].startswith(f"config error: {key}")
        assert error in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["stage_seconds"] == {} and manifest["outputs"] == []
        assert disc_builds == []

    def test_integer_past_the_digit_limit_exits_usage(self, tmp_path, capsys):
        """An integer of more digits than Python converts is a config error
        of the file, not a failure of the command."""
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text('{"mesh_n": 1' + "0" * 5000 + "}")
        assert main(["--config", str(path), "--out", str(out), "solve"]) == EXIT_USAGE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(f"config error: {path}: ")
        assert "5001 digits" in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["stage_seconds"] == {} and manifest["outputs"] == []

    @pytest.mark.parametrize("which, code", [
        ("caccioppoli", EXIT_USAGE), ("higher-integrability", EXIT_USAGE),
        ("sobolev-poincare", EXIT_OK)])
    def test_escape_checks_the_balls_each_probe_integrates(self, tmp_path, which,
                                                          code):
        """Of the pair B(0.1) in B(0.2) centred 0.15 from the square's left
        edge only the outer ball escapes, and sobolev-poincare integrates
        over the inner ball alone."""
        got, manifest = self.run(tmp_path, escaping([0.15, 0.5]), ["probe", which])
        assert got == code
        assert manifest["error"] == (None if code == EXIT_OK else
                                     "config error: probe.ball_pairs: "
                                     "ball escapes the meshed domain")

    @pytest.mark.parametrize("change, argv", [
        ({"sample_grid": 0}, ["solve"]),
        ({"sample_grid": 1}, ["solve"]),
        ({"quad_degree": 0}, ["verify-modular"]),
        ({"quad_degree": 4}, ["verify-modular"]),
    ], ids=["sample_grid-0", "sample_grid-1", "quad_degree-0", "quad_degree-4"])
    def test_small_grids_and_degrees_run(self, tmp_path, disc_builds, change, argv):
        code, manifest = self.run(tmp_path, change, argv)
        assert code == EXIT_OK and manifest["error"] is None
        # the count sees the discretizations that a solve builds
        assert (len(disc_builds) > 0) == (argv == ["solve"])

    @pytest.mark.parametrize("text, error", [
        (json.dumps({**BASE_CFG, "bogus": True}), "unknown config key(s) in "
                                                  "config root: ['bogus']"),
        ('{"p": }', ":1:"),
        ("[1, 2]", "config root must be a JSON object"),
        (json.dumps({**BASE_CFG, "solver": 5}), "solver must be a JSON object"),
    ], ids=["unknown-key", "malformed-json", "non-object-root", "non-object-section"])
    def test_unloadable_config_writes_manifest(self, tmp_path, capsys, text, error):
        """Once the config file can be read, a config that cannot be loaded
        still leaves a manifest naming the error, with no stage timed."""
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(out), "solve"]) == EXIT_USAGE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith("config error: ")
        assert error in manifest["error"]
        assert manifest["error"] in capsys.readouterr().err
        assert manifest["stage_seconds"] == {} and manifest["outputs"] == []

    def test_unreadable_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", str(tmp_path / "nope.json"), "--out", str(out),
                     "solve"]) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, error", [
        ({"mesh_n": "8"}, "mesh_n must be an integer, got '8'"),
        ({"solver": {"tol": "1e-8"}}, "solver.tol must be a number, got '1e-8'"),
        ({"mesh_n": 8.0}, None),
    ], ids=["text-int", "text-number", "integral-float"])
    def test_numbers_are_json_numbers(self, tmp_path, capsys, change, error):
        """A numeric string is not a number; an integral float is an integer."""
        code, manifest = self.run(tmp_path, change, ["solve"])
        assert code == (EXIT_OK if error is None else EXIT_USAGE)
        assert manifest["error"] == (error and f"config error: {error}")


class TestSolveManifest:
    """`solve` records where Newton started, why the fixed point stopped, how
    many Jacobians were factored and at which eps the result was judged."""

    CONVECTION_CFG = {
        "p": {"const": 2.0}, "q": {"const": 3.0}, "r": {"const": 4.0},
        "mu1": {"const": 1.0}, "mu2": {"const": 1.0}, "mesh_n": 8,
        "source": {"expr": "sin(3.14159*x1)*sin(3.14159*x2)",
                   "grad_coeff": [0.05, 0.0], "state_coeff": 0.05},
    }

    def solve(self, tmp_path, cfg):
        out = tmp_path / "out"
        code = main(["--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     "solve"])
        return code, json.loads((out / "manifest.json").read_text())["solve"]

    def test_variational(self, tmp_path):
        code, rec = self.solve(tmp_path, BASE_CFG)
        assert code == EXIT_OK
        # p- = 1.8 < 2: judged at the regularised eps of the solver
        assert rec == {"start": "lift", "stop_reason": None,
                       "factorizations": rec["factorizations"],
                       "check_eps": 1e-8, "trace": rec["trace"]}
        assert 1 <= rec["factorizations"]

    def test_check_stage(self, tmp_path):
        # p- = 2.2 >= 2 at a user eps of 0.1: the solve ends with a Newton
        # stage at check_eps = 0 and is judged there
        cfg = {**BASE_CFG, "p": {"const": 2.2}, "q": {"const": 2.2},
               "r": {"const": 2.2}, "mesh_n": 32, "solver": {"eps": 0.1}}
        code, rec = self.solve(tmp_path, cfg)
        assert code == EXIT_OK
        assert rec["stop_reason"] is None
        assert rec["check_eps"] == 0.0

    def test_convection_tolerance(self, tmp_path):
        code, rec = self.solve(tmp_path, self.CONVECTION_CFG)
        assert code == EXIT_OK
        assert rec == {"start": "lift", "stop_reason": "tolerance",
                       "factorizations": rec["factorizations"],
                       "check_eps": 0.0, "trace": rec["trace"]}
        assert 1 <= rec["factorizations"]

    @pytest.mark.parametrize("kind", ["variational", "convection"])
    def test_trace_counts(self, tmp_path, capsys, kind):
        """The manifest's trace holds one record per step taken, Newton or
        outer, and the factorisations of each."""
        cfg = BASE_CFG if kind == "variational" else self.CONVECTION_CFG
        code, rec = self.solve(tmp_path, cfg)
        assert code == EXIT_OK
        printed = re.search(r"iterations=(\d+)", capsys.readouterr().out)
        assert (sum(r["t"] is not None for r in rec["trace"])
                == int(printed.group(1)) >= 1)
        assert sum(r["factored"] for r in rec["trace"]) == rec["factorizations"]
        assert rec["trace"][-1]["kind"] == ("end" if kind == "variational"
                                            else "outer")

    def test_convergence_csv_column(self, tmp_path):
        """The convection history is one outer distance per iteration, the
        variational one a residual per Newton step."""
        for cfg, column in ((BASE_CFG, "residual_sup"),
                            (self.CONVECTION_CFG, "outer_distance_sup")):
            code, _ = self.solve(tmp_path, cfg)
            assert code == EXIT_OK
            csv = (tmp_path / "out" / "convergence.csv").read_text()
            assert csv.splitlines()[1] == f"iteration,{column}"

    def test_convection_max_iter_outer(self, tmp_path):
        cfg = {**self.CONVECTION_CFG, "solver": {"max_iter": 2}}
        code, rec = self.solve(tmp_path, cfg)
        assert code == EXIT_FAIL
        assert rec["stop_reason"] == "max_iter_outer"

    def test_convection_growth(self, tmp_path):
        # a state coefficient of 60, about three times the first Laplace
        # eigenvalue, makes the fixed-point map expand
        cfg = {**self.CONVECTION_CFG, "q": {"const": 2.0}, "r": {"const": 2.0},
               "mu1": {"const": 0.0}, "mu2": {"const": 0.0},
               "source": {"expr": "sin(3.14159*x1)*sin(3.14159*x2)",
                          "state_coeff": 60.0}}
        code, rec = self.solve(tmp_path, cfg)
        assert code == EXIT_FAIL
        assert rec["stop_reason"] == "growth"
