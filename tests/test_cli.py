import json
import os

import numpy as np
import pytest

from multiphase.cli import (ConfigError, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                            build_domain, build_phase, build_source,
                            load_config, main, _ball_family)


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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
        fam = _ball_family({}, None)
        assert len(fam.pairing) == 20

    def test_configured_ball_pairs(self):
        cfg = {"probe": {"ball_pairs": [
            {"center": [0.5, 0.5], "r1": 0.1, "r2": 0.3}]}}
        fam = _ball_family(cfg, None)
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

    def test_probe_poincare_w0_ignores_d(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE_CFG, "probe": {"d": 0.5}})
        out = tmp_path / "out"
        code = main(["--config", path, "--out", str(out),
                     "probe", "poincare-w0"])
        assert code == EXIT_OK
        text = (out / "probe_poincare-w0.csv").read_text()
        assert len(text.splitlines()) == 22  # hash + header + 20 samples

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
        assert main(["--config", path, "solve"]) == EXIT_USAGE

    def test_missing_file_exit_usage(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "solve"]) == EXIT_USAGE

    def test_bad_subcommand_exit_usage(self, tmp_path):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["--config", path, "frobnicate"]) == EXIT_USAGE


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
                       "check_eps": 1e-8}
        assert 1 <= rec["factorizations"]

    def test_convection_tolerance(self, tmp_path):
        code, rec = self.solve(tmp_path, self.CONVECTION_CFG)
        assert code == EXIT_OK
        assert rec == {"start": "lift", "stop_reason": "tolerance",
                       "factorizations": rec["factorizations"],
                       "check_eps": 0.0}
        assert 1 <= rec["factorizations"]

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
