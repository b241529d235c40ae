import json
import re
from pathlib import Path

import pytest

from oswr import problem as prb
from oswr.cli import main

CFG = """
[domain]
box = 0 1
T = 0.25
tolerance = 1e-9
max_iterations = 100
initial_guess = from_u0
u0 = "exp(-30*(x-0.5)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5
nu = "0.1"
bx = "0.5"
c = "1"
nx = 8
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.5 1
nu = "0.05"
bx = "0.2"
c = "0.3"
nx = 8
nt = 4
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
"""

# Two bands in x whose interface meshes do not match (2 vs 3 cells).
BANDS_2D = """
[domain]
box = 0 1 0 1
T = 0.25
u0 = "exp(-30*(x-0.5)^2)"

[subdomain]
id = 1
box = 0 0.5 0 1
c = "1"
nx = 2
ny = 2
nt = 2

[subdomain]
id = 2
box = 0.5 1 0 1
c = "1"
nx = 2
ny = 3
nt = 2

[transmission]
from = 1
to = 2
p = 1.0
"""

DEMO = Path(__file__).resolve().parent.parent / "demos" / "heterogeneous.cfg"

# Same advection on both sides, matching meshes and time grids, and a
# small p: the Jacobi iteration diverges, its data growing geometrically
# while the relative residual stays of order 1.
DIVERGING = """
[domain]
box = 0 1 0 1
T = 0.3
max_iterations = 200
initial_guess = from_u0
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 1
nu = "0.0027*(1+0.5*sin(5*x*y))"
bx = "0.87*sin(3*y)"
by = "0.61*cos(2*x)"
c = "0.44"
omega = "0.1"
nx = 5
ny = 7
nt = 3
degree = 0

[subdomain]
id = 2
box = 0.5 1 0 1
nu = "0.32*(1+0.5*sin(5*x*y))"
bx = "0.87*sin(3*y)"
by = "0.61*cos(2*x)"
c = "1.02"
omega = "0.13"
nx = 2
ny = 7
nt = 3
degree = 0

[transmission]
from = 1
to = 2
p = 0.17

[transmission]
from = 2
to = 1
p = 0.17
"""

# Three strips in x with a narrow u0 bump in the first, far from both
# interfaces: a Jacobi sweep carries data one subdomain further, so pair
# 2 <- 3 first sees the bump at the third sweep, its data norm rising
# from 1e-94 after the second to 2e-4.
THREE_STRIPS = """
[domain]
box = 0 1
T = 0.25
tolerance = 1e-9
max_iterations = 100
initial_guess = from_u0
u0 = "exp(-2000*(x-0.05)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.375
nu = "0.1"
bx = "0.5"
c = "1"
nx = 6
nt = 4
degree = 1

[subdomain]
id = 2
box = 0.375 0.625
nu = "0.05"
bx = "0.2"
c = "0.3"
nx = 4
nt = 4
degree = 1

[subdomain]
id = 3
box = 0.625 1
nu = "0.05"
bx = "0.2"
c = "0.3"
nx = 6
nt = 4
degree = 1

[transmission]
from = 1
to = 2
p = 1.0

[transmission]
from = 2
to = 3
p = 1.0
"""

# Coefficients that pass validation but fail where set-up evaluates them.
# nu is finite on the sample lattice of cell centres but singular at the
# edge midpoints x = 0.3125 of subdomain 1's nx = 8 mesh.
SINGULAR_NU = DEMO.read_text().replace('nu = "0.001*sqrt(y)"', 'nu = "0.001 + abs(1/(x-0.3125))"')
# nu > 0 on the sample lattice (x >= 1/64) but not at the first 2-point
# Gauss point x ~ 0.0017 of the nx = 64 mesh.
NEGATIVE_NU = CFG.replace('nu = "0.1"', 'nu = "x - 0.01"').replace("nx = 8", "nx = 64", 1)
# f is singular at the same edge midpoints; it is first evaluated when a
# window assembles its loads.
SINGULAR_F = DEMO.read_text().replace('f = "0"', 'f = "1/(x-0.3125)"')


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "case.cfg"
    p.write_text(CFG)
    return p


class TestRun:
    def test_exit_zero_and_files(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "solution_1.csv").exists()
        assert (out / "solution_2.csv").exists()
        assert (out / "residuals.csv").exists()
        assert (out / "manifest.json").exists()

    def test_missing_domain_is_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG.split("[subdomain]")[1].join(["[subdomain]", ""]))
        p.write_text("[subdomain]\nid = 1\nbox = 0 1\nnx = 2\nnt = 2\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_validation_error_exit_2(self, cfg_path, tmp_path):
        bad = cfg_path.read_text().replace("p = 1.0", "p = 0.0")
        p = tmp_path / "bad2.cfg"
        p.write_text(bad)
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--p", "1,2"]])
    @pytest.mark.parametrize("budget", [0, -3])
    def test_iteration_budget_below_one_exit_2(self, cfg_path, tmp_path, capsys, command, budget):
        p = tmp_path / "budget.cfg"
        p.write_text(cfg_path.read_text().replace("max_iterations = 100",
                                                  f"max_iterations = {budget}"))
        out = tmp_path / "o"
        assert main([command[0], str(p), *command[1:], "--out", str(out)]) == 2
        assert "max_iterations must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_time_dependent_coefficient_exit_2(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "tdep.cfg"
        p.write_text(cfg_path.read_text().replace('nu = "0.1"', 'nu = "0.1*(1+t)"'))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "subdomain 1: coefficient nu depends on t" in capsys.readouterr().err

    @pytest.mark.parametrize("nu,col", [("0.1*x^^2", 7), ("0.1+1_0*x", 5), ("x**2", 2)])
    def test_bad_expression_exit_2_with_column(self, cfg_path, tmp_path, capsys, nu, col):
        p = tmp_path / "expr.cfg"
        p.write_text(cfg_path.read_text().replace('nu = "0.1"', f'nu = "{nu}"'))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "in expression for 'nu'" in err and f"(col {col}) (line 14)" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,where", [
        ('nu = "0.1*sin(x*y)"', 'nu = "1e999"', "subdomain 2: coefficient nu"),
        ('c = "0"', 'c = "1e999"', "subdomain 1: coefficient c"),
        ('f = "0"', 'f = "1e999*x"', "subdomain 1: coefficient f"),
        ('bx = "0"', 'bx = "1e999"', "subdomain 1: coefficient bx"),
        ('r = "-1"', 'r = "1e999"', "interface (1, 2): coefficient r"),
    ], ids=["nu", "c", "f", "bx", "r"])
    def test_non_finite_coefficient_exit_2(self, tmp_path, capsys, old, new, where):
        demo = Path(__file__).resolve().parent.parent / "demos" / "heterogeneous.cfg"
        p = tmp_path / "inf.cfg"
        p.write_text(demo.read_text().replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {where} evaluation failed: non-finite value at point" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("edits,where", [
        ({'f = "0"': 'f = "sqrt(0.1-t)"'}, "subdomain 1: coefficient f"),
        ({'f = "0"': 'f = "sqrt(0.3-t)"', "windows = 1": "windows = 2"},
         "subdomain 1: coefficient f"),
        ({'u0 = "0.25*exp(-15*((x-0.55)^2+(y-1.3)^2))"': 'u0 = "1/x"'},
         "subdomain 1: coefficient u0"),
    ], ids=["f-after-t0", "f-second-window", "u0-boundary"])
    def test_coefficient_failing_where_the_solver_evaluates_exit_2(
            self, tmp_path, capsys, edits, where):
        # f is sampled at the time Gauss points of every interval of every
        # window, u0 at the mesh nodes, boundary included
        demo = Path(__file__).resolve().parent.parent / "demos" / "heterogeneous.cfg"
        text = demo.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new, 1)
        p = tmp_path / "fails.cfg"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {where} evaluation failed" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_time_dependent_f_defined_up_to_T_is_valid(self):
        # the Gauss times lie inside each interval, so f = sqrt(T - t)
        # is never sampled at T itself
        demo = Path(__file__).resolve().parent.parent / "demos" / "heterogeneous.cfg"
        cfg = prb.parse_config(demo.read_text().replace('f = "0"', 'f = "sqrt(0.5-t)"'))
        assert cfg.T == 0.5
        assert [d for d in prb.validate_problem(cfg) if d.severity == "error"] == []

    def test_solver_failure_exit_3(self, cfg_path, tmp_path, monkeypatch):
        # valid configs yield SPD-mass direct-LU step systems that do not
        # break organically; the failure path is exercised by injection
        from oswr.dgsolver import SolverError
        import oswr.cli as cli

        def boom(*a, **k):
            raise SolverError("factorization breakdown: injected")

        monkeypatch.setattr(cli, "run_windows", boom)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3

    def test_divergence_exit_3(self, cfg_path, tmp_path, monkeypatch):
        from oswr.driver import DivergenceError
        import oswr.cli as cli

        def boom(*a, **k):
            raise DivergenceError("interface residual grew", None)

        monkeypatch.setattr(cli, "run_windows", boom)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3

    def test_diverging_run_exits_3_and_writes_nothing(self, tmp_path, capsys):
        path, out = tmp_path / "diverging.cfg", tmp_path / "o"
        path.write_text(DIVERGING)
        assert main(["run", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"interface \d->\d, window \[0, 0\.3\]: interface data norm grew", err), err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        CFG.replace('u0 = "exp(-30*(x-0.5)^2)"', 'u0 = "exp(-2000*(x-0.05)^2)"'),
        THREE_STRIPS,
    ], ids=["two-strips", "three-strips"])
    def test_data_from_a_bump_far_from_the_interface_converges(self, tmp_path, text):
        # from_u0 starts from data of 1e-176 to 1e-93 on the interfaces.
        # The divergence rule measures growth from the largest norm of any
        # pair over the start and the first two sweeps, so neither the
        # first sweep's data of 1e-2 to 1e-1 nor pair 2 <- 3 of three strips,
        # whose data norm rises by ~1e90 at the third sweep, trips it.
        path, out = tmp_path / "bump.cfg", tmp_path / "o"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(out)]) == 0
        (window,) = json.loads((out / "manifest.json").read_text())["residual_history"]
        assert window["residuals"][-1] <= 1e-9 < window["residuals"][0]
        assert window["converged"] is True

    def test_unconverged_window_warns_and_exits_0(self, tmp_path, capsys):
        # the cross point of the 2x2 layout stalls the sweep near 2e-4
        from test_driver import CFG_2X2

        path, out = tmp_path / "2x2.cfg", tmp_path / "o"
        path.write_text(CFG_2X2.replace("max_iterations = 8", "max_iterations = 200"))
        assert main(["run", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: window 0 \[0, 0\.25\] not converged after 200 sweeps, "
                            r"last residual \d\.\d{3}e-0\d\n", err), err
        (window,) = json.loads((out / "manifest.json").read_text())["residual_history"]
        assert window["converged"] is False
        assert len(window["residuals"]) == 200

    def test_deterministic_reruns(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("solution_1.csv", "solution_2.csv", "residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_roundtrip(self, cfg_path, tmp_path):
        out1 = tmp_path / "a"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["run", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("solution_1.csv", "solution_2.csv", "residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_rerun_keeps_flags(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out1), "--times", "0.125,0.25"]) == 0
        assert main(["run", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("solution_1.csv", "solution_2.csv", "residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        doc = json.loads((out2 / "manifest.json").read_text())
        assert "force_mortar" not in doc
        assert doc["times"] == "0.125,0.25"

    @pytest.mark.parametrize("force_mortar", [True, False])
    def test_old_manifest_with_force_mortar_reruns(self, cfg_path, tmp_path, force_mortar):
        # manifests written while --force-mortar existed carry the key;
        # every interface now carries the flux, so the key changes nothing
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        assert main(["run", str(cfg_path), "--out", str(fresh)]) == 0
        manifest = fresh / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["force_mortar"] = force_mortar
        manifest.write_text(json.dumps(doc))
        assert main(["run", str(manifest), "--out", str(old)]) == 0
        for name in ("solution_1.csv", "solution_2.csv", "residuals.csv"):
            assert (fresh / name).read_bytes() == (old / name).read_bytes()

    def test_snapshot_times_flag(self, cfg_path, tmp_path):
        out = tmp_path / "t"
        assert main(["run", str(cfg_path), "--out", str(out),
                     "--times", "0.125,0.25"]) == 0
        header = (out / "solution_1.csv").read_text().splitlines()[0]
        assert header.count("u_t") == 2


class TestFailingCommandWritesNothing:
    COMMANDS = {"run": [], "study": ["--axis", "time", "--levels", "3"], "sweep": ["--p", "1"]}
    SOLVERS = {"run": "run_windows", "study": "convergence_study", "sweep": "sweep_parameters"}

    @pytest.mark.parametrize("failure,code", [("set-up", 2), ("solver", 3), ("out-is-a-file", 2)])
    @pytest.mark.parametrize("command", ["run", "study", "sweep"])
    def test_exit_code_and_no_out(self, tmp_path, capsys, monkeypatch, command, failure, code):
        from oswr.dgsolver import SolverError
        import oswr.cli as cli

        path, out = tmp_path / "case.cfg", tmp_path / "o"
        path.write_text(SINGULAR_NU if failure == "set-up" else CFG)
        if failure == "solver":
            def boom(*a, **k):
                raise SolverError("factorization breakdown: injected")

            monkeypatch.setattr(cli if command == "run" else cli.ana, self.SOLVERS[command], boom)
        if failure == "out-is-a-file":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "sub"
        assert main([command, str(path), *self.COMMANDS[command], "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not out.exists()
        if failure == "set-up":
            assert "error: subdomain 1: division by zero" in err, err

    @pytest.mark.parametrize("text,message", [
        (SINGULAR_NU, "subdomain 1: division by zero at point (x, y, t) = (0.3125, "),
        (NEGATIVE_NU, "subdomain 1: negative diffusion nu at a quadrature point"),
        (SINGULAR_F, "subdomain 1, window [0, 0.5]: division by zero at point"),
    ], ids=["singular-nu", "negative-nu", "singular-f"])
    def test_set_up_failure_names_the_subdomain(self, tmp_path, capsys, text, message):
        path, out = tmp_path / "case.cfg", tmp_path / "o"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_an_existing_file_exit_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("kept")
        assert main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert "File exists" in capsys.readouterr().err
        assert out.read_text() == "kept"


class TestSnapshotTimes:
    @pytest.mark.parametrize("times", ["-1,0.1,5,nan", "-1", "0.3", "nan", "inf", "0.1,x", "0.1,0.1"])
    def test_exit_2_before_writing(self, cfg_path, tmp_path, capsys, times):
        out = tmp_path / "o"
        assert main(["run", str(cfg_path), "--out", str(out), f"--times={times}"]) == 2
        assert "--times" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_ends_accepted(self, cfg_path, tmp_path):
        out = tmp_path / "t"
        assert main(["run", str(cfg_path), "--out", str(out), "--times", "0,0.25"]) == 0
        header = (out / "solution_1.csv").read_text().splitlines()[0]
        assert header == "x,u_t0,u_t0.25"

    def test_manifest_times_checked(self, cfg_path, tmp_path):
        out1 = tmp_path / "a"
        assert main(["run", str(cfg_path), "--out", str(out1), "--times", "0.25"]) == 0
        manifest = out1 / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["times"] = "0.125,5"
        manifest.write_text(json.dumps(doc))
        out2 = tmp_path / "b"
        assert main(["run", str(manifest), "--out", str(out2)]) == 2
        assert not out2.exists()


class TestDroppedConfigInput:
    @pytest.mark.parametrize("edit,message", [
        (lambda t: t + "\n[transmission]\nfrom = 1\nto = 2\np = 2.0\n",
         r"duplicate transmission \(1, 2\) \(line 36\)"),
        (lambda t: t.replace("to = 2", "to = 9"), r"transmission \(1, 9\): no subdomain 9"),
        (lambda t: t.replace("nx = 8\nnt = 4", "nx = 8\nny = 3\nnt = 4", 1),
         r"subdomain 1: 'ny' given for a 1D problem \(line 18\)"),
    ], ids=["duplicate-pair", "unknown-subdomain", "ny-in-1d"])
    def test_exit_2(self, cfg_path, tmp_path, capsys, edit, message):
        p = tmp_path / "bad.cfg"
        p.write_text(edit(CFG))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("old,new,key", [
        ("tolerance = 1e-9", "tolerance = nan", "'tolerance': 'nan'"),
        ("box = 0 1", "box = 0 nan", "'box': '0 nan'"),
        ("T = 0.25", "T = inf", "'t': 'inf'"),
        ("p = 1.0", "p = nan", "'p': 'nan'"),
        ("p = 1.0", "p = inf", "'p': 'inf'"),
        ("p = 1.0", "p = 1.0\ns = nan", "'s': 'nan'"),
    ], ids=["tolerance-nan", "box-nan", "T-inf", "p-nan", "p-inf", "s-nan"])
    def test_non_finite_number_exit_2(self, cfg_path, tmp_path, capsys, old, new, key):
        text = CFG.replace(old, new, 1)
        line = text[:text.index(new.splitlines()[-1])].count("\n") + 1
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"non-finite number for {key} (line {line})" in err, err
        assert not out.exists()


class TestFlagNumbers:
    # every number flag reads its value as the config reads a number: no
    # digit separators, ASCII digits only
    @pytest.mark.parametrize("args,flag", [
        (["run", "--times", "0.1_25"], "--times"),
        (["sweep", "--p", "0_5"], "--p"),
        (["sweep", "--p", "1", "--q", "0_1"], "--q"),
        (["sweep", "--p", "1", "--target", "1_0e-6"], "--target"),
        (["sweep", "--p", "1", "--seed", "0_7"], "--seed"),
        (["study", "--axis", "time", "--levels", "3", "--tol", "1_0e-9"], "--tol"),
        (["study", "--axis", "time", "--levels", "\u0663"], "--levels"),
    ], ids=["times", "p", "q", "target", "seed", "tol", "levels"])
    def test_exit_2_before_writing(self, cfg_path, tmp_path, capsys, args, flag):
        out = tmp_path / "o"
        assert main([args[0], str(cfg_path), *args[1:], "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestStudy:
    def test_levels_requires_three(self, cfg_path, tmp_path):
        assert main(["study", str(cfg_path), "--axis", "time", "--levels", "1",
                     "--out", str(tmp_path / "s")]) == 2

    def test_study_csv_and_slopes_footer(self, cfg_path, tmp_path):
        out = tmp_path / "s"
        assert main(["study", str(cfg_path), "--axis", "time", "--levels", "3",
                     "--tol", "1e-9", "--out", str(out), "--plot"]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == (
            "level,h_1,k_1,h_2,k_2,"
            "e_inf_1,e_inf_2,e_l2_1,e_l2_2,e_T_l2_1,e_T_l2_2,e_T_h1_1,e_T_h1_2"
        )
        assert len(lines) == 5  # header + 3 levels + slopes footer
        assert lines[-1].startswith("slopes,")
        assert (out / "study.gp").exists()
        # per level and window: the sweep residuals and each directed interface's
        history = json.loads((out / "manifest.json").read_text())["residual_history"]
        assert len(history) == 3
        for level in history:
            (window,) = level
            pairs = window["pair_residuals"]
            assert sorted(pairs) == ["1->2", "2->1"]
            assert window["residuals"] == [max(r) for r in zip(*pairs.values())]
            assert window["converged"] is True

    @pytest.mark.parametrize("axis,x_name", [("time", "k_1"), ("space", "h_1")])
    def test_plot_x_column_is_the_axis_step(self, cfg_path, tmp_path, axis, x_name):
        out = tmp_path / "s"
        assert main(["study", str(cfg_path), "--axis", axis, "--levels", "3",
                     "--tol", "1e-9", "--out", str(out), "--plot"]) == 0
        header = (out / "study.csv").read_text().splitlines()[0].split(",")
        plots = re.findall(r"using (\d+):(\d+) with linespoints title '(\w+)'",
                           (out / "study.gp").read_text())
        assert len(plots) == 8
        for x, y, title in plots:
            assert header[int(x) - 1] == x_name
            assert header[int(y) - 1] == title

    @pytest.mark.parametrize("edit,axis,message", [
        (lambda text: BANDS_2D, "time", "time studies need trace-conforming space grids"),
        (lambda text: text.replace('u0 = "exp(-30*(x-0.5)^2)"', 'u0 = "0"'), "time",
         "not enough positive errors to fit a slope"),
        # the levels' loads stop short of t = 0.249, the reference's finer grid does not
        (lambda text: text.replace('f = "0"', 'f = "sqrt(0.249-t)"'), "time",
         "error: monodomain reference, window [0, 0.25]: sqrt of negative value at point"),
        # only a node of the space study's reference mesh sits at x = 1/256
        (lambda text: text.replace('u0 = "exp(-30*(x-0.5)^2)"', 'u0 = "1/(x-0.00390625)"'),
         "space", "error: monodomain reference, window [0, 0.25]: division by zero at point"),
    ], ids=["nonconforming-bands", "zero-solution", "failing-reference", "failing-reference-u0"])
    def test_rejected_study_exit_2_before_writing(self, cfg_path, tmp_path, capsys, edit,
                                                  axis, message):
        p = tmp_path / "study.cfg"
        p.write_text(edit(cfg_path.read_text()))
        out = tmp_path / "s"
        assert main(["study", str(p), "--axis", axis, "--levels", "3",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["study", str(cfg_path), "--axis", "time", "--levels", "3",
                         "--tol", "1e-9", "--out", str(out)]) == 0
        assert (a / "study.csv").read_bytes() == (b / "study.csv").read_bytes()


class TestNonPositiveTolerance:
    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command,flag", [
        (["sweep", "--p", "1,2"], "--target"),
        (["study", "--axis", "time", "--levels", "3"], "--tol"),
    ])
    def test_exit_2_before_writing(self, cfg_path, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        assert main([command[0], str(cfg_path), *command[1:], flag, value,
                     "--out", str(out)]) == 2
        assert f"{flag} must be a positive real" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_robin_table(self, cfg_path, tmp_path):
        out = tmp_path / "w"
        assert main(["sweep", str(cfg_path), "--p", "0.5,1,2,4", "--q", "0",
                     "--target", "1e-6", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "p,q,iterations,converged,best"
        assert len(lines) == 5
        assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 1

    @pytest.mark.parametrize("flag,values,message", [
        ("--p", "0,1", "--p needs a list of positive reals"),
        ("--p", "nan,1", "--p needs a list of positive reals"),
        ("--p", "inf", "--p needs a list of positive reals"),
        ("--q", "-1", "--q needs a list of nonnegative reals"),
        ("--q", "nan", "--q needs a list of nonnegative reals"),
        ("--q", "0,inf", "--q needs a list of nonnegative reals"),
    ], ids=["p-zero", "p-nan", "p-inf", "q-negative", "q-nan", "q-inf"])
    def test_bad_parameter_exit_2_before_writing(self, cfg_path, tmp_path, capsys,
                                                 flag, values, message):
        out = tmp_path / "w"
        args = {"--p": "1", "--q": "0", flag: values}
        assert main(["sweep", str(cfg_path), "--p", args["--p"], "--q", args["--q"],
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2_before_writing(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "w"
        assert main(["sweep", str(cfg_path), "--p", "1", "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_p_rejected(self, cfg_path, tmp_path):
        assert main(["sweep", str(cfg_path), "--p", "", "--q", "0",
                     "--out", str(tmp_path / "w")]) == 2

    def test_no_interface_exit_2_before_writing(self, tmp_path, capsys):
        # one subdomain: no transmission condition, so every cell would
        # read "1 iteration, converged"
        one = CFG[: CFG.index("[subdomain]")] + (
            '[subdomain]\nid = 1\nbox = 0 1\nnu = "0.1"\nc = "1"\nnx = 8\nnt = 4\ndegree = 1\n'
        )
        path, out = tmp_path / "one.cfg", tmp_path / "w"
        path.write_text(one)
        assert main(["sweep", str(path), "--p", "1,2", "--q", "0", "--out", str(out)]) == 2
        assert "no interface" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_reproducible(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep", str(cfg_path), "--p", "1,2", "--q", "0",
                         "--seed", "7", "--target", "1e-6", "--out", str(out)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


class TestManifest:
    def test_manifest_contents(self, cfg_path, tmp_path):
        out = tmp_path / "m"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "run"
        assert sorted(doc["outputs"]) == doc["outputs"]
        # per window: the sweep residuals and each directed interface's
        (window,) = doc["residual_history"]
        pairs = window["pair_residuals"]
        assert sorted(pairs) == ["1->2", "2->1"]
        assert window["residuals"] == [max(r) for r in zip(*pairs.values())]
        assert "[domain]" in doc["config"]

    @pytest.mark.parametrize("doc", [{"config": 5}, {"config": CFG, "times": [0.1]}],
                             ids=["config-number", "times-list"])
    def test_malformed_manifest_exit_2_before_writing(self, tmp_path, capsys, doc):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert "is not a string" in capsys.readouterr().err
        assert not out.exists()
