import configparser
import importlib
from pathlib import Path

import pytest

from fracturelab.cli import main
from fracturelab.errors import ConfigError

BASE = """
[domain]
rect = 0 0 1 1
dirichlet = left right

[grid]
n = 32

[integrand]
kind = laplace

[datum]
kind = linear_x

[run]
toughness = 1.0
seed = 0
out = {out}
"""


def write_cfg(tmp_path, extra="", base=None, name="exp.ini"):
    out = tmp_path / "out"
    text = (base or BASE).format(out=out) + extra
    path = tmp_path / name
    path.write_text(text)
    return str(path), str(out)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_solve_writes_field_and_stress(tmp_path, capsys):
    cfg, out = write_cfg(tmp_path)
    assert main(["solve", "--config", cfg]) == 0
    assert "solve: bulk=1" in capsys.readouterr().out
    field = (tmp_path / "out" / "field.csv").read_text().splitlines()
    assert field[0] == "i,j,side,u"
    assert field[-1].startswith("# version=")
    stress = (tmp_path / "out" / "stress.csv").read_text().splitlines()
    assert stress[0] == "cell_i,cell_j,sx,sy"


def test_missing_p_is_config_error_exit_2(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path)
    text = open(cfg).read().replace("kind = laplace", "kind = ppower")
    open(cfg, "w").write(text)
    rc = main(["solve", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "integrand" in err and ".p" in err


def test_config_error_naming_field():
    with pytest.raises(ConfigError) as ei:
        raise ConfigError("missing required option", "integrand", "p")
    assert "[integrand.p]" in str(ei.value)


def test_release_curve_and_classify_outputs(tmp_path):
    extra = """
[family]
kind = segments
stride = 32
lengths = 2 4
orientations = v

[release_curve]
l_max = 0.13
levels = 3

[classify]
probes = 0.5 0.5 ; 0.4 0.6
"""
    cfg, out = write_cfg(tmp_path, extra)
    text = open(cfg).read().replace("n = 32", "n = 128")
    open(cfg, "w").write(text)
    assert main(["release-curve", "--config", cfg]) == 0
    assert main(["classify", "--config", cfg]) == 0
    curve = (tmp_path / "out" / "curve.csv").read_text().splitlines()
    assert curve[0] == "l,W,rate,argmin_id,total_energy"
    assert len(curve) == 5  # header + 3 budgets + meta
    sing = (tmp_path / "out" / "singularity.csv").read_text().splitlines()
    assert sing[0] == "x,y,alpha,C,class,delta"
    assert len(sing) == 4
    assert "weak" in sing[1] and "weak" in sing[2]
    assert (tmp_path / "out" / "rates.svg").exists()


def test_evolve_deterministic_across_workers(tmp_path):
    extra = """
[family]
kind = segments+boundary_debond
stride = 16
lengths = 8
spans = 16

[evolve]
horizon = 1.5
steps = 40
k = 1.0
"""
    cfg, out = write_cfg(tmp_path, extra)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "w1"),
                 "--workers", "1"]) == 0
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "w3"),
                 "--workers", "3"]) == 0
    a = read(tmp_path / "w1" / "trajectory.csv")
    b = read(tmp_path / "w3" / "trajectory.csv")
    assert a == b
    assert (tmp_path / "w1" / "h1.svg").exists()


def test_dual_bound_subcommand(tmp_path):
    extra = """
[dual_bound]
m = 1
anchor = 0.5 0.40625
orientation = v
lengths = 4 8
"""
    cfg, out = write_cfg(tmp_path, extra)
    text = open(cfg).read().replace("n = 32", "n = 64")
    open(cfg, "w").write(text)
    assert main(["dual-bound", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "bound_report.csv").read_text().splitlines()
    assert rows[0] == "crack_id,h1,bound,release_measured,ratio,alpha_fit"
    for line in rows[1:3]:
        vals = line.split(",")
        assert float(vals[3]) <= float(vals[2]) + 1e-10  # release <= bound


def test_poincare_subcommand(tmp_path):
    extra = """
[poincare]
case = ii
L = 1.0
M = 2.0
samples = 3
resolution = 24
"""
    cfg, out = write_cfg(tmp_path, extra)
    assert main(["poincare", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "poincare.csv").read_text().splitlines()
    assert rows[0] == "case,L,M,profile_id,C,resolution"
    assert len(rows) == 5


def test_crack_file_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.01 0 0.04 0\n")
    cfg, _ = write_cfg(tmp_path, f"\n[dual_bound]\nm = 1\ncrack_file = {bad}\n")
    rc = main(["dual-bound", "--config", cfg])
    assert rc == 3


CRACK_FILE_SECTIONS = [("solve", "run"), ("dual-bound", "dual_bound"), ("classify", "classify")]


@pytest.mark.parametrize("command, section", CRACK_FILE_SECTIONS)
@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_crack_file_is_config_error(tmp_path, capsys, command, section, kind):
    # a missing file ended in a FileNotFoundError traceback (exit 1)
    path = tmp_path / "crack.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00 0 0 1\n")
    cfg = cfg_with(tmp_path, section, f"crack_file = {path}")
    assert main([command, "--config", cfg]) == 2
    assert f"[{section}.crack_file]" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", CRACK_FILE_SECTIONS)
@pytest.mark.parametrize("coord", ["x", "nan", "inf", "-inf"])
def test_crack_file_coordinate_must_be_a_finite_number(tmp_path, capsys, command, section,
                                                       coord):
    # x and nan ended in a ValueError traceback, inf in an OverflowError (exit 1)
    path = tmp_path / "crack.txt"
    path.write_text(f"# a slit\n0.5 0.25 0.5 0.28125\n0.5 0.28125 {coord} 0.3125\n")
    cfg = cfg_with(tmp_path, section, f"crack_file = {path}")
    assert main([command, "--config", cfg]) == 3
    assert f"{path}:3: coordinates must be finite" in capsys.readouterr().err


def test_crack_with_more_components_than_m_is_budget_error_exit_3(tmp_path, capsys):
    # cover_crack raised a ValueError here, which ended in a traceback (exit 1)
    two = tmp_path / "two.txt"
    two.write_text("0.25 0.5 0.25 0.53125\n0.75 0.5 0.75 0.53125\n")
    cfg, _ = write_cfg(tmp_path, f"\n[dual_bound]\nm = 1\ncrack_file = {two}\n")
    assert main(["dual-bound", "--config", cfg]) == 3
    assert "2 components" in capsys.readouterr().err


def test_seeded_reruns_are_byte_identical(tmp_path):
    extra = """
[poincare]
case = ii
L = 1.0
M = 2.0
samples = 3
resolution = 24
"""
    cfg, out = write_cfg(tmp_path, extra)
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["poincare", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--workers", "2"]) == 0
    assert read(tmp_path / "a" / "poincare.csv") == read(tmp_path / "b" / "poincare.csv")


def test_one_version_string():
    import tomllib
    from pathlib import Path

    import fracturelab
    from fracturelab import report

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        meta = tomllib.load(f)
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == fracturelab.__version__
    assert report.VERSION == fracturelab.__version__


@pytest.mark.parametrize("coefficient, named", [("meyers", "kind = meyers"),
                                                ("checkerboard", "'checkerboard'")])
def test_quadratic_takes_only_a_constant_coefficient(tmp_path, capsys, coefficient, named):
    # the composite has one config path, kind = meyers; any other coefficient
    # under kind = quadratic is an error, not silently the constant matrix
    cfg, _ = write_cfg(tmp_path)
    text = open(cfg).read().replace(
        "kind = laplace", f"kind = quadratic\ncoefficient = {coefficient}\nK = 3\nmatrix = 1 1")
    open(cfg, "w").write(text)
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert named in err and "[integrand.coefficient]" in err


SMALL_RUNS = """
[family]
kind = segments
stride = 16
lengths = 2
orientations = v

[release_curve]
l_max = 0.07
levels = 2

[evolve]
horizon = 1.0
steps = 4

[poincare]
case = ii
L = 1.0
M = 2.0
samples = 1
resolution = 8

[dual_bound]
anchor = 0.5 0.40625
orientation = v
lengths = 3

[classify]
probes = 0.5 0.5
"""


def cfg_with(tmp_path, section, line):
    """BASE plus a small family and runs, with line added to [section] in
    place of the option of that name there.

    BASE's toughness = 1.0 is the default, so it is dropped for line to set it.
    """
    cfg, _ = write_cfg(tmp_path, SMALL_RUNS)
    text = open(cfg).read().replace("toughness = 1.0\n", "")
    head, _, rest = text.partition(f"[{section}]\n")
    body, nxt, tail = rest.partition("\n[")
    option = line.partition(" = ")[0]
    body = "".join(row for row in body.splitlines(True) if row.partition(" = ")[0] != option)
    open(cfg, "w").write(f"{head}[{section}]\n{line}\n{body}{nxt}{tail}")
    return cfg


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-10", "1"])
def test_tol_outside_zero_one_is_config_error(tmp_path, capsys, tol):
    # tol = inf stopped pcg after one iteration and printed a wrong W0 with exit 0
    cfg = cfg_with(tmp_path, "run", f"tol = {tol}")
    assert main(["release-curve", "--config", cfg]) == 2
    assert "[run.tol]" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, line", [
    ("solve", "run", "toughness = nan"),
    ("release-curve", "release_curve", "k = nan"),
    ("release-curve", "release_curve", "k = 0"),
    ("evolve", "evolve", "k = inf"),
    ("evolve", "evolve", "k = -1"),
])
def test_toughness_must_be_finite_and_positive(tmp_path, capsys, command, section, line):
    cfg = cfg_with(tmp_path, section, line)
    assert main([command, "--config", cfg]) == 2
    assert f"[{section}.{line.split()[0]}]" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, line", [
    ("evolve", "evolve", "horizon = nan"),
    ("evolve", "evolve", "horizon = -1"),
    ("evolve", "evolve", "steps = 0"),
    ("poincare", "poincare", "samples = 0"),
    ("poincare", "poincare", "resolution = 0"),
    ("poincare", "poincare", "L = nan"),
    ("poincare", "poincare", "M = 0.5"),
    ("dual-bound", "dual_bound", "m = 0"),
    ("release-curve", "family", "stride = 0"),
    ("solve", "datum", "kind = meyers_trace\nK = 0"),
    ("meyers-verify", "meyers_verify", "K = 0"),
    ("release-curve", "family", "lengths = nan"),
    ("dual-bound", "dual_bound", "lengths = nan"),
    ("release-curve", "family", "kind = segments+boundary_debond\nspans = 0"),
    ("release-curve", "family", "kind = segments+boundary_debond\nspans = nan"),
    ("dual-bound", "dual_bound", "anchor = 0"),
    ("release-curve", "family", "kind = circles\nradii = 0.1\ncenter = 0"),
    ("solve", "integrand", "kind = ppower\np = 0"),
    ("meyers-verify", "meyers_verify", "n = 0"),
    ("poincare", "poincare", "case = x"),
    ("solve", "integrand", "kind = ppower\np = 2\nvalue = nan"),
    ("solve", "integrand", "kind = meyers\nK = nan"),
    ("solve", "datum", "kind = meyers_trace\nK = 3\norientation = x"),
    ("poincare", "run", "seed = -1"),
    ("classify", "classify", "margin = nan"),
    ("classify", "classify", "margin = -0.1"),
    ("classify", "classify", "probes = a b"),
    ("classify", "classify", "probes = 0.5 0.5 ; 0.4 nan"),
    ("release-curve", "release_curve", "l_max = nan"),
    ("release-curve", "release_curve", "l_max = inf"),
    ("release-curve", "release_curve", "l_max = 0"),
    ("release-curve", "release_curve", "l_max = 5e-324"),
    ("release-curve", "release_curve", "budgets = 0.1 nan"),
    ("release-curve", "release_curve", "budgets = -0.1 -0.2"),
    ("release-curve", "family", "orientations = x"),
    ("dual-bound", "dual_bound", "orientation = x"),
    ("release-curve", "family", "kind = circles\ncenter = 0.5 0.5\nradii = -1"),
])
def test_out_of_range_value_is_config_error(tmp_path, capsys, command, section, line):
    # each of these ended in a traceback (exit 1), ran on (exit 0) or failed
    # as a solver error (exit 4); the option named is that of the last line
    cfg = cfg_with(tmp_path, section, line)
    assert main([command, "--config", cfg]) == 2
    assert f"[{section}.{line.splitlines()[-1].split()[0]}]" in capsys.readouterr().err


class Reached(Exception):
    """Raised by a grid or mesh constructor that a capped config must not reach."""


def refuse(*args, **kwargs):
    raise Reached


# 2^20 cells is the cap: 1024^2 and 2048 x 512 are at it, 724 x 1448 under it, and
# each case is one step over
@pytest.mark.parametrize("command, line, named", [
    ("solve", "[grid]\nn = 1025", "[grid.n]"),
    ("solve", "[grid]\nn = 1024\nny = 1025", "[grid.ny]"),
    ("solve", "[domain]\nrect = 0 0 4 1\n[grid]\nn = 2049", "[grid.n]"),
    ("meyers-verify", "[meyers_verify]\nn = 1025", "[meyers_verify.n]"),
    ("poincare", "[poincare]\nresolution = 725", "[poincare.resolution]"),
])
def test_grid_above_two_to_the_twenty_cells_is_config_error(tmp_path, capsys, monkeypatch,
                                                            command, line, named):
    # checked before any grid or mesh is built: these constructors refuse
    monkeypatch.setattr("fracturelab.config.Grid", refuse)
    monkeypatch.setattr("fracturelab.cli.Grid", refuse)
    monkeypatch.setattr("fracturelab.poincare.GraphDomain.build", refuse)
    cfg = tmp_path / "big.ini"
    ini = configparser.ConfigParser()
    ini.read_string(BASE.format(out=tmp_path / "out") + SMALL_RUNS)
    ini.read_string(line)
    with open(cfg, "w") as f:
        ini.write(f)
    assert main([command, "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    # at the cap, each run reaches its constructor
    ini.read_string(line.replace("1025", "1024").replace("2049", "2048").replace("725", "724"))
    with open(cfg, "w") as f:
        ini.write(f)
    with pytest.raises(Reached):
        main([command, "--config", str(cfg)])


@pytest.mark.parametrize("flag, line", [(["--workers", "0"], ""),
                                        (["--workers", "-4"], "workers = 2"),
                                        ([], "workers = 0")])
def test_worker_count_below_one_is_config_error(tmp_path, capsys, flag, line):
    cfg = cfg_with(tmp_path, "run", line)
    assert main(["solve", "--config", cfg, *flag]) == 2
    assert "[run.workers]" in capsys.readouterr().err


@pytest.mark.parametrize("budgets", ["", "0.03 0.06"])
def test_budget_ladder_must_be_non_empty_and_decreasing(tmp_path, capsys, budgets):
    cfg = cfg_with(tmp_path, "release_curve", f"budgets = {budgets}")
    assert main(["release-curve", "--config", cfg]) == 2
    assert "[release_curve.budgets]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "curve.csv").exists()


@pytest.mark.parametrize("text", [
    "n = 32\n",
    "[grid]\nn = 32\nn = 64\n",
    BASE.replace("seed = 0", "seed = 0%"),
], ids=["no-section-header", "option-given-twice", "stray-percent"])
def test_malformed_ini_is_config_error(tmp_path, capsys, text):
    # each ended in a configparser traceback (exit 1)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXPERIMENTS = ("release_curve", "evolve", "dual_bound", "meyers_verify", "poincare", "classify")
# the shipped configs at 16^2 and a few steps, so that each run takes milliseconds
SHRINK = {("grid", "n"): "16", ("meyers_verify", "n"): "16", ("poincare", "resolution"): "8",
          ("poincare", "samples"): "1", ("evolve", "steps"): "4", ("family", "stride"): "4"}
CLASSIFY = BASE.replace("out = {out}", "") + """
[classify]
probes = 0.5 0.5 ; 0.25 0.75
margin = 0.1
"""


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.ini")) + ["classify"])
def test_every_option_set_to_nan_zero_minus_one_or_x_fails_cleanly(tmp_path, capsys, name):
    """Each option of a config set in turn to nan, 0, -1 and x either runs or
    fails with an error class and its exit code: no traceback, no exit 1.
    [run] out is not swept, since --out overrides it."""
    ini = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if name == "classify":
        ini.read_string(CLASSIFY)
    else:
        ini.read(CONFIGS / f"{name}.ini")
    for (section, option), value in SHRINK.items():
        if ini.has_option(section, option):
            ini.set(section, option, value)
    command = next(s for s in EXPERIMENTS if ini.has_section(s)).replace("_", "-")
    cfg = tmp_path / "mutant.ini"
    failures = []
    for section in ini.sections():
        for option in ini.options(section):
            if (section, option) == ("run", "out"):
                continue
            value = ini.get(section, option)
            for bad in ("nan", "0", "-1", "x"):
                ini.set(section, option, bad)
                with open(cfg, "w") as f:
                    ini.write(f)
                try:
                    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
                except Exception as exc:
                    rc = repr(exc)
                if rc not in (0, 2, 3, 4, 5, 6, 7, 8):
                    failures.append(f"[{section}] {option} = {bad}: {rc}")
            ini.set(section, option, value)
    capsys.readouterr()
    assert not failures
