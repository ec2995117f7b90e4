"""Config grammar: parsing, line-anchored errors, round-trips, accessors."""

import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kclattice as kc
import kclattice.config as config_module
import kclattice.verify as verify_module
from kclattice import ConfigError, RunConfig
from kclattice.splitmix import stream
from referees import potential_value


GOOD = """\
[problem]
a = 1.0
b = 0.5
alpha = 1.5
radius = 6
mode = periodic

[potential]
kind = periodic
tau = 3
table = 5 6 7 6 7 8 7 8 9 6 7 8 7 8 9 8 9 10 7 8 9 8 9 10 9 10 11

[nonlinearity]
coefficient = 2.0
exponent = 3.0

[solver]
seed = 7

[kernel]
table_radius = 6

[output]
directory = out

[verify]
radii = 3 4 5

[sweep]
parameter = b
values = 0.0 0.5 1.0
"""


def test_defaults_round_trip():
    cfg = RunConfig.defaults()
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_custom_round_trip():
    cfg = RunConfig.from_text(GOOD)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert cfg.alpha == 1.5
    assert cfg.mode == kc.PERIODIC
    assert cfg.tau == 3
    assert cfg.sweep_parameter == "b"
    assert cfg.sweep_values == (0.0, 0.5, 1.0)


def test_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    cfg = RunConfig.from_file(path)
    assert cfg.radius == 6
    with pytest.raises(OSError):
        RunConfig.from_file(tmp_path / "missing.cfg")


def test_from_file_reads_utf8_and_anchors_a_bad_byte_at_its_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("# température du réseau\n".encode("utf-8") + GOOD.encode("ascii"))
    assert RunConfig.from_file(path) == RunConfig.from_text(GOOD)
    # one Latin-1 byte in a comment on line 3: not UTF-8, so an error at that line
    path.write_bytes(b"[problem]\nradius = 6\n# temp\xe9rature\n")
    with pytest.raises(ConfigError, match="not valid UTF-8") as err:
        RunConfig.from_file(path)
    assert (err.value.path, err.value.line) == (str(path), 3)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n[problem]\n; semicolon comment\nradius = 5\n"
    cfg = RunConfig.from_text(text)
    assert cfg.radius == 5


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d",
                                       "\x1e"])
def test_only_a_newline_ends_a_config_line(separator):
    # str.splitlines would also break here, mid-comment, and shift every later line number
    text = f"# a{separator}b\n[problem]\nradius = 3\n"
    assert RunConfig.from_text(text, "x.cfg").radius == 3
    with pytest.raises(ConfigError, match=r"^x\.cfg:3: \[problem\] radius"):
        RunConfig.from_text(text.replace("3", "three"), "x.cfg")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_configs_parse(newline):
    assert RunConfig.from_text(GOOD.replace("\n", newline)) == RunConfig.from_text(GOOD)
    with pytest.raises(ConfigError, match=r"^<config>:3: "):
        RunConfig.from_text(newline.join(["[problem]", "radius = 4", "mode = sideways", ""]))


@pytest.mark.parametrize("prefix, line", [
    ("# a\u2028b\n[problem]\nradius = 6\n", 4),
    ("# a\x85b\r\n[problem]\r\nradius = 6\r\n", 4),
    ("[problem]\rradius = 6\r", 3),
])
def test_a_bad_byte_is_anchored_at_the_line_an_editor_shows(tmp_path, prefix, line):
    path = tmp_path / "run.cfg"
    path.write_bytes(prefix.encode("utf-8") + b"# temp\xe9rature\n")
    with pytest.raises(ConfigError, match="not valid UTF-8") as err:
        RunConfig.from_file(path)
    assert (err.value.path, err.value.line) == (str(path), line)


def test_unknown_section_is_anchored():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nradius = 4\n\n[extras]\nx = 1\n", path="my.cfg")
    assert str(err.value).startswith("my.cfg:4:")
    assert "extras" in str(err.value)


@pytest.mark.parametrize("text, line, key", [
    pytest.param("[problem]\nradiu = 4\n", 2, "radiu", id="typo"),
    # removed keys: a table depends only on (alpha, table_radius)
    pytest.param("[kernel]\ntable_radius = 16\nmethod = heat_kernel\n", 3, "method",
                 id="removed-method"),
    pytest.param("[problem]\nradius = 4\n\n[kernel]\ntolerance = 1e-12\n", 5, "tolerance",
                 id="removed-tolerance"),
    # removed key: the text format is the only field format
    pytest.param("[output]\ndirectory = out\nsolution_format = binary\n", 3, "solution_format",
                 id="removed-solution-format"),
    # removed key: the solve stops relative to the gradient's scale
    pytest.param("[solver]\nseed = 1\ngradient_tolerance = 1e-9\n", 3, "gradient_tolerance",
                 id="removed-gradient-tolerance"),
    # removed key: the power's superlinearity index is 2p
    pytest.param("[nonlinearity]\ntheta = 5.5\n", 2, "theta", id="removed-theta"),
])
def test_unknown_key_is_anchored(text, line, key):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text(text, path="my.cfg")
    assert str(err.value).startswith(f"my.cfg:{line}:")
    assert f"unknown key {key!r} in section" in str(err.value)


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nradius = 4\n[problem]\na = 1\n")
    assert ":3:" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nradius = 4\nradius = 5\n")
    assert ":3:" in str(err.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("radius = 4\n")
    assert ":1:" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nthis is not a key value pair\n")
    assert ":2:" in str(err.value)


def test_bad_number_is_anchored():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nalpha = fast\n", path="p.cfg")
    assert str(err.value).startswith("p.cfg:2:")


def test_bad_choice_is_anchored():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nmode = reflecting\n")
    assert ":2:" in str(err.value)
    assert "reflecting" in str(err.value)


def test_semantic_error_anchors_to_offending_key():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nradius = -2\n", path="bad.cfg")
    assert str(err.value).startswith("bad.cfg:2:")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[nonlinearity]\nexponent = 1.5\n", path="bad.cfg")
    assert str(err.value).startswith("bad.cfg:2:")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[problem]\nalpha = 3.5\n", path="bad.cfg")
    assert str(err.value).startswith("bad.cfg:2:")


@pytest.mark.parametrize("text, line", [
    pytest.param("[problem]\na = 1.0\nradius = -2\n", 3, id="radius-after-a"),
    pytest.param("[problem]\na = 1.0\nalpha = 5.0\n", 3, id="alpha-after-a"),
    pytest.param("[nonlinearity]\nexponent = nan\n", 2, id="nan-exponent"),
    # a model error naming an unset key anchors at that key's section header
    pytest.param("[problem]\nradius = 2\n\n[potential]\nkind = periodic\ntable = 1.0\n", 4,
                 id="unset-tau"),
])
def test_error_anchors_at_the_key_it_names(text, line):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text(text, path="bad.cfg")
    assert str(err.value).startswith(f"bad.cfg:{line}:")


def test_periodic_potential_semantic_errors():
    # table length must be tau^3
    with pytest.raises(ConfigError):
        RunConfig.from_text("[potential]\nkind = periodic\ntau = 2\ntable = 1 2 3\n")
    # periodic potential entries must stay positive
    with pytest.raises(ConfigError):
        RunConfig.from_text(
            "[potential]\nkind = periodic\ntau = 1\ntable = 0.0\n"
        )


@pytest.mark.parametrize("text, line", [
    ("# tau alone\n[potential]\nkind = periodic\ntau = 3\n", 2),  # the section header
    ("[potential]\nkind = periodic\ntau = 3\ntable =\n", 4),  # the empty table line
])
def test_periodic_potential_without_a_table_anchors_at_the_table(text, line):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text(text, path="bad.cfg")
    assert str(err.value) == (f"bad.cfg:{line}: [potential] table must be set for a "
                              "periodic potential")


def test_periodic_potential_without_a_period_anchors_at_the_section():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[potential]\nkind = periodic\ntable = 1\n", path="bad.cfg")
    assert str(err.value) == "bad.cfg:1: [potential] tau must be set for a periodic potential"


@pytest.mark.parametrize("kind", ["constant", "coercive", "periodic"])
def test_each_kind_reads_the_parameters_of_its_constructor(kind):
    # RunConfig.potential_spec passes a kind's keys by name to PotentialSpec.<kind>
    parameters = inspect.signature(getattr(kc.PotentialSpec, kind)).parameters
    assert config_module._POTENTIAL_KEYS[kind] == tuple(parameters)


def test_sweep_validation():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text("[sweep]\nparameter = gamma\nvalues = 1 2\n")
    assert "gamma" in str(err.value)
    with pytest.raises(ConfigError):
        RunConfig.from_text("[sweep]\nparameter = b\n")


def test_verify_radii_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_text("[verify]\nradii = 6 4\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("[verify]\nradii = 5\n")


def test_verify_refuses_a_repeated_radius():
    # a repeated radius compares a level with itself: its gap is 0 whatever the box
    with pytest.raises(ConfigError, match=r"^<config>:2: \[verify\] radii: need at least two "
                                          r"increasing radii$"):
        RunConfig.from_text("[verify]\nradii = 4 4\n")


def test_the_suite_defaults_are_the_config_defaults():
    # the [verify] keys and [solver] seed are written again in the suite's signatures
    cfg = RunConfig.defaults()
    want = {"seed": cfg.seed, "trials": cfg.verify_trials, "mp_trials": cfg.verify_mp_trials,
            "fiber_fields": cfg.verify_fiber_fields, "level_samples": cfg.verify_level_samples,
            "radii": cfg.verify_radii}
    checks = {verify_module.check_mountain_pass_geometry: {"trials": "mp_trials", "seed": "seed"},
              verify_module.check_hls: {"trials": "trials"},
              verify_module.check_fiber_monotonicity: {"fields": "fiber_fields", "seed": "seed"},
              verify_module.check_level_identity: {"samples": "level_samples", "seed": "seed"},
              verify_module.check_box_convergence: {"radii": "radii"},
              verify_module.run_suite: {key: key for key in want}}
    for function, keys in checks.items():
        params = inspect.signature(function).parameters
        found = {key: params[name].default for name, key in keys.items()}
        assert found == {key: want[key] for key in keys.values()}, function.__name__


def test_file_start_requires_path(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_text("[solver]\ninitial_guess = file\n")
    missing = tmp_path / "u.field"
    cfg = RunConfig.from_text(f"[solver]\ninitial_guess = file\ninitial_file = {missing}\n")
    assert cfg.initial_guess == kc.FILE_START
    with pytest.raises(ValueError):
        cfg.start_field(cfg.problem_spec())  # the file is read here, and it does not exist


def test_problem_spec_accessors():
    cfg = RunConfig.from_text(GOOD)
    spec = cfg.problem_spec()
    assert spec.box.radius == 6
    assert spec.box.mode == kc.PERIODIC
    assert spec.alpha == 1.5
    assert spec.b == 0.5
    assert spec.potential.kind == kc.PERIODIC_POTENTIAL
    assert spec.potential.tau == 3
    assert spec.nonlinearity.coefficient == 2.0


def test_start_field_accessor(tmp_path):
    cfg = RunConfig.from_text(GOOD)
    spec = cfg.problem_spec()
    assert cfg.seed == 7
    assert cfg.start_field(spec) is None  # the solver's default bump
    random = replace(cfg, initial_guess=kc.RANDOM_START)
    expected = kc.random_start_field(spec.box, stream(7), spec.minimum_site)
    assert np.array_equal(random.start_field(spec).values, expected.values)
    saved, path = kc.gaussian_bump_field(spec.box), tmp_path / "start.field"
    kc.save_field_text(saved, path)
    loaded = replace(cfg, initial_guess=kc.FILE_START, initial_file=str(path)).start_field(spec)
    assert loaded.box == spec.box and np.array_equal(loaded.values, saved.values)


def test_solver_keys_validation(tmp_path):
    with pytest.raises(ConfigError, match="initial_guess"):
        RunConfig.from_text("[solver]\ninitial_guess = nope\n")
    missing = tmp_path / "u.field"
    cfg = RunConfig.from_text(f"[solver]\ninitial_guess = file\ninitial_file = {missing}\n")
    with pytest.raises(ConfigError, match=r"^<config>:3: \[solver\] initial_file: cannot read "):
        cfg.start_field(cfg.problem_spec())
    with pytest.raises(ConfigError, match=r"^<config>:2: \[solver\] seed must be nonnegative, "
                                          r"got -1$"):
        RunConfig.from_text("[solver]\nseed = -1\n")


def test_table_radius_defaults():
    dirichlet = RunConfig.from_text("[problem]\nradius = 5\n")
    assert dirichlet.solve_table_radius() == 10
    periodic = RunConfig.from_text("[problem]\nradius = 5\nmode = periodic\n")
    assert periodic.solve_table_radius() == 5
    explicit = RunConfig.from_text("[problem]\nradius = 5\n\n[kernel]\ntable_radius = 14\n")
    assert explicit.solve_table_radius() == 14
    # verify needs to cover its own radii ladder too
    cfg = RunConfig.from_text("[problem]\nradius = 4\n\n[verify]\nradii = 4 6 8 10\n")
    assert cfg.verify_table_radius() == 20
    # check_hls convolves on Dirichlet boxes up to radius 8 in every mode
    periodic = RunConfig.from_text("[problem]\nradius = 2\nmode = periodic\n\n"
                                   "[verify]\nradii = 2 3\n")
    assert periodic.verify_table_radius() == 16


def test_constant_and_coercive_potentials():
    const = RunConfig.from_text("[potential]\nkind = constant\nv0 = 2.0\n")
    assert const.potential_spec().kind == kc.CONSTANT
    assert const.potential_spec().v0 == 2.0
    coer = RunConfig.from_text(
        "[potential]\nkind = coercive\nv0 = 1.5\nrate = 0.5\npower = 1.0\ncenter = 1 0 -1\n"
    )
    pot = coer.potential_spec()
    assert pot.kind == kc.COERCIVE
    assert pot.center == (1, 0, -1)
    assert potential_value(pot, (1, 0, -1)) == 1.5


@pytest.mark.parametrize("kind, keys, stray", [
    ("constant", "v0 = 2.0\n", "rate = 2.0"),
    ("coercive", "v0 = 1.5\nrate = 0.5\npower = 1.0\ncenter = 1 0 -1\n", "tau = 2"),
    ("periodic", "tau = 1\ntable = 2.5\n", "v0 = 1.0"),
])
def test_potential_rejects_a_key_its_kind_does_not_read(kind, keys, stray):
    text = f"[potential]\nkind = {kind}\n{keys}"
    cfg = RunConfig.from_text(text)
    # the snapshot writes the keys the kind reads, and only those
    snapshot = cfg.to_text()
    assert snapshot.split("[potential]\n")[1].split("\n\n")[0] == f"kind = {kind}\n{keys}".strip()
    assert RunConfig.from_text(snapshot) == cfg
    with pytest.raises(ConfigError) as err:
        RunConfig.from_text(f"{text}{stray}\n", path="bad.cfg")
    line = len(text.splitlines()) + 1
    assert str(err.value).startswith(f"bad.cfg:{line}: [potential] {stray.split()[0]}: ")


def _benchmark_runner(monkeypatch):
    """perfbench/run.py as a module, loaded without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("quick", [False, True])
def test_benchmark_workload_configs_parse(monkeypatch, quick):
    # the benchmark writes these configs for the CLI; a key that the parser
    # no longer knows would fail every one of its operations
    run = _benchmark_runner(monkeypatch)
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        for sections in (workload.sections(1, quick), workload.prebuild_sections(1, quick)):
            cfg = RunConfig.from_text(run._ini(sections), name)
            # the snapshot each run writes must parse back to the same run
            assert RunConfig.from_text(cfg.to_text(), name) == cfg
