"""Run configuration: a small sectioned key-value format.

The grammar is INI-shaped: `[section]` headers, `key = value` lines,
blank lines, and comments starting with `#` or `;`.  Values are scalars
or whitespace-separated lists; an empty value means "use the default".
The stock library parser would read this fine but drops line numbers,
and every config error here must point at its file and line, so the
twenty-line parser below keeps them.

Unknown sections and keys are errors, not warnings: a typo that silently
falls back to a default is the worst failure mode a batch run can have.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .energy import PotentialSpec, PowerNonlinearity, ProblemSpec
from .kernel import HEAT_KERNEL, TORUS_QUADRATURE
from .lattice import DIRICHLET, PERIODIC, LatticeBox
from .nehari import FILE_START, GAUSSIAN_BUMP, RANDOM_START, SolveConfig


class ConfigError(ValueError):
    """Config problem with a file:line anchor."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")

# section -> key -> default raw value ("" = unset)
_DEFAULTS = {
    "problem": {
        "a": "1.0",
        "b": "1.0",
        "alpha": "1.0",
        "radius": "8",
        "mode": DIRICHLET,
    },
    "potential": {
        "kind": "coercive",
        "v0": "1.0",
        "rate": "1.0",
        "power": "2.0",
        "center": "0 0 0",
        "tau": "",
        "table": "",
    },
    "nonlinearity": {
        "coefficient": "1.0",
        "exponent": "3.0",
        "theta": "",
    },
    "solver": {
        "seed": "42",
        "max_iterations": "2000",
        "gradient_tolerance": "1e-9",
        "nehari_root_tolerance": "1e-12",
        "sufficient_decrease": "1e-4",
        "backtrack_factor": "0.5",
        "max_backtracks": "60",
        "switch_residual": "1e-3",
        "newton_max_iterations": "30",
        "initial_guess": GAUSSIAN_BUMP,
        "initial_file": "",
        "bump_width": "",
    },
    "kernel": {
        "table_radius": "",
        "method": HEAT_KERNEL,
        "tolerance": "",
        "cache_dir": "",
    },
    "output": {
        "directory": "run",
        "solution_format": "text",
    },
    "verify": {
        "trials": "200",
        "mp_trials": "100",
        "fiber_fields": "20",
        "level_samples": "20",
        "radii": "4 6 8 10",
    },
    "sweep": {
        "parameter": "",
        "values": "",
    },
}

_SECTION_ORDER = ("problem", "potential", "nonlinearity", "solver", "kernel",
                  "output", "verify", "sweep")


def _parse_sections(text: str, path: str):
    """Raw parse: {section: {key: (value, line)}} plus section header lines."""
    sections = {}
    section_lines = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            current = header.group(1)
            if current not in _DEFAULTS:
                raise ConfigError(path, lineno, f"unknown section [{current}]")
            if current in sections:
                raise ConfigError(path, lineno, f"duplicate section [{current}]")
            sections[current] = {}
            section_lines[current] = lineno
            continue
        entry = _KEY_RE.match(line)
        if entry is None:
            raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(path, lineno, "key outside of any [section]")
        key, value = entry.group(1), entry.group(2).strip()
        if key not in _DEFAULTS[current]:
            raise ConfigError(path, lineno, f"unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(path, lineno, f"duplicate key {key!r} in section [{current}]")
        sections[current][key] = (value, lineno)
    return sections, section_lines


class _Section:
    """Typed access to one section's entries with line-anchored errors."""

    def __init__(self, path: str, name: str, entries: dict, header_line: int):
        self.path = path
        self.name = name
        self.entries = entries
        self.header_line = header_line

    def raw(self, key: str):
        if key in self.entries:
            return self.entries[key]
        return _DEFAULTS[self.name][key], self.header_line

    def error(self, key: str, message: str) -> ConfigError:
        _, line = self.raw(key)
        return ConfigError(self.path, line, f"[{self.name}] {key}: {message}")

    def string(self, key: str) -> str:
        return self.raw(key)[0]

    def floating(self, key: str) -> float:
        value, _ = self.raw(key)
        try:
            return float(value)
        except ValueError:
            raise self.error(key, f"expected a number, got {value!r}") from None

    def integer(self, key: str) -> int:
        value, _ = self.raw(key)
        try:
            return int(value)
        except ValueError:
            raise self.error(key, f"expected an integer, got {value!r}") from None

    def optional_floating(self, key: str):
        return None if self.string(key) == "" else self.floating(key)

    def optional_integer(self, key: str):
        return None if self.string(key) == "" else self.integer(key)

    def optional_string(self, key: str):
        return self.string(key) or None

    def choice(self, key: str, options) -> str:
        value = self.string(key)
        if value not in options:
            raise self.error(key, f"must be one of {sorted(options)}, got {value!r}")
        return value

    def int_list(self, key: str):
        value, _ = self.raw(key)
        try:
            return tuple(int(tok) for tok in value.split())
        except ValueError:
            raise self.error(key, f"expected integers, got {value!r}") from None

    def float_list(self, key: str):
        value, _ = self.raw(key)
        try:
            return tuple(float(tok) for tok in value.split())
        except ValueError:
            raise self.error(key, f"expected numbers, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, as plain typed data."""

    a: float
    b: float
    alpha: float
    radius: int
    mode: str
    potential_kind: str
    v0: float
    rate: float
    power: float
    center: tuple
    tau: int
    table: tuple
    coefficient: float
    exponent: float
    theta: float
    seed: int
    max_iterations: int
    gradient_tolerance: float
    nehari_root_tolerance: float
    sufficient_decrease: float
    backtrack_factor: float
    max_backtracks: int
    switch_residual: float
    newton_max_iterations: int
    initial_guess: str
    initial_file: str
    bump_width: float
    table_radius: int
    method: str
    kernel_tolerance: float
    cache_dir: str
    output_directory: str
    solution_format: str
    verify_trials: int
    verify_mp_trials: int
    verify_fiber_fields: int
    verify_level_samples: int
    verify_radii: tuple
    sweep_parameter: str
    sweep_values: tuple
    sections: dict = field(compare=False, repr=False)  # anchors later errors at file:line

    @classmethod
    def from_text(cls, text: str, path: str = "<config>") -> "RunConfig":
        sections, header_lines = _parse_sections(text, path)
        secs = {
            name: _Section(path, name, sections.get(name, {}), header_lines.get(name, 0))
            for name in _DEFAULTS
        }
        prob, pot = secs["problem"], secs["potential"]
        nl, sol = secs["nonlinearity"], secs["solver"]
        kern, out = secs["kernel"], secs["output"]
        ver, sweep = secs["verify"], secs["sweep"]

        config = cls(
            a=prob.floating("a"),
            b=prob.floating("b"),
            alpha=prob.floating("alpha"),
            radius=prob.integer("radius"),
            mode=prob.choice("mode", (DIRICHLET, PERIODIC)),
            potential_kind=pot.choice("kind", ("constant", "coercive", "periodic")),
            v0=pot.floating("v0"),
            rate=pot.floating("rate"),
            power=pot.floating("power"),
            center=pot.int_list("center"),
            tau=pot.optional_integer("tau") or 0,
            table=pot.float_list("table"),
            coefficient=nl.floating("coefficient"),
            exponent=nl.floating("exponent"),
            theta=nl.optional_floating("theta"),
            seed=sol.integer("seed"),
            max_iterations=sol.integer("max_iterations"),
            gradient_tolerance=sol.floating("gradient_tolerance"),
            nehari_root_tolerance=sol.floating("nehari_root_tolerance"),
            sufficient_decrease=sol.floating("sufficient_decrease"),
            backtrack_factor=sol.floating("backtrack_factor"),
            max_backtracks=sol.integer("max_backtracks"),
            switch_residual=sol.floating("switch_residual"),
            newton_max_iterations=sol.integer("newton_max_iterations"),
            initial_guess=sol.choice("initial_guess", (GAUSSIAN_BUMP, RANDOM_START, FILE_START)),
            initial_file=sol.optional_string("initial_file"),
            bump_width=sol.optional_floating("bump_width"),
            table_radius=kern.optional_integer("table_radius"),
            method=kern.choice("method", (HEAT_KERNEL, TORUS_QUADRATURE)),
            kernel_tolerance=kern.optional_floating("tolerance"),
            cache_dir=kern.optional_string("cache_dir"),
            output_directory=out.string("directory"),
            solution_format=out.choice("solution_format", ("text", "binary")),
            verify_trials=ver.integer("trials"),
            verify_mp_trials=ver.integer("mp_trials"),
            verify_fiber_fields=ver.integer("fiber_fields"),
            verify_level_samples=ver.integer("level_samples"),
            verify_radii=ver.int_list("radii"),
            sweep_parameter=sweep.optional_string("parameter"),
            sweep_values=sweep.float_list("values"),
            sections=secs,
        )
        config._validate(secs)
        return config

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_text(handle.read(), str(path))

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls.from_text("")

    def _validate(self, secs) -> None:
        # semantic (cross-field) constraints reuse the model constructors;
        # errors anchor at the owning section header
        try:
            self.problem_spec()
        except ValueError as exc:
            text = str(exc)
            for name in ("nonlinearity", "potential", "problem"):
                if not _mentions_section(text, name):
                    continue
                sec = secs[name]
                # prefer the offending key's own line when the user set it
                for key in _DEFAULTS[name]:
                    if key in text and key in sec.entries:
                        raise ConfigError(sec.path, sec.entries[key][1],
                                          f"[{name}] {exc}") from None
                raise ConfigError(sec.path, sec.header_line, f"[{name}] {exc}") from None
            prob = secs["problem"]
            raise ConfigError(prob.path, prob.header_line, f"[problem] {exc}") from None
        sol = secs["solver"]
        if self.initial_guess == FILE_START and self.initial_file is None:
            raise sol.error("initial_file", "required when initial_guess = file")
        try:
            # file starts are validated with a stand-in guess; the field
            # itself is loaded later by whoever runs the solve
            self._solver_knobs(GAUSSIAN_BUMP if self.initial_guess == FILE_START
                               else self.initial_guess, None)
        except ValueError as exc:
            # the solver's messages start with the offending knob's name
            key = str(exc).split()[0]
            line = sol.entries[key][1] if key in sol.entries else sol.header_line
            raise ConfigError(sol.path, line, f"[solver] {exc}") from None
        for key in ("trials", "mp_trials", "fiber_fields", "level_samples"):
            if getattr(self, f"verify_{key}") < 1:
                raise secs["verify"].error(key, "must be at least 1")
        if len(self.verify_radii) < 2 or list(self.verify_radii) != sorted(self.verify_radii):
            raise secs["verify"].error("radii", "need at least two increasing radii")
        try:
            LatticeBox(self.verify_radii[0], self.mode)  # the radii increase
        except ValueError as exc:
            raise secs["verify"].error("radii", str(exc)) from None
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in ("b", "p", "alpha", "radius"):
                raise secs["sweep"].error(
                    "parameter", f"must be one of ['alpha', 'b', 'p', 'radius'], "
                    f"got {self.sweep_parameter!r}")
            if not self.sweep_values:
                raise secs["sweep"].error("values", "sweep needs at least one value")

    def box(self) -> LatticeBox:
        return LatticeBox(self.radius, self.mode)

    def potential_spec(self) -> PotentialSpec:
        if self.potential_kind == "constant":
            return PotentialSpec.constant(self.v0)
        if self.potential_kind == "coercive":
            return PotentialSpec.coercive(self.v0, self.rate, self.power, self.center)
        if self.tau < 1:
            raise ValueError("periodic potential needs tau set")
        if not self.table:
            raise ValueError("periodic potential needs its value table")
        return PotentialSpec.periodic(self.tau, self.table)

    def nonlinearity(self) -> PowerNonlinearity:
        return PowerNonlinearity(self.coefficient, self.exponent, self.theta)

    def problem_spec(self) -> ProblemSpec:
        return ProblemSpec(self.box(), self.potential_spec(), self.nonlinearity(),
                           self.alpha, self.a, self.b)

    def solve_config(self, initial_field=None, seed=None) -> SolveConfig:
        guess = self.initial_guess
        if initial_field is not None:
            guess = FILE_START
        elif guess == FILE_START:
            raise ValueError("initial_guess = file needs the field loaded and passed in")
        return self._solver_knobs(guess, initial_field, seed)

    def _solver_knobs(self, guess, initial_field, seed=None) -> SolveConfig:
        return SolveConfig(
            max_iterations=self.max_iterations,
            gradient_tolerance=self.gradient_tolerance,
            nehari_root_tolerance=self.nehari_root_tolerance,
            sufficient_decrease=self.sufficient_decrease,
            backtrack_factor=self.backtrack_factor,
            max_backtracks=self.max_backtracks,
            switch_residual=self.switch_residual,
            newton_max_iterations=self.newton_max_iterations,
            seed=self.seed if seed is None else seed,
            initial_guess=guess,
            initial_field=initial_field,
            bump_width=self.bump_width,
        )

    def solve_table_radius(self) -> int:
        """Kernel radius for a solve on the box; a smaller set table_radius is a ConfigError."""
        return self._table_radius(self.radius)

    def verify_table_radius(self) -> int:
        """Kernel radius covering the verify suite's largest box, checked the same way."""
        return self._table_radius(max((self.radius,) + tuple(self.verify_radii) + (8,)))

    def _table_radius(self, top: int) -> int:
        needed = 2 * top if self.mode == DIRICHLET else top
        if self.table_radius is not None and self.table_radius < needed:
            raise self.sections["kernel"].error("table_radius", (
                f"{self.table_radius} cannot cover a {self.mode} box of radius {top} "
                f"(needs >= {needed})"))
        return needed if self.table_radius is None else self.table_radius

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_text(self) -> str:
        """Canonical serialization; parses back to an equal RunConfig."""
        values = {
            "problem": {
                "a": _fmt(self.a), "b": _fmt(self.b), "alpha": _fmt(self.alpha),
                "radius": str(self.radius), "mode": self.mode,
            },
            "potential": {
                "kind": self.potential_kind, "v0": _fmt(self.v0),
                "rate": _fmt(self.rate), "power": _fmt(self.power),
                "center": " ".join(str(c) for c in self.center),
                "tau": "" if self.tau == 0 else str(self.tau),
                "table": " ".join(_fmt(t) for t in self.table),
            },
            "nonlinearity": {
                "coefficient": _fmt(self.coefficient),
                "exponent": _fmt(self.exponent),
                "theta": _fmt_optional(self.theta),
            },
            "solver": {
                "seed": str(self.seed),
                "max_iterations": str(self.max_iterations),
                "gradient_tolerance": _fmt(self.gradient_tolerance),
                "nehari_root_tolerance": _fmt(self.nehari_root_tolerance),
                "sufficient_decrease": _fmt(self.sufficient_decrease),
                "backtrack_factor": _fmt(self.backtrack_factor),
                "max_backtracks": str(self.max_backtracks),
                "switch_residual": _fmt(self.switch_residual),
                "newton_max_iterations": str(self.newton_max_iterations),
                "initial_guess": self.initial_guess,
                "initial_file": self.initial_file or "",
                "bump_width": _fmt_optional(self.bump_width),
            },
            "kernel": {
                "table_radius": "" if self.table_radius is None else str(self.table_radius),
                "method": self.method,
                "tolerance": _fmt_optional(self.kernel_tolerance),
                "cache_dir": self.cache_dir or "",
            },
            "output": {
                "directory": self.output_directory,
                "solution_format": self.solution_format,
            },
            "verify": {
                "trials": str(self.verify_trials),
                "mp_trials": str(self.verify_mp_trials),
                "fiber_fields": str(self.verify_fiber_fields),
                "level_samples": str(self.verify_level_samples),
                "radii": " ".join(str(r) for r in self.verify_radii),
            },
            "sweep": {
                "parameter": self.sweep_parameter or "",
                "values": " ".join(_fmt(v) for v in self.sweep_values),
            },
        }
        chunks = []
        for section in _SECTION_ORDER:
            chunks.append(f"[{section}]")
            for key in _DEFAULTS[section]:
                chunks.append(f"{key} = {values[section][key]}".rstrip())
            chunks.append("")
        return "\n".join(chunks)


def _mentions_section(message: str, name: str) -> bool:
    hints = {
        "nonlinearity": ("nonlinearity", "theta", "exceed 2"),
        "potential": ("potential", "period", "table", "floor", "center"),
        "problem": ("diffusion", "Kirchhoff", "fractional", "power exponent", "radius"),
    }
    return any(h in message for h in hints[name])


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_optional(x) -> str:
    return "" if x is None else _fmt(x)
