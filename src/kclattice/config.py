"""Run configuration: a small sectioned key-value format.

The grammar is INI-shaped: `[section]` headers, `key = value` lines,
blank lines, and comments starting with `#` or `;`.  Values are scalars
or whitespace-separated lists; a key whose default is empty is optional,
and an empty value leaves it unset.
The stock library parser would read this fine but drops line numbers,
and every config error here must point at its file and line, so the
twenty-line parser below keeps them.

Each key is declared once, as a `RunConfig` field whose `_key(...)`
names its section, key, default text, kind and choices.  The key
whitelist, parsing, `to_text` and the error anchors are all read off
those declarations.  Model errors name their parameter first (``"b
(the Kirchhoff weight) must be ..."``) and anchor at that key's line,
or at its section header when the key is unset.

Unknown sections and keys are errors, not warnings: a typo that silently
falls back to a default is the worst failure mode a batch run can have.
So is a `[potential]` key that the potential's kind does not read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .energy import (
    COERCIVE,
    CONSTANT,
    PERIODIC_POTENTIAL,
    PotentialSpec,
    PowerNonlinearity,
    ProblemSpec,
)
from .kernel import block_radius, check_table_fits
from .lattice import DIRICHLET, PERIODIC, Field, LatticeBox, load_field_text
from .nehari import random_start_field

# [solver] initial_guess: the solver's default bump, a seeded random field, a field file
GAUSSIAN_BUMP = "gaussian_bump"
RANDOM_START = "random"
FILE_START = "file"


class ConfigError(ValueError):
    """Config problem with a file:line anchor."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
# only these end a line; str.splitlines would also break at U+0085, U+2028, \f and the like
_NEWLINE_RE = re.compile(r"\r\n|\r|\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


class _Kind(NamedTuple):
    """How one kind of value is read from and written to text."""

    expected: str  # what a parse error says it wanted
    parse: Callable  # text -> value; raises ValueError
    format: Callable  # value -> canonical text
    unset: object = None  # value of an optional key left empty


_FLOAT = _Kind("a finite number", _finite, _fmt)
_INT = _Kind("an integer", int, str)
_TEXT = _Kind("text", str, str)
_FLOATS = _Kind("finite numbers", lambda text: tuple(map(_finite, text.split())),
                lambda values: " ".join(map(_fmt, values)), ())
_INTS = _Kind("integers", lambda text: tuple(map(int, text.split())),
              lambda values: " ".join(map(str, values)), ())


class _Section:
    """One section's entries {key: (value, line)} and header line (0 if absent)."""

    def __init__(self, path: str, name: str, entries: dict, header_line: int):
        self.path = path
        self.name = name
        self.entries = entries
        self.header_line = header_line

    def line(self, key: str) -> int:
        return self.entries[key][1] if key in self.entries else self.header_line

    def error(self, key: str, message: str) -> ConfigError:
        return ConfigError(self.path, self.line(key), f"[{self.name}] {key}: {message}")


@dataclass(frozen=True)
class _Key:
    """The declaration of one INI key."""

    section: str
    key: str
    default: str  # text; "" makes the key optional
    kind: _Kind
    choices: tuple = ()

    def parse(self, sec: _Section):
        text = sec.entries.get(self.key, (self.default,))[0]
        if text == "" == self.default:
            return self.kind.unset
        if self.choices and text not in self.choices:
            raise sec.error(self.key, f"must be one of {sorted(self.choices)}, got {text!r}")
        try:
            return self.kind.parse(text)
        except ValueError:
            raise sec.error(self.key, f"expected {self.kind.expected}, got {text!r}") from None

    def format(self, value) -> str:
        return "" if value is None else self.kind.format(value)


def _key(section: str, key: str, default: str, kind: _Kind, choices=()):
    return field(metadata={"ini": _Key(section, key, default, kind, choices)})


# [potential] kind -> the keys it reads besides `kind`: the parameters of PotentialSpec.<kind>
_POTENTIAL_KEYS = {CONSTANT: ("v0",), COERCIVE: ("v0", "rate", "power", "center"),
                   PERIODIC_POTENTIAL: ("tau", "table")}

# [sweep] parameter -> the RunConfig field a sweep varies
_SWEEPABLE = {"b": "b", "p": "exponent", "alpha": "alpha", "radius": "radius"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, as plain typed data; every field but `sections` is an INI key."""

    a: float = _key("problem", "a", "1.0", _FLOAT)
    b: float = _key("problem", "b", "1.0", _FLOAT)
    alpha: float = _key("problem", "alpha", "1.0", _FLOAT)
    radius: int = _key("problem", "radius", "8", _INT)
    mode: str = _key("problem", "mode", DIRICHLET, _TEXT, (DIRICHLET, PERIODIC))
    potential_kind: str = _key("potential", "kind", COERCIVE, _TEXT,
                               (CONSTANT, COERCIVE, PERIODIC_POTENTIAL))
    v0: float = _key("potential", "v0", "1.0", _FLOAT)
    rate: float = _key("potential", "rate", "1.0", _FLOAT)
    power: float = _key("potential", "power", "2.0", _FLOAT)
    center: tuple = _key("potential", "center", "0 0 0", _INTS)
    tau: int = _key("potential", "tau", "", _INT)
    table: tuple = _key("potential", "table", "", _FLOATS)
    coefficient: float = _key("nonlinearity", "coefficient", "1.0", _FLOAT)
    exponent: float = _key("nonlinearity", "exponent", "3.0", _FLOAT)
    seed: int = _key("solver", "seed", "42", _INT)
    initial_guess: str = _key("solver", "initial_guess", GAUSSIAN_BUMP, _TEXT,
                              (GAUSSIAN_BUMP, RANDOM_START, FILE_START))
    initial_file: str = _key("solver", "initial_file", "", _TEXT)
    table_radius: int = _key("kernel", "table_radius", "", _INT)
    cache_dir: str = _key("kernel", "cache_dir", "", _TEXT)
    output_directory: str = _key("output", "directory", "run", _TEXT)
    verify_trials: int = _key("verify", "trials", "200", _INT)
    verify_mp_trials: int = _key("verify", "mp_trials", "100", _INT)
    verify_fiber_fields: int = _key("verify", "fiber_fields", "20", _INT)
    verify_level_samples: int = _key("verify", "level_samples", "20", _INT)
    verify_radii: tuple = _key("verify", "radii", "4 6 8 10", _INTS)
    sweep_parameter: str = _key("sweep", "parameter", "", _TEXT, tuple(_SWEEPABLE))
    sweep_values: tuple = _key("sweep", "values", "", _FLOATS)
    sections: dict = field(compare=False, repr=False)  # anchors later errors at file:line

    @classmethod
    def from_text(cls, text: str, path: str = "<config>") -> "RunConfig":
        sections = _parse_sections(text, path)
        config = cls(**{name: decl.parse(sections[decl.section])
                        for name, decl in _KEYS.items()}, sections=sections)
        config._validate()
        return config

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in a UTF-8 file; a byte that is not UTF-8 is a ConfigError at its line."""
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # the line of the bad byte, as _parse_sections counts
            line = len(_NEWLINE_RE.split(data[:exc.start].decode("utf-8")))
            raise ConfigError(str(path), line, f"not valid UTF-8 at byte "
                              f"{data[exc.start]:#04x}") from None
        return cls.from_text(text, str(path))

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls.from_text("")

    def _validate(self) -> None:
        # semantic (cross-field) constraints reuse the model constructors
        secs = self.sections
        try:
            self.box()
        except ValueError as exc:
            raise secs["problem"].error("radius", str(exc)) from None
        pot = secs["potential"]
        for key, (text, _) in pot.entries.items():
            if text and not self._reads("potential", key):
                raise pot.error(key, f"a {self.potential_kind} potential does not read it")
        try:
            self.problem_spec()
        except ValueError as exc:  # a model error names its key first; anchor it at that key
            key = str(exc).split()[0]
            sec = next((secs[n] for n in ("potential", "nonlinearity") if key in _SECTIONS[n]),
                       secs["problem"])
            raise ConfigError(sec.path, sec.line(key), f"[{sec.name}] {exc}") from None
        if self.initial_guess == FILE_START and self.initial_file is None:
            raise secs["solver"].error("initial_file", "required when initial_guess = file")
        if self.seed < 0:
            sec = secs["solver"]
            raise ConfigError(sec.path, sec.line("seed"),
                              f"[solver] seed must be nonnegative, got {self.seed}")
        if self.table_radius is not None:
            if self.table_radius < 0:
                raise secs["kernel"].error("table_radius", "must be nonnegative")
            self._within_memory(self.table_radius, "kernel", "table_radius")
        ver = secs["verify"]
        for key in ("trials", "mp_trials", "fiber_fields", "level_samples"):
            if getattr(self, f"verify_{key}") < 1:
                raise ver.error(key, "must be at least 1")
        radii = self.verify_radii
        if len(radii) < 2 or any(lo >= hi for lo, hi in zip(radii, radii[1:])):
            raise ver.error("radii", "need at least two increasing radii")
        try:
            LatticeBox(radii[0], self.mode)  # the radii increase
        except ValueError as exc:
            raise ver.error("radii", str(exc)) from None
        if self.sweep_parameter is not None:
            if not self.sweep_values:
                raise secs["sweep"].error("values", "sweep needs at least one value")
            swept = _KEYS[_SWEEPABLE[self.sweep_parameter]]
            if swept.kind is _INT and any(v != int(v) for v in self.sweep_values):
                raise secs["sweep"].error(
                    "values", f"{self.sweep_parameter} values must be integers")
            if self.sweep_parameter == "radius" and max(self.sweep_values) > 0:
                # the largest radius needs the largest table; one no box takes fails its point
                top = LatticeBox(int(max(self.sweep_values)), self.mode)
                self._within_memory(block_radius(top), "sweep", "values")

    def _within_memory(self, table_radius: int, section: str, key: str) -> int:
        """table_radius, if the machine can hold its kernel table; else a ConfigError at key."""
        try:
            check_table_fits(table_radius)
        except ValueError as exc:
            raise self.sections[section].error(key, str(exc)) from None
        return table_radius

    def _reads(self, section: str, key: str) -> bool:
        """Whether this run reads the key: a potential reads only its kind's keys."""
        return section != "potential" or key in ("kind",) + _POTENTIAL_KEYS[self.potential_kind]

    def box(self) -> LatticeBox:
        return LatticeBox(self.radius, self.mode)

    def potential_spec(self) -> PotentialSpec:
        """The potential from ``PotentialSpec.<kind>`` and the keys the kind reads, all set."""
        kind = self.potential_kind
        args = {key: getattr(self, key) for key in _POTENTIAL_KEYS[kind]}
        for key, value in args.items():
            if not _KEYS[key].default and value == _KEYS[key].kind.unset:
                raise ValueError(f"{key} must be set for a {kind} potential")
        return getattr(PotentialSpec, kind)(**args)

    def problem_spec(self) -> ProblemSpec:
        nl = PowerNonlinearity(self.coefficient, self.exponent)
        return ProblemSpec(self.box(), self.potential_spec(), nl, self.alpha, self.a, self.b)

    def start_field(self, spec: ProblemSpec) -> Field:
        """The solve's start on spec's box; None starts the solver from its default bump.

        A random start is keyed by the seed and centered at the potential's
        minimum site.  A file start reads initial_file; a file that cannot be
        read, holds a field on another box or holds the zero field is a
        ConfigError at that key.
        """
        if self.initial_guess == GAUSSIAN_BUMP:
            return None
        if self.initial_guess == RANDOM_START:
            from .splitmix import stream  # only a random start loads the stream

            return random_start_field(spec.box, stream(self.seed), spec.minimum_site)
        path, solver, box = self.initial_file, self.sections["solver"], spec.box
        try:
            initial = load_field_text(path)
        except (OSError, ValueError) as exc:
            raise solver.error("initial_file", f"cannot read {path}: {exc}") from None
        if initial.box != box:
            raise solver.error("initial_file", f"{path} holds a field on a radius-"
                               f"{initial.box.radius} {initial.box.mode} box, not on the "
                               f"problem's radius-{box.radius} {box.mode} box")
        if not initial.values.any():
            raise solver.error("initial_file", f"{path} holds the zero field, which no solve "
                               "can start from")
        return initial

    def sweep_point(self, value: float) -> "RunConfig":
        """This run with the sweep parameter set to one of the sweep values."""
        name = _SWEEPABLE[self.sweep_parameter]
        return replace(self, **{name: int(value) if _KEYS[name].kind is _INT else value})

    def solve_table_radius(self) -> int:
        """Kernel radius for a solve on the box; a smaller set table_radius, or a table
        the machine cannot hold, is a ConfigError."""
        return self._table_radius(("problem", "radius"), self.box())

    def verify_table_radius(self) -> int:
        """Kernel radius covering every box the verify suite convolves on, checked the same way.

        Besides the run's own boxes, check_hls convolves on Dirichlet boxes
        of radii HLS_RADII whatever the run's mode.
        """
        from .verify import HLS_RADII

        top = max((self.radius,) + tuple(self.verify_radii))
        key = ("problem", "radius") if top == self.radius else ("verify", "radii")
        return self._table_radius(key, LatticeBox(top, self.mode), LatticeBox(max(HLS_RADII)))

    def _table_radius(self, key, *boxes) -> int:
        """The set table_radius, else the one the largest box needs; key = (section, key)
        sets that box's radius, and is where a table too big for the machine is refused."""
        box = max(boxes, key=block_radius)
        needed = block_radius(box)
        if self.table_radius is None:
            return self._within_memory(needed, *key)
        if self.table_radius < needed:
            raise self.sections["kernel"].error("table_radius", (
                f"{self.table_radius} cannot cover a {box.mode} box of radius {box.radius} "
                f"(needs >= {needed})"))
        return self.table_radius

    def to_text(self) -> str:
        """Canonical serialization of the keys the run reads; parses back to an equal RunConfig."""
        chunks = []
        for section, keys in _SECTIONS.items():
            chunks.append(f"[{section}]")
            chunks.extend(f"{key} = {_KEYS[name].format(getattr(self, name))}".rstrip()
                          for key, name in keys.items() if self._reads(section, key))
            chunks.append("")
        return "\n".join(chunks)


# field name -> declaration, and section -> {key: field name}, in declaration order
_KEYS = {f.name: f.metadata["ini"] for f in fields(RunConfig) if "ini" in f.metadata}
_SECTIONS = {section: {d.key: name for name, d in _KEYS.items() if d.section == section}
             for section in dict.fromkeys(d.section for d in _KEYS.values())}


def _parse_sections(text: str, path: str) -> dict:
    """{section: _Section} for every declared section, each entry with its line."""
    entries, header_lines = {}, {}
    current = None
    for lineno, raw in enumerate(_NEWLINE_RE.split(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        header = _SECTION_RE.match(line)
        if header:
            current = header.group(1)
            if current not in _SECTIONS:
                raise ConfigError(path, lineno, f"unknown section [{current}]")
            if current in entries:
                raise ConfigError(path, lineno, f"duplicate section [{current}]")
            entries[current] = {}
            header_lines[current] = lineno
            continue
        entry = _KEY_RE.match(line)
        if entry is None:
            raise ConfigError(path, lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(path, lineno, "key outside of any [section]")
        key, value = entry.group(1), entry.group(2).strip()
        if key not in _SECTIONS[current]:
            raise ConfigError(path, lineno, f"unknown key {key!r} in section [{current}]")
        if key in entries[current]:
            raise ConfigError(path, lineno, f"duplicate key {key!r} in section [{current}]")
        entries[current][key] = (value, lineno)
    return {name: _Section(path, name, entries.get(name, {}), header_lines.get(name, 0))
            for name in _SECTIONS}
