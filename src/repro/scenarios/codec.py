"""Scenario (de)serialization: TOML documents in, frozen specs out.

The codec holds no schema of its own.  Every key, its TOML type and its
default come from the dataclass fields of :mod:`.model`, read once per
class, so a new spec field needs no codec edit.  ``[scenario]`` holds
the four header keys; every other :class:`Scenario` field is a
top-level table of its own.

The codec is strict in both directions.  Loading *consumes* every key it
understands and rejects whatever is left over — a typo like
``job_per_hour`` fails with the full key path instead of silently running
the default.  Dumping writes a key if and only if its value differs from
the field's default, in field order, so ``loads(dumps(s)) == s`` holds by
construction and ``dumps(loads(text))`` is a fixed point after a single
round trip (the round-trip stability the tests pin).
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..errors import ScenarioError
from . import tomlio
from .model import Scenario

#: The keys ``[scenario]`` holds.
_HEADER = ("name", "description", "seed", "tags")


class _Table:
    """One TOML table being consumed key by key."""

    def __init__(self, payload: Dict[str, Any], path: str) -> None:
        if not isinstance(payload, dict):
            raise ScenarioError(
                f"[{path}] must be a table, got {type(payload).__name__}"
            )
        self.payload = dict(payload)
        self.path = path

    def _label(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take_scalar(self, key: str, kinds: tuple, default: Any) -> Any:
        value = self.payload.pop(key, default)
        if value is None:
            return None
        if isinstance(value, bool) and bool not in kinds:
            raise ScenarioError(
                f"{self._label(key)} must not be a boolean"
            )
        if not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            raise ScenarioError(
                f"{self._label(key)} must be {names}, "
                f"got {type(value).__name__}"
            )
        return value

    def take_list(self, key: str, default: tuple) -> Tuple[Any, ...]:
        value = self.payload.pop(key, None)
        if value is None:
            return tuple(default)
        if not isinstance(value, list):
            raise ScenarioError(
                f"{self._label(key)} must be an array, "
                f"got {type(value).__name__}"
            )
        return tuple(value)

    def take_table(self, key: str) -> Optional["_Table"]:
        value = self.payload.pop(key, None)
        if value is None:
            return None
        return _Table(value, self._label(key))

    def take_table_array(self, key: str) -> List["_Table"]:
        value = self.payload.pop(key, None)
        if value is None:
            return []
        if not isinstance(value, list):
            raise ScenarioError(
                f"{self._label(key)} must be an array of tables"
            )
        return [
            _Table(item, f"{self._label(key)}[{i}]")
            for i, item in enumerate(value)
        ]

    def finish(self) -> None:
        """Reject whatever keys were never consumed."""
        if self.payload:
            keys = ", ".join(sorted(self.payload))
            where = f" in [{self.path}]" if self.path else ""
            raise ScenarioError(f"unknown key(s){where}: {keys}")


# ----------------------------------------------------------------------
# The schema, read off the model
# ----------------------------------------------------------------------
class _Field(NamedTuple):
    """One spec field and the TOML shape its annotation maps to."""

    name: str
    #: ``"scalar"``, ``"array"``, ``"table"`` or ``"tables"``.
    shape: str
    #: Accepted Python types (scalars) or the nested spec class (tables).
    arg: Any
    default: Any


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[_Field, ...]:
    """The TOML schema of spec class ``cls``, in field order.

    ``float`` accepts int or float, other scalars only themselves;
    ``Optional[X]`` is ``X``; ``Tuple[X, ...]`` is an array, or an array
    of tables when ``X`` is a spec; a spec is a table.
    """
    hints = typing.get_type_hints(cls)
    schema = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if typing.get_origin(hint) is typing.Union:
            hint = next(a for a in typing.get_args(hint) if a is not type(None))
        if typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            shape, arg = (
                ("tables", item) if dataclasses.is_dataclass(item)
                else ("array", None)
            )
        elif dataclasses.is_dataclass(hint):
            shape, arg = "table", hint
        else:
            shape, arg = "scalar", (int, float) if hint is float else (hint,)
        default = (
            field.default
            if field.default_factory is dataclasses.MISSING
            else field.default_factory()
        )
        schema.append(_Field(field.name, shape, arg, default))
    return tuple(schema)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _take(table: _Table, field: _Field) -> Any:
    if field.shape == "scalar":
        return table.take_scalar(field.name, field.arg, field.default)
    if field.shape == "array":
        return table.take_list(field.name, field.default)
    if field.shape == "table":
        return _load(field.arg, table.take_table(field.name))
    items = table.take_table_array(field.name)
    return tuple(_load(field.arg, item) for item in items) or field.default


def _load(cls: type, table: Optional[_Table]) -> Any:
    """Build spec ``cls`` from ``table``, validating before leftovers."""
    if table is None:
        return cls()
    spec = cls(**{f.name: _take(table, f) for f in _fields(cls)})
    table.finish()
    return spec


def scenario_from_document(document: Dict[str, Any]) -> Scenario:
    """Build a validated :class:`Scenario` from a parsed TOML document."""
    root = _Table(document, "")
    header = root.take_table("scenario")
    if header is None:
        raise ScenarioError("scenario file needs a [scenario] table")
    fields = _fields(Scenario)
    kwargs = {f.name: _take(header, f) for f in fields if f.name in _HEADER}
    header.finish()
    kwargs.update(
        (f.name, _take(root, f)) for f in fields if f.name not in _HEADER
    )
    scenario = Scenario(**kwargs)
    root.finish()
    return scenario


def loads(text: str) -> Scenario:
    """Parse scenario TOML text into a validated :class:`Scenario`."""
    try:
        document = tomlio.loads(text)
    except tomlio.TomlError as exc:
        raise ScenarioError(f"invalid scenario TOML: {exc}") from exc
    return scenario_from_document(document)


def load(path: str) -> Scenario:
    """Parse the scenario file at ``path``."""
    try:
        document = tomlio.load(path)
    except tomlio.TomlError as exc:
        raise ScenarioError(f"invalid scenario file: {exc}") from exc
    try:
        return scenario_from_document(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    """A field value as a TOML document value (specs become tables)."""
    if dataclasses.is_dataclass(value):
        return _dump(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _dump(spec: Any) -> Dict[str, Any]:
    """The fields of ``spec`` whose values differ from their defaults."""
    return {
        f.name: _plain(getattr(spec, f.name))
        for f in _fields(type(spec))
        if getattr(spec, f.name) != f.default
    }


def scenario_to_document(scenario: Scenario) -> Dict[str, Any]:
    """Render a :class:`Scenario` as a canonical nested-dict document."""
    body = _dump(scenario)
    header = {key: body.pop(key) for key in _HEADER if key in body}
    return {"scenario": header, **body}


def dumps(scenario: Scenario) -> str:
    """Render a :class:`Scenario` as canonical scenario TOML."""
    return tomlio.dumps(scenario_to_document(scenario))


def dump(scenario: Scenario, path: str) -> None:
    """Write a :class:`Scenario` to ``path`` as canonical TOML."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(scenario))
