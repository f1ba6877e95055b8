"""Substrate materials registry.

Built-ins cover the two boards the toolkit targets out of the box. FR4 uses
the commonly quoted eps_r 4.3 / 1.6 mm; its loss tangent (0.025) and the
RO3003 parameters (eps_r 3.0, tan_d 0.0013, 0.75 mm) are vendor-typical
values, not taken from a datasheet of record, and can be overridden with a
user materials file (``MWBPF_MATERIALS`` or an explicit path).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from .microstrip import Substrate

ENV_REGISTRY = "MWBPF_MATERIALS"

_BUILTINS = (
    Substrate(name="FR4", eps_r=4.3, tan_d=0.025, h=1.6),
    Substrate(name="RO3003", eps_r=3.0, tan_d=0.0013, h=0.75),
)


class UnknownMaterial(KeyError):
    """Requested substrate is not in the registry."""

    def __str__(self):
        return self.args[0]  # the message itself, not KeyError's repr of it


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def expect_json(value, kind: type, where: str):
    """``value`` read from JSON at ``where``, checked to be a ``kind``.

    ``float`` accepts whatever ``float()`` takes and returns the float; the
    other kinds are JSON types and the value is returned as is. A mismatch
    is a ValueError naming ``where``.
    """
    if kind is float:
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where} must be a number, got {value!r}") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def expect_keys(obj: dict, keys, where: str) -> dict:
    """``obj``, checked to hold no key outside ``keys``: a misspelled optional
    key would otherwise leave its default in place. An unknown key is a
    ValueError naming it."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where}.{key} is not a known key")
    return obj


def read_record(cls, block, where: str, keys=()):
    """The ``cls`` dataclass of the JSON object ``block`` at ``where``.

    ``keys`` pairs each field with its JSON key, in file order (default: the
    field names). An unknown key is a ValueError. An absent key takes the
    field's default, or is a KeyError naming ``<where>.<key>``. A field
    annotated ``str`` is read as a string, any other as a number. A
    ValueError of ``cls`` is raised again as ``<where>: <message>``.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    keys = keys or [(name, name) for name in fields]
    block = expect_keys(expect_json(block, dict, where), [key for _, key in keys], where)
    values = {}
    for name, key in keys:
        if key in block:
            kind = str if fields[name].type in (str, "str") else float
            values[name] = expect_json(block[key], kind, f"{where}.{key}")
        elif fields[name].default is dataclasses.MISSING:
            raise KeyError(f"{where}.{key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class MaterialsRegistry:
    """Case-insensitive name -> Substrate map with overridable built-ins."""

    def __init__(self, substrates: tuple[Substrate, ...] = _BUILTINS):
        self._by_key: dict[str, Substrate] = {}
        for sub in substrates:
            self._by_key[sub.name.lower()] = sub

    def get(self, name: str) -> Substrate:
        try:
            return self._by_key[name.lower()]
        except KeyError:
            raise UnknownMaterial(
                f"unknown material {name!r}; registry has: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return sorted(s.name for s in self._by_key.values())

    def substrates(self) -> list[Substrate]:
        return [self._by_key[k] for k in sorted(self._by_key)]

    def merged_with_file(self, path: str | Path) -> "MaterialsRegistry":
        """New registry with user entries layered over (and shadowing) built-ins."""
        data = expect_json(json.loads(Path(path).read_text()), dict, "materials file")
        expect_keys(data, ("materials",), "materials file")
        user = [
            read_record(Substrate, entry, f"materials[{i}]")
            for i, entry in enumerate(expect_json(data.get("materials", []), list, "materials"))
        ]
        # later keys shadow earlier ones, so user entries win
        return MaterialsRegistry((*self._by_key.values(), *user))


def default_registry() -> MaterialsRegistry:
    """Built-ins, plus the user file named by MWBPF_MATERIALS when set."""
    reg = MaterialsRegistry()
    override = os.environ.get(ENV_REGISTRY)
    if override:
        reg = reg.merged_with_file(override)
    return reg
