"""Substrate materials registry.

Built-ins cover the two boards the toolkit targets out of the box. FR4 uses
the commonly quoted eps_r 4.3 / 1.6 mm; its loss tangent (0.025) and the
RO3003 parameters (eps_r 3.0, tan_d 0.0013, 0.75 mm) are vendor-typical
values, not taken from a datasheet of record, and can be overridden with a
user materials file (``MWBPF_MATERIALS`` or an explicit path).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .microstrip import Substrate

ENV_REGISTRY = "MWBPF_MATERIALS"

_BUILTINS = (
    Substrate(name="FR4", eps_r=4.3, tan_d=0.025, h=1.6),
    Substrate(name="RO3003", eps_r=3.0, tan_d=0.0013, h=0.75),
)
_NUMBERS = ("eps_r", "tan_d", "h", "t", "conductivity")  # the numeric keys of a file entry


class UnknownMaterial(KeyError):
    """Requested substrate is not in the registry."""


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
        user = []
        for i, entry in enumerate(expect_json(data.get("materials", []), list, "materials")):
            where = f"materials[{i}]"
            entry = expect_keys(expect_json(entry, dict, where), ("name", *_NUMBERS), where)
            entry = {"t": Substrate.t, "conductivity": Substrate.conductivity, **entry}
            user.append(Substrate(
                name=expect_json(entry["name"], str, f"{where}.name"),
                **{key: expect_json(entry[key], float, f"{where}.{key}") for key in _NUMBERS},
            ))
        # later keys shadow earlier ones, so user entries win
        return MaterialsRegistry((*self._by_key.values(), *user))


def default_registry() -> MaterialsRegistry:
    """Built-ins, plus the user file named by MWBPF_MATERIALS when set."""
    reg = MaterialsRegistry()
    override = os.environ.get(ENV_REGISTRY)
    if override:
        reg = reg.merged_with_file(override)
    return reg
