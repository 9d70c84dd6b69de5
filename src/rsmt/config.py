"""Readers for JSON config values, shared by the CLI and every `from_json`:
a value that cannot be used is a `ConfigError` naming the field it sits in."""

from __future__ import annotations

import math


class ConfigError(ValueError):
    pass


def read_int(value, name: str) -> int:
    """`value` as an int: an int, an integral float, or a string `int(s, 0)`
    accepts (so "0x11b" too).  A fractional float, a bool or anything else
    is a ConfigError naming `name`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def read_number(value, name: str):
    """`value` if it is an int or a float (not a bool) that reads as a
    finite float, else a ConfigError naming `name`."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def read_object(value, name: str) -> dict:
    """`value` if it is a JSON object, else a ConfigError naming `name`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def check_keys(obj: dict, owner: str, *known: str) -> None:
    """ConfigError for any key of `obj` outside `known`, so a misspelt or
    inapplicable setting is never silently ignored."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"{owner} does not read {', '.join(map(repr, unknown))}")
