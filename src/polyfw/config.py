"""Readers for outside input. Every field of a JSON config, trace header or
summary is read through one of them, which checks the field's type,
finiteness and range and raises ConfigError naming its path."""

import numpy as np

from .errors import ConfigError

_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "true or false"}


def config_type(path: str, value, kind: type):
    """value, which must be of the JSON type kind: dict, list, str or bool."""
    if not isinstance(value, kind):
        raise ConfigError(path, f"must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def need(spec, path: str, key: str):
    """spec[key] of the JSON object spec at path ("" for the top level)."""
    if key not in config_type(path or "config", spec, dict):
        raise ConfigError(f"{path}.{key}" if path else key, "missing")
    return spec[key]


def config_fields(path: str, spec, fields) -> dict:
    """The JSON object spec at path ("" for the top level), with no key outside fields."""
    for key in config_type(path or "config", spec, dict):
        if key not in fields:
            raise ConfigError(f"{path}.{key}" if path else key,
                              f"is not a field here; the fields are {'|'.join(fields)}")
    return spec


def config_choice(path: str, value, options):
    """value, which must be one of the strings in options."""
    if value not in tuple(options):
        raise ConfigError(path, f"must be one of {'|'.join(options)}, got {value!r}")
    return value


def config_int(path: str, value, minimum: int) -> int:
    """An integer >= minimum: 3.0 reads as 3, but 1.5 or true is an error."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value!r}")
    return int(value)


def config_number(path: str, value) -> float:
    """Any JSON number, NaN and the infinities included, as a float."""
    if type(value) not in (int, float):
        raise ConfigError(path, f"must be a number, got {value!r}")
    return float(value)


def config_float(path: str, value, minimum=-np.inf, above=False, ndim=0):
    """Finite numbers >= minimum (> minimum when above): a float when ndim is
    0, else a nonempty ndim-d float array. A string such as "0.1", a boolean
    or a ragged list is an error, not converted."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim or (ndim and not arr.size):
        what = f"a nonempty {ndim}-d array of numbers" if ndim else "a number"
        raise ConfigError(path, f"must be {what}, got {value!r}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ConfigError(path, f"must be finite, got {value!r}")
    if not (arr > minimum if above else arr >= minimum).all():
        raise ConfigError(path, f"must be {'>' if above else '>='} {minimum}, got {value!r}")
    return float(arr) if ndim == 0 else arr
