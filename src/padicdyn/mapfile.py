"""Map-specification files: UTF-8 JSON with the polynomial components in
canonical text form plus optional run parameters.

Required fields: n, numerators (list of polynomial strings). Optional:
denominators (list of polynomial strings, default all "1"), prime ("auto"
or an integer), e, precision, degree, kmax, m_max, search_budget (each an
integer >= 1), lift ("teichmuller" or "naive"). A malformed field is a
ValueError that names it.
"""

from __future__ import annotations

import json

from .polynomials import RationalSelfMap
from .records import Record

DEFAULTS = {
    "prime": "auto",
    "e": 1,
    "precision": 64,
    "degree": 8,
    "kmax": 32,
    "m_max": 6,
    "search_budget": 200,
    "lift": "teichmuller",
}


class MapConfig(Record):
    """A map file's map and settings; the CLI's options override them."""

    __slots__ = ("map", "prime", "e", "precision", "degree", "kmax", "m_max",
                 "search_budget", "lift")
    __hash__ = None


def load_map_file(path):
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return parse_map_config(raw, source=path)


# the lower bound of each integer field
INT_FIELDS = {"e": 1, "precision": 1, "degree": 1, "kmax": 1, "m_max": 1,
              "search_budget": 1}


def _int_field(source, key, value, low):
    # JSON also spells numbers as true or 2.0, and int() truncates 40.7:
    # nothing but an int is accepted
    if type(value) is not int or value < low:
        raise ValueError(f"{source}: {key} must be an integer >= {low},"
                         f" got {value!r}")
    return value


def _text_list(source, key, value):
    if not isinstance(value, list) or not all(isinstance(t, str)
                                              for t in value):
        raise ValueError(f"{source}: {key} must be a list of polynomial"
                         " strings")
    return value


def parse_map_config(raw, source="<config>"):
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: expected a JSON object")
    for key in ("n", "numerators"):
        if key not in raw:
            raise ValueError(f"{source}: missing field {key!r}")
    n = _int_field(source, "n", raw["n"], 1)
    numerators = _text_list(source, "numerators", raw["numerators"])
    denominators = raw.get("denominators")
    if denominators is not None:
        _text_list(source, "denominators", denominators)
    f = RationalSelfMap.from_texts(n, numerators, denominators)
    values = {}
    for key, default in DEFAULTS.items():
        values[key] = raw.get(key, default)
    for key, low in INT_FIELDS.items():
        values[key] = _int_field(source, key, values[key], low)
    if values["prime"] not in ("auto", None):
        values["prime"] = _int_field(source, "prime", values["prime"], 2)
    if values["lift"] not in ("teichmuller", "naive"):
        raise ValueError(f"{source}: lift must be 'teichmuller' or 'naive'")
    return MapConfig(map=f, **values)
