"""Standard-library oracle for ``gridentropy.cli.write_json``.

The payload is first copied into plain JSON types (keys through ``str``,
tuples as lists, numpy scalars as Python numbers, numpy arrays as their
``tolist()``, ``Fraction`` and any other unknown object as its ``str``),
then handed to ``json.dumps`` with ``indent=2, sort_keys=True``.  It
dumps the whole payload at once and formats no row by hand, so it checks
that ``write_json``'s top-level composition and its step-matrix rows
give the standard library's bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def jsonable(obj):
    """A copy of ``obj`` made of dict, list, str, int, float, bool and None."""
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def json_text(payload) -> str:
    """The artifact text: the indented, key-sorted dump plus a final newline."""
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
