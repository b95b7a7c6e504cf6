"""Canonical JSON emission: byte-identical output for equal payloads.

Keys are sorted, separators fixed, floats forbidden.  Fractions serialize as
"p/q" strings so reports stay exact end to end.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

_LEAVES = frozenset({str, int, bool, type(None)})


def _normalize(obj: Any) -> Any:
    if type(obj) in _LEAVES:  # exact types: subclasses take the checks below
        return obj
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float):
        raise TypeError("floats are banned from reports; use Fraction or int")
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _LEAVES else _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _LEAVES else _normalize(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":"))


def spliced_hash(obj: dict, texts: dict[str, str]) -> str:
    """``content_hash(obj)``, where the members named in ``texts`` are given
    by their canonical JSON: they are spliced in as text, never walked."""
    members = {key: canonical_json(value) for key, value in obj.items() if key not in texts}
    members.update(texts)
    body = ",".join(f"{json.dumps(key)}:{members[key]}" for key in sorted(members))
    return hashlib.sha256(f"{{{body}}}".encode("utf-8")).hexdigest()


def canonical_json_pretty(obj: Any) -> str:
    return json.dumps(_normalize(obj), sort_keys=True, indent=2)


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
