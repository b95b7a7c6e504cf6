"""Canonical JSON: the substrate for every reproducibility claim."""

from fractions import Fraction

import pytest

from p3bundles.jsonio import canonical_json, canonical_json_pretty, content_hash, spliced_hash
from p3bundles.rng import child_rng, child_seed


def test_key_order_is_canonical():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_fractions_render_exactly():
    assert canonical_json({"x": Fraction(1, 3)}) == '{"x":"1/3"}'
    assert canonical_json({"x": Fraction(6, 3)}) == '{"x":2}'


def test_floats_are_banned():
    with pytest.raises(TypeError):
        canonical_json({"x": 0.5})


def test_pretty_and_compact_agree_on_content():
    payload = {"rows": [1, 2, {"z": Fraction(3, 4)}]}
    import json
    assert json.loads(canonical_json_pretty(payload)) == json.loads(canonical_json(payload))


def test_content_hash_is_stable():
    assert content_hash({"a": 1}) == content_hash({"a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_spliced_members_hash_as_the_whole_object():
    obj = {"z": [1, {"b": None, "a": True}], "é\"": "\\ü", "a": Fraction(1, 2), "m": 3}
    texts = {"z": canonical_json(obj["z"]), "é\"": canonical_json(obj["é\""])}
    assert spliced_hash(obj, texts) == content_hash(obj)
    assert spliced_hash(obj, {}) == content_hash(obj)
    assert spliced_hash({}, {}) == content_hash({})


def test_child_seed_is_label_sensitive():
    assert child_seed(0, "x") != child_seed(0, "y")
    assert child_seed(0, "x") != child_seed(1, "x")
    assert child_seed(5, "summand:1") == child_seed(5, "summand:1")


def test_child_rng_streams_are_independent():
    a = child_rng(0, "a")
    b = child_rng(0, "a")
    assert [a.randrange(100) for _ in range(5)] == [b.randrange(100) for _ in range(5)]
