"""Type mutations of JSON documents, shared by the config and manifest
properties: one value replaced by a value of another JSON type."""

import json

from hypothesis import strategies as hs

# floats stand in for integers; no integer is drawn, since one may stand
# for a float
OTHER_JSON = hs.one_of(
    hs.floats(allow_nan=False, allow_infinity=False), hs.text(max_size=4),
    hs.booleans(), hs.none(), hs.lists(hs.integers(), max_size=2),
    hs.dictionaries(hs.text(max_size=2), hs.integers(), max_size=2))


def json_paths(node, path=()):
    """The key path of every value below a JSON object or list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from json_paths(child, path + (key,))


def replaced(doc, path, value):
    """A deep copy of `doc` with the value at `path` replaced by `value`, or
    None if `value` has the JSON type of the value it would replace."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if type(parent[path[-1]]) is type(value):
        return None
    parent[path[-1]] = value
    return doc
