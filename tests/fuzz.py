"""Hypothesis strategies for the reader fuzz tests: arbitrary JSON values,
and valid documents with one part replaced or removed."""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, settings, strategies as st

# Every fuzz test replays the same bounded set of examples and writes no
# example database.
FUZZ = settings(derandomize=True, database=None, max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
            | st.integers() | st.floats() | st.text(max_size=12))

json_values = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, doc, replacements=json_values):
    """`doc` with one sub-value, or the whole document, replaced by a drawn
    value, or with one object key removed."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(replacements)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(replacements)
    return doc


def documents(valid_doc, replacements=json_values):
    """Arbitrary JSON values, and mutations of one valid document."""
    return json_values | mutated(valid_doc, replacements)
