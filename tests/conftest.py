"""Shared fixtures."""

import pytest

from levibridge.construction import goedgebeur_graph
from levibridge.graphs import build


@pytest.fixture
def fresh_goedgebeur():
    """A new copy of the identified graph, labels included. The shared
    object `goedgebeur_graph()` returns may carry cached searches from
    earlier tests; a test that counts searches or flows runs on this."""
    g = goedgebeur_graph()
    return build(g.n, g.edges, g.labels)
