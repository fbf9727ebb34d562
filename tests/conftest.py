"""Shared test fixtures."""

import pytest

from sentinelsim.protocol import NodeState


def _force_state(world, node, state):
    """Place a node into a lifecycle state with the engine's books."""
    node.state = state
    if state in (NodeState.PROBING, NodeState.ACTIVE):
        world._radio_on.add(node.id)
    if state is NodeState.ACTIVE:
        world._active_ids.add(node.id)


@pytest.fixture
def force_state():
    """Test hook: the one place tests write the engine's private state sets."""
    return _force_state
