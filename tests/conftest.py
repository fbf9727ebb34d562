"""Shared test fixtures."""

import pytest

from sentinelsim.protocol import NodeState


def _force_state(world, node, state):
    """Place a node into a lifecycle state through World.set_state at the
    world's clock, via PROBING when the target is ACTIVE."""
    if state is NodeState.ACTIVE and node.state is not NodeState.PROBING:
        world.set_state(node, NodeState.PROBING, world.clock)
    world.set_state(node, state, world.clock)


@pytest.fixture
def force_state():
    """Test hook: place nodes into engineered states with the engine's books."""
    return _force_state
