"""Every exported name resolves, so a deletion cannot leave a stale export."""

import pytest

import arcspace
import arcspace.polyalg


@pytest.mark.parametrize("module", [arcspace, arcspace.polyalg])
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
