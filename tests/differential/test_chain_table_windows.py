"""Object ≡ ChainTable when a firewall's address-range windows are edited.

A ChainTable replays a shape's recorded verdict for as long as its guard
holds.  ``AddressRangeCheck.windows`` is a plain list a caller may extend,
clear or edit in place, so the guard must notice any change to the windows'
contents — replacing one window by another of the same count included —
and the very next call must be judged by the new windows, as the object
path judges it.
"""

from __future__ import annotations

import pytest

from repro.core.checks import (
    AddressRangeCheck,
    BurstLengthCheck,
    DataFormatCheck,
    ReadWriteAccessCheck,
)
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.engine.tables import ChainTable
from repro.soc.kernel import Simulator
from repro.soc.ports import apply_filter_chain
from repro.soc.transaction import BusOperation, BusTransaction

_EDITS = {
    "replace": lambda windows: windows.__setitem__(0, (0x1800, 0x100)),
    "append": lambda windows: windows.append((0x1800, 0x100)),
    "clear": lambda windows: windows.clear(),
}


def _fenced_firewall() -> LocalFirewall:
    memory = ConfigurationMemory("cm")
    memory.add(0x1000, 0x1000, SecurityPolicy(spi=1, rwa=ReadWriteAccess.READ_WRITE))
    checks = [
        ReadWriteAccessCheck(),
        DataFormatCheck(),
        BurstLengthCheck(),
        AddressRangeCheck(windows=[(0x1000, 0x100)]),
    ]
    return LocalFirewall(Simulator(), "lf", memory, checks=checks)


def _write(address: int) -> BusTransaction:
    return BusTransaction(
        master="cpu0", operation=BusOperation.WRITE, address=address, width=4,
        data=bytes(4),
    )


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_window_edit_is_seen_by_the_next_replay(edit):
    object_fw = _fenced_firewall()
    vector_fw = _fenced_firewall()
    table = ChainTable([vector_fw], "request")

    def both(address):
        expected = apply_filter_chain([object_fw], _write(address), "request")
        allowed, latency, _result = table.call(_write(address))
        return (expected.allowed, expected.latency), (allowed, latency)

    before = [both(0x1010) for _ in range(3)]
    for fw in (object_fw, vector_fw):
        _EDITS[edit](fw.security_builder.address_range_check().windows)
    after = [both(address) for address in (0x1010, 0x1810, 0x1010)]

    for expected, got in before + after:
        assert got == expected
    table.flush()
    assert table.replayed > 0, "the fenced shape must have been replayed"
    assert vector_fw.summary() == object_fw.summary()
    assert vector_fw.config_memory.lookup_count == object_fw.config_memory.lookup_count
