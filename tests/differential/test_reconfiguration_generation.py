"""Mid-stream reconfiguration must take effect on the very next transaction.

These regressions drive live traffic through a secured platform, rewrite the
Configuration Memory mid-stream (bumping its ``generation`` counter, the
vector engine's invalidation signal), and assert the *very next* transaction
is judged by the new rule, and that the LCF's protected regions stay put.
"""

from __future__ import annotations

from repro.core.policy import ReadWriteAccess
from repro.core.secure import SecurityConfiguration, secure_platform
from repro.soc.system import build_reference_platform
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus


def _secured():
    system = build_reference_platform()
    security = secure_platform(
        system,
        SecurityConfiguration(ddr_secure_size=1024, ddr_cipher_only_size=1024),
    )
    return system, security


def _issue_write(system, master: str, address: int) -> BusTransaction:
    txn = BusTransaction(
        master=master, operation=BusOperation.WRITE, address=address,
        width=4, data=b"\x11\x22\x33\x44",
    )
    port = system.master_ports[master]
    port.issue(txn, lambda _t: None)
    system.run()
    return txn


class TestGenerationCounterInvalidation:
    def test_master_firewall_sees_new_rule_on_next_transaction(self):
        system, security = _secured()
        firewall = security.master_firewalls["cpu0"]
        memory = firewall.config_memory
        bram_base = system.config.bram_base

        assert _issue_write(system, "cpu0", bram_base).status is TransactionStatus.COMPLETED
        assert _issue_write(system, "cpu0", bram_base).status is TransactionStatus.COMPLETED

        # Mid-stream reconfiguration: the BRAM window becomes read-only.
        generation_before = memory.generation
        rule = next(r for r in memory.rules if r.base == bram_base)
        assert security.manager.reconfigure_policy(
            "lf_cpu0", bram_base, rule.policy.with_updates(rwa=ReadWriteAccess.READ_ONLY)
        )
        assert memory.generation == generation_before + 1

        # The very next transaction must be judged by the new rule.
        blocked = _issue_write(system, "cpu0", bram_base)
        assert blocked.status is TransactionStatus.BLOCKED_AT_MASTER
        alerts = security.monitor.alerts
        assert alerts and alerts[-1].violation.value == "unauthorized_write"

    def test_rule_removal_reverts_to_default_deny_immediately(self):
        system, security = _secured()
        firewall = security.master_firewalls["cpu1"]
        memory = firewall.config_memory
        ddr_base = system.config.ddr_base

        assert _issue_write(system, "cpu1", ddr_base + 0x4000).status is TransactionStatus.COMPLETED
        generation_before = memory.generation
        assert memory.remove(ddr_base)
        assert memory.generation == generation_before + 1

        blocked = _issue_write(system, "cpu1", ddr_base + 0x4000)
        assert blocked.status is TransactionStatus.BLOCKED_AT_MASTER
        assert security.monitor.alerts[-1].violation.value == "policy_miss"

    def test_lcf_region_lookup_survives_rule_changes(self):
        system, security = _secured()
        lcf = security.ciphering_firewall
        ddr_base = system.config.ddr_base

        # A protected write consults region_for on the request and response
        # paths.
        assert _issue_write(system, "cpu0", ddr_base).status is TransactionStatus.COMPLETED
        region = lcf.region_for(ddr_base, 4)
        assert region is not None
        plain_rule = next(r for r in lcf.config_memory.rules if r.label == "ddr_plain")
        assert lcf.region_for(plain_rule.base, 4) is None

        # Protected regions are fixed when the LCF is built: a rule change
        # bumps the generation but moves no region.
        generation = lcf.config_memory.generation
        assert lcf.config_memory.remove(plain_rule.base)
        assert lcf.config_memory.generation != generation
        assert lcf.region_for(ddr_base, 4) is region  # still protected
        assert lcf.region_for(plain_rule.base, 4) is None
