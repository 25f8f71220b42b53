"""Regression tests for the simulation fast path.

The fast path trades per-transaction recomputation for precomputation and
memoisation in three places: table-driven AES, the hashlib SHA-256 backend
and the CTR keystream cache.  All of them must be *observably identical* to
the reference implementations — same bytes, same verdicts, same statistics.
These tests pin each equivalence, and pin that the Security Builder, which
evaluates every transaction afresh, judges the very next transaction after a
policy reconfiguration by the new rule.
"""

from __future__ import annotations

import random

import pytest

from repro.core.local_firewall import LocalFirewall, SecurityBuilder
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.crypto.aes import AES128
from repro.crypto.modes import CTRMode
from repro.crypto.sha256 import (
    SHA256,
    fast_backend_enabled,
    sha256,
    use_reference_backend,
)
from repro.soc.address_map import AddressMap, DecodeError
from repro.soc.kernel import Simulator
from repro.soc.transaction import BusOperation, BusTransaction


# ---------------------------------------------------------------------------
# AES: table-driven path must match the FIPS-197 reference byte for byte
# ---------------------------------------------------------------------------


class TestAESTablePath:
    def test_fips_vector_through_fast_path(self):
        cipher = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.encrypt_block(plaintext) == expected
        assert cipher.decrypt_block(expected) == plaintext

    def test_matches_reference_for_random_keys_and_blocks(self):
        rng = random.Random(0xAE5)
        for _ in range(100):
            key = bytes(rng.randrange(256) for _ in range(16))
            block = bytes(rng.randrange(256) for _ in range(16))
            cipher = AES128(key)
            assert cipher.encrypt_block(block) == cipher.encrypt_block_reference(block)
            assert cipher.decrypt_block(block) == cipher.decrypt_block_reference(block)

    def test_roundtrip_through_mixed_paths(self):
        cipher = AES128(b"0123456789abcdef")
        block = b"fast path check!"
        assert cipher.decrypt_block_reference(cipher.encrypt_block(block)) == block
        assert cipher.decrypt_block(cipher.encrypt_block_reference(block)) == block


# ---------------------------------------------------------------------------
# SHA-256: hashlib backend must agree with the from-scratch implementation
# ---------------------------------------------------------------------------


class TestSha256Backends:
    def test_fast_backend_is_default(self):
        assert fast_backend_enabled()

    def test_backends_agree_across_lengths(self):
        rng = random.Random(0x5A)
        try:
            for length in (0, 1, 55, 56, 63, 64, 65, 200, 1000):
                data = bytes(rng.randrange(256) for _ in range(length))
                fast = sha256(data)
                use_reference_backend(True)
                assert not fast_backend_enabled()
                assert sha256(data) == fast == SHA256(data).digest()
                use_reference_backend(False)
        finally:
            use_reference_backend(False)


# ---------------------------------------------------------------------------
# CTR keystream cache
# ---------------------------------------------------------------------------


class TestCTRKeystreamCache:
    def test_cached_and_uncached_streams_agree(self):
        key = bytes(range(16))
        cached = CTRMode(AES128(key))
        uncached = CTRMode(AES128(key), cache_blocks=False)
        nonce = b"\x01" * 8
        payload = bytes(range(64))
        assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
        # Second pass over the same nonce is served from the cache.
        assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
        assert cached.cache_hits > 0
        assert cached.decrypt(cached.encrypt(payload, nonce), nonce) == payload

    def test_cache_is_bounded(self):
        mode = CTRMode(AES128(bytes(16)))
        for counter in range(mode.CACHE_LIMIT + 10):
            mode.keystream(b"\x00" * 8, 16, initial_counter=counter)
        assert len(mode._keystream_cache) <= mode.CACHE_LIMIT


# ---------------------------------------------------------------------------
# Security Builder: repeat evaluations and runtime reconfiguration
# ---------------------------------------------------------------------------


def _memory_with_rw_rule() -> ConfigurationMemory:
    memory = ConfigurationMemory("cm_test")
    memory.add(0x1000, 0x100, SecurityPolicy(spi=1, rwa=ReadWriteAccess.READ_WRITE))
    return memory


def _write_txn(address: int = 0x1000) -> BusTransaction:
    return BusTransaction(
        master="cpu0", operation=BusOperation.WRITE, address=address, width=4,
        data=bytes(4),
    )


class TestSecurityBuilderReconfiguration:
    def test_repeat_evaluations_give_identical_results(self):
        builder = SecurityBuilder("sb", _memory_with_rw_rule())
        txn = _write_txn()
        policy_a, results_a = builder.evaluate(txn)
        policy_b, results_b = builder.evaluate(_write_txn())
        assert policy_a is policy_b
        assert results_a == results_b
        assert [r.check for r in results_a] == [c.name for c in builder.checks]

    def test_replace_policy_invalidates_cached_allow(self):
        memory = _memory_with_rw_rule()
        builder = SecurityBuilder("sb", memory)
        _, results = builder.evaluate(_write_txn())
        assert all(r.passed for r in results)
        # Runtime reconfiguration: the region becomes read-only.
        assert memory.replace_policy(
            0x1000, SecurityPolicy(spi=2, rwa=ReadWriteAccess.READ_ONLY)
        )
        _, results = builder.evaluate(_write_txn())
        assert any(not r.passed for r in results), (
            "stale cached ALLOW survived a policy reconfiguration"
        )

    def test_default_policy_assignment_invalidates_cached_miss(self):
        memory = ConfigurationMemory("cm_default")
        builder = SecurityBuilder("sb", memory)
        txn = _write_txn(0x9000)  # no rule covers this address
        policy, _ = builder.evaluate(txn)
        assert policy is None
        # Plain attribute assignment (the pre-existing API) must also
        # invalidate cached POLICY_MISS denials.
        memory.default_policy = SecurityPolicy(spi=9, rwa=ReadWriteAccess.READ_WRITE)
        policy, results = builder.evaluate(_write_txn(0x9000))
        assert policy is not None and all(r.passed for r in results)

    def test_remove_rule_invalidates_to_policy_miss(self):
        memory = _memory_with_rw_rule()
        builder = SecurityBuilder("sb", memory)
        policy, _ = builder.evaluate(_write_txn())
        assert policy is not None
        assert memory.remove(0x1000)
        policy, results = builder.evaluate(_write_txn())
        assert policy is None
        assert results[0].check == "policy_lookup" and not results[0].passed

    def test_violation_counts_accumulate_per_evaluation(self):
        memory = ConfigurationMemory("cm_ro")
        memory.add(0x1000, 0x100, SecurityPolicy(spi=1, rwa=ReadWriteAccess.READ_ONLY))
        builder = SecurityBuilder("sb", memory)
        for expected in (1, 2, 3):
            builder.evaluate(_write_txn())
            assert builder.violations == expected

    def test_firewall_level_reconfiguration_end_to_end(self):
        sim = Simulator()
        memory = _memory_with_rw_rule()
        firewall = LocalFirewall(sim, "lf_test", memory)
        assert firewall.filter_request(_write_txn()).allowed
        assert firewall.filter_request(_write_txn()).allowed
        memory.replace_policy(0x1000, SecurityPolicy(spi=3, rwa=ReadWriteAccess.READ_ONLY))
        assert not firewall.filter_request(_write_txn()).allowed


# ---------------------------------------------------------------------------
# Address-map decode memo
# ---------------------------------------------------------------------------


class TestAddressMapDecodeCache:
    def test_decode_memo_and_invalidation_on_add(self):
        amap = AddressMap()
        amap.add_region("bram", 0x0000, 0x1000, slave="bram")
        region = amap.decode(0x10, 4)
        assert amap.decode(0x10, 4) is region
        with pytest.raises(DecodeError):
            amap.decode(0x2000)
        amap.add_region("ddr", 0x2000, 0x1000, slave="ddr", external=True)
        assert amap.decode(0x2000).name == "ddr"
        assert amap.decode(0x10, 4).name == "bram"
