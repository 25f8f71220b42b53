"""The Local Ciphering Firewall (LCF).

"Local Ciphering Firewall (LCF) monitors the exchanges between internal IPs
and the external memory.  The main feature of LCF is the protection of the
external memory in terms of confidentiality and integrity. [...] The
architecture of the Local Ciphering Firewall is similar to the LF one except
the ciphering and integrity modules" (paper, section IV-B2).

The LCF therefore *is a* :class:`~repro.core.local_firewall.LocalFirewall`
(same LFCB / Security Builder / Firewall Interface, same policy checks) plus:

* a :class:`ConfidentialityCore` -- AES-128 in counter mode; the counter is
  derived from the protected block's address and its timestamp tag, so moving
  ciphertext around (relocation) or restoring old ciphertext (replay) yields
  garbage on decryption,
* an :class:`IntegrityCore` -- a Merkle hash tree over the protected region
  plus per-block version counters (the paper's "time stamp tags"); any
  spoofing, relocation or replay of external-memory content is detected when
  the recomputed root mismatches the trusted on-chip root.

The LCF is interposed on the *slave port* of the external DDR, which is where
the paper places it (between the internal bus and the external memory).  On
the write path it enciphers data before it leaves the FPGA; on the read path
it deciphers and verifies data before it reaches the bus.  External memory
therefore only ever holds ciphertext for protected regions — which is exactly
what an attacker probing the external bus or the memory chips sees.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    INTEGRITY_BLOCK_BYTES,
    INTEGRITY_CORE_CYCLES,
    SECURITY_BUILDER_CYCLES,
)
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, PolicyRule
from repro.crypto.aes import AES128
from repro.crypto.keys import KeyStore
from repro.crypto.merkle import MerkleTree
from repro.crypto.modes import CTRMode
from repro.soc.kernel import Simulator
from repro.soc.ports import FilterResult
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = ["ConfidentialityCore", "IntegrityCore", "ProtectedRegion", "LocalCipheringFirewall"]


class ConfidentialityCore:
    """AES-128/CTR encryption datapath of the LCF.

    Charges :data:`CONFIDENTIALITY_CORE_CYCLES` per 16-byte AES block
    processed (Table II: 11 cycles).
    """

    AES_BLOCK = 16

    def __init__(self, name: str, cycles_per_block: int = CONFIDENTIALITY_CORE_CYCLES) -> None:
        self.name = name
        self.cycles_per_block = cycles_per_block
        self._ciphers: Dict[bytes, CTRMode] = {}
        self.blocks_processed = 0
        self.bytes_processed = 0
        self.cycles_charged = 0

    def _mode_for(self, key: bytes) -> CTRMode:
        mode = self._ciphers.get(key)
        if mode is None:
            mode = self._ciphers[key] = CTRMode(AES128(key))
        return mode

    def _charge(self, n_bytes: int) -> int:
        n_blocks = max(1, (n_bytes + self.AES_BLOCK - 1) // self.AES_BLOCK)
        cycles = n_blocks * self.cycles_per_block
        self.blocks_processed += n_blocks
        self.bytes_processed += n_bytes
        self.cycles_charged += cycles
        return cycles

    def encipher(self, key: bytes, nonce: bytes, plaintext: bytes) -> Tuple[bytes, int]:
        """Encrypt a block; returns (ciphertext, cycles_charged)."""
        cycles = self._charge(len(plaintext))
        return self._mode_for(key).encrypt(plaintext, nonce), cycles

    def decipher(self, key: bytes, nonce: bytes, ciphertext: bytes) -> Tuple[bytes, int]:
        """Decrypt a block; returns (plaintext, cycles_charged)."""
        cycles = self._charge(len(ciphertext))
        return self._mode_for(key).decrypt(ciphertext, nonce), cycles


class IntegrityCore:
    """Hash-tree integrity datapath of the LCF.

    Charges :data:`INTEGRITY_CORE_CYCLES` per protected block verified or
    updated (Table II: 20 cycles).
    """

    def __init__(self, name: str, cycles_per_block: int = INTEGRITY_CORE_CYCLES) -> None:
        self.name = name
        self.cycles_per_block = cycles_per_block
        self.blocks_verified = 0
        self.blocks_updated = 0
        self.failures = 0
        self.cycles_charged = 0

    def verify(self, tree: MerkleTree, block_index: int, plaintext: bytes) -> Tuple[bool, int]:
        """Verify a block against the trusted root; returns (ok, cycles)."""
        self.blocks_verified += 1
        self.cycles_charged += self.cycles_per_block
        ok = tree.verify(block_index, plaintext)
        if not ok:
            self.failures += 1
        return ok, self.cycles_per_block

    def update(self, tree: MerkleTree, block_index: int, plaintext: bytes) -> int:
        """Record a block write in the tree; returns cycles charged."""
        self.blocks_updated += 1
        self.cycles_charged += self.cycles_per_block
        tree.update(block_index, plaintext)
        return self.cycles_per_block


@dataclass
class ProtectedRegion:
    """Runtime protection state for one ciphered/authenticated policy rule."""

    rule: PolicyRule
    key: bytes
    tree: Optional[MerkleTree]
    block_size: int = INTEGRITY_BLOCK_BYTES
    # Per-block version counters (the paper's time-stamp tags).  Shared with
    # the Merkle tree's versions when integrity is enabled so nonce derivation
    # and leaf binding stay consistent.
    versions: Optional[List[int]] = None

    def __post_init__(self) -> None:
        n_blocks = (self.rule.size + self.block_size - 1) // self.block_size
        if self.versions is None:
            self.versions = [0] * n_blocks

    @property
    def n_blocks(self) -> int:
        return len(self.versions or [])

    def block_base(self, index: int) -> int:
        return self.rule.base + index * self.block_size

    def version_of(self, index: int) -> int:
        if self.tree is not None:
            return self.tree.version(index)
        assert self.versions is not None
        return self.versions[index]

    def next_version(self, index: int) -> int:
        return self.version_of(index) + 1

    def bump_version(self, index: int) -> None:
        """Advance the version counter for CM-only regions (the tree bumps its
        own version inside ``update``)."""
        assert self.versions is not None
        self.versions[index] += 1

    def nonce(self, index: int, version: int) -> bytes:
        """CTR nonce binding block position and timestamp tag."""
        return (index & 0xFFFFFFFF).to_bytes(4, "big") + (version & 0xFFFFFFFF).to_bytes(4, "big")


class LocalCipheringFirewall(LocalFirewall):
    """LF plus Confidentiality Core and Integrity Core, guarding the DDR path.

    Parameters
    ----------
    device:
        The external memory device this firewall fronts (needed for the
        read-modify-write of partially written protected blocks, exactly as
        the hardware fetches the rest of the block over the memory interface).
    key_store:
        Trusted key table; policies reference keys by ``key_spi``.
    """

    name = "local_ciphering_firewall"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_memory: ConfigurationMemory,
        device,
        key_store: KeyStore,
        monitor: Optional[SecurityMonitor] = None,
        protected_ip: str = "external_memory",
        sb_latency: int = SECURITY_BUILDER_CYCLES,
        cc_cycles_per_block: int = CONFIDENTIALITY_CORE_CYCLES,
        ic_cycles_per_block: int = INTEGRITY_CORE_CYCLES,
        block_size: int = INTEGRITY_BLOCK_BYTES,
        **kwargs,
    ) -> None:
        super().__init__(
            sim,
            name,
            config_memory,
            monitor=monitor,
            protected_ip=protected_ip,
            sb_latency=sb_latency,
            **kwargs,
        )
        self.device = device
        self.key_store = key_store
        self.block_size = block_size
        self.confidentiality_core = ConfidentialityCore(f"{name}.cc", cc_cycles_per_block)
        self.integrity_core = IntegrityCore(f"{name}.ic", ic_cycles_per_block)
        self._ciphered_key = f"{name}.ciphered"
        self._authenticated_key = f"{name}.authenticated"
        self._regions: Dict[int, ProtectedRegion] = {}  # keyed by rule base
        self._build_regions()
        # Regions are fixed at construction and never overlap (their rules
        # did not), so region_for() finds the covering one by bisection.
        self._region_bases = sorted(self._regions)

    # -- region setup -------------------------------------------------------------------

    def _build_regions(self) -> None:
        for rule in self.config_memory.rules:
            policy = rule.policy
            if not (policy.needs_ciphering or policy.needs_integrity):
                continue
            if policy.key_spi is None:
                raise ValueError(
                    f"{self.name}: rule at {rule.base:#x} needs ciphering/integrity "
                    "but its policy has no key_spi"
                )
            key = self.key_store.get(policy.key_spi)
            n_blocks = (rule.size + self.block_size - 1) // self.block_size
            tree = (
                MerkleTree(n_blocks, block_size=self.block_size)
                if policy.needs_integrity
                else None
            )
            self._regions[rule.base] = ProtectedRegion(
                rule=rule, key=key, tree=tree, block_size=self.block_size
            )

    def protect_existing_contents(self) -> int:
        """Encrypt and authenticate whatever the protected regions currently
        hold in external memory (the provisioning step a secure boot flow
        performs before handing the memory to the application).

        Returns the number of blocks initialised.
        """
        initialised = 0
        for region in self._regions.values():
            policy = region.rule.policy
            for index in range(region.n_blocks):
                base = region.block_base(index)
                usable = min(self.block_size, region.rule.end - base)
                plaintext = self.device.peek(base, usable).ljust(self.block_size, b"\x00")
                new_version = region.next_version(index)
                if policy.needs_ciphering:
                    nonce = region.nonce(index, new_version)
                    ciphertext, _ = self.confidentiality_core.encipher(region.key, nonce, plaintext)
                    self.device.poke(base, ciphertext[:usable])
                if region.tree is not None:
                    region.tree.update(index, plaintext)
                else:
                    region.bump_version(index)
                initialised += 1
        return initialised

    def region_for(self, address: int, size: int = 1) -> Optional[ProtectedRegion]:
        """The protected region covering an address range, if any."""
        bases = self._region_bases
        index = bisect_right(bases, address) - 1
        if index >= 0:
            region = self._regions[bases[index]]
            if address + size <= region.rule.end:
                return region
        return None

    @property
    def protected_regions(self) -> List[ProtectedRegion]:
        return list(self._regions.values())

    # -- filter hooks ---------------------------------------------------------------------

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        # The shape half: the plain LF policy checks (RWA / ADF / burst /
        # ranges), whose verdict depends only on the transaction's shape.
        base_result = super().filter_request(txn)
        if not base_result.allowed or txn.is_read:
            # Denied, or a read (handled on the response path once the
            # ciphertext has been fetched from the external memory).
            return base_result
        region = self.region_for(txn.address, txn.size)
        if region is None:
            return base_result
        # The live half: ciphering and hash-tree update of the written data.
        return self._handle_protected_write(txn, region, base_result)

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        base_result = super().filter_response(txn)
        if not base_result.allowed or not txn.is_read or txn.data is None:
            return base_result
        region = self.region_for(txn.address, txn.size)
        if region is None:
            return base_result
        return self._handle_protected_read(txn, region, base_result)

    # -- protected write path ----------------------------------------------------------------

    def _handle_protected_write(
        self, txn: BusTransaction, region: ProtectedRegion, base_result: FilterResult
    ) -> FilterResult:
        data = txn.data
        assert data is not None
        policy = region.rule.policy
        ciphering = policy.needs_ciphering
        tree = region.tree
        key = region.key
        block_size = region.block_size
        region_end = region.rule.end
        address = txn.address
        end = address + txn.size
        device = self.device
        cc = self.confidentiality_core
        cc_cycles = 0
        ic_cycles = 0
        new_payload = bytearray(data)

        # The region covers the transaction, so every index is in range.
        rule_base = region.rule.base
        for index in range(
            (address - rule_base) // block_size, (end - 1 - rule_base) // block_size + 1
        ):
            block_base = rule_base + index * block_size
            usable = min(block_size, region_end - block_base)
            version = region.version_of(index)

            # Reconstruct the current plaintext of the block (read-modify-write).
            if address <= block_base and end >= block_base + usable:
                new_plain = bytearray(block_size)
            else:
                stored = device.peek(block_base, usable).ljust(block_size, b"\x00")
                if ciphering and version > 0:
                    old_plain, cycles = cc.decipher(key, region.nonce(index, version), stored)
                    cc_cycles += cycles
                else:
                    old_plain = stored
                if tree is not None and version > 0:
                    ok, cycles = self.integrity_core.verify(tree, index, old_plain)
                    ic_cycles += cycles
                    if not ok:
                        self._raise(txn, ViolationType.INTEGRITY_FAILURE,
                                    detail=f"stale/tampered block {index} detected during write")
                        self.firewall_interface.gate(False)
                        return FilterResult.deny(
                            reason=f"{self.name}: integrity failure on write",
                            latency=base_result.latency + cc_cycles + ic_cycles,
                            stage="integrity_core",
                            status=TransactionStatus.INTEGRITY_ERROR,
                        )
                new_plain = bytearray(old_plain)

            # Patch the written bytes into the plaintext block.
            overlap_start = max(address, block_base)
            src_offset = overlap_start - address
            dst_offset = overlap_start - block_base
            length = min(end, block_base + block_size) - overlap_start
            new_plain[dst_offset : dst_offset + length] = data[src_offset : src_offset + length]
            plain = bytes(new_plain)

            # Advance the timestamp tag and re-protect the block.
            if ciphering:
                new_cipher, cycles = cc.encipher(key, region.nonce(index, version + 1), plain)
                cc_cycles += cycles
            else:
                new_cipher = plain

            if tree is not None:
                ic_cycles += self.integrity_core.update(tree, index, plain)
            else:
                region.bump_version(index)

            # Write the parts of the block *outside* the transaction directly;
            # the part covered by the transaction is returned as transformed
            # payload so the memory device stores exactly the new ciphertext.
            device.poke(block_base, new_cipher[:usable])
            new_payload[src_offset : src_offset + length] = new_cipher[
                dst_offset : dst_offset + length
            ]

        annotations = txn.annotations
        annotations[self._ciphered_key] = ciphering
        annotations[self._authenticated_key] = policy.needs_integrity
        breakdown = {"security_builder": base_result.latency}
        if cc_cycles:
            breakdown["confidentiality_core"] = cc_cycles
        if ic_cycles:
            breakdown["integrity_core"] = ic_cycles
        return FilterResult.allow(
            latency=base_result.latency + cc_cycles + ic_cycles,
            stage="lcf_crypto",
            transformed_data=bytes(new_payload),
            breakdown=breakdown,
        )

    # -- protected read path -------------------------------------------------------------------

    def _handle_protected_read(
        self, txn: BusTransaction, region: ProtectedRegion, base_result: FilterResult
    ) -> FilterResult:
        ciphering = region.rule.policy.needs_ciphering
        tree = region.tree
        key = region.key
        block_size = region.block_size
        region_end = region.rule.end
        address = txn.address
        size = txn.size
        end = address + size
        device = self.device
        cc_cycles = 0
        ic_cycles = 0
        plaintext_out = bytearray(size)

        rule_base = region.rule.base
        for index in range(
            (address - rule_base) // block_size, (end - 1 - rule_base) // block_size + 1
        ):
            block_base = rule_base + index * block_size
            usable = min(block_size, region_end - block_base)
            stored = device.peek(block_base, usable).ljust(block_size, b"\x00")
            version = region.version_of(index)

            if ciphering and version > 0:
                plain, cycles = self.confidentiality_core.decipher(
                    key, region.nonce(index, version), stored
                )
                cc_cycles += cycles
            else:
                plain = stored

            if tree is not None:
                ok, cycles = self.integrity_core.verify(tree, index, plain)
                ic_cycles += cycles
                if not ok:
                    self._raise(txn, ViolationType.INTEGRITY_FAILURE,
                                detail=f"block {index} failed hash-tree verification on read")
                    self.firewall_interface.gate(False)
                    return FilterResult.deny(
                        reason=f"{self.name}: integrity failure on read",
                        latency=base_result.latency + cc_cycles + ic_cycles,
                        stage="integrity_core",
                        status=TransactionStatus.INTEGRITY_ERROR,
                    )

            overlap_start = max(address, block_base)
            src_offset = overlap_start - block_base
            dst_offset = overlap_start - address
            length = min(end, block_base + block_size) - overlap_start
            plaintext_out[dst_offset : dst_offset + length] = plain[src_offset : src_offset + length]

        breakdown = {}
        if base_result.latency:
            breakdown["security_builder"] = base_result.latency
        if cc_cycles:
            breakdown["confidentiality_core"] = cc_cycles
        if ic_cycles:
            breakdown["integrity_core"] = ic_cycles
        return FilterResult.allow(
            latency=base_result.latency + cc_cycles + ic_cycles,
            stage="lcf_crypto",
            transformed_data=bytes(plaintext_out),
            breakdown=breakdown or None,
        )

    # -- reporting -------------------------------------------------------------------------------

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "cc_blocks": self.confidentiality_core.blocks_processed,
                "cc_cycles_charged": self.confidentiality_core.cycles_charged,
                "ic_blocks_verified": self.integrity_core.blocks_verified,
                "ic_blocks_updated": self.integrity_core.blocks_updated,
                "ic_failures": self.integrity_core.failures,
                "ic_cycles_charged": self.integrity_core.cycles_charged,
                "protected_regions": len(self._regions),
            }
        )
        return base
