"""Block-cipher modes of operation for the Confidentiality Core.

The hardware Confidentiality Core streams 32-bit bus words through an AES-128
pipeline.  At the behavioural level the Local Ciphering Firewall encrypts and
decrypts whole external-memory blocks; this module provides the classic modes
of operation used for that purpose:

* :class:`ECBMode` -- electronic code book (used only for single isolated
  blocks, e.g. key blobs),
* :class:`CBCMode` -- cipher block chaining with an explicit IV,
* :class:`CTRMode` -- counter mode, the natural fit for random-access memory
  encryption because each 16-byte block of a memory page can be decrypted
  independently from a (address, timestamp) derived counter.

All modes operate on :class:`repro.crypto.aes.AES128` instances but accept any
object exposing ``encrypt_block``/``decrypt_block``/``BLOCK_SIZE``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Protocol

__all__ = [
    "BlockCipher",
    "ECBMode",
    "CBCMode",
    "CTRMode",
    "pkcs7_pad",
    "pkcs7_unpad",
    "xor_bytes",
    "use_keystream_cache",
    "keystream_cache_enabled",
]

# Default for CTRMode instances built without an explicit ``cache_blocks``
# argument.  The differential harness flips this to force every new CTR mode
# onto the uncached reference path.
_KEYSTREAM_CACHE_DEFAULT = True


def use_keystream_cache(enabled: bool = True) -> None:
    """Set the default keystream-caching behaviour of new :class:`CTRMode`."""
    global _KEYSTREAM_CACHE_DEFAULT
    _KEYSTREAM_CACHE_DEFAULT = enabled


def keystream_cache_enabled() -> bool:
    """Whether new :class:`CTRMode` instances cache keystream blocks."""
    return _KEYSTREAM_CACHE_DEFAULT


class BlockCipher(Protocol):
    """Structural interface expected from a block cipher."""

    BLOCK_SIZE: int

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    # One wide integer XOR instead of a per-byte Python loop.
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` using PKCS#7."""
    if not 1 <= block_size <= 255:
        raise ValueError(f"block size must be in [1, 255], got {block_size}")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    """Remove PKCS#7 padding, validating it."""
    if not data or len(data) % block_size != 0:
        raise ValueError("invalid padded data length")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise ValueError("invalid padding byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("corrupt padding")
    return data[:-pad_len]


class ECBMode:
    """Electronic-codebook mode: each block encrypted independently."""

    def __init__(self, cipher: BlockCipher) -> None:
        self._cipher = cipher
        self._block = cipher.BLOCK_SIZE

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt a plaintext whose length is a multiple of the block size."""
        self._check_length(plaintext)
        out = bytearray()
        for offset in range(0, len(plaintext), self._block):
            out += self._cipher.encrypt_block(plaintext[offset : offset + self._block])
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt a ciphertext whose length is a multiple of the block size."""
        self._check_length(ciphertext)
        out = bytearray()
        for offset in range(0, len(ciphertext), self._block):
            out += self._cipher.decrypt_block(ciphertext[offset : offset + self._block])
        return bytes(out)

    def _check_length(self, data: bytes) -> None:
        if len(data) % self._block != 0:
            raise ValueError(
                f"data length {len(data)} is not a multiple of block size {self._block}"
            )


class CBCMode:
    """Cipher-block-chaining mode with an explicit initialisation vector."""

    def __init__(self, cipher: BlockCipher) -> None:
        self._cipher = cipher
        self._block = cipher.BLOCK_SIZE

    def encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        """Encrypt ``plaintext`` (multiple of block size) chained from ``iv``."""
        self._check_iv(iv)
        if len(plaintext) % self._block != 0:
            raise ValueError("plaintext length must be a multiple of the block size")
        out = bytearray()
        previous = iv
        for offset in range(0, len(plaintext), self._block):
            block = xor_bytes(plaintext[offset : offset + self._block], previous)
            encrypted = self._cipher.encrypt_block(block)
            out += encrypted
            previous = encrypted
        return bytes(out)

    def decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        """Decrypt ``ciphertext`` (multiple of block size) chained from ``iv``."""
        self._check_iv(iv)
        if len(ciphertext) % self._block != 0:
            raise ValueError("ciphertext length must be a multiple of the block size")
        out = bytearray()
        previous = iv
        for offset in range(0, len(ciphertext), self._block):
            block = ciphertext[offset : offset + self._block]
            out += xor_bytes(self._cipher.decrypt_block(block), previous)
            previous = block
        return bytes(out)

    def _check_iv(self, iv: bytes) -> None:
        if len(iv) != self._block:
            raise ValueError(
                f"IV must be {self._block} bytes, got {len(iv)}"
            )


class CTRMode:
    """Counter mode: encrypt a keystream derived from a counter block.

    Counter mode is the mode of choice for protecting a random-access external
    memory because block ``i`` of a page can be (de)ciphered without touching
    its neighbours; the Local Ciphering Firewall derives the counter from the
    block's physical address and its timestamp tag, which is also what defeats
    replay and relocation of ciphertext (see the paper's section IV-A).

    Because the keystream depends only on (key, counter block) — never on the
    data — each generated keystream block is memoised in a bounded LRU cache.
    The LCF re-reads protected blocks far more often than it rewrites them
    (every read and every read-modify-write re-derives the same nonce until
    the version tag bumps), so the AES core is only exercised on genuinely new
    counter blocks.  Pass ``cache_blocks=False`` to disable the cache.
    """

    #: Upper bound on memoised keystream blocks (16 bytes each).
    CACHE_LIMIT = 4096

    def __init__(self, cipher: BlockCipher, cache_blocks: Optional[bool] = None) -> None:
        self._cipher = cipher
        self._block = cipher.BLOCK_SIZE
        self._cache_blocks = _KEYSTREAM_CACHE_DEFAULT if cache_blocks is None else cache_blocks
        self._keystream_cache: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @staticmethod
    def make_counter_block(nonce: bytes, counter: int, block_size: int = 16) -> bytes:
        """Build a counter block from an 8-byte nonce and a 64-bit counter."""
        if len(nonce) != block_size // 2:
            raise ValueError(
                f"nonce must be {block_size // 2} bytes, got {len(nonce)}"
            )
        if counter < 0 or counter >= 1 << (8 * (block_size - len(nonce))):
            raise ValueError("counter out of range")
        return nonce + counter.to_bytes(block_size - len(nonce), "big")

    def keystream(self, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
        """Generate ``length`` keystream bytes starting at ``initial_counter``.

        Each keystream block is served from the LRU cache when possible.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        block = self._block
        n_blocks = -(-length // block)
        if not n_blocks:
            return b""
        counter_bytes = block - len(nonce)
        counters = range(initial_counter, initial_counter + n_blocks)
        # Validate the nonce and the whole counter range once; on failure,
        # make_counter_block raises the error of the first bad counter block.
        if (
            len(nonce) != block // 2
            or initial_counter < 0
            or initial_counter + n_blocks > 1 << (8 * counter_bytes)
        ):
            for counter in counters:
                self.make_counter_block(nonce, counter, block)
        encrypt_block = self._cipher.encrypt_block
        if not self._cache_blocks:
            parts = [
                encrypt_block(nonce + counter.to_bytes(counter_bytes, "big"))
                for counter in counters
            ]
        else:
            cache = self._keystream_cache
            parts = []
            for counter in counters:
                counter_block = nonce + counter.to_bytes(counter_bytes, "big")
                stream = cache.get(counter_block)
                if stream is not None:
                    self.cache_hits += 1
                    cache.move_to_end(counter_block)
                else:
                    self.cache_misses += 1
                    stream = cache[counter_block] = encrypt_block(counter_block)
                    if len(cache) > self.CACHE_LIMIT:
                        cache.popitem(last=False)
                parts.append(stream)
        stream = b"".join(parts)
        return stream if len(stream) == length else stream[:length]

    def encrypt(self, plaintext: bytes, nonce: bytes, initial_counter: int = 0) -> bytes:
        """Encrypt arbitrary-length plaintext (no padding needed)."""
        stream = self.keystream(nonce, len(plaintext), initial_counter)
        return xor_bytes(plaintext, stream)

    def decrypt(self, ciphertext: bytes, nonce: bytes, initial_counter: int = 0) -> bytes:
        """Decrypt arbitrary-length ciphertext (CTR is symmetric)."""
        return self.encrypt(ciphertext, nonce, initial_counter)
