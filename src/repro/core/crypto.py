"""Symmetric-key cryptography for the almost-fair exchange.

The paper builds T-Chain's fairness on a lightweight symmetric cipher:
the donor encrypts a file piece with a fresh key ``K^{ij}_{D,R}`` and
only releases the key after the requestor reciprocates.  We implement a
real cipher from the standard library (pycryptodome is unavailable in
this offline environment): a SHA-256-based CTR keystream XORed with the
plaintext, plus an HMAC-SHA256 tag for integrity.  This is the classic
"hash-counter stream cipher" construction; it is semantically adequate
here because every key encrypts exactly one piece and is never reused
(footnote 2 of the paper makes the same single-use assumption).

Two layers of API are offered:

* byte-level :func:`encrypt` / :func:`decrypt` used by unit tests, the
  quickstart example and the Section III-C overhead benchmark; and
* :class:`SealedPiece`, the object that flows through simulations.  A
  sealed piece knows *which* key opens it but does not carry plaintext;
  large-scale behavioural simulations therefore do not pay the cost of
  ciphering gigabytes, while the protocol-visible semantics (cannot use
  a piece before the key arrives) are identical.  Passing
  ``payload=...`` produces a sealed piece with real ciphertext.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

_BLOCK = hashlib.sha256().digest_size  # 32 bytes of keystream per counter
_TAG_LEN = 32

KEY_SIZE_BYTES = 32
"""256-bit keys, matching the paper's overhead accounting (Sec. III-C3)."""


class CryptoError(ValueError):
    """Raised on decryption failures (wrong key or corrupted data)."""


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of SHA-256 CTR keystream.

    Batched: the ``key || nonce`` prefix is absorbed once and the
    per-counter states are forked with ``copy()``, and all blocks are
    joined in a single allocation — versus rehashing the prefix and
    growing a bytearray 32 bytes at a time, this roughly halves the
    keystream cost on large pieces (the dominant term of the
    Sec. III-C encryption-overhead benchmark).
    """
    if length <= 0:
        return b""
    base = hashlib.sha256(key + nonce)
    n_blocks = -(-length // _BLOCK)  # ceil division
    blocks = []
    for counter in range(n_blocks):
        h = base.copy()
        h.update(counter.to_bytes(8, "big"))
        blocks.append(h.digest())
    out = b"".join(blocks)
    return out[:length] if len(out) != length else out


def _xor_fast(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings via int arithmetic (fast path)."""
    n = len(data)
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


def encrypt(key: bytes, plaintext: bytes, nonce: Optional[bytes] = None
            ) -> bytes:
    """Encrypt ``plaintext`` under ``key``.

    Output layout: ``nonce (16) || ciphertext || tag (32)``.  The tag is
    ``HMAC-SHA256(key, nonce || ciphertext)``; it lets the receiver of a
    *key release* verify the key actually opens the piece it holds.
    """
    if len(key) != KEY_SIZE_BYTES:
        raise CryptoError(f"key must be {KEY_SIZE_BYTES} bytes")
    if nonce is None:
        nonce = os.urandom(16)
    if len(nonce) != 16:
        raise CryptoError("nonce must be 16 bytes")
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = _xor_fast(plaintext, stream) if plaintext else b""
    tag = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


def decrypt(key: bytes, blob: bytes) -> bytes:
    """Decrypt a blob produced by :func:`encrypt`.

    Raises :class:`CryptoError` if the key is wrong or the blob was
    tampered with.
    """
    if len(key) != KEY_SIZE_BYTES:
        raise CryptoError(f"key must be {KEY_SIZE_BYTES} bytes")
    if len(blob) < 16 + _TAG_LEN:
        raise CryptoError("blob too short")
    nonce, body, tag = blob[:16], blob[16:-_TAG_LEN], blob[-_TAG_LEN:]
    expected = hmac.new(key, nonce + body, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise CryptoError("authentication failed (wrong key or corrupt data)")
    stream = _keystream(key, nonce, len(body))
    return _xor_fast(body, stream) if body else b""


@dataclass(frozen=True, slots=True)
class Key:
    """A single-use symmetric key ``K^{ij}_{D,R}``.

    ``key_id`` identifies the key inside a simulation (donor id,
    transaction id); ``material`` is the 256-bit secret, derived
    deterministically from the key id.  That is fine because no
    adversary inside the simulation can compute it without being
    *given* the Key object — possession of the object is the model of
    knowledge.  A ledger without ``real_crypto`` issues keys with
    empty material: its sealed pieces carry no ciphertext, and
    :meth:`SealedPiece.open` then compares ``key_id`` only.
    """

    key_id: Tuple
    material: bytes = field(repr=False, default=b"")

    @staticmethod
    def derive(key_id: Tuple) -> "Key":
        material = hashlib.sha256(repr(key_id).encode("utf-8")).digest()
        return Key(key_id=key_id, material=material)


def generate_key(key_id: Tuple) -> Key:
    """Generate the per-transaction key for ``key_id``."""
    return Key.derive(key_id)


@dataclass(slots=True)
class SealedPiece:
    """An encrypted file piece in transit or pending decryption.

    Attributes
    ----------
    piece_index:
        Which piece of the shared file this is.
    key_id:
        Identifier of the key that opens it.
    ciphertext:
        Real ciphertext when the simulation runs with ``real_crypto``;
        ``None`` in logical mode.
    """

    piece_index: int
    key_id: Tuple
    ciphertext: Optional[bytes] = field(repr=False, default=None)

    def open(self, key: Key, expected_plaintext: Optional[bytes] = None
             ) -> Optional[bytes]:
        """Unseal with ``key``.

        Raises :class:`CryptoError` when the key does not match.  In
        logical mode returns ``None``; with real ciphertext returns the
        plaintext (and checks it against ``expected_plaintext`` when
        provided).
        """
        if key.key_id != self.key_id:
            raise CryptoError(
                f"key {key.key_id!r} does not open piece sealed under "
                f"{self.key_id!r}")
        if self.ciphertext is None:
            return None
        plaintext = decrypt(key.material, self.ciphertext)
        if (expected_plaintext is not None
                and plaintext != expected_plaintext):
            raise CryptoError("decrypted plaintext mismatch")
        return plaintext

    @staticmethod
    def seal(piece_index: int, key: Key,
             payload: Optional[bytes] = None) -> "SealedPiece":
        """Seal a piece under ``key``.

        ``payload`` supplies the plaintext for real encryption; omit it
        for logical (token) sealing used in large simulations.
        """
        ciphertext = None
        if payload is not None:
            # Deterministic nonce derived from the key id keeps sealed
            # pieces reproducible across runs with the same seed.
            nonce = hashlib.sha256(
                b"nonce" + repr(key.key_id).encode()).digest()[:16]
            ciphertext = encrypt(key.material, payload, nonce=nonce)
        return SealedPiece(piece_index=piece_index, key_id=key.key_id,
                           ciphertext=ciphertext)

