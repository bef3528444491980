"""Unit and property tests for the symmetric cipher and sealed pieces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crypto import (
    KEY_SIZE_BYTES,
    CryptoError,
    Key,
    SealedPiece,
    decrypt,
    encrypt,
    generate_key,
)


KEY = bytes(range(32))
OTHER_KEY = bytes(32)


class TestCipher:
    def test_roundtrip(self):
        blob = encrypt(KEY, b"hello world")
        assert decrypt(KEY, blob) == b"hello world"

    def test_empty_plaintext_roundtrip(self):
        blob = encrypt(KEY, b"")
        assert decrypt(KEY, blob) == b""

    def test_large_piece_roundtrip(self):
        piece = bytes(i % 256 for i in range(128 * 1024))  # one 128KB piece
        assert decrypt(KEY, encrypt(KEY, piece)) == piece

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"x" * 64
        blob = encrypt(KEY, plaintext)
        assert plaintext not in blob

    def test_wrong_key_rejected(self):
        blob = encrypt(KEY, b"secret")
        with pytest.raises(CryptoError):
            decrypt(OTHER_KEY, blob)

    def test_tampered_ciphertext_rejected(self):
        blob = bytearray(encrypt(KEY, b"secret piece"))
        blob[20] ^= 0xFF
        with pytest.raises(CryptoError):
            decrypt(KEY, bytes(blob))

    def test_tampered_tag_rejected(self):
        blob = bytearray(encrypt(KEY, b"secret piece"))
        blob[-1] ^= 0x01
        with pytest.raises(CryptoError):
            decrypt(KEY, bytes(blob))

    def test_short_blob_rejected(self):
        with pytest.raises(CryptoError):
            decrypt(KEY, b"short")

    def test_bad_key_size_rejected(self):
        with pytest.raises(CryptoError):
            encrypt(b"tiny", b"data")
        with pytest.raises(CryptoError):
            decrypt(b"tiny", b"\x00" * 64)

    def test_fresh_nonce_randomizes_ciphertext(self):
        assert encrypt(KEY, b"same") != encrypt(KEY, b"same")

    def test_explicit_nonce_is_deterministic(self):
        nonce = b"n" * 16
        assert encrypt(KEY, b"same", nonce) == encrypt(KEY, b"same", nonce)

    def test_bad_nonce_size_rejected(self):
        with pytest.raises(CryptoError):
            encrypt(KEY, b"data", nonce=b"short")

    @given(st.binary(max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, plaintext):
        assert decrypt(KEY, encrypt(KEY, plaintext)) == plaintext

    @given(st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32),
           st.binary(max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_wrong_key_never_decrypts(self, k1, k2, plaintext):
        if k1 == k2:
            return
        blob = encrypt(k1, plaintext)
        with pytest.raises(CryptoError):
            decrypt(k2, blob)


class TestKey:
    def test_derive_is_deterministic(self):
        assert Key.derive(("A", 1)).material == Key.derive(("A", 1)).material

    def test_distinct_ids_distinct_material(self):
        assert Key.derive(("A", 1)).material != Key.derive(("A", 2)).material

    def test_key_size(self):
        assert len(generate_key(("D", "R", 0)).material) == KEY_SIZE_BYTES

    def test_material_not_in_repr(self):
        key = generate_key(("D", "R", 0))
        assert key.material.hex() not in repr(key)


class TestSealedPiece:
    def test_logical_seal_and_open(self):
        key = generate_key(("A", "B", 3))
        sealed = SealedPiece.seal(3, key)
        assert sealed.ciphertext is None
        assert sealed.open(key) is None

    def test_logical_open_wrong_key_fails(self):
        key = generate_key(("A", "B", 3))
        wrong = generate_key(("A", "B", 4))
        sealed = SealedPiece.seal(3, key)
        with pytest.raises(CryptoError):
            sealed.open(wrong)

    def test_real_seal_roundtrip(self):
        key = generate_key(("A", "B", 7))
        payload = b"piece-7-content" * 100
        sealed = SealedPiece.seal(7, key, payload=payload)
        assert sealed.ciphertext is not None
        assert sealed.open(key) == payload

    def test_real_seal_expected_plaintext_checked(self):
        key = generate_key(("A", "B", 7))
        sealed = SealedPiece.seal(7, key, payload=b"real")
        with pytest.raises(CryptoError):
            sealed.open(key, expected_plaintext=b"other")

    def test_real_seal_deterministic_for_same_key(self):
        key = generate_key(("A", "B", 7))
        s1 = SealedPiece.seal(7, key, payload=b"data")
        s2 = SealedPiece.seal(7, key, payload=b"data")
        assert s1.ciphertext == s2.ciphertext

    def test_piece_index_preserved(self):
        key = generate_key(("A", "B", 9))
        assert SealedPiece.seal(9, key).piece_index == 9

