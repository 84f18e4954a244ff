package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Errors returned by AEAD sealing and secure channels.
var (
	ErrCiphertextShort = errors.New("xcrypto: ciphertext too short")
	ErrDecrypt         = errors.New("xcrypto: decryption failed")
	ErrReplay          = errors.New("xcrypto: message replayed or out of order")
	ErrChannelClosed   = errors.New("xcrypto: channel closed")
)

// NewAESGCM returns an AES-GCM AEAD for a 16- or 32-byte key.
func NewAESGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aes cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	return aead, nil
}

// Sealer is an AES-GCM encryptor with the key schedule built exactly once.
// Constructing the cipher and GCM instance costs more than encrypting a
// small message, so every hot path that reuses a key (sealing keys, the
// Migration Sealing Key, channel keys) should hold a Sealer instead of
// calling Encrypt/Decrypt. A Sealer is safe for concurrent use.
type Sealer struct {
	aead cipher.AEAD
}

// NewSealer builds a Sealer for a 16- or 32-byte key.
func NewSealer(key []byte) (*Sealer, error) {
	aead, err := NewAESGCM(key)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Overhead returns the bytes Seal adds beyond the plaintext length
// (nonce plus authentication tag).
func (s *Sealer) Overhead() int { return s.aead.NonceSize() + s.aead.Overhead() }

// SealAppend encrypts plaintext, binding aad, and appends the random
// nonce followed by the ciphertext and tag to dst, reusing dst's spare
// capacity when possible. It returns the extended buffer.
func (s *Sealer) SealAppend(dst, plaintext, aad []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	off := len(dst)
	if need := off + ns + len(plaintext) + s.aead.Overhead(); cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	nonce := dst[off : off+ns]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("nonce: %w", err)
	}
	return s.aead.Seal(dst[:off+ns], nonce, plaintext, aad), nil
}

// Seal encrypts plaintext with a fresh random nonce prepended, the same
// wire format as Encrypt.
func (s *Sealer) Seal(plaintext, aad []byte) ([]byte, error) {
	return s.SealAppend(nil, plaintext, aad)
}

// Open reverses Seal. It returns ErrDecrypt if authentication fails.
func (s *Sealer) Open(ciphertext, aad []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, ErrCiphertextShort
	}
	nonce, body := ciphertext[:ns], ciphertext[ns:]
	plaintext, err := s.aead.Open(nil, nonce, body, aad)
	if err != nil {
		return nil, ErrReplayOrDecrypt(err)
	}
	return plaintext, nil
}

// Encrypt seals plaintext with AES-GCM under key, binding aad. The random
// nonce is prepended to the returned ciphertext. It is a compatibility
// wrapper that builds the key schedule per call; hold a Sealer when the
// key is reused.
func Encrypt(key, plaintext, aad []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Seal(plaintext, aad)
}

// Decrypt reverses Encrypt. It returns ErrDecrypt if authentication fails.
func Decrypt(key, ciphertext, aad []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Open(ciphertext, aad)
}

// ErrReplayOrDecrypt normalizes AEAD open failures to ErrDecrypt while
// keeping the underlying detail wrapped for diagnostics.
func ErrReplayOrDecrypt(err error) error {
	return fmt.Errorf("%w: %v", ErrDecrypt, err)
}

// channelNonceSize is the AES-GCM nonce size used by Channel.
const channelNonceSize = 12

// Channel is a bidirectional secure channel built over a shared secret,
// as established between two enclaves by attested Diffie-Hellman. Each
// direction uses an independent key and a strictly increasing sequence
// number, so replayed, reordered, or cross-directional messages are
// rejected. Channel is safe for concurrent use.
//
// The directional AEADs are built once at channel construction, and the
// nonce is the sequence counter itself (unique per direction because each
// direction has its own key and a strictly increasing sequence), so a
// message costs neither a key schedule nor a crypto/rand read.
type Channel struct {
	mu      sync.Mutex
	send    cipher.AEAD
	recv    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
	closed  bool
}

// ChannelPair derives the two endpoints of a secure channel from a shared
// secret and a transcript binding. initiator and responder views agree on
// the directional keys but swap their roles.
func ChannelPair(sharedSecret, transcript []byte) (initiator, responder *Channel) {
	kInit := DeriveKey(sharedSecret, "channel-initiator", transcript)
	kResp := DeriveKey(sharedSecret, "channel-responder", transcript)
	aInit, err := NewAESGCM(kInit[:])
	if err != nil {
		// Unreachable: DeriveKey always returns a 32-byte key.
		panic(fmt.Sprintf("xcrypto: channel aead: %v", err))
	}
	aResp, err := NewAESGCM(kResp[:])
	if err != nil {
		panic(fmt.Sprintf("xcrypto: channel aead: %v", err))
	}
	initiator = &Channel{send: aInit, recv: aResp}
	responder = &Channel{send: aResp, recv: aInit}
	return initiator, responder
}

// channelNonce expands a sequence number into the deterministic per-message
// nonce. Uniqueness holds per direction because sequence numbers never
// repeat under one directional key.
func channelNonce(seq uint64) [channelNonceSize]byte {
	var nonce [channelNonceSize]byte
	binary.BigEndian.PutUint64(nonce[4:], seq)
	return nonce
}

// Seal encrypts a message for the peer, binding the channel sequence
// number so the peer can detect replays and reordering.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	return c.SealAppend(nil, plaintext)
}

// SealAppend is Seal appending to dst, reusing its spare capacity.
func (c *Channel) SealAppend(dst, plaintext []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrChannelClosed
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], c.sendSeq)
	off := len(dst)
	if need := off + 8 + len(plaintext) + c.send.Overhead(); cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, hdr[:]...)
	nonce := channelNonce(c.sendSeq)
	out := c.send.Seal(dst, nonce[:], plaintext, hdr[:])
	c.sendSeq++
	return out, nil
}

// Open decrypts a message from the peer. Messages must arrive in order;
// any replay or gap is rejected with ErrReplay.
func (c *Channel) Open(wire []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrChannelClosed
	}
	if len(wire) < 8 {
		return nil, ErrCiphertextShort
	}
	seq := binary.BigEndian.Uint64(wire[:8])
	if seq != c.recvSeq {
		return nil, fmt.Errorf("%w: got seq %d want %d", ErrReplay, seq, c.recvSeq)
	}
	nonce := channelNonce(seq)
	plaintext, err := c.recv.Open(nil, nonce[:], wire[8:], wire[:8])
	if err != nil {
		return nil, ErrReplayOrDecrypt(err)
	}
	c.recvSeq++
	return plaintext, nil
}

// Close renders the channel unusable. Further Seal/Open calls fail.
func (c *Channel) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.send = nil
	c.recv = nil
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, buf); err != nil {
		return nil, fmt.Errorf("random: %w", err)
	}
	return buf, nil
}
