package core

import (
	"crypto/subtle"

	"repro/internal/attest"
	"repro/internal/wirec"
	"repro/internal/xcrypto"
)

// Resumable attested sessions (batch pipeline layer 1).
//
// After one successful mutual remote attestation between a (source ME,
// dest ME) pair, both sides cache a session secret derived from the DH
// shared secret AND the attestation transcript. Later batches derive
// fresh directional AEAD keys from that secret plus a strictly
// increasing use counter instead of re-running the quote/IAS round.
//
// The trust argument for resumption is epoch fencing: the secret only
// proves what was true at handshake time. A restarted or recovered ME
// is a NEW trust epoch — its in-memory incoming/outgoing state is gone,
// so replaying a pre-restart session would bypass exactly the freshness
// the restart invalidated. Each ME therefore mints a random epoch value
// at construction and binds it into every resume ticket MAC; a ticket
// carrying any other epoch is refused and the source falls back to a
// full handshake (and since a restarted ME also forgot its accepted-
// session table, even a forged matching epoch would find no secret).

// Key-derivation labels for the session layer. Distinct labels keep the
// resume MACs and the per-batch directional data/ack keys in disjoint
// key spaces even though they share one session secret.
const (
	labelSessionSecret = "me-session-secret"
	labelResumeMAC     = "me-resume-mac"
	labelResumeOK      = "me-resume-ok"
	labelResumeRefuse  = "me-resume-refuse"
	labelBatchData     = "me-batch-data"
	labelBatchAck      = "me-batch-ack"
)

// resumableSession is one cached attested session. On the source side
// counter is the next unused value; on the destination side it is the
// highest value accepted so far (a resume at counter <= accepted is a
// replay and is refused).
type resumableSession struct {
	id      []byte // random session identifier, chosen by the destination
	secret  []byte // 32-byte secret bound to the original transcript
	epoch   []byte // destination ME's epoch at handshake time
	counter uint64
	// peerCert and peerQuote are what the handshake authenticated about
	// the peer; every resume re-checks them for revocation (recheckPeer).
	// On the destination side peerCert is set only once the source has
	// authenticated on frame 0, and a session without it never resumes.
	peerCert  *xcrypto.Certificate
	peerQuote *attest.Quote
	// order is the destination-side LRU stamp for cap eviction (bumped on
	// admission and on every successful resume); guarded by the ME's mu.
	order uint64
}

// deriveSessionSecret derives the cached session secret from the DH
// shared secret and the full attestation transcript, so the secret is
// bound to the identities and keys that were actually attested.
func deriveSessionSecret(shared, transcript []byte) []byte {
	k := xcrypto.DeriveKey(shared, labelSessionSecret, transcript)
	return k[:]
}

// resumeMAC authenticates a resume ticket: possession of the session
// secret, bound to the session id, the destination epoch the source
// believes is current, the counter being reserved, and the batch size.
func resumeMAC(secret, sid, epoch []byte, counter uint64, count uint32) []byte {
	k := xcrypto.DeriveKey(secret, labelResumeMAC, sid, epoch, wirec.AppendU64(nil, counter), wirec.AppendU32(nil, count))
	return k[:]
}

// resumeConfirmMAC is the destination's proof-of-acceptance, confirming
// it holds the same secret and accepted exactly this counter.
func resumeConfirmMAC(secret, sid []byte, counter uint64) []byte {
	k := xcrypto.DeriveKey(secret, labelResumeOK, sid, wirec.AppendU64(nil, counter))
	return k[:]
}

// resumeRefuseMAC authenticates a resume REFUSAL: a destination that
// still holds the session secret but will not honor this ticket (epoch
// rolled, counter replayed) proves it is the true peer, so only it can
// make the source evict its cached session. A destination that lost the
// secret (restart) cannot produce it — nor can an on-path attacker — and
// such unauthenticated refusals merely trigger the (authenticated)
// fresh-handshake fallback without evicting the cache.
func resumeRefuseMAC(secret, sid []byte, counter uint64) []byte {
	k := xcrypto.DeriveKey(secret, labelResumeRefuse, sid, wirec.AppendU64(nil, counter))
	return k[:]
}

// batchKeys derives the two directional stream keys for one batch use
// of a session: data flows source -> dest, acks flow dest -> source.
// A fresh counter yields fresh keys, so stream sequence numbers restart
// at zero without nonce reuse.
func batchKeys(secret []byte, counter uint64) (data, ack [32]byte) {
	data = xcrypto.DeriveKey(secret, labelBatchData, wirec.AppendU64(nil, counter))
	ack = xcrypto.DeriveKey(secret, labelBatchAck, wirec.AppendU64(nil, counter))
	return data, ack
}

// macEqual compares MACs in constant time.
func macEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}
