package attest

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/xcrypto"
)

// Quote and IAS errors.
var (
	ErrQuoteSignature = errors.New("attest: quote signature invalid")
	ErrQuotePlatform  = errors.New("attest: quote platform credential invalid")
	ErrQuoteFormat    = errors.New("attest: malformed quote")
)

// epidGroupRole is the certificate role for simulated EPID member keys.
const epidGroupRole = "epid-member"

// Quote is the Quoting Enclave's output: the prover's identities and
// report data, signed by the platform's EPID-sim member key, verifiable
// via the group issuer's public key held by the IAS.
type Quote struct {
	MREnclave    sgx.Measurement
	MRSigner     sgx.Measurement
	Data         sgx.ReportData
	PlatformCert *xcrypto.Certificate
	Signature    []byte
}

// signedBytes is the canonical byte string covered by the quote signature.
func (q *Quote) signedBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString("SGX-QUOTE")
	buf.Write(q.MREnclave[:])
	buf.Write(q.MRSigner[:])
	buf.Write(q.Data[:])
	return buf.Bytes()
}

// QuotingEnclave is the per-machine architectural enclave that converts
// local reports into remotely verifiable quotes. Its member key is
// certified by the EPID group issuer during platform provisioning.
type QuotingEnclave struct {
	enclave *sgx.Enclave
	member  *xcrypto.Signer
}

// QuotingEnclaveImage returns the architectural enclave image for the QE.
// All QEs share this image, so they measure identically everywhere.
func QuotingEnclaveImage() *sgx.Image {
	return &sgx.Image{
		Name:            "intel-quoting-enclave",
		Version:         1,
		Code:            []byte("architectural: quoting enclave"),
		SignerPublicKey: architecturalSignerKey(),
	}
}

// ArchitecturalSignerKey is the fixed "Intel" signing key used by
// architectural enclave images in the simulation (Quoting Enclave,
// Platform Services Enclave, Migration Enclave base image).
func ArchitecturalSignerKey() []byte {
	key := xcrypto.DeriveKey([]byte("intel-architectural-signer"), "ed25519-pub")
	return key[:]
}

func architecturalSignerKey() []byte { return ArchitecturalSignerKey() }

// NewQuotingEnclave loads a QE on the machine and provisions its EPID-sim
// membership from the group issuer.
func NewQuotingEnclave(m *sgx.Machine, groupIssuer *xcrypto.Authority) (*QuotingEnclave, error) {
	e, err := m.Load(QuotingEnclaveImage())
	if err != nil {
		return nil, fmt.Errorf("load QE: %w", err)
	}
	member, err := xcrypto.NewCertifiedSigner(
		groupIssuer, string(m.ID())+"/qe", epidGroupRole, 365*24*time.Hour)
	if err != nil {
		return nil, fmt.Errorf("provision QE: %w", err)
	}
	return &QuotingEnclave{enclave: e, member: member}, nil
}

// Quote locally attests the prover and signs a quote over its identity
// and report data. The prover must be on the same machine as the QE;
// cross-machine requests fail, exactly as on real hardware.
func (qe *QuotingEnclave) Quote(prover *sgx.Enclave, data sgx.ReportData) (*Quote, error) {
	report, err := prover.CreateReport(sgx.TargetFor(qe.enclave), data)
	if err != nil {
		return nil, fmt.Errorf("prover report: %w", err)
	}
	if err := qe.enclave.VerifyReport(report); err != nil {
		return nil, fmt.Errorf("QE verify report: %w", err)
	}
	qe.enclave.Machine().Latency().Charge(sim.OpQuote)
	q := &Quote{
		MREnclave:    report.MREnclave,
		MRSigner:     report.MRSigner,
		Data:         report.Data,
		PlatformCert: qe.member.Cert,
	}
	q.Signature = qe.member.Sign(q.signedBytes())
	return q, nil
}

// IAS models the Intel Attestation Service: it holds the EPID group
// issuer's public key and verifies quote signatures and platform
// membership, including revocation of compromised platforms.
//
// The real IAS is one global Intel service that knows every provisioned
// EPID group; the simulation builds one IAS per data center, so
// federation registers the peer site's group issuer here (TrustIssuer) —
// modeling both groups being provisioned with the same global service,
// the "share a provider/IAS" half of the ROADMAP's cross-DC item.
type IAS struct {
	issuer   string
	verifier *xcrypto.Verifier
	lat      *sim.Latency

	mu    sync.Mutex
	extra map[string]*xcrypto.Verifier
}

// NewIAS builds the verification service for a group issuer.
func NewIAS(groupIssuer *xcrypto.Authority, lat *sim.Latency) *IAS {
	return &IAS{
		issuer:   groupIssuer.Name(),
		verifier: xcrypto.NewVerifier(groupIssuer),
		lat:      lat,
		extra:    make(map[string]*xcrypto.Verifier),
	}
}

// TrustIssuer registers an additional EPID group issuer (a federated
// site's group) whose platform credentials this IAS instance accepts.
// revoked, when non-nil, is the issuer's online revocation feed, so the
// peer site's platform revocations are honored here too.
func (ias *IAS) TrustIssuer(name string, pub ed25519.PublicKey, revoked func(subject string) bool) {
	ias.mu.Lock()
	defer ias.mu.Unlock()
	ias.extra[name] = xcrypto.NewVerifierFromKeyFunc(name, pub, revoked)
}

// DistrustIssuer withdraws a previously trusted federated group issuer.
func (ias *IAS) DistrustIssuer(name string) {
	ias.mu.Lock()
	defer ias.mu.Unlock()
	delete(ias.extra, name)
}

// Verify checks a quote end to end: platform credential chain, role, and
// quote signature. A nil or malformed quote is rejected.
func (ias *IAS) Verify(q *Quote) error {
	ias.lat.Charge(sim.OpIASVerify)
	if err := ias.RecheckPlatform(q); err != nil {
		return err
	}
	if err := xcrypto.VerifyWithCert(q.PlatformCert, q.signedBytes(), q.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrQuoteSignature, err)
	}
	return nil
}

// RecheckPlatform is the part of Verify that can change after a quote was
// accepted: the platform credential's issuer trust, expiry and
// revocation. It consults the revocation feed the verifier already holds
// (no service round trip is charged, no signature is re-verified), so a
// Migration Enclave can run it on every session resume.
func (ias *IAS) RecheckPlatform(q *Quote) error {
	if q == nil || q.PlatformCert == nil {
		return ErrQuoteFormat
	}
	verifier := ias.verifier
	if q.PlatformCert.Issuer != ias.issuer {
		ias.mu.Lock()
		verifier = ias.extra[q.PlatformCert.Issuer]
		ias.mu.Unlock()
		if verifier == nil {
			return fmt.Errorf("%w: unknown group issuer %q", ErrQuotePlatform, q.PlatformCert.Issuer)
		}
	}
	if err := verifier.Verify(q.PlatformCert); err != nil {
		return fmt.Errorf("%w: %v", ErrQuotePlatform, err)
	}
	if q.PlatformCert.Role != epidGroupRole {
		return fmt.Errorf("%w: role %q", ErrQuotePlatform, q.PlatformCert.Role)
	}
	return nil
}
