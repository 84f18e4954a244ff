package attest

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/xcrypto"
)

// Provider authentication errors.
var (
	ErrProviderAuth = errors.New("attest: provider authentication failed")
	// ErrNotFederated reports a peer certificate issued by an authority
	// the provider holds no (valid) trust grant for: migration across
	// provider boundaries is refused unless the operator has explicitly
	// federated with that provider (and not revoked the grant since).
	// It wraps ErrProviderAuth — an unfederated peer is just one way
	// provider authentication fails.
	ErrNotFederated = fmt.Errorf("%w: peer provider is not federated", ErrProviderAuth)
	// ErrBadGrant reports a federation trust grant that does not verify:
	// not issued by this provider's authority, wrong scope role, expired,
	// or carrying a malformed authority key.
	ErrBadGrant = errors.New("attest: invalid federation trust grant")
)

// providerRole is the certificate role for Migration Enclave credentials
// provisioned during the secure setup phase (paper §V-B).
const providerRole = "migration-enclave"

// FederationRole is the certificate role of a cross-provider trust
// grant: provider A's authority signs the peer provider B's authority
// public key under this scope. The scoped role keeps the two trust
// domains separate — a grant lets A's Migration Enclaves accept peer ME
// certificates chaining to B, and nothing else: a grant certificate can
// never itself act as an ME credential (role mismatch), and an ME
// credential can never act as a grant.
const FederationRole = "federated-authority"

// Provider is the cloud/data-center operator that provisions Migration
// Enclaves with credentials, limiting migration to authorized machines
// within the same provider (requirement R2) — or, once the operator has
// installed a scoped trust grant for a peer provider, within the
// federation of the two (cross-datacenter migration). Grants are
// revocable per peer and re-verified on every handshake, so revocation
// takes effect immediately.
type Provider struct {
	authority *xcrypto.Authority
	// selfVerifier is the long-lived verifier over this provider's own
	// authority used to re-check grants per handshake: one instance, so
	// its memoized signature checks actually amortize.
	selfVerifier *xcrypto.Verifier

	mu sync.Mutex
	// grants maps a peer authority name to the installed trust grant for
	// it. VerifyPeer re-verifies the grant certificate against this
	// provider's own authority on every use, so expiry and revocation
	// (RevokeFederation) are enforced per handshake, not at install time.
	grants map[string]*xcrypto.Certificate
	// peerVerifiers memoizes the per-grant verifier built from the
	// granted authority key (signature checks inside are memoized too),
	// wired to the peer's online revocation feed when one was provided
	// at AcceptGrant.
	peerVerifiers map[string]*xcrypto.Verifier
}

// NewProvider creates a cloud provider identity.
func NewProvider(name string) (*Provider, error) {
	a, err := xcrypto.NewAuthority(name)
	if err != nil {
		return nil, fmt.Errorf("provider authority: %w", err)
	}
	return &Provider{
		authority:     a,
		selfVerifier:  xcrypto.NewVerifier(a),
		grants:        make(map[string]*xcrypto.Certificate),
		peerVerifiers: make(map[string]*xcrypto.Verifier),
	}, nil
}

// Name returns the provider's name.
func (p *Provider) Name() string { return p.authority.Name() }

// Authority exposes the underlying certificate authority (for tests that
// build custom trust topologies).
func (p *Provider) Authority() *xcrypto.Authority { return p.authority }

// ProvisionME runs the setup-phase step for one machine: it issues a
// certified signing credential to that machine's Migration Enclave.
func (p *Provider) ProvisionME(machineName string) (*Credential, error) {
	signer, err := xcrypto.NewCertifiedSigner(
		p.authority, machineName+"/migration-enclave", providerRole, 365*24*time.Hour)
	if err != nil {
		return nil, fmt.Errorf("provision ME: %w", err)
	}
	return &Credential{signer: signer, verifier: xcrypto.NewVerifier(p.authority), provider: p}, nil
}

// Revoke removes a machine's Migration Enclave from the provider's trust.
func (p *Provider) Revoke(machineName string) {
	p.authority.Revoke(machineName + "/migration-enclave")
}

// GrantFederation issues a scoped trust grant for a peer provider's
// authority: a certificate under THIS provider's authority whose subject
// is the peer authority's name and whose public key is the peer
// authority's verification key, with role FederationRole. Installing the
// grant (AcceptGrant) makes this provider's Migration Enclaves accept
// peer ME certificates chaining to that authority — and nothing more:
// the two trust domains stay distinct, each provider keeps issuing and
// revoking its own ME credentials, and the grant itself can be revoked
// per peer (RevokeFederation) at any time.
func (p *Provider) GrantFederation(peerName string, peerKey ed25519.PublicKey, ttl time.Duration) (*xcrypto.Certificate, error) {
	if len(peerKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: bad peer authority key", ErrBadGrant)
	}
	grant, err := p.authority.Issue(peerName, FederationRole, peerKey, ttl)
	if err != nil {
		return nil, fmt.Errorf("issue federation grant: %w", err)
	}
	return grant, nil
}

// AcceptGrant installs a federation trust grant previously issued by
// THIS provider (GrantFederation). The grant is verified at install time
// and re-verified on every peer handshake, so a grant that has expired
// or been revoked since stops working immediately.
//
// peerRevoked, when non-nil, is the peer authority's online revocation
// feed: with it, the peer operator's own per-machine ME revocations are
// honored here too (a revoked peer machine stops being a valid
// migration partner everywhere, not just at home). A nil feed accepts
// any unexpired peer certificate the granted key verifies — the offline
// trust model, in which only whole-federation revocation cuts a peer
// off.
func (p *Provider) AcceptGrant(grant *xcrypto.Certificate, peerRevoked func(subject string) bool) error {
	if err := p.checkGrant(grant); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grants[grant.Subject] = grant
	p.peerVerifiers[grant.Subject] = xcrypto.NewVerifierFromKeyFunc(
		grant.Subject, ed25519.PublicKey(grant.PublicKey), peerRevoked)
	return nil
}

// RevokeFederation withdraws the trust grant for a peer provider: the
// grant certificate is revoked at this provider's authority, so every
// subsequent VerifyPeer against that peer's MEs fails — scoped,
// per-peer, and immediate (grants are re-verified per handshake).
func (p *Provider) RevokeFederation(peerName string) {
	p.authority.Revoke(peerName)
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.grants, peerName)
	delete(p.peerVerifiers, peerName)
}

// checkGrant validates a grant certificate against this provider's own
// authority and the federation scope.
func (p *Provider) checkGrant(grant *xcrypto.Certificate) error {
	if grant == nil {
		return fmt.Errorf("%w: missing grant", ErrBadGrant)
	}
	if err := p.selfVerifier.Verify(grant); err != nil {
		return fmt.Errorf("%w: %v", ErrBadGrant, err)
	}
	if grant.Role != FederationRole {
		return fmt.Errorf("%w: unexpected scope role %q", ErrBadGrant, grant.Role)
	}
	if len(grant.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad authority key", ErrBadGrant)
	}
	return nil
}

// verifyFederatedPeer checks a peer certificate that chains to a foreign
// authority: a valid, unrevoked, unexpired trust grant must exist for
// that authority, and the certificate must verify against the granted
// authority key with the Migration Enclave role.
func (p *Provider) verifyFederatedPeer(cert *xcrypto.Certificate) error {
	p.mu.Lock()
	grant, ok := p.grants[cert.Issuer]
	verifier := p.peerVerifiers[cert.Issuer]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: issuer %q", ErrNotFederated, cert.Issuer)
	}
	// Re-verify the grant on every use: expiry and RevokeFederation (or a
	// direct authority revocation of the peer name) must cut off a peer
	// mid-flight, not only at the next install.
	if err := p.checkGrant(grant); err != nil {
		return fmt.Errorf("%w: %v", ErrNotFederated, err)
	}
	if err := verifier.Verify(cert); err != nil {
		return fmt.Errorf("%w: %v", ErrProviderAuth, err)
	}
	return nil
}

// Credential is a Migration Enclave's provider-issued identity: a signing
// key plus the trust anchor for verifying peer credentials (and, through
// the provider's grant registry, federated peer authorities).
type Credential struct {
	signer   *xcrypto.Signer
	verifier *xcrypto.Verifier
	provider *Provider
}

// Certificate returns the credential's certificate for transmission.
func (c *Credential) Certificate() *xcrypto.Certificate { return c.signer.Cert }

// Sign signs an attestation transcript with the provider-issued key.
func (c *Credential) Sign(transcript []byte) []byte { return c.signer.Sign(transcript) }

// VerifyPeer checks that a peer's certificate chains to the same
// provider — or, with a valid trust grant installed, to a federated peer
// provider — with the Migration Enclave role, and that sig is the peer's
// signature over transcript. This is the "exchange signatures on the
// transcript of the attestation protocol" step of §V-B, extended with
// the federation's cross-certification: a foreign issuer is accepted
// exactly when the operator's scoped, revocable grant for it verifies.
func (c *Credential) VerifyPeer(cert *xcrypto.Certificate, transcript, sig []byte) error {
	if err := c.RecheckPeer(cert); err != nil {
		return err
	}
	if err := xcrypto.VerifyWithCert(cert, transcript, sig); err != nil {
		return fmt.Errorf("%w: %v", ErrProviderAuth, err)
	}
	return nil
}

// RecheckPeer is the part of VerifyPeer that can change after a
// handshake: the certificate's chain, expiry, revocation, role and — for
// a foreign issuer — the federation grant. A Migration Enclave that
// resumes a cached session runs it on the certificate it authenticated
// at handshake time, so a revoked machine or federation stops being a
// migration partner at the next resume, not at the next full handshake.
// The chain signature is memoized by the verifier; the rest is lookups.
func (c *Credential) RecheckPeer(cert *xcrypto.Certificate) error {
	if cert == nil {
		return fmt.Errorf("%w: missing certificate", ErrProviderAuth)
	}
	if c.provider != nil && cert.Issuer != c.provider.Name() {
		if err := c.provider.verifyFederatedPeer(cert); err != nil {
			return err
		}
	} else if err := c.verifier.Verify(cert); err != nil {
		return fmt.Errorf("%w: %v", ErrProviderAuth, err)
	}
	if cert.Role != providerRole {
		return fmt.Errorf("%w: unexpected role %q", ErrProviderAuth, cert.Role)
	}
	return nil
}
