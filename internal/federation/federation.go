package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/pserepl"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Federation errors.
var (
	// ErrUnknownDC reports a data center the federation has not admitted.
	ErrUnknownDC = errors.New("federation: unknown data center")
	// ErrNotConnected reports an operation between two data centers that
	// have no WAN link (Connect first).
	ErrNotConnected = errors.New("federation: data centers are not connected")
	// ErrNotPartnered reports a cross-DC recovery between racks that
	// have no escrow mirror (PartnerGroups first).
	ErrNotPartnered = errors.New("federation: racks are not escrow partners")
	// ErrOriginUnreachable reports a cross-DC recovery that could not
	// arbitrate against the origin site's binding counter (site down or
	// partitioned) and was not forced. Forcing skips the origin win and
	// queues a revocation instead — the operator's declaration that the
	// site is lost (a forced failover).
	ErrOriginUnreachable = errors.New("federation: origin site unreachable; use force to declare it lost")
	// ErrOriginAlive reports a cross-DC recovery that captured the
	// origin binding above the mirrored version: the original was alive
	// and persisting — the §V-D guard against resurrecting a running
	// instance tripped after the fact.
	ErrOriginAlive = errors.New("federation: origin binding advanced past the mirror; original instance was alive")
)

// grantTTL is the default lifetime of federation trust grants.
const grantTTL = 365 * 24 * time.Hour

// pairKey orders two DC names canonically.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "~" + b
}

// partnership names one directed escrow-mirroring relation.
func partnershipName(fromDC, fromGroup, toDC, toGroup string) string {
	return fromDC + "/" + fromGroup + ">" + toDC + "/" + toGroup
}

// revocation is a queued destruction of an origin-site binding counter,
// created by a forced (site-loss) cross-DC recovery and retired by
// Reconcile once the origin site is reachable again.
type revocation struct {
	dc    string
	group string
	owner sgx.Measurement
	uuid  pse.UUID
}

// Federation joins admitted data centers into one migration domain. It
// owns the inter-DC inventory, the WAN links, the provider
// cross-certification performed at Connect, the escrow mirrors created
// by PartnerGroups, and the cross-DC variant of machine recovery. Like
// cloud and fleet it is management plane: nothing in the migration
// protocol trusts it.
type Federation struct {
	name string

	mu      sync.Mutex
	dcs     map[string]*cloud.DataCenter
	links   map[string]*transport.WANLink // by pairKey
	mirrors map[string]*Mirror            // by partnershipName
	revokes []revocation
	obs     atomic.Pointer[obs.Observer]
}

// SetObserver installs a telemetry observer on the federation's own
// control plane: WAN links get per-hop spans, mirrors get push spans and
// in-band trace propagation, and federation-level security transitions
// (grant revocation, forced site-loss failover) land in the audit
// stream. Admitted data centers keep their own observers — call
// cloud.DataCenter.SetObserver per site (usually with the same observer).
func (f *Federation) SetObserver(o *obs.Observer) {
	f.obs.Store(o)
	f.mu.Lock()
	links := make([]*transport.WANLink, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	mirrors := make([]*Mirror, 0, len(f.mirrors))
	for _, m := range f.mirrors {
		mirrors = append(mirrors, m)
	}
	f.mu.Unlock()
	for _, l := range links {
		l.SetObserver(o)
	}
	for _, m := range mirrors {
		m.SetObserver(o)
	}
}

// actor names the federation in audit events.
func (f *Federation) actor() string { return "federation:" + f.name }

// New creates an empty federation.
func New(name string) *Federation {
	return &Federation{
		name:    name,
		dcs:     make(map[string]*cloud.DataCenter),
		links:   make(map[string]*transport.WANLink),
		mirrors: make(map[string]*Mirror),
	}
}

// Name returns the federation name.
func (f *Federation) Name() string { return f.name }

// Admit registers a data center with the federation.
func (f *Federation) Admit(dc *cloud.DataCenter) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.dcs[dc.Name()]; dup {
		return fmt.Errorf("federation: data center %q already admitted", dc.Name())
	}
	f.dcs[dc.Name()] = dc
	return nil
}

// DataCenter returns an admitted data center.
func (f *Federation) DataCenter(name string) (*cloud.DataCenter, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dc, ok := f.dcs[name]
	return dc, ok
}

// Machines returns the federation-wide inventory: every machine of
// every admitted data center, sorted by (DC, machine ID).
func (f *Federation) Machines() []*cloud.Machine {
	f.mu.Lock()
	names := make([]string, 0, len(f.dcs))
	for n := range f.dcs {
		names = append(names, n)
	}
	dcs := make([]*cloud.DataCenter, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		dcs = append(dcs, f.dcs[n])
	}
	f.mu.Unlock()
	var out []*cloud.Machine
	for _, dc := range dcs {
		out = append(out, dc.Machines()...)
	}
	return out
}

// Connect federates two admitted data centers: their providers
// cross-certify (each issues, transfers in encoded form, and installs a
// scoped trust grant for the other's authority), each site's IAS learns
// the peer's EPID group issuer, and a WAN link with the given economics
// bridges the two networks, exporting every current machine's Migration
// Enclave address both ways (machines added later are exported with
// ExportMachine). Returns the link.
func (f *Federation) Connect(aName, bName string, cfg transport.WANConfig) (*transport.WANLink, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.dcs[aName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, aName)
	}
	b, ok := f.dcs[bName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, bName)
	}
	key := pairKey(aName, bName)
	if _, dup := f.links[key]; dup {
		return nil, fmt.Errorf("federation: %s and %s already connected", aName, bName)
	}

	// Cross-certification, through the wire form the operators would
	// actually exchange (and the fuzz harnesses cover).
	if err := crossCertify(a, b); err != nil {
		return nil, err
	}
	if err := crossCertify(b, a); err != nil {
		return nil, err
	}
	a.IAS.TrustIssuer(b.Issuer.Name(), b.Issuer.PublicKey(), b.Issuer.IsRevoked)
	b.IAS.TrustIssuer(a.Issuer.Name(), a.Issuer.PublicKey(), a.Issuer.IsRevoked)

	link := transport.NewWANLink(key, a.Messenger, b.Messenger, cfg)
	for _, m := range a.Machines() {
		if err := link.Export(transport.SideA, m.MEAddress()); err != nil {
			return nil, err
		}
	}
	for _, m := range b.Machines() {
		if err := link.Export(transport.SideB, m.MEAddress()); err != nil {
			return nil, err
		}
	}
	link.SetObserver(f.obs.Load())
	f.links[key] = link
	return link, nil
}

// crossCertify has `granting` issue and install a trust grant for
// `peer`'s authority, exercising the encoded grant form end to end. The
// peer authority's revocation feed is wired into the installed grant,
// so the peer operator's own per-machine ME revocations are honored at
// this site too (not just whole-federation revocation).
func crossCertify(granting, peer *cloud.DataCenter) error {
	grant, err := granting.Provider.GrantFederation(
		peer.Provider.Name(), peer.Provider.Authority().PublicKey(), grantTTL)
	if err != nil {
		return err
	}
	framed, err := EncodeGrant(grant)
	if err != nil {
		return err
	}
	decoded, err := DecodeGrant(framed)
	if err != nil {
		return err
	}
	return granting.Provider.AcceptGrant(decoded, peer.Provider.Authority().IsRevoked)
}

// Link returns the WAN link between two connected data centers.
func (f *Federation) Link(aName, bName string) (*transport.WANLink, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.links[pairKey(aName, bName)]
	return l, ok
}

// ExportMachine exports a machine added after Connect over the link to
// the named peer data center.
func (f *Federation) ExportMachine(dcName, peerName, machineID string) error {
	f.mu.Lock()
	dc, ok := f.dcs[dcName]
	link, lok := f.links[pairKey(dcName, peerName)]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDC, dcName)
	}
	if !lok {
		return fmt.Errorf("%w: %s and %s", ErrNotConnected, dcName, peerName)
	}
	m, ok := dc.Machine(machineID)
	if !ok {
		return fmt.Errorf("federation: unknown machine %q in %s", machineID, dcName)
	}
	return link.Export(f.sideOf(link, dcName, peerName), m.MEAddress())
}

// sideOf returns which WANLink side a DC is on (links are created with
// the lexically smaller name as side A).
func (f *Federation) sideOf(_ *transport.WANLink, dcName, peerName string) int {
	if dcName < peerName {
		return transport.SideA
	}
	return transport.SideB
}

// Disconnect severs the federation between two data centers: both
// providers revoke their trust grants (immediately failing every
// cross-DC handshake), both IAS instances drop the peer issuer, and the
// link is marked down. Mirrors between the sites stop syncing (their
// pushes fail at the downed link).
func (f *Federation) Disconnect(aName, bName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, aok := f.dcs[aName]
	b, bok := f.dcs[bName]
	if !aok || !bok {
		return fmt.Errorf("%w: %s / %s", ErrUnknownDC, aName, bName)
	}
	link, ok := f.links[pairKey(aName, bName)]
	if !ok {
		return fmt.Errorf("%w: %s and %s", ErrNotConnected, aName, bName)
	}
	a.Provider.RevokeFederation(b.Provider.Name())
	b.Provider.RevokeFederation(a.Provider.Name())
	a.IAS.DistrustIssuer(b.Issuer.Name())
	b.IAS.DistrustIssuer(a.Issuer.Name())
	link.SetDown(true)
	f.obs.Load().Event(obs.EventGrantRevoked, f.actor(),
		fmt.Sprintf("federation severed: %s and %s revoked trust grants; link down", aName, bName),
		obs.TraceContext{})
	return nil
}

// PartnerGroups establishes a directed escrow mirror: the origin rack
// (originDC/originGroup) asynchronously re-wraps its escrow records for
// the partner rack (destDC/destGroup) and pushes them — with shadow
// binding and app counters advanced at the partner — over the WAN link,
// making every escrowed enclave of the origin rack recoverable at the
// partner even after the loss of the whole origin rack or site.
//
// Mirror one direction per rack pair: partnering the same two racks in
// both directions would re-mirror each site's shadow records back.
func (f *Federation) PartnerGroups(originDC, originGroup, destDC, destGroup string) (*Mirror, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.dcs[originDC]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, originDC)
	}
	b, ok := f.dcs[destDC]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, destDC)
	}
	link, ok := f.links[pairKey(originDC, destDC)]
	if !ok {
		return nil, fmt.Errorf("%w: %s and %s", ErrNotConnected, originDC, destDC)
	}
	gA, ok := a.ReplicaGroup(originGroup)
	if !ok {
		return nil, fmt.Errorf("federation: unknown group %q in %s", originGroup, originDC)
	}
	gB, ok := b.ReplicaGroup(destGroup)
	if !ok {
		return nil, fmt.Errorf("federation: unknown group %q in %s", destGroup, destDC)
	}
	name := partnershipName(originDC, originGroup, destDC, destGroup)
	if _, dup := f.mirrors[name]; dup {
		return nil, fmt.Errorf("federation: %s already partnered", name)
	}

	// The partnership link key: provisioned in-process to both halves of
	// the mirror agent, like every other setup-phase key in the repo.
	keyBytes, err := xcrypto.RandomBytes(32)
	if err != nil {
		return nil, fmt.Errorf("partnership key: %w", err)
	}
	sealer, err := xcrypto.NewSealer(keyBytes)
	if err != nil {
		return nil, fmt.Errorf("partnership sealer: %w", err)
	}
	epAddr := transport.Address("fed-mirror/" + name)
	ep, err := newMirrorEndpoint(name, gB, sealer, b.Messenger, epAddr)
	if err != nil {
		return nil, err
	}
	// The endpoint lives at the destination; the origin-side pusher must
	// reach it across the WAN.
	if err := link.Export(f.sideOf(link, destDC, originDC), epAddr); err != nil {
		return nil, err
	}
	m := newMirror(name, gA, gB.EscrowSealer(), a.Messenger, epAddr, sealer)
	m.ep = ep
	m.SetObserver(f.obs.Load())
	f.mirrors[name] = m
	return m, nil
}

// mirrorFor finds the mirror from the dead machine's rack to the
// recovery target's rack.
func (f *Federation) mirrorFor(originDC, originGroup, destDC, destGroup string) (*Mirror, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.mirrors[partnershipName(originDC, originGroup, destDC, destGroup)]
	return m, ok
}

// RecoverMachine is the cross-datacenter variant of
// cloud.DataCenter.RecoverMachine: it resurrects a dead machine's
// escrowed enclaves in the PEER data center, on targetID, from the
// partner rack's mirrored escrow records — counters (at their mirrored
// values) and app state intact.
//
// Exactly-one resurrection is still arbitrated by a binding-counter
// win. With the origin site reachable (force=false) the recovery first
// consumes the ORIGIN binding at exactly the mirrored version — the
// same counter a local recovery or the live original would use, so of
// any set of racers across both sites exactly one wins — then wins the
// partner's shadow binding through the standard Library.Recover
// protocol. With force=true (the operator's declaration that the origin
// site is lost) the origin win is skipped: the shadow binding alone
// arbitrates among partner-side racers, and a revocation of the origin
// binding is queued so Reconcile fails the originals closed
// (ErrRecoveredAway) as soon as the origin site comes back. Between a
// forced recovery and that reconciliation a revived origin site could
// briefly run a zombie — the federation-scale instance of the §V-D
// management-plane judgment the paper already makes for redirects, and
// the reason force is an explicit operator act.
//
// Shadow counter values trail the origin by the mirror lag: a forced
// recovery restores the last mirrored values (the disclosed RPO of
// asynchronous cross-site replication). An unforced recovery refuses a
// lagging mirror outright (ErrMirrorStale) — Flush the mirror and
// retry, so the both-sites-alive path never rolls anything back.
func (f *Federation) RecoverMachine(deadDC, deadID, destDC, targetID string, force bool) ([]*cloud.App, error) {
	a, ok := f.DataCenter(deadDC)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, deadDC)
	}
	b, ok := f.DataCenter(destDC)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDC, destDC)
	}
	dead, ok := a.Machine(deadID)
	if !ok {
		return nil, fmt.Errorf("federation: unknown machine %q in %s", deadID, deadDC)
	}
	target, ok := b.Machine(targetID)
	if !ok {
		return nil, fmt.Errorf("federation: unknown machine %q in %s", targetID, destDC)
	}
	if dead.Alive() {
		return nil, fmt.Errorf("%w: %s", cloud.ErrMachineUp, deadID)
	}
	if !target.Alive() {
		return nil, fmt.Errorf("%w: %s", cloud.ErrMachineDown, targetID)
	}
	gA, gB := dead.Group(), target.Group()
	if gA == nil || gB == nil {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNotPartnered, deadID, targetID)
	}
	mirror, ok := f.mirrorFor(deadDC, gA.Name(), destDC, gB.Name())
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s -> %s/%s", ErrNotPartnered, deadDC, gA.Name(), destDC, gB.Name())
	}
	link, _ := f.Link(deadDC, destDC)

	var recovered []*cloud.App
	var errs []error
	for _, la := range dead.LostApps() {
		if !la.Escrowed {
			continue
		}
		app, err := f.recoverOne(mirror, gA, gB, target, la, force, deadDC, link)
		if err != nil {
			errs = append(errs, fmt.Errorf("recover %s on %s/%s: %w", la.Image.Name, destDC, targetID, err))
			continue
		}
		dead.DropLost(la.EscrowID)
		recovered = append(recovered, app)
	}
	return recovered, errors.Join(errs...)
}

// recoverOne runs the cross-DC resurrection of one lost app.
func (f *Federation) recoverOne(mirror *Mirror, gA, gB *pserepl.Group, target *cloud.Machine, la cloud.LostApp, force bool, originDCName string, link *transport.WANLink) (*cloud.App, error) {
	owner := la.Image.Measure()
	k := instanceKey{owner: owner, id: la.EscrowID}
	sp, tc := f.obs.Load().StartSpan(obs.SpanFedRecover, obs.TraceContext{})
	if sp != nil {
		sp.Site = f.name
		defer sp.End()
	}
	// Each origin-side arbitration exchange is a control-plane round
	// trip across the WAN from the recovering site's operator; charge it
	// on the link so kill-to-recovered latency scales with RTT honestly.
	chargeWAN := func() {
		if link != nil {
			link.Latency().Charge(sim.OpWANHop)
		}
	}

	// The partner must hold a mirrored record at all.
	verM, _, _, err := gB.EscrowGet(owner, la.EscrowID)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotMirrored, err)
	}

	info, known := mirror.originBinding(k)
	switch {
	case known && info.consumed:
		// A previous cross-DC attempt already consumed the origin
		// binding (e.g. the partner-side step then failed transiently);
		// only the shadow win remains.
	case force:
		// Operator-declared site loss: skip the origin win, queue the
		// revocation so Reconcile fails the originals closed when the
		// site returns.
		if known {
			f.mu.Lock()
			f.revokes = append(f.revokes, revocation{dc: originDCName, group: gA.Name(), owner: owner, uuid: info.bind})
			f.mu.Unlock()
		}
		f.obs.Load().Event(obs.EventSiteLossFailover, f.actor(),
			fmt.Sprintf("forced failover of %s (escrow %x) from lost site %s to %s",
				la.Image.Name, la.EscrowID[:4], originDCName, target.ID()),
			tc)
	default:
		if !known {
			return nil, fmt.Errorf("%w: no origin binding registered", ErrNotMirrored)
		}
		chargeWAN()
		cur, err := gA.Inspect(owner, info.bind)
		if errors.Is(err, pse.ErrCounterNotFound) {
			// Consumed by someone else: a local recovery or a migration
			// freeze won the instance first.
			return nil, fmt.Errorf("%w: origin binding already destroyed", core.ErrEscrowConsumed)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrOriginUnreachable, err)
		}
		if cur != verM {
			return nil, fmt.Errorf("%w: origin at %d, mirror at %d", ErrMirrorStale, cur, verM)
		}
		chargeWAN()
		final, err := gA.AdminDestroy(owner, info.bind)
		if errors.Is(err, pse.ErrCounterNotFound) {
			return nil, fmt.Errorf("%w: origin binding already destroyed", core.ErrEscrowConsumed)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrOriginUnreachable, err)
		}
		mirror.markConsumed(k)
		if final != verM {
			// An increment raced between read and destroy: the original
			// was alive and persisting. The origin binding is consumed
			// (nothing there can run on), but the mirror's record is
			// behind that last persist — refuse to resurrect stale state.
			return nil, fmt.Errorf("%w: captured %d, mirror at %d", ErrOriginAlive, final, verM)
		}
	}

	return target.RecoverAppCtx(tc, la.Image, la.EscrowID)
}

// Reconcile retires queued origin-binding revocations from forced
// (site-loss) recoveries: each origin binding is destroyed as soon as
// its site's rack quorum is reachable again, so revived originals fail
// closed with ErrRecoveredAway on their next persist or restore.
// Revocations that still cannot reach their quorum stay queued; call
// Reconcile again later (an operator cron, in production).
func (f *Federation) Reconcile() error {
	f.mu.Lock()
	pending := f.revokes
	f.revokes = nil
	dcs := make(map[string]*cloud.DataCenter, len(f.dcs))
	for n, dc := range f.dcs {
		dcs[n] = dc
	}
	f.mu.Unlock()

	var keep []revocation
	var errs []error
	for _, r := range pending {
		dc, ok := dcs[r.dc]
		if !ok {
			continue
		}
		g, ok := dc.ReplicaGroup(r.group)
		if !ok {
			continue
		}
		if _, err := g.AdminDestroy(r.owner, r.uuid); err != nil && !errors.Is(err, pse.ErrCounterNotFound) {
			keep = append(keep, r)
			errs = append(errs, fmt.Errorf("revoke origin binding in %s/%s: %w", r.dc, r.group, err))
		}
	}
	f.mu.Lock()
	f.revokes = append(f.revokes, keep...)
	f.mu.Unlock()
	return errors.Join(errs...)
}

// PendingRevocations reports how many origin-binding revocations await
// a reachable origin site.
func (f *Federation) PendingRevocations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.revokes)
}

// Close stops every mirror worker.
func (f *Federation) Close() {
	f.mu.Lock()
	mirrors := make([]*Mirror, 0, len(f.mirrors))
	for _, m := range f.mirrors {
		mirrors = append(mirrors, m)
	}
	f.mu.Unlock()
	for _, m := range mirrors {
		m.Close()
	}
}
