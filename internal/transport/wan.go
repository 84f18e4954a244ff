package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wirec"
)

// WAN link errors.
var (
	// ErrLinkDown reports a message refused because the WAN link is
	// administratively or physically down (partition). The payload never
	// left the sending site; retrying after the link heals is safe.
	ErrLinkDown = errors.New("transport: wan link down")
)

// WANConfig shapes one inter-datacenter link.
type WANConfig struct {
	// RTT is the round-trip propagation delay of the link (charged once
	// per request/response exchange as sim.OpWANHop).
	RTT time.Duration
	// Bandwidth is the usable link bandwidth in bytes per second; request
	// and reply payload bytes are charged sim.OpWANByte at 1/Bandwidth
	// each. Zero means unconstrained (no per-byte charge).
	Bandwidth int64
	// Loss is the probability in [0, 1) that one exchange is dropped by
	// the link (the message errors with ErrDropped and never reaches the
	// far side; the sender retries like any transport failure).
	Loss float64
	// Seed makes the loss process deterministic for tests; 0 seeds from
	// the link name.
	Seed int64
	// Rand, when set, replaces the link's own loss RNG entirely (Seed is
	// then ignored). Chaos harnesses inject a source derived from the
	// schedule seed so a whole run — including every loss draw — replays
	// bit-identically. The link serializes access; the source need not be
	// safe for concurrent use by other parties.
	Rand *rand.Rand
	// Scale is the latency-model scale factor for the link's own
	// sim.Latency (same convention as sim.NewLatency: 0 accounts without
	// sleeping, 1 reproduces the configured delays in wall time).
	Scale float64
}

// wanSide names one end of a link.
type wanSide struct {
	local  Messenger // messenger the exported address actually lives on
	remote Messenger // messenger the forwarder is registered on
}

// WANLink bridges two Messengers — typically two data centers' networks —
// into one address space with WAN economics: every exchange that crosses
// the link is charged one sim.OpWANHop (the configured RTT) plus one
// sim.OpWANByte per payload byte in either direction (the bandwidth
// model), and may be dropped outright by the loss process or refused
// while the link is partitioned (SetDown).
//
// Export makes an address that is registered on one side reachable from
// the other by installing a forwarding handler there; everything above
// the Messenger interface (Migration Enclave handshakes, replication
// traffic, escrow mirroring) then works across the link unchanged. The
// bytes crossing the link are as untrusted as on any Messenger — all
// security still comes from the attested channels layered above.
//
// An optional Carrier (typically a *TCPTransport) routes the bridged
// exchanges through a real transport hop between the two sites instead
// of an in-process call, so the same link can span OS processes.
type WANLink struct {
	name string
	cfg  WANConfig
	lat  *sim.Latency

	// carrier, when non-nil, is the transport the bridge hop itself rides
	// on; carrierAddr[side] is the carrier endpoint delivering into that
	// side's messenger.
	carrier     Messenger
	carrierAddr [2]Address

	mu      sync.Mutex
	rng     *rand.Rand
	down    bool
	exports [2]map[Address]bool // exports[i]: addresses of side i visible from the other side

	msgs  atomic.Int64
	bytes atomic.Int64

	// obs, when set, records one wan.hop span per bridged exchange and
	// the wan.link.* families the link health rule reads; the trace
	// context always propagates across the link regardless.
	obs atomic.Pointer[linkObs]

	a, b Messenger
}

// linkObs is an observer with this link's children of the wan.link.*
// families already resolved, so the forwarding path touches no registry.
// The zero value (no observer) records nothing; l.obs is never nil.
type linkObs struct {
	o                           *obs.Observer
	msgs, lost, refused, errors *obs.Counter
	down                        *obs.Gauge
}

// Link sides.
const (
	SideA = 0
	SideB = 1
)

// NewWANLink creates a link between messengers a and b. The link's own
// latency model is created at cfg.Scale with OpWANHop set to cfg.RTT and
// OpWANByte to 1/cfg.Bandwidth.
func NewWANLink(name string, a, b Messenger, cfg WANConfig) *WANLink {
	lat := sim.NewLatency(cfg.Scale)
	if cfg.RTT > 0 {
		lat.SetCost(sim.OpWANHop, cfg.RTT)
	}
	if cfg.Bandwidth > 0 {
		lat.SetCost(sim.OpWANByte, time.Duration(float64(time.Second)/float64(cfg.Bandwidth)))
	} else {
		lat.SetCost(sim.OpWANByte, 0)
	}
	rng := cfg.Rand
	if rng == nil {
		seed := cfg.Seed
		if seed == 0 {
			for _, c := range name {
				seed = seed*131 + int64(c)
			}
		}
		rng = rand.New(rand.NewSource(seed))
	}
	l := &WANLink{name: name, cfg: cfg, lat: lat, rng: rng, a: a, b: b}
	l.obs.Store(&linkObs{})
	l.exports[SideA] = make(map[Address]bool)
	l.exports[SideB] = make(map[Address]bool)
	return l
}

// UseCarrier routes the bridge hop through a real transport (e.g. a
// *TCPTransport): one carrier endpoint per side is registered on the
// given listen addresses (host:port; port 0 picks a free port), and every
// bridged exchange crosses it as a framed forward. Must be called before
// the first Export.
func (l *WANLink) UseCarrier(carrier Messenger, listenA, listenB Address) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.exports[SideA]) > 0 || len(l.exports[SideB]) > 0 {
		return fmt.Errorf("transport: wan link %s: carrier must be set before exports", l.name)
	}
	for side, listen := range [2]Address{listenA, listenB} {
		dst := l.sideMessenger(side)
		h := func(msg Message) ([]byte, error) {
			to, kind, payload, err := decodeWANForward(msg.Payload)
			if err != nil {
				return nil, err
			}
			// Re-inject the trace context that crossed the carrier hop so
			// it survives into the destination messenger.
			return dst.Send(msg.From, to, kind, obs.Inject(msg.Trace, payload))
		}
		if err := carrier.Register(listen, h); err != nil {
			return fmt.Errorf("wan carrier %s: %w", l.name, err)
		}
		bound := listen
		if t, ok := carrier.(*TCPTransport); ok {
			if ba, ok := t.BoundAddr(listen); ok {
				bound = ba
			}
		}
		// The carrier serves on the bound (resolved) address; re-home the
		// registration there so Send can dial it.
		if bound != listen {
			if t, ok := carrier.(*TCPTransport); ok {
				t.rebind(listen, bound)
			}
		}
		l.carrierAddr[side] = bound
	}
	l.carrier = carrier
	return nil
}

// sideMessenger returns the messenger of one side.
func (l *WANLink) sideMessenger(side int) Messenger {
	if side == SideA {
		return l.a
	}
	return l.b
}

// Name returns the link name.
func (l *WANLink) Name() string { return l.name }

// Latency exposes the link's latency model (per-link hop and byte
// accounting; tests and benchmarks read Counts / VirtualTotal).
func (l *WANLink) Latency() *sim.Latency { return l.lat }

// Stats returns the total exchanges and payload bytes carried.
func (l *WANLink) Stats() (msgs, bytes int64) {
	return l.msgs.Load(), l.bytes.Load()
}

// SetObserver installs (or clears, with nil) the link's observer. With
// one set, every bridged exchange records a wan.hop span joined into
// the sender's trace plus the per-link wan.link.* counters the health
// plane watches.
func (l *WANLink) SetObserver(o *obs.Observer) {
	m := o.M() // nil-safe: without an observer every handle is nil
	t := &linkObs{
		o:       o,
		msgs:    m.Counter(obs.WANLinkMsgs, l.name),
		lost:    m.Counter(obs.WANLinkLost, l.name),
		refused: m.Counter(obs.WANLinkRefused, l.name),
		errors:  m.Counter(obs.WANLinkErrors, l.name),
		down:    m.Gauge(obs.WANLinkDown, l.name),
	}
	// Resolving the down gauge also makes the link visible to the health
	// plane before its first exchange.
	t.down.Set(boolGauge(l.Down()))
	l.obs.Store(t)
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// SetDown partitions (true) or heals (false) the link. While down, every
// bridged exchange fails with ErrLinkDown without crossing.
func (l *WANLink) SetDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
	l.obs.Load().down.Set(boolGauge(down))
}

// Down reports whether the link is partitioned.
func (l *WANLink) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// Export makes addr — registered on messenger side `side` (SideA/SideB) —
// reachable from the other side: a forwarding handler under the same
// address is registered on the opposite messenger. Fails if the opposite
// side already binds the address (the two sites' namespaces collide).
func (l *WANLink) Export(side int, addr Address) error {
	if side != SideA && side != SideB {
		return fmt.Errorf("transport: invalid wan side %d", side)
	}
	far := l.sideMessenger(1 - side)
	if err := far.Register(addr, l.forwarder(side, addr)); err != nil {
		return fmt.Errorf("wan export %s: %w", addr, err)
	}
	l.mu.Lock()
	l.exports[side][addr] = true
	l.mu.Unlock()
	return nil
}

// tagWANForward frames one bridged exchange on a carrier transport
// (0xE* block: transport).
const tagWANForward byte = 0xE1

// wanForwardVersion is bumped on layout changes.
const wanForwardVersion byte = 1

// encodeWANForward frames a bridged exchange for the carrier hop.
func encodeWANForward(to Address, kind string, payload []byte) []byte {
	out := make([]byte, 0, 2+4+len(to)+4+len(kind)+4+len(payload))
	out = wirec.AppendHeader(out, tagWANForward, wanForwardVersion)
	out = wirec.AppendString(out, string(to))
	out = wirec.AppendString(out, kind)
	return wirec.AppendBytes(out, payload)
}

// decodeWANForward parses a carrier forward frame.
func decodeWANForward(raw []byte) (to Address, kind string, payload []byte, err error) {
	rd := wirec.NewReader(raw)
	if !rd.Header(tagWANForward, wanForwardVersion) {
		return "", "", nil, fmt.Errorf("transport: bad wan forward: %w", rd.Err())
	}
	to = Address(rd.String())
	kind = rd.String()
	payload = rd.Bytes()
	if err := rd.Done(); err != nil {
		return "", "", nil, fmt.Errorf("transport: bad wan forward: %w", err)
	}
	return to, kind, payload, nil
}

// forwarder builds the far-side handler that carries one exchange over
// the link to the home side of addr.
func (l *WANLink) forwarder(homeSide int, addr Address) Handler {
	return func(msg Message) ([]byte, error) {
		l.mu.Lock()
		down := l.down
		lost := l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss
		l.mu.Unlock()
		t := l.obs.Load()
		if down {
			t.refused.Add(1)
			return nil, fmt.Errorf("%w: %s", ErrLinkDown, l.name)
		}
		if lost {
			t.lost.Add(1)
			return nil, fmt.Errorf("%w: lost on wan link %s", ErrDropped, l.name)
		}
		t.msgs.Add(1)
		l.lat.Charge(sim.OpWANHop)
		l.lat.ChargeN(sim.OpWANByte, len(msg.Payload))
		l.msgs.Add(1)
		l.bytes.Add(int64(len(msg.Payload)))

		// The local messenger stripped the sender's trace envelope into
		// msg.Trace; record the hop and re-inject the (possibly deepened)
		// context so it crosses to the far side.
		tc := msg.Trace
		sp, tc := t.o.StartSpan(obs.SpanWANHop, tc)
		if sp != nil {
			sp.Site = l.name
			defer sp.End()
		}

		var reply []byte
		var err error
		if l.carrier != nil {
			fwd := encodeWANForward(addr, msg.Kind, msg.Payload)
			reply, err = l.carrier.Send(msg.From, l.carrierAddr[homeSide], "wan-fwd", obs.Inject(tc, fwd))
		} else {
			reply, err = l.sideMessenger(homeSide).Send(msg.From, addr, msg.Kind, obs.Inject(tc, msg.Payload))
		}
		if err != nil {
			t.errors.Add(1)
			return nil, err
		}
		l.lat.ChargeN(sim.OpWANByte, len(reply))
		l.bytes.Add(int64(len(reply)))
		return reply, nil
	}
}
