package fleet

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Meter wraps a transport.Messenger and counts the wire traffic crossing
// it (request plus reply bytes, and message count). Install it between
// the data center and its transport to measure what a fleet operation
// actually moves over the untrusted network:
//
//	net := transport.NewNetwork(lat)
//	meter := fleet.NewMeter(net)
//	dc, _ := cloud.NewDataCenterWithNetwork("dc", lat, meter)
//
// The tallies live in an obs.Metrics registry — totals in wire.msgs and
// wire.bytes, plus a breakdown by message kind in wire.msgs.kind and
// wire.bytes.kind — so a metrics snapshot shows which protocol
// (migration, replication, escrow, WAN forwards) moved the bytes.
// Bytes()/Messages() read the totals.
type Meter struct {
	inner   transport.Messenger
	metrics *obs.Metrics

	// Resolved handles: one atomic add per event, no registry lookup.
	msgs  *obs.Counter
	bytes *obs.Counter
	kinds sync.Map // message kind -> *kindCounters
}

// kindCounters are one message kind's children of the by-kind families.
type kindCounters struct{ msgs, bytes *obs.Counter }

var _ transport.Messenger = (*Meter)(nil)

// NewMeter wraps a Messenger with a private metrics registry.
func NewMeter(inner transport.Messenger) *Meter {
	return NewMeterWithMetrics(inner, obs.NewMetrics())
}

// NewMeterWithMetrics wraps a Messenger, recording into the given
// registry (sharing one registry across meters, or with an Observer,
// folds wire accounting into the same snapshot).
func NewMeterWithMetrics(inner transport.Messenger, m *obs.Metrics) *Meter {
	if m == nil {
		m = obs.NewMetrics()
	}
	return &Meter{
		inner:   inner,
		metrics: m,
		msgs:    m.Counter(obs.WireMsgs),
		bytes:   m.Counter(obs.WireBytes),
	}
}

// Register delegates to the wrapped Messenger.
func (m *Meter) Register(addr transport.Address, h transport.Handler) error {
	return m.inner.Register(addr, h)
}

// Unregister delegates to the wrapped Messenger.
func (m *Meter) Unregister(addr transport.Address) {
	m.inner.Unregister(addr)
}

// Send delegates to the wrapped Messenger, counting payload and reply
// bytes against the totals and the per-kind breakdown.
func (m *Meter) Send(from, to transport.Address, kind string, payload []byte) ([]byte, error) {
	k := m.kind(kind)
	m.msgs.Add(1)
	k.msgs.Add(1)
	m.bytes.Add(int64(len(payload)))
	k.bytes.Add(int64(len(payload)))
	reply, err := m.inner.Send(from, to, kind, payload)
	if err == nil {
		m.bytes.Add(int64(len(reply)))
		k.bytes.Add(int64(len(reply)))
	}
	return reply, err
}

// kind returns the resolved by-kind counters.
func (m *Meter) kind(kind string) *kindCounters {
	if k, ok := m.kinds.Load(kind); ok {
		return k.(*kindCounters)
	}
	k, _ := m.kinds.LoadOrStore(kind, &kindCounters{
		msgs:  m.metrics.Counter(obs.WireMsgsKind, kind),
		bytes: m.metrics.Counter(obs.WireBytesKind, kind),
	})
	return k.(*kindCounters)
}

// Bytes returns the total request+reply bytes observed.
func (m *Meter) Bytes() int64 { return m.bytes.Value() }

// Messages returns the number of requests observed.
func (m *Meter) Messages() int64 { return m.msgs.Value() }
