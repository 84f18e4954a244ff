package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// The benchmark's own tracing: spans recorded from the benchmark's files
// around every call it makes into a layer, kept in memory and written as
// JSON when the run ends. End-to-end numbers never come from a traced
// run; the traced pass exists to say where the time of one went.

// span is one recorded interval. Parent is the span that caused it;
// spans of one iteration share Trace.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Root marks the span that brackets one whole iteration.
	Root bool `json:"root,omitempty"`
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// run pays one nil check per call site.
//
// Every workload is a closed loop with one client, so "the span that
// caused it" is well defined without context plumbing: the client's
// calls nest on one goroutine (cur is their stack top), and any
// transport send observed while a client call is open was caused by it.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	cur   atomic.Uint64 // innermost open client span
	trace atomic.Uint64 // current iteration's trace id

	mu    sync.Mutex
	spans []span
	// open sends by destination+kind, so a wrapped handler can name the
	// send that invoked it as its parent.
	sends map[string][]uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sends: make(map[string][]uint64)}
}

// handle is an open span.
type handle struct {
	t      *tracer
	s      span
	client bool
}

// root opens the root span of one iteration under a fresh trace id.
func (t *tracer) root(name string) *handle {
	if t == nil {
		return nil
	}
	t.trace.Store(t.next.Add(1))
	h := t.begin(name)
	h.s.Root = true
	return h
}

// begin opens a client-call span nested in the current one. Client
// spans must be opened and ended on the client goroutine.
func (t *tracer) begin(name string) *handle {
	if t == nil {
		return nil
	}
	h := &handle{t: t, client: true, s: span{
		ID: t.next.Add(1), Parent: t.cur.Load(), Trace: t.trace.Load(),
		Name: name, Start: int64(time.Since(t.epoch)),
	}}
	t.cur.Store(h.s.ID)
	return h
}

func (h *handle) end() {
	if h == nil {
		return
	}
	h.s.End = int64(time.Since(h.t.epoch))
	if h.client {
		h.t.cur.Store(h.s.Parent)
	}
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
}

func sendKey(to transport.Address, kind string) string { return string(to) + "\x00" + kind }

// beginSend opens a transport.Send span from any goroutine.
func (t *tracer) beginSend(to transport.Address, kind string) *handle {
	h := &handle{t: t, s: span{
		ID: t.next.Add(1), Parent: t.cur.Load(), Trace: t.trace.Load(),
		Name: "transport.Send:" + kind, Start: int64(time.Since(t.epoch)),
	}}
	k := sendKey(to, kind)
	t.mu.Lock()
	t.sends[k] = append(t.sends[k], h.s.ID)
	t.mu.Unlock()
	return h
}

func (t *tracer) endSend(h *handle, to transport.Address, kind string) {
	k := sendKey(to, kind)
	t.mu.Lock()
	open := t.sends[k]
	for i := len(open) - 1; i >= 0; i-- {
		if open[i] == h.s.ID {
			t.sends[k] = append(open[:i], open[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	h.end()
}

// beginHandler opens the span of a wrapped handler as the child of the
// most recent open send to its address and kind. The in-memory network
// invokes handlers inline, so that send is the invoking one except
// between concurrent sends to one address, where any of them is an
// equally good parent for per-layer sums.
func (t *tracer) beginHandler(to transport.Address, kind string) *handle {
	h := &handle{t: t, s: span{
		ID: t.next.Add(1), Trace: t.trace.Load(),
		Name: "handler:" + kind, Start: int64(time.Since(t.epoch)),
	}}
	t.mu.Lock()
	if open := t.sends[sendKey(to, kind)]; len(open) > 0 {
		h.s.Parent = open[len(open)-1]
	}
	t.mu.Unlock()
	return h
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps the focus workload's spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerOf maps a span name to the layer whose time it is.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "transport.Send"):
		return "transport"
	case strings.HasPrefix(name, "handler:"):
		return "remote-handler"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// covered returns how much of [start, end] the given intervals cover.
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := start
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, end)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of it its child spans cover, summed by layer. The root spans'
// own self time is the benchmark's glue between calls: "unattributed".
func selfTimes(spans []span) (byLayer map[string]time.Duration, rootTotal, unattributed time.Duration) {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byLayer = make(map[string]time.Duration)
	for _, s := range spans {
		self := time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
		if s.Root {
			rootTotal += time.Duration(s.End - s.Start)
			unattributed += self
			continue
		}
		byLayer[layerOf(s.Name)] += self
	}
	return byLayer, rootTotal, unattributed
}

// probeMessenger wraps the public transport.Messenger handed to
// cloud.NewDataCenterWithNetwork: it counts messages and bytes, times
// every Send and every wrapped handler, and records both as spans. A
// Send's own cost is its duration minus the handler it invoked; summed,
// nested forwards (WAN gateway -> far side) cancel correctly.
type probeMessenger struct {
	inner transport.Messenger
	tr    *tracer

	msgs, bytes       atomic.Int64
	sendNs, handlerNs atomic.Int64
}

var _ transport.Messenger = (*probeMessenger)(nil)

func (p *probeMessenger) Register(addr transport.Address, h transport.Handler) error {
	return p.inner.Register(addr, func(msg transport.Message) ([]byte, error) {
		sp := p.tr.beginHandler(addr, msg.Kind)
		start := time.Now()
		reply, err := h(msg)
		p.handlerNs.Add(int64(time.Since(start)))
		sp.end()
		return reply, err
	})
}

func (p *probeMessenger) Unregister(addr transport.Address) { p.inner.Unregister(addr) }

func (p *probeMessenger) Send(from, to transport.Address, kind string, payload []byte) ([]byte, error) {
	p.msgs.Add(1)
	p.bytes.Add(int64(len(payload)))
	sp := p.tr.beginSend(to, kind)
	start := time.Now()
	reply, err := p.inner.Send(from, to, kind, payload)
	p.sendNs.Add(int64(time.Since(start)))
	p.tr.endSend(sp, to, kind)
	p.bytes.Add(int64(len(reply)))
	return reply, err
}

// wireTotals sums the counters of several probe messengers (one per
// data center in a federation).
type wireTotals struct {
	msgs, bytes   int64
	sendSelfNanos int64
}

func totalsOf(ps ...*probeMessenger) wireTotals {
	var w wireTotals
	for _, p := range ps {
		if p == nil {
			continue
		}
		w.msgs += p.msgs.Load()
		w.bytes += p.bytes.Load()
		w.sendSelfNanos += p.sendNs.Load() - p.handlerNs.Load()
	}
	return w
}

func (w wireTotals) minus(o wireTotals) wireTotals {
	return wireTotals{w.msgs - o.msgs, w.bytes - o.bytes, w.sendSelfNanos - o.sendSelfNanos}
}
