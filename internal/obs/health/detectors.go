package health

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DefaultDetectors returns the standard watchdog set: quorum vote skew,
// mirror RPO, WAN link loss, stuck root spans, and session-resume
// refusal storms.
func DefaultDetectors() []Detector {
	return []Detector{
		NewQuorumDetector(),
		NewMirrorDetector(),
		NewLinkDetector(),
		NewStuckSpanDetector(),
		NewRefusalStormDetector(),
	}
}

// splitLastDot splits "prefix.suffix" at the last dot.
func splitLastDot(s string) (string, string, bool) {
	i := strings.LastIndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// QuorumDetector watches the per-replica vote telemetry pserepl records
// during quorum broadcasts: quorum.vote.latency.<group>.<replica>
// histograms and quorum.vote.errors.<group>.<replica> counters. A
// replica whose votes error (timeouts, unsynced-replica refusals) or
// whose vote latency runs far ahead of its peers marks the group
// degraded; when a majority of replicas are erroring the group is one
// fault from losing quorum and goes critical.
type QuorumDetector struct {
	// SkewFactor flags a group when the slowest replica's p99 vote
	// latency exceeds the fastest replica's by this factor (default 4).
	SkewFactor float64
	// MinLatency is a noise floor: skew is ignored while the slowest p99
	// is below it (default 2ms), so microsecond-scale jitter in a local
	// simulation never pages anyone.
	MinLatency time.Duration

	prevErrs map[string]int64
}

// NewQuorumDetector returns a QuorumDetector with default thresholds.
func NewQuorumDetector() *QuorumDetector {
	return &QuorumDetector{SkewFactor: 4, MinLatency: 2 * time.Millisecond, prevErrs: map[string]int64{}}
}

func (d *QuorumDetector) Name() string { return "quorum" }

func (d *QuorumDetector) Detect(s *Sample) []Finding {
	const latPrefix = "quorum.vote.latency."
	const errPrefix = "quorum.vote.errors."
	type replica struct {
		id  string
		p99 time.Duration
	}
	groups := map[string][]replica{}
	for name, h := range s.Snap.Histograms {
		if !strings.HasPrefix(name, latPrefix) || h.Count == 0 {
			continue
		}
		if g, id, ok := splitLastDot(name[len(latPrefix):]); ok {
			groups[g] = append(groups[g], replica{id: id, p99: h.P99})
		}
	}
	errDelta := map[string]map[string]int64{} // group -> replica -> new errors
	for name, v := range s.Snap.Counters {
		if !strings.HasPrefix(name, errPrefix) {
			continue
		}
		g, id, ok := splitLastDot(name[len(errPrefix):])
		if !ok {
			continue
		}
		if delta := v - d.prevErrs[name]; delta > 0 {
			if errDelta[g] == nil {
				errDelta[g] = map[string]int64{}
			}
			errDelta[g][id] = delta
		}
		d.prevErrs[name] = v
	}

	var out []Finding
	for g, reps := range groups {
		level, reasons := Healthy, []string(nil)
		if len(reps) >= 2 {
			sort.Slice(reps, func(i, j int) bool { return reps[i].p99 < reps[j].p99 })
			fast, slow := reps[0], reps[len(reps)-1]
			if slow.p99 >= d.MinLatency && fast.p99 > 0 &&
				float64(slow.p99) >= d.SkewFactor*float64(fast.p99) {
				level = Degraded
				reasons = append(reasons, fmt.Sprintf(
					"vote-latency skew: %s p99=%s vs %s p99=%s", slow.id, slow.p99, fast.id, fast.p99))
			}
		}
		if errs := errDelta[g]; len(errs) > 0 {
			ids := make([]string, 0, len(errs))
			var n int64
			for id, c := range errs {
				ids = append(ids, id)
				n += c
			}
			sort.Strings(ids)
			lvl := Degraded
			if 2*len(errs) > len(reps) && len(reps) > 0 {
				lvl = Critical // majority of replicas erroring: one fault from quorum loss
			}
			if lvl > level {
				level = lvl
			}
			reasons = append(reasons, fmt.Sprintf(
				"%d vote errors from %s (lagging or unsynced replicas)", n, strings.Join(ids, ",")))
		}
		out = append(out, Finding{
			Entity: Entity{Kind: "group", Name: g},
			Level:  level,
			Reason: strings.Join(reasons, "; "),
		})
	}
	// Groups with only error counters (no latency yet) still surface.
	for g := range errDelta {
		if _, ok := groups[g]; ok {
			continue
		}
		out = append(out, Finding{
			Entity: Entity{Kind: "group", Name: g},
			Level:  Degraded,
			Reason: "vote errors before any successful vote",
		})
	}
	return out
}

// MirrorDetector watches the cross-DC escrow mirror's flush telemetry.
// Beyond the wall-clock rules (RPO age, dirty backlog) it carries a
// time-free consistency rule: a successful flush while mirrored
// instances exist must push records, so a flush that "succeeds" without
// pushing anything — exactly what the chaosmut skip-mirror-push mutation
// fabricates — marks the mirror degraded until a flush pushes again.
type MirrorDetector struct {
	// MaxRPOAge flags the mirror when dirty instances have waited longer
	// than this since the last successful flush (default 5m).
	MaxRPOAge time.Duration
	// MaxDirty flags the mirror when the dirty backlog alone exceeds
	// this many instances (default 64).
	MaxDirty int64

	prevFlushOK     int64
	prevPushOK      int64
	lastFlushPushed bool
	sawFlush        bool
}

// NewMirrorDetector returns a MirrorDetector with default thresholds.
func NewMirrorDetector() *MirrorDetector {
	return &MirrorDetector{MaxRPOAge: 5 * time.Minute, MaxDirty: 64, lastFlushPushed: true}
}

func (d *MirrorDetector) Name() string { return "mirror" }

func (d *MirrorDetector) Detect(s *Sample) []Finding {
	flushTotal := s.Snap.Counters["mirror.flush.total"]
	enqueue := s.Snap.Counters["mirror.enqueue.total"]
	pushTotal := s.Snap.Counters["mirror.push.total"]
	_, hasDirty := s.Snap.Gauges["mirror.dirty"]
	if flushTotal == 0 && enqueue == 0 && pushTotal == 0 && !hasDirty {
		return nil // no mirror in this deployment
	}
	flushOK := flushTotal - s.Snap.Counters["mirror.flush.errors"]
	pushOK := pushTotal - s.Snap.Counters["mirror.push.errors"]
	known := s.Snap.Gauges["mirror.known"]
	dirty := s.Snap.Gauges["mirror.dirty"]

	if dFlush := flushOK - d.prevFlushOK; dFlush > 0 {
		d.sawFlush = true
		d.lastFlushPushed = pushOK-d.prevPushOK > 0 || known == 0
	}
	d.prevFlushOK, d.prevPushOK = flushOK, pushOK

	level, reasons := Healthy, []string(nil)
	bump := func(lvl State, format string, args ...any) {
		if lvl > level {
			level = lvl
		}
		reasons = append(reasons, fmt.Sprintf(format, args...))
	}
	if enqueue > 0 && flushOK > 0 && pushOK == 0 {
		bump(Critical, "flushes succeed but no escrow record has ever been pushed (enqueued=%d flushed=%d)",
			enqueue, flushOK)
	} else if d.sawFlush && !d.lastFlushPushed {
		bump(Degraded, "last successful mirror flush pushed no records (flush=%d push=%d known=%d)",
			flushOK, pushOK, known)
	}
	if stamp := s.Snap.Gauges["mirror.flush.last_unix_ns"]; dirty > 0 && stamp > 0 {
		if age := s.Now.Sub(time.Unix(0, stamp)); age > d.MaxRPOAge {
			bump(Degraded, "mirror RPO age %s exceeds %s with %d dirty instances",
				age.Round(time.Second), d.MaxRPOAge, dirty)
		}
	}
	if dirty > d.MaxDirty {
		bump(Degraded, "dirty backlog %d exceeds %d", dirty, d.MaxDirty)
	}
	return []Finding{{
		Entity: Entity{Kind: "mirror", Name: "escrow"},
		Level:  level,
		Reason: strings.Join(reasons, "; "),
	}}
}

// LinkDetector watches per-link WAN telemetry: the wan.link.down.<name>
// gauge and the wan.link.{msgs,lost,refused}.<name> counters
// transport.WANLink records per forwarded exchange. An administratively
// down (or carrier-lost) link is critical; a link dropping or refusing
// more than MaxLossRatio of its recent traffic is degraded.
type LinkDetector struct {
	// MaxLossRatio is the tolerated fraction of (lost+refused) exchanges
	// since the previous evaluation (default 0.05).
	MaxLossRatio float64
	// MinAttempts is the minimum per-interval sample before the ratio is
	// trusted (default 20).
	MinAttempts int64

	prevMsgs map[string]int64
	prevBad  map[string]int64
}

// NewLinkDetector returns a LinkDetector with default thresholds.
func NewLinkDetector() *LinkDetector {
	return &LinkDetector{
		MaxLossRatio: 0.05, MinAttempts: 20,
		prevMsgs: map[string]int64{}, prevBad: map[string]int64{},
	}
}

func (d *LinkDetector) Name() string { return "link" }

func (d *LinkDetector) Detect(s *Sample) []Finding {
	links := map[string]bool{}
	for name := range s.Snap.Gauges {
		if rest, ok := strings.CutPrefix(name, "wan.link.down."); ok {
			links[rest] = true
		}
	}
	for name := range s.Snap.Counters {
		for _, p := range []string{"wan.link.msgs.", "wan.link.lost.", "wan.link.refused."} {
			if rest, ok := strings.CutPrefix(name, p); ok {
				links[rest] = true
			}
		}
	}
	var out []Finding
	for link := range links {
		msgs := s.Snap.Counters["wan.link.msgs."+link]
		bad := s.Snap.Counters["wan.link.lost."+link] + s.Snap.Counters["wan.link.refused."+link]
		dMsgs, dBad := msgs-d.prevMsgs[link], bad-d.prevBad[link]
		d.prevMsgs[link], d.prevBad[link] = msgs, bad

		level, reason := Healthy, ""
		if s.Snap.Gauges["wan.link.down."+link] != 0 {
			level, reason = Critical, "link down"
		} else if total := dMsgs + dBad; total >= d.MinAttempts {
			if ratio := float64(dBad) / float64(total); ratio > d.MaxLossRatio {
				level = Degraded
				reason = fmt.Sprintf("lost %d of last %d exchanges (%.0f%%)", dBad, total, 100*ratio)
			}
		}
		out = append(out, Finding{Entity: Entity{Kind: "link", Name: link}, Level: level, Reason: reason})
	}
	return out
}

// StuckSpanDetector is the watchdog over the tracer's open-span
// registry: a fleet.migrate, fleet.recover, or me.transfer operation
// still open past its deadline means a migration or drain has wedged —
// precisely the failure that leaves no finished span to alert on.
type StuckSpanDetector struct {
	// Deadline is how long a watched span may stay open before the
	// owning entity degrades; twice the deadline is critical
	// (default 2m).
	Deadline time.Duration
	// Watch maps span names to the entity that owns them.
	Watch map[string]Entity
}

// NewStuckSpanDetector returns a StuckSpanDetector covering the fleet
// planner and the source ME's stream sender.
func NewStuckSpanDetector() *StuckSpanDetector {
	return &StuckSpanDetector{
		Deadline: 2 * time.Minute,
		Watch: map[string]Entity{
			"fleet.migrate": {Kind: "fleet", Name: "migrate"},
			"fleet.recover": {Kind: "fleet", Name: "recover"},
			"me.transfer":   {Kind: "me", Name: "transfer"},
		},
	}
}

func (d *StuckSpanDetector) Name() string { return "stuck-span" }

func (d *StuckSpanDetector) Detect(s *Sample) []Finding {
	worst := map[Entity]Finding{}
	for _, sp := range s.Open {
		e, ok := d.Watch[sp.Name]
		if !ok {
			continue
		}
		age := s.Now.Sub(sp.Start)
		level := Healthy
		switch {
		case age > 2*d.Deadline:
			level = Critical
		case age > d.Deadline:
			level = Degraded
		}
		f := Finding{Entity: e, Level: level}
		if level > Healthy {
			f.Reason = fmt.Sprintf("%s span %d open for %s (deadline %s)",
				sp.Name, sp.SpanID, age.Round(time.Second), d.Deadline)
		}
		if cur, ok := worst[e]; !ok || f.Level > cur.Level {
			worst[e] = f
		}
	}
	out := make([]Finding, 0, len(worst))
	for _, f := range worst {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity.String() < out[j].Entity.String() })
	return out
}

// RefusalStormDetector watches the me.session.resume.refused counter: a
// burst of authenticated resume refusals means destinations are
// repeatedly rejecting cached attested sessions — the signature of an
// on-path attacker replaying or desynchronizing resume tickets (PR 9
// hardening), or of an epoch-fence storm worth a human look either way.
type RefusalStormDetector struct {
	// DegradedAt / CriticalAt are refusals-per-evaluation thresholds
	// (defaults 3 and 8).
	DegradedAt int64
	CriticalAt int64

	prev int64
}

// NewRefusalStormDetector returns a RefusalStormDetector with default
// thresholds.
func NewRefusalStormDetector() *RefusalStormDetector {
	return &RefusalStormDetector{DegradedAt: 3, CriticalAt: 8}
}

func (d *RefusalStormDetector) Name() string { return "refusal-storm" }

func (d *RefusalStormDetector) Detect(s *Sample) []Finding {
	refused, ok := s.Snap.Counters["me.session.resume.refused"]
	if !ok {
		return nil
	}
	delta := refused - d.prev
	d.prev = refused
	level, reason := Healthy, ""
	switch {
	case delta >= d.CriticalAt:
		level = Critical
	case delta >= d.DegradedAt:
		level = Degraded
	}
	if level > Healthy {
		reason = fmt.Sprintf("%d session-resume refusals since last evaluation — possible on-path attacker", delta)
	}
	return []Finding{{Entity: Entity{Kind: "me", Name: "sessions"}, Level: level, Reason: reason}}
}
