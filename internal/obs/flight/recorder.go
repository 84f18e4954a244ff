package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
)

// Recorder owns the capture policy: it is handed every rule pass,
// trips on the pass's typed findings, rate-limits those captures, keeps
// the latest bundle in memory (served at /flight), and optionally
// persists bundles to disk.
type Recorder struct {
	mu sync.Mutex

	obs  *obs.Observer
	dir  string
	keep int
	// minInterval throttles Observe-driven captures; explicit Trip calls
	// always capture.
	minInterval time.Duration

	// journalFn and lastPass enrich captures with state the observer
	// cannot see: the fleet journal tail, and the entity states and
	// objective results of the most recent pass.
	journalFn func() []byte
	lastPass  *health.Pass

	lastCapture time.Time
	latestRaw   []byte
	latest      *Bundle
	trips       int64
}

// NewRecorder creates a recorder over o that keeps bundles in memory
// only. Attach a directory with SetDir to persist them.
func NewRecorder(o *obs.Observer) *Recorder {
	return &Recorder{obs: o, keep: 16, minInterval: 10 * time.Second}
}

// SetDir makes the recorder persist each bundle as
// <dir>/flight-<unixns>-<kind>.json, pruning to the newest keep files
// (keep <= 0 keeps the default 16).
func (r *Recorder) SetDir(dir string, keep int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dir = dir
	if keep > 0 {
		r.keep = keep
	}
	r.mu.Unlock()
}

// SetJournalProvider attaches the fleet journal tail source.
func (r *Recorder) SetJournalProvider(fn func() []byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.journalFn = fn
	r.mu.Unlock()
}

// Trips returns how many bundles the recorder has captured.
func (r *Recorder) Trips() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trips
}

// Latest returns the most recent bundle and its encoding (nil before the
// first trip).
func (r *Recorder) Latest() (*Bundle, []byte) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest, r.latestRaw
}

// Trip captures a bundle for trig immediately (no throttle) and returns
// it. The capture itself is announced on the audit stream as a
// flight-recorded event, which no rule treats as a trigger.
func (r *Recorder) Trip(trig Trigger) (*Bundle, error) {
	if r == nil {
		return nil, nil
	}
	return r.capture(trig, time.Now())
}

func (r *Recorder) capture(trig Trigger, now time.Time) (*Bundle, error) {
	r.mu.Lock()
	var opts CaptureOpts
	if r.lastPass != nil {
		opts.Health, opts.SLO = r.lastPass.States, r.lastPass.Objectives
	}
	if r.journalFn != nil {
		opts.Journal = r.journalFn()
	}
	dir, keep := r.dir, r.keep
	r.mu.Unlock()

	b := Capture(r.obs, trig, now, opts)
	raw := b.Encode()

	var path string
	var err error
	if dir != "" {
		path = filepath.Join(dir, fmt.Sprintf("flight-%d-%s.json", b.CreatedUnixNs, sanitizeKind(trig.Kind)))
		err = os.WriteFile(path, raw, 0o644)
		if err == nil {
			pruneBundles(dir, keep)
		}
	}

	r.mu.Lock()
	r.latest, r.latestRaw = b, raw
	r.trips++
	r.lastCapture = now
	r.mu.Unlock()

	detail := trig.Kind
	if trig.Detail != "" {
		detail += ": " + trig.Detail
	}
	if path != "" {
		detail += " -> " + path
	}
	r.obs.Event(obs.EventFlightRecorded, "flight", detail, obs.TraceContext{})
	r.obs.M().Counter(obs.FlightBundles).Add(1)
	r.obs.M().Gauge(obs.FlightLast).Set(b.CreatedUnixNs)
	r.obs.M().Gauge(obs.FlightBytes).Set(int64(len(raw)))
	return b, err
}

func sanitizeKind(kind string) string {
	if kind == "" {
		return "manual"
	}
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			return c
		default:
			return '-'
		}
	}, strings.ToLower(kind))
}

// pruneBundles deletes all but the newest keep flight-*.json files in dir
// (names sort chronologically because they embed the capture unix-nanos).
func pruneBundles(dir string, keep int) {
	names, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(names) <= keep {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-keep] {
		os.Remove(n)
	}
}

// trigger picks what, if anything, in a rule pass is worth a black box:
// a security audit event, else a violated objective, else an entity
// that just turned critical (the order the three used to reach the
// audit log within one refresh).
func trigger(p *health.Pass) (Trigger, bool) {
	if len(p.Security) > 0 {
		r := p.Security[0]
		return Trigger{Kind: TriggerSecurityEvent, Actor: r.Entity.Name, Detail: r.Reason}, true
	}
	for _, r := range p.Objectives {
		if r.Violated() {
			return Trigger{Kind: TriggerSLOViolation, Actor: "slo:" + r.Rule,
				Detail: fmt.Sprintf("%s %v > %v", r.Reason, r.Actual, r.Bound)}, true
		}
	}
	for _, c := range p.Changes {
		if c.To == health.Critical {
			return Trigger{Kind: TriggerHealthCritical, Actor: "health:" + c.Entity.String(), Detail: c.String()}, true
		}
	}
	return Trigger{}, false
}

// Observe takes one rule pass: it remembers the pass (captures embed
// its entity states and objective results) and trips on the first
// capture-worthy finding. Pass-driven captures are throttled to one per
// minInterval so a persistent violation cannot churn bundles. The
// analyze Plane calls this from Refresh, i.e. on every scrape.
func (r *Recorder) Observe(p *health.Pass) *Bundle {
	if r == nil || p == nil {
		return nil
	}
	r.mu.Lock()
	r.lastPass = p
	throttled := r.minInterval > 0 && !r.lastCapture.IsZero() && time.Since(r.lastCapture) < r.minInterval
	r.mu.Unlock()
	trig, ok := trigger(p)
	if !ok || throttled {
		return nil
	}
	b, _ := r.capture(trig, time.Now())
	return b
}
