// Package health is the fleet's active observability layer and the one
// rule engine over telemetry: a table of rules (rules.go) evaluated in
// one pass over one registry snapshot, the open-span set and the new
// audit events.
//
// The passive plane (internal/obs, internal/obs/analyze) records what
// happened; this package decides, while the fleet runs, whether anyone
// should be paged about it. Health rules inspect one subsystem's
// telemetry each — quorum vote latency, mirror RPO, WAN loss, open
// spans, session-resume refusals — and propose a level per entity; the
// Monitor merges proposals, applies hysteresis so a noisy metric cannot
// flap an entity between states, and on a real transition emits a
// "health-changed" audit event plus the health.state gauges. Objective
// rules check the SLO set; a security rule picks the audit events worth
// a black box. Consumers of the typed Pass: the analyze Plane serves
// /health and /slo from it, fleet.CostAware steers batches away from
// degraded links, and the flight recorder trips a capture on a violated
// objective, a security event, or anything reaching critical.
package health

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is an entity's health level. Order matters: higher is worse.
type State int

const (
	Healthy State = iota
	Degraded
	Critical
)

var stateNames = []string{"healthy", "degraded", "critical"}

// String returns the lowercase state name.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON renders the state as its name, so /health reads naturally.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON accepts the names Marshal emits.
func (s *State) UnmarshalJSON(raw []byte) error {
	i := slices.Index(stateNames, strings.Trim(string(raw), `"`))
	if i < 0 {
		return fmt.Errorf("health: unknown state %s", raw)
	}
	*s = State(i)
	return nil
}

// Entity identifies one watched component. Kind is a small vocabulary
// ("group", "mirror", "link", "me", "fleet"); Name is the instance.
type Entity struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
}

func (e Entity) String() string { return e.Kind + "/" + e.Name }

// Class says what a rule's results are for.
type Class int

const (
	// ClassHealth results propose a level for an entity; the Monitor
	// applies hysteresis before committing a transition.
	ClassHealth Class = iota
	// ClassObjective results compare a measured Actual against a Bound
	// (the SLO set served at /slo); Level is Degraded when violated.
	ClassObjective
	// ClassSecurity results are security-relevant audit events seen
	// since the previous pass; each one is flight-recorder evidence.
	ClassSecurity
)

// Result is what one rule says about one entity in one pass. Health
// rules report every entity they can currently observe — including
// healthy ones — so /health lists the whole watched surface, not only
// the broken parts.
type Result struct {
	Rule   string `json:"rule"`
	Entity Entity `json:"entity"`
	Level  State  `json:"level"`
	// Actual and Bound are the measured value and its limit (objectives).
	Actual time.Duration `json:"actual_ns,omitempty"`
	Bound  time.Duration `json:"bound_ns,omitempty"`
	// Reason explains a non-healthy level; an objective names the
	// metric it read.
	Reason string `json:"reason,omitempty"`
	// Missing means the rule had no data (series never registered, zero
	// observations, unset timestamp); missing is not a violation — the
	// objective simply hasn't been exercised.
	Missing bool `json:"missing,omitempty"`
}

// Violated reports whether the result is worse than healthy.
func (r Result) Violated() bool { return r.Level > Healthy }

// String renders an objective result for operator output.
func (r Result) String() string {
	switch {
	case r.Missing:
		return fmt.Sprintf("SLO %-24s SKIP  (no data for %s)", r.Rule, r.Reason)
	case r.Violated():
		return fmt.Sprintf("SLO %-24s FAIL  %v > %v", r.Rule, r.Actual, r.Bound)
	default:
		return fmt.Sprintf("SLO %-24s ok    %v <= %v", r.Rule, r.Actual, r.Bound)
	}
}

// Sample is the telemetry one pass runs against: one registry snapshot,
// the open-span set, and the audit events appended since the previous
// pass. Now is passed in (rather than read inside rules) so tests can
// drive deadline-based rules without sleeping.
type Sample struct {
	Snap   obs.Snapshot
	Open   []obs.OpenSpan
	Events []obs.AuditEvent
	Now    time.Time
}

// Rule is one entry of the rule table. Eval may keep state across
// passes (counter deltas) in its closure; the Monitor serializes all
// calls under its own lock.
type Rule struct {
	Name  string
	Class Class
	Eval  func(s *Sample) []Result
}

// Evaluate is the one rule engine: it runs every rule of the table
// against the sample and returns the results grouped by class.
func Evaluate(rules []Rule, s *Sample) (byClass [3][]Result) {
	for _, r := range rules {
		for _, res := range r.Eval(s) {
			res.Rule = r.Name
			byClass[r.Class] = append(byClass[r.Class], res)
		}
	}
	return byClass
}

// EntityHealth is the exported per-entity record (served at /health and
// embedded in flight bundles).
type EntityHealth struct {
	Kind   string    `json:"kind"`
	Name   string    `json:"name"`
	State  State     `json:"state"`
	Reason string    `json:"reason,omitempty"`
	Since  time.Time `json:"since"`
}

// Change describes one committed state transition.
type Change struct {
	Entity Entity
	From   State
	To     State
	Reason string
}

// String renders the transition the way the health-changed audit event
// and a flight trigger describe it.
func (c Change) String() string {
	if c.Reason == "" {
		return fmt.Sprintf("%s->%s", c.From, c.To)
	}
	return fmt.Sprintf("%s->%s: %s", c.From, c.To, c.Reason)
}

// Pass is the typed outcome of one evaluation: what /slo renders, what
// the flight recorder trips on, and the entity states after hysteresis.
type Pass struct {
	Objectives []Result       // every objective rule's result
	Security   []Result       // security audit events since the last pass
	Changes    []Change       // health transitions this pass committed
	States     []EntityHealth // every watched entity, sorted by kind, name
}

// Config tunes the Monitor's hysteresis.
type Config struct {
	// TripAfter is how many consecutive evaluations must propose a worse
	// state before the entity escalates (default 2). 1 escalates
	// immediately.
	TripAfter int
	// ClearAfter is how many consecutive evaluations must propose a
	// better state before the entity de-escalates (default 3). Clearing
	// slower than tripping keeps a flapping signal pinned at the worse
	// state instead of oscillating.
	ClearAfter int
}

func (c Config) withDefaults() Config {
	if c.TripAfter <= 0 {
		c.TripAfter = 2
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 3
	}
	return c
}

// entityState is the per-entity hysteresis machine.
type entityState struct {
	state  State
	reason string
	since  time.Time

	// cand is the state the rules have been proposing; streak counts
	// how many consecutive evaluations proposed it.
	cand       State
	candReason string
	streak     int
}

// Monitor owns a rule table and the per-entity state machines its
// health rules drive. All methods are safe for concurrent use.
type Monitor struct {
	mu       sync.Mutex
	obs      *obs.Observer
	cfg      Config
	rules    []Rule
	entities map[Entity]*entityState
	onChange []func(Change)
	// cursor is the next audit Seq no pass has seen; it starts at 0 so
	// security events recorded before the monitor attached still count.
	cursor uint64
}

// New creates a monitor over o with the given rule table. A nil observer
// yields a monitor whose passes see empty samples (harmless).
func New(o *obs.Observer, cfg Config, rules ...Rule) *Monitor {
	return &Monitor{
		obs:      o,
		cfg:      cfg.withDefaults(),
		rules:    rules,
		entities: make(map[Entity]*entityState),
	}
}

// OnChange registers a hook invoked (outside the monitor lock) for every
// committed state transition.
func (m *Monitor) OnChange(fn func(Change)) {
	if m == nil || fn == nil {
		return
	}
	m.mu.Lock()
	m.onChange = append(m.onChange, fn)
	m.mu.Unlock()
}

// sample builds the pass input from the live observer: exactly one
// registry snapshot, the open spans, and the audit events past cursor.
func (m *Monitor) sample(now time.Time) *Sample {
	s := &Sample{Now: now}
	if m.obs == nil {
		return s
	}
	s.Snap = m.obs.M().Snapshot()
	s.Open = m.obs.Tracer.OpenSpans()
	events := m.obs.Events.Events()
	for i, ev := range events {
		if ev.Seq >= m.cursor {
			s.Events = events[i:]
			break
		}
	}
	if len(events) > 0 {
		m.cursor = events[len(events)-1].Seq + 1
	}
	return s
}

// Evaluate runs one pass: every rule against one fresh sample, then
// hysteresis over the health results, then publication — transitions as
// health-changed audit events, gauges and OnChange hooks, violated
// objectives as slo-violation events and the slo.violations gauge. now
// is the evaluation instant (pass time.Now() in production; tests can
// march a fake clock).
func (m *Monitor) Evaluate(now time.Time) *Pass {
	if m == nil {
		return &Pass{}
	}
	m.mu.Lock()
	results := Evaluate(m.rules, m.sample(now))
	pass := &Pass{Objectives: results[ClassObjective], Security: results[ClassSecurity]}

	// Merge health results: worst level per entity wins; reasons of the
	// winning level are joined.
	proposed := make(map[Entity]Result)
	for _, f := range results[ClassHealth] {
		cur, ok := proposed[f.Entity]
		switch {
		case !ok || f.Level > cur.Level:
			proposed[f.Entity] = f
		case f.Level == cur.Level && f.Level > Healthy && f.Reason != "":
			if cur.Reason != "" {
				cur.Reason += "; " + f.Reason
			} else {
				cur.Reason = f.Reason
			}
			proposed[f.Entity] = cur
		}
	}
	// Entities the rules have stopped mentioning drift back toward
	// healthy through the same hysteresis.
	for e := range m.entities {
		if _, ok := proposed[e]; !ok {
			proposed[e] = Result{Entity: e, Level: Healthy}
		}
	}

	for e, f := range proposed {
		st, ok := m.entities[e]
		if !ok {
			st = &entityState{state: Healthy, since: now, cand: Healthy}
			m.entities[e] = st
		}
		if f.Level == st.state {
			st.cand, st.streak = st.state, 0
			if f.Level > Healthy && f.Reason != "" {
				st.reason = f.Reason // keep the freshest explanation
			}
			continue
		}
		if f.Level != st.cand {
			st.cand, st.candReason, st.streak = f.Level, f.Reason, 1
		} else {
			st.streak++
			if f.Reason != "" {
				st.candReason = f.Reason
			}
		}
		need := m.cfg.TripAfter
		if f.Level < st.state {
			need = m.cfg.ClearAfter
		}
		if st.streak >= need {
			from := st.state
			st.state, st.reason, st.since = st.cand, st.candReason, now
			st.cand, st.streak = st.state, 0
			pass.Changes = append(pass.Changes, Change{Entity: e, From: from, To: st.state, Reason: st.reason})
		}
	}

	// Publish gauges for every known entity plus the fleet-wide rollup.
	met := m.obs.M()
	var levels [Critical + 1]int64 // entities per level
	for e, st := range m.entities {
		met.Gauge(obs.HealthStateEntity, e.Kind, e.Name).Set(int64(st.state))
		levels[min(st.state, Critical)]++
	}
	var violated []Result
	for _, r := range pass.Objectives {
		if r.Violated() {
			violated = append(violated, r)
		}
	}
	met.Gauge(obs.HealthState).Set(int64(m.worstLocked()))
	met.Gauge(obs.HealthEntitiesDegraded).Set(levels[Degraded])
	met.Gauge(obs.HealthEntitiesCritical).Set(levels[Critical])
	met.Gauge(obs.SLOViolations).Set(int64(len(violated)))
	pass.States = m.statesLocked()
	hooks := append([]func(Change){}, m.onChange...)
	m.mu.Unlock()

	for _, r := range violated {
		m.obs.Event(obs.EventSLOViolation, "slo:"+r.Rule,
			fmt.Sprintf("%s %v > %v", r.Reason, r.Actual, r.Bound), obs.TraceContext{})
	}
	for _, c := range pass.Changes {
		m.obs.Event(obs.EventHealthChanged, "health:"+c.Entity.String(), c.String(), obs.TraceContext{})
		for _, fn := range hooks {
			fn(c)
		}
	}
	return pass
}

func (m *Monitor) statesLocked() []EntityHealth {
	out := make([]EntityHealth, 0, len(m.entities))
	for e, st := range m.entities {
		out = append(out, EntityHealth{
			Kind:   e.Kind,
			Name:   e.Name,
			State:  st.state,
			Reason: st.reason,
			Since:  st.since,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// States returns the current per-entity states (sorted by kind, name)
// without running an evaluation.
func (m *Monitor) States() []EntityHealth {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statesLocked()
}

// StateOf returns one entity's current state (Healthy when unknown).
func (m *Monitor) StateOf(kind, name string) State {
	if m == nil {
		return Healthy
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.entities[Entity{Kind: kind, Name: name}]; ok {
		return st.state
	}
	return Healthy
}

// Overall returns the worst state across all entities (Healthy when no
// entity is tracked).
func (m *Monitor) Overall() State {
	if m == nil {
		return Healthy
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worstLocked()
}

func (m *Monitor) worstLocked() State {
	worst := Healthy
	for _, st := range m.entities {
		worst = max(worst, st.state)
	}
	return worst
}
