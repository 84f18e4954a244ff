package fleet

import (
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs/health"
)

// counterCostBytes is the byte-equivalent weight of one migratable
// counter in the cost model. Destroy-and-recreate of a counter is a
// firmware transaction pair (hundreds of milliseconds at paper-scale
// latencies), which dwarfs shipping a few kilobytes of state — so a
// counter-heavy enclave must look expensive even when its Table I
// payload is small.
const counterCostBytes = 64 << 10

// degradedLinkPenalty multiplies the projected cost of a candidate whose
// WAN link the health plane reports degraded: the destination stays
// reachable (unlike critical, which is excluded outright), but only wins
// a pick when it is 8× cheaper than the healthiest alternative — roughly
// the cost gap at which eating a lossy link's retries still beats
// queueing behind a clean one.
const degradedLinkPenalty = 8

// appCost aggregates a journal's observations of one app.
type appCost struct {
	bytes    int64
	counters int64
	n        int64
}

// estimate is the expected migration cost in byte-equivalents.
func (c appCost) estimate() int64 {
	if c.n == 0 {
		return 0
	}
	return c.bytes/c.n + (c.counters/c.n)*counterCostBytes
}

// CostAware places each enclave on the destination with the lowest
// projected migration cost rather than the lowest enclave count: the
// per-app state size (Table I bytes) and counter count observed in
// earlier plans' journals feed an expected cost per app, destinations
// accumulate the cost of what this policy has already assigned them,
// and every pick takes the cheapest. Enclave counts still matter for
// apps the history has never seen (they are charged the historical
// average), so an empty history degrades to least-loaded behavior.
//
// Feed it the previous plan's journal (or a merged history) and reuse
// one instance per plan: the assigned-cost tally accumulates across
// picks of one planning session. Safe for concurrent use (the
// orchestrator also consults policies from worker goroutines when
// re-targeting).
type CostAware struct {
	mu       sync.Mutex
	hist     map[string]appCost
	total    appCost
	assigned map[string]int64
	linkRTT  map[string]time.Duration
	linkHlth map[string]health.State
}

// NewCostAware builds the policy from journaled history. A nil journal
// yields an empty history (pure least-loaded-by-average behavior).
func NewCostAware(history *Journal) *CostAware {
	c := &CostAware{
		hist:     make(map[string]appCost),
		assigned: make(map[string]int64),
		linkRTT:  make(map[string]time.Duration),
		linkHlth: make(map[string]health.State),
	}
	c.Observe(history)
	return c
}

// Name identifies the policy.
func (*CostAware) Name() string { return "cost-aware" }

// Observe folds one more journal into the history (e.g. after each
// plan, so the next plan packs with fresher costs).
func (c *CostAware) Observe(j *Journal) {
	if j == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range j.Entries() {
		if e.Status != StatusCompleted {
			continue
		}
		h := c.hist[e.App]
		h.bytes += int64(e.StateBytes)
		h.counters += int64(e.Counters)
		h.n++
		c.hist[e.App] = h
		c.total.bytes += int64(e.StateBytes)
		c.total.counters += int64(e.Counters)
		c.total.n++
	}
}

// SetLink records the round-trip time of the network path to one
// destination machine (e.g. the WAN link's configured RTT, or a
// measured median). Picks then price a candidate's projected byte cost
// by that RTT — moving a megabyte across a 200ms intercontinental link
// really is ~200× the transfer time of the same megabyte at 1ms — so a
// WAN-reachable destination wins only when it is byte-cheaper by more
// than the link is slower. Machines with no recorded link keep factor 1
// (LAN), which makes an RTT-free history behave exactly as before.
func (c *CostAware) SetLink(machineID string, rtt time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.linkRTT[machineID] = rtt
}

// NoteLinkState records the health plane's verdict on the path to one
// destination machine. Degraded paths are penalized (see
// degradedLinkPenalty); critical paths are excluded from picks entirely
// unless every candidate is critical (a drain must still go somewhere).
func (c *CostAware) NoteLinkState(machineID string, st health.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st == health.Healthy {
		delete(c.linkHlth, machineID)
		return
	}
	c.linkHlth[machineID] = st
}

// WatchLinks subscribes the policy to a health monitor. linkOf maps each
// destination machine ID to the name of the WAN link it sits behind (the
// same names the fleet passes as BatchOpts.Link). Current link states are
// applied immediately; later transitions arrive via the monitor's change
// hook, so a link going critical mid-plan redirects the remaining picks.
func (c *CostAware) WatchLinks(mon *health.Monitor, linkOf map[string]string) {
	if mon == nil || len(linkOf) == 0 {
		return
	}
	for machine, link := range linkOf {
		c.NoteLinkState(machine, mon.StateOf("link", link))
	}
	frozen := make(map[string]string, len(linkOf))
	for m, l := range linkOf {
		frozen[m] = l
	}
	mon.OnChange(func(ch health.Change) {
		if ch.Entity.Kind != "link" {
			return
		}
		for machine, link := range frozen {
			if link == ch.Entity.Name {
				c.NoteLinkState(machine, ch.To)
			}
		}
	})
}

// rttFactor is the per-candidate cost multiplier: RTT in whole
// milliseconds, floored at 1 so LAN-class and unrecorded links are
// priced identically.
func (c *CostAware) rttFactor(machineID string) int64 {
	f := int64(c.linkRTT[machineID] / time.Millisecond)
	if f < 1 {
		return 1
	}
	return f
}

// cost estimates one app's migration cost: its own history, else the
// fleet-wide average, else a nominal unit so picks stay balanced.
func (c *CostAware) cost(name string) int64 {
	if h, ok := c.hist[name]; ok && h.n > 0 {
		return h.estimate()
	}
	if avg := c.total.estimate(); avg > 0 {
		return avg
	}
	return counterCostBytes
}

// Pick implements Policy. app is nil for escrow-based resurrections;
// they are charged the historical average.
func (c *CostAware) Pick(app *cloud.App, candidates []*cloud.Machine, load map[string]int) (*cloud.Machine, error) {
	if len(candidates) == 0 {
		return nil, ErrNoDestination
	}
	name := ""
	if app != nil {
		name = app.Image().Name
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cost := c.cost(name)
	avg := c.total.estimate()
	if avg <= 0 {
		avg = counterCostBytes
	}
	// A candidate behind a critical link is excluded — unless every
	// candidate is, in which case health cannot discriminate and the
	// plan proceeds on cost alone rather than failing the drain.
	allCritical := true
	for _, cand := range candidates {
		if c.linkHlth[cand.ID()] != health.Critical {
			allCritical = false
			break
		}
	}
	var best *cloud.Machine
	var bestScore int64
	for _, cand := range candidates {
		if !allCritical && c.linkHlth[cand.ID()] == health.Critical {
			continue
		}
		// Projected cost = the load map's enclaves (standing + planned
		// arrivals, which the planner counts at one each) priced at the
		// historical average, plus this session's accumulated deviation
		// from that average. Pricing only the deviation here avoids
		// double-counting the planner's own load increments — and makes
		// an empty history collapse exactly to least-loaded.
		// The RTT factor scales the whole projected byte cost: bytes × RTT
		// is transfer time, the quantity a drain deadline actually spends.
		score := (c.assigned[cand.ID()] + int64(load[cand.ID()])*avg) * c.rttFactor(cand.ID())
		if c.linkHlth[cand.ID()] == health.Degraded {
			score *= degradedLinkPenalty
		}
		if best == nil || score < bestScore ||
			(score == bestScore && cand.ID() < best.ID()) {
			best, bestScore = cand, score
		}
	}
	c.assigned[best.ID()] += cost - avg
	return best, nil
}
