package health

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// DefaultRules returns a fresh instance of the rule table (rules carry
// per-monitor delta state): five health watchdogs, the four service
// level objectives, and the security-event trigger. The objective
// bounds are sized from the paper's measured baselines (856 µs
// migrations, ~0.26 ms kill→recovered, ~25 ms cross-WAN recovery) with
// generous headroom, so only real regressions or stalls trip them.
func DefaultRules() []Rule {
	return []Rule{
		QuorumRule(),
		MirrorRule(),
		LinkRule(),
		StuckSpanRule(),
		RefusalStormRule(),
		p99Objective("freeze-window-p99", obs.UnavailFreezeWindow, 250*time.Millisecond),
		p99Objective("migration-p99", obs.FleetMigrationLatency, 250*time.Millisecond),
		p99Objective("recovery-p99", obs.UnavailRecoveryWindow, time.Second),
		ageObjective("mirror-rpo-age", obs.MirrorFlushLast, maxRPOAge),
		securityEventRule(),
	}
}

// health builds one health rule's result for one entity.
func health(kind, name string, level State, reasons ...string) Result {
	return Result{Entity: Entity{Kind: kind, Name: name}, Level: level, Reason: strings.Join(reasons, "; ")}
}

// Quorum thresholds: a group is flagged when its slowest replica's p99
// vote latency is voteSkewFactor times its fastest replica's, ignored
// while the slowest p99 is under voteSkewFloor so microsecond-scale
// jitter in a local simulation never pages anyone.
const (
	voteSkewFactor = 4
	voteSkewFloor  = 2 * time.Millisecond
)

// QuorumRule watches the per-replica vote telemetry pserepl records
// during quorum broadcasts. A replica whose votes error (timeouts,
// unsynced-replica refusals) or whose vote latency runs far ahead of
// its peers marks the group degraded; when a majority of replicas are
// erroring the group is one fault from losing quorum and goes critical.
func QuorumRule() Rule {
	prevErrs := map[[2]string]int64{}
	return Rule{Name: "quorum", Eval: func(s *Sample) []Result {
		type replica struct {
			id  string
			p99 time.Duration
		}
		groups := map[string][]replica{}
		s.Snap.Each(obs.QuorumVoteLatency, func(lv []string, sr obs.Series) {
			if sr.Hist != nil && sr.Hist.Count > 0 {
				groups[lv[0]] = append(groups[lv[0]], replica{id: lv[1], p99: sr.Hist.P99})
			}
		})
		errDelta := map[string]map[string]int64{} // group -> replica -> new errors
		s.Snap.Each(obs.QuorumVoteErrors, func(lv []string, sr obs.Series) {
			key := [2]string{lv[0], lv[1]}
			if delta := sr.Value - prevErrs[key]; delta > 0 {
				if errDelta[lv[0]] == nil {
					errDelta[lv[0]] = map[string]int64{}
				}
				errDelta[lv[0]][lv[1]] = delta
			}
			prevErrs[key] = sr.Value
		})

		var out []Result
		for g, reps := range groups {
			level, reasons := Healthy, []string(nil)
			if len(reps) >= 2 {
				sort.Slice(reps, func(i, j int) bool { return reps[i].p99 < reps[j].p99 })
				fast, slow := reps[0], reps[len(reps)-1]
				if slow.p99 >= voteSkewFloor && fast.p99 > 0 && slow.p99 >= voteSkewFactor*fast.p99 {
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
				if 2*len(errs) > len(reps) {
					lvl = Critical // majority of replicas erroring: one fault from quorum loss
				}
				level = max(level, lvl)
				reasons = append(reasons, fmt.Sprintf(
					"%d vote errors from %s (lagging or unsynced replicas)", n, strings.Join(ids, ",")))
			}
			out = append(out, health("group", g, level, reasons...))
		}
		// Groups with only error counters (no latency yet) still surface.
		for g := range errDelta {
			if _, ok := groups[g]; !ok {
				out = append(out, health("group", g, Degraded, "vote errors before any successful vote"))
			}
		}
		return out
	}}
}

// Mirror thresholds: dirty instances may wait maxRPOAge since the last
// successful flush (also the mirror-rpo-age objective's bound), and the
// dirty backlog alone may not exceed maxDirty.
const (
	maxRPOAge = 5 * time.Minute
	maxDirty  = 64
)

// MirrorRule watches the cross-DC escrow mirror's flush telemetry.
// Beyond the wall-clock rules (RPO age, dirty backlog) it carries a
// time-free consistency rule: a successful flush while mirrored
// instances exist must push records, so a flush that "succeeds" without
// pushing anything — exactly what the chaosmut skip-mirror-push mutation
// fabricates — marks the mirror degraded until a flush pushes again.
func MirrorRule() Rule {
	var prevFlushOK, prevPushOK int64
	sawFlush, lastFlushPushed := false, true
	return Rule{Name: "mirror", Eval: func(s *Sample) []Result {
		flushTotal, _ := s.Snap.Counter(obs.MirrorFlushTotal)
		enqueue, _ := s.Snap.Counter(obs.MirrorEnqueueTotal)
		pushTotal, _ := s.Snap.Counter(obs.MirrorPushTotal)
		dirty, hasDirty := s.Snap.Gauge(obs.MirrorDirty)
		if flushTotal == 0 && enqueue == 0 && pushTotal == 0 && !hasDirty {
			return nil // no mirror in this deployment
		}
		flushErrs, _ := s.Snap.Counter(obs.MirrorFlushErrors)
		pushErrs, _ := s.Snap.Counter(obs.MirrorPushErrors)
		flushOK, pushOK := flushTotal-flushErrs, pushTotal-pushErrs
		known, _ := s.Snap.Gauge(obs.MirrorKnown)

		if flushOK > prevFlushOK {
			sawFlush = true
			lastFlushPushed = pushOK > prevPushOK || known == 0
		}
		prevFlushOK, prevPushOK = flushOK, pushOK

		level, reasons := Healthy, []string(nil)
		bump := func(lvl State, format string, args ...any) {
			level = max(level, lvl)
			reasons = append(reasons, fmt.Sprintf(format, args...))
		}
		if enqueue > 0 && flushOK > 0 && pushOK == 0 {
			bump(Critical, "flushes succeed but no escrow record has ever been pushed (enqueued=%d flushed=%d)",
				enqueue, flushOK)
		} else if sawFlush && !lastFlushPushed {
			bump(Degraded, "last successful mirror flush pushed no records (flush=%d push=%d known=%d)",
				flushOK, pushOK, known)
		}
		if stamp, _ := s.Snap.Gauge(obs.MirrorFlushLast); dirty > 0 && stamp > 0 {
			if age := s.Now.Sub(time.Unix(0, stamp)); age > maxRPOAge {
				bump(Degraded, "mirror RPO age %s exceeds %s with %d dirty instances",
					age.Round(time.Second), maxRPOAge, dirty)
			}
		}
		if dirty > maxDirty {
			bump(Degraded, "dirty backlog %d exceeds %d", dirty, maxDirty)
		}
		return []Result{health("mirror", "escrow", level, reasons...)}
	}}
}

// Link thresholds: the tolerated fraction of (lost+refused) exchanges
// since the previous pass, trusted only over at least minLinkAttempts.
const (
	maxLinkLoss     = 0.05
	minLinkAttempts = 20
)

// LinkRule watches the per-link telemetry transport.WANLink records per
// forwarded exchange. An administratively down (or carrier-lost) link
// is critical; a link dropping or refusing more than maxLinkLoss of its
// recent traffic is degraded.
func LinkRule() Rule {
	type tally struct {
		msgs, bad int64
		down      bool
	}
	prev := map[string]tally{}
	return Rule{Name: "link", Eval: func(s *Sample) []Result {
		links := map[string]*tally{}
		at := func(lv []string) *tally {
			if links[lv[0]] == nil {
				links[lv[0]] = &tally{}
			}
			return links[lv[0]]
		}
		s.Snap.Each(obs.WANLinkDown, func(lv []string, sr obs.Series) { at(lv).down = sr.Value != 0 })
		s.Snap.Each(obs.WANLinkMsgs, func(lv []string, sr obs.Series) { at(lv).msgs = sr.Value })
		s.Snap.Each(obs.WANLinkLost, func(lv []string, sr obs.Series) { at(lv).bad += sr.Value })
		s.Snap.Each(obs.WANLinkRefused, func(lv []string, sr obs.Series) { at(lv).bad += sr.Value })
		var out []Result
		for link, t := range links {
			dMsgs, dBad := t.msgs-prev[link].msgs, t.bad-prev[link].bad
			prev[link] = *t
			r := health("link", link, Healthy)
			if t.down {
				r = health("link", link, Critical, "link down")
			} else if total := dMsgs + dBad; total >= minLinkAttempts {
				if ratio := float64(dBad) / float64(total); ratio > maxLinkLoss {
					r = health("link", link, Degraded,
						fmt.Sprintf("lost %d of last %d exchanges (%.0f%%)", dBad, total, 100*ratio))
				}
			}
			out = append(out, r)
		}
		return out
	}}
}

// stuckDeadline is how long a watched span may stay open before its
// owner degrades; twice the deadline is critical.
const stuckDeadline = 2 * time.Minute

// stuckWatch maps the spans the watchdog covers — the fleet planner's
// roots and the source ME's stream sender — to the entity owning them.
var stuckWatch = map[string]Entity{
	obs.SpanFleetMigrate.Name: {Kind: "fleet", Name: "migrate"},
	obs.SpanFleetRecover.Name: {Kind: "fleet", Name: "recover"},
	obs.SpanMETransfer.Name:   {Kind: "me", Name: "transfer"},
}

// StuckSpanRule is the watchdog over the tracer's open-span registry: a
// watched operation still open past its deadline means a migration or
// drain has wedged — precisely the failure that leaves no finished span
// to alert on.
func StuckSpanRule() Rule {
	return Rule{Name: "stuck-span", Eval: func(s *Sample) []Result {
		worst := map[Entity]Result{}
		for _, sp := range s.Open {
			e, ok := stuckWatch[sp.Name]
			if !ok {
				continue
			}
			age := s.Now.Sub(sp.Start)
			r := Result{Entity: e}
			switch {
			case age > 2*stuckDeadline:
				r.Level = Critical
			case age > stuckDeadline:
				r.Level = Degraded
			}
			if r.Level > Healthy {
				r.Reason = fmt.Sprintf("%s span %d open for %s (deadline %s)",
					sp.Name, sp.SpanID, age.Round(time.Second), stuckDeadline)
			}
			if cur, ok := worst[e]; !ok || r.Level > cur.Level {
				worst[e] = r
			}
		}
		out := make([]Result, 0, len(worst))
		for _, r := range worst {
			out = append(out, r)
		}
		return out
	}}
}

// Refusals per pass that degrade / turn critical the ME session entity.
const (
	refusalsDegraded = 3
	refusalsCritical = 8
)

// RefusalStormRule watches the me.session.resume.refused counter: a
// burst of authenticated resume refusals means destinations are
// repeatedly rejecting cached attested sessions — the signature of an
// on-path attacker replaying or desynchronizing resume tickets, or of
// an epoch-fence storm worth a human look either way.
func RefusalStormRule() Rule {
	var prev int64
	return Rule{Name: "refusal-storm", Eval: func(s *Sample) []Result {
		refused, ok := s.Snap.Counter(obs.MESessionResumeRefused)
		if !ok {
			return nil
		}
		delta := refused - prev
		prev = refused
		level := Healthy
		switch {
		case delta >= refusalsCritical:
			level = Critical
		case delta >= refusalsDegraded:
			level = Degraded
		}
		if level == Healthy {
			return []Result{health("me", "sessions", Healthy)}
		}
		return []Result{health("me", "sessions", level, fmt.Sprintf(
			"%d session-resume refusals since last evaluation — possible on-path attacker", delta))}
	}}
}

// objective finishes an objective result: violated when actual > bound.
func objective(name, metric string, actual, bound time.Duration, missing bool) []Result {
	r := Result{Entity: Entity{Kind: "slo", Name: name}, Bound: bound, Reason: metric, Missing: missing}
	if !missing {
		r.Actual = actual
		if actual > bound {
			r.Level = Degraded
		}
	}
	return []Result{r}
}

// p99Objective bounds a latency histogram's 99th percentile.
func p99Objective(name string, d *obs.HistogramDesc, bound time.Duration) Rule {
	return Rule{Name: name, Class: ClassObjective, Eval: func(s *Sample) []Result {
		h, ok := s.Snap.Histogram(d)
		return objective(name, d.Name, h.P99, bound, !ok)
	}}
}

// ageObjective bounds now − gauge, where the gauge holds a unix-ns
// timestamp (RPO-style freshness); an unset stamp is missing.
func ageObjective(name string, d *obs.GaugeDesc, bound time.Duration) Rule {
	return Rule{Name: name, Class: ClassObjective, Eval: func(s *Sample) []Result {
		stamp, _ := s.Snap.Gauge(d)
		return objective(name, d.Name, s.Now.Sub(time.Unix(0, stamp)), bound, stamp == 0)
	}}
}

// securityEventRule turns the audit events an investigator wants a
// black box for — a zombie refused, a forced site-loss failover, a
// revoked federation grant — into typed results.
func securityEventRule() Rule {
	return Rule{Name: "security-event", Class: ClassSecurity, Eval: func(s *Sample) []Result {
		var out []Result
		for _, ev := range s.Events {
			switch ev.Type {
			case obs.EventZombieRefused, obs.EventSiteLossFailover, obs.EventGrantRevoked:
				out = append(out, Result{
					Entity: Entity{Kind: "audit", Name: ev.Actor},
					Level:  Critical,
					Reason: ev.Type + ": " + ev.Detail,
				})
			}
		}
		return out
	}}
}
