package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
)

// The migration engine. Every migration rides a core stream shared by up
// to Config.BatchSize members of one (source, destination) pair; the
// paper's Fig. 2 migration is the group of one. Each member is frozen by
// a pool worker immediately before its envelope enters the stream and
// restored by another pool worker the moment its delivery ack lands — so
// a wider stream amortizes the handshake and the exchange count without
// ever serializing the members' freeze windows.

// groupAssignments splits the compiled assignments into worker groups.
// Recoveries and image-less entries stay alone (a recovery is not a
// migration); the rest group by (source, destination) into streams of up
// to batchSize, in plan order.
func groupAssignments(assignments []Assignment, batchSize int) [][]Assignment {
	out := make([][]Assignment, 0, len(assignments))
	type gkey struct{ src, dst string }
	open := make(map[gkey]int) // the pair's group that still has room, as an index into out
	for _, as := range assignments {
		if as.Recover || as.App == nil {
			out = append(out, []Assignment{as})
			continue
		}
		k := gkey{as.Source.ID(), as.Dest.ID()}
		gi, ok := open[k]
		if !ok {
			gi = len(out)
			out = append(out, nil)
			open[k] = gi
		}
		out[gi] = append(out[gi], as)
		if len(out[gi]) >= batchSize {
			delete(open, k) // closed
		}
	}
	return out
}

// each runs f(0), …, f(n-1) on up to workers goroutines and waits for all.
func each(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// member is one migration's progress through the engine.
type member struct {
	as    Assignment
	entry Entry
	sp    *obs.Span
	tc    obs.TraceContext
	start time.Time

	token    []byte // done-token once frozen+held (set from the start when resuming)
	restored bool   // RestoreApp by token succeeded this attempt
	terminal bool   // entry finalized
	retryErr error  // last retryable failure this attempt
}

// newMember opens one migration's journal entry and root span.
func (o *Orchestrator) newMember(as Assignment, links map[*cloud.Machine]string) *member {
	m := &member{as: as, start: time.Now(), token: as.App.Library.MigrationToken()}
	m.entry = Entry{
		App:         as.App.Image().Name,
		Source:      as.Source.ID(),
		PlannedDest: as.Dest.ID(),
		StateBytes:  stateBytes(as.App),
		Counters:    as.App.Library.ActiveCounters(),
		Link:        links[as.Dest],
	}
	m.sp, m.tc = o.cfg.Obs.StartSpan(obs.SpanFleetMigrate, obs.TraceContext{})
	if m.sp != nil {
		m.sp.Site = m.entry.App
	}
	o.emit(Event{Type: EventStart, App: m.entry.App, Source: m.entry.Source, Dest: as.Dest.ID(), Link: links[as.Dest]})
	return m
}

// finish finalizes a member's entry with its outcome on dest.
func (o *Orchestrator) finish(m *member, dest *cloud.Machine, links map[*cloud.Machine]string, st Status, err error) {
	if m.terminal {
		return
	}
	m.terminal = true
	m.entry.Status = st
	m.entry.Dest = dest.ID()
	m.entry.Link = links[dest]
	m.entry.Latency = time.Since(m.start)
	m.entry.SourceFrozen = m.as.App.Library.Frozen()
	if err != nil {
		m.entry.Err = err.Error()
	}
	m.sp.End()
	if st == StatusCompleted && m.entry.Attempts > 0 {
		o.cfg.Obs.M().Histogram(obs.FleetMigrationLatency).Observe(m.entry.Latency)
	}
	o.cfg.Obs.M().Counter(obs.FleetMigration, st.String()).Add(1)
	evType := EventFailed
	switch st {
	case StatusCompleted:
		evType = EventCompleted
	case StatusCanceled:
		evType = EventCanceled
	}
	o.emit(Event{Type: evType, App: m.entry.App, Source: m.entry.Source, Dest: dest.ID(), Attempt: m.entry.Attempts, Link: links[dest], Err: err})
}

// complete finalizes a successful restore on dest.
func (o *Orchestrator) complete(m *member, dest *cloud.Machine, links map[*cloud.Machine]string) {
	lib := m.as.App.Library
	if !lib.Frozen() {
		o.finish(m, dest, links, StatusFailed, ErrSourceNotFrozen)
		return
	}
	done, derr := lib.MigrationComplete()
	m.entry.DoneConfirmed = derr == nil && done
	m.as.App.Terminate()
	o.finish(m, dest, links, StatusCompleted, nil)
}

// completedElsewhere finalizes a migration whose restore was performed
// outside this worker (an earlier plan; its DONE has arrived): only the
// frozen source remains.
func (o *Orchestrator) completedElsewhere(m *member, dest *cloud.Machine, links map[*cloud.Machine]string) {
	m.entry.DoneConfirmed = true
	m.as.App.Terminate()
	o.finish(m, dest, links, StatusCompleted, nil)
}

// resolveParked is the pre-flight for an assignment whose app already
// froze in an earlier plan that did not finish (its library holds a
// done-token; StartMigration would fail with ErrFrozen). DONE already
// arrived → completed elsewhere, nothing left to send. Otherwise it joins
// a stream like any other member — toward the previously targeted machine
// while that lives, never a policy-chosen one: re-delivering the same
// token to the same ME is idempotent if its copy is still stored there,
// refused as consumed if a restore fetched it, and a fresh store only if
// the ME instance that held it is gone (its copies died with its enclave
// memory), so no second deliverable copy can appear. It returns the
// assignment to stream, or the finished entry.
func (o *Orchestrator) resolveParked(as Assignment, links map[*cloud.Machine]string) (Assignment, *Entry) {
	if as.Recover || as.App == nil {
		return as, nil
	}
	token := as.App.Library.MigrationToken()
	if token == nil {
		return as, nil
	}
	prevAddr, _, done, err := as.Source.ME.OutgoingStatus(token)
	// DataCenter machines are never removed, so a delivered-to address
	// always resolves; nil means the address was never one of ours.
	prev := o.machineByAddress(prevAddr)
	switch {
	case err != nil:
		m := o.newMember(as, links)
		o.finish(m, as.Dest, links, StatusFailed, fmt.Errorf("resume parked migration: %w", err))
		return as, &m.entry
	case done:
		// Report where the enclave actually landed, not this plan's choice.
		m, dest := o.newMember(as, links), as.Dest
		if prev != nil {
			dest = prev
		}
		o.completedElsewhere(m, dest, links)
		return as, &m.entry
	case prev != nil && prev.ME.Enclave().Alive():
		as.Dest = prev
	}
	return as, nil
}

// migrateGroup runs one group end to end — freeze + stream at the source,
// restore at the destination, verification, source teardown — with retry,
// backoff, and redirect-on-dead-destination.
//
// Fork-freedom is preserved member by member in every path: the library
// freezes before any data leaves the machine, the orchestrator redirects
// only when the previous destination ME is dead (its stored copies, if
// any, died with its enclave memory), and a restore failure on a live
// destination fails the migration instead of re-sending the state. A
// mid-stream failure parks exactly the members no ack covered — frozen,
// held at the source ME, resumable by token.
func (o *Orchestrator) migrateGroup(ctx context.Context, group []Assignment, targets []*cloud.Machine, policy Policy, links map[*cloud.Machine]string) []Entry {
	src, dest := group[0].Source, group[0].Dest
	members := make([]*member, len(group))
	for i, as := range group {
		members[i] = o.newMember(as, links)
	}
	finish := func(m *member, st Status, err error) { o.finish(m, dest, links, st, err) }
	entries := func() []Entry {
		out := make([]Entry, len(members))
		for i, m := range members {
			out[i] = m.entry
		}
		return out
	}

	var lastErr error
	for attempt := 1; attempt <= o.cfg.MaxAttempts; attempt++ {
		var rem []*member
		for _, m := range members {
			if !m.terminal {
				rem = append(rem, m)
			}
		}
		if len(rem) == 0 {
			return entries()
		}
		for _, m := range rem {
			m.entry.Attempts = attempt
			m.restored = false
			m.retryErr = nil
		}
		if attempt > 1 {
			if err := o.backoff(ctx, attempt, links[dest] != ""); err != nil {
				for _, m := range rem {
					finish(m, StatusCanceled, err)
				}
				return entries()
			}
			// The destination may have died; re-target the whole remainder if
			// a healthy alternative exists (§V-D: "another destination
			// machine is selected") — and only then: a live destination may
			// hold deliverable copies.
			if !dest.ME.Enclave().Alive() {
				if alt := o.pickAlternate(rem[0].as.App, dest, src, targets, policy); alt != nil {
					for _, m := range rem {
						m.entry.Redirects++
						o.emit(Event{Type: EventRedirect, App: m.entry.App, Source: src.ID(), Dest: alt.ID(), Attempt: attempt, Link: links[alt]})
					}
					dest = alt
				}
			}
		}

		// The stream's own spans (offer, data frames) join the trace of the
		// member that opens it; every member's record carries its own.
		bs, err := src.ME.BeginBatch(dest.MEAddress(), len(rem), core.BatchOpts{
			Compress: links[dest] != "",
			Link:     links[dest],
			Trace:    rem[0].tc,
		})
		// For WAN destinations the attempt holds one of the link's
		// concurrency slots (LinkCap) from its first freeze to its last
		// restore. The open above and the DONE flush below are round trips
		// that carry no migration data, so they stay outside it.
		release, cerr := o.acquireLink(ctx, links[dest])
		if cerr != nil {
			if bs != nil {
				_, _ = bs.Finish() // nothing was added: tells the destination the stream is over
			}
			for _, m := range rem {
				finish(m, StatusCanceled, cerr)
			}
			return entries()
		}
		// freeze reports whether m holds (or now gets) a held envelope to
		// stream. A freeze/export failure happens before any data left the
		// machine and is terminal.
		freeze := func(m *member) bool {
			if m.token == nil {
				if ferr := m.as.App.Library.StartMigrationHeldCtx(m.tc, dest.MEAddress()); ferr != nil {
					finish(m, StatusFailed, ferr)
					return false
				}
				m.token = m.as.App.Library.MigrationToken()
			}
			return true
		}
		workers := min(o.cfg.Workers, len(rem))
		if err != nil {
			// The destination cannot be reached or refuses us. The migration
			// has started all the same (Listing 1: migration_start freezes;
			// the data then waits at the source ME "until the error is
			// resolved or another destination machine is selected", §V-D):
			// every member parks, frozen and resumable by token.
			each(len(rem), workers, func(i int) { freeze(rem[i]) })
			release()
			lastErr = err
			for _, m := range rem {
				if !m.terminal {
					o.emit(Event{Type: EventRetry, App: m.entry.App, Source: src.ID(), Dest: dest.ID(), Attempt: attempt, Err: err})
				}
			}
			continue
		}

		// Restore pool: resume each member at the destination the moment
		// its own delivery ack lands — not when the stream ends.
		var restoreWg sync.WaitGroup
		for w := 0; w < workers; w++ {
			restoreWg.Add(1)
			go func() {
				defer restoreWg.Done()
				for idx := range bs.Delivered() {
					if int(idx) >= len(rem) {
						continue
					}
					m := rem[idx]
					o.emit(Event{Type: EventDelivered, App: m.entry.App, Source: src.ID(), Dest: dest.ID(), Attempt: attempt})
					// Each member restores its own envelope, named by token.
					_, lerr := dest.RestoreApp(m.as.App.Image(), core.NewMemoryStorage(), m.token)
					switch {
					case lerr == nil:
						m.restored = true
					case dest.ME.Enclave().Alive():
						finish(m, StatusFailed, fmt.Errorf("%w: %v", ErrRestoreOnLiveDestination, lerr))
					default:
						// The destination machine restarted after accepting the
						// data: the envelope died with the ME's enclave memory,
						// and the source still holds its copy (no DONE arrived),
						// so re-sending cannot fork.
						m.retryErr = lerr
					}
				}
			}()
		}
		// Freeze pool: each member freezes (or re-enters by token) right
		// before its envelope joins the stream, keeping freeze windows
		// per-enclave regardless of stream width.
		each(len(rem), workers, func(i int) {
			m := rem[i]
			if !freeze(m) {
				return
			}
			if aerr := bs.Add(uint32(i), m.token); isMigrationDone(aerr) {
				// A parked member's late DONE arrived after resolveParked
				// looked (another group's flush carried it): the source ME
				// refuses the re-send, and the migration is in fact complete.
				o.completedElsewhere(m, dest, links)
			} else if aerr != nil {
				// Stream already failed (or closed): the member stays frozen
				// and held; the next attempt re-streams it.
				m.retryErr = aerr
			}
		})
		statuses, serr := bs.Finish()
		restoreWg.Wait()
		release()
		if serr != nil {
			lastErr = serr
		}

		// Flush the destination's queued DONE confirmations back to the
		// source so MigrationComplete verifies below. Best-effort: a lost
		// flush leaves DoneConfirmed=false, never an unsafe state.
		_ = dest.ME.FlushDones(src.ME.Address())

		for i, m := range rem {
			if m.terminal {
				continue
			}
			if m.restored {
				o.complete(m, dest, links)
				continue
			}
			st, acked := statuses[uint32(i)]
			switch {
			case acked && !st.OK && isEnvelopeConsumed(errors.New(st.Detail)):
				// The destination handed our envelope to a restoring
				// library. The source's DONE flag says whether that restore
				// completed; without it the state died with a failed
				// restore, and re-sending is impossible (the tombstone
				// protects the completed-restore case).
				if done, cerr := m.as.App.Library.MigrationComplete(); cerr == nil && done {
					o.completedElsewhere(m, dest, links)
				} else {
					finish(m, StatusFailed, fmt.Errorf("fleet: envelope consumed at %s without restore confirmation; not re-sending: %s", dest.ID(), st.Detail))
				}
				continue
			case acked && !st.OK:
				m.retryErr = errors.New(st.Detail)
			case acked && m.retryErr == nil:
				// Stored but the delivery signal was lost before a restore
				// ran (e.g. the stream failed right after the ack). The
				// envelope sits deliverable at the destination; re-sending
				// the same token is idempotent there, so retry.
				m.retryErr = fmt.Errorf("fleet: member delivered but not restored")
			}
			err := m.retryErr
			if err == nil {
				// Never covered by an ack: parked at the source.
				err = serr
				if err == nil {
					err = fmt.Errorf("fleet: stream member not acknowledged")
				}
			}
			lastErr = err
			o.emit(Event{Type: EventRetry, App: m.entry.App, Source: src.ID(), Dest: dest.ID(), Attempt: attempt, Err: err})
		}
	}
	exhausted := fmt.Errorf("%w after %d attempts: %v", ErrAttemptsExhausted, o.cfg.MaxAttempts, lastErr)
	for _, m := range members {
		finish(m, StatusFailed, exhausted)
	}
	return entries()
}
