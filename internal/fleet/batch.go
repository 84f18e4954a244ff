package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
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
// to batchSize with at most one member per enclave identity per stream
// (the destination ME stores one pending envelope per MRENCLAVE, so
// same-identity members must not share a stream).
func groupAssignments(assignments []Assignment, batchSize int) [][]Assignment {
	out := make([][]Assignment, 0, len(assignments))
	type gkey struct{ src, dst string }
	open := make(map[gkey][]int) // indices into out of groups with room
	for _, as := range assignments {
		if as.Recover || as.App == nil {
			out = append(out, []Assignment{as})
			continue
		}
		k := gkey{as.Source.ID(), as.Dest.ID()}
		mre := as.App.Image().Measure()
		gi := -1
		for pos, cand := range open[k] {
			dup := false
			for _, other := range out[cand] {
				if other.App.Image().Measure() == mre {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			gi = cand
			out[gi] = append(out[gi], as)
			if len(out[gi]) >= batchSize {
				open[k] = append(open[k][:pos], open[k][pos+1:]...)
			}
			break
		}
		if gi < 0 {
			if batchSize > 1 { // a new group of one still has room
				open[k] = append(open[k], len(out))
			}
			out = append(out, []Assignment{as})
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
	restored bool   // LaunchApp(InitMigrated) succeeded this attempt
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
// outside this worker (an earlier plan, or a concurrent same-identity
// worker consuming our envelope): only the frozen source remains.
func (o *Orchestrator) completedElsewhere(m *member, dest *cloud.Machine, links map[*cloud.Machine]string) {
	m.entry.DoneConfirmed = true
	m.as.App.Terminate()
	o.finish(m, dest, links, StatusCompleted, nil)
}

// resolveParked is the pre-flight for an assignment whose app already
// froze in an earlier plan that did not finish (its library holds a
// done-token; StartMigration would fail with ErrFrozen). Where the data
// sits decides the fork-safe move: DONE already arrived → completed
// elsewhere; delivered to a still-live destination → finish the restore
// *there*, never re-send; otherwise it is parked at the source ME (or its
// delivered copy died with the destination ME) and joins a stream like
// any other member — toward the previously targeted machine while that
// lives, so that if a delivered-but-ack-lost transfer actually parked our
// envelope there, idempotent re-delivery reuses that copy instead of
// creating a second one on a policy-chosen machine. It returns the
// assignment to stream, or the finished entry when nothing is left to send.
func (o *Orchestrator) resolveParked(ctx context.Context, as Assignment, links map[*cloud.Machine]string) (Assignment, *Entry) {
	if as.Recover || as.App == nil {
		return as, nil
	}
	token := as.App.Library.MigrationToken()
	if token == nil {
		return as, nil
	}
	prevAddr, sent, done, err := as.Source.ME.OutgoingStatus(token)
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
	case prev == nil || !prev.ME.Enclave().Alive():
		return as, nil
	case !sent:
		as.Dest = prev
		return as, nil
	}
	// Restore-only: the data was delivered by the earlier plan, so this
	// plan performs no delivery (Attempts stays 0 and the entry is excluded
	// from the latency summary, which measures full freeze-through-restore).
	m := o.newMember(as, links)
	release, cerr := o.acquireLink(ctx, links[prev])
	if cerr != nil {
		o.finish(m, prev, links, StatusCanceled, cerr)
		return as, &m.entry
	}
	unlock := o.locks.lock(prev.ID(), as.App.Image().Measure())
	_, lerr := prev.LaunchApp(as.App.Image(), core.NewMemoryStorage(), core.InitMigrated)
	if lerr == nil {
		_ = prev.ME.FlushDones(as.Source.ME.Address())
	}
	unlock()
	release()
	if lerr == nil {
		o.complete(m, prev, links)
	} else if done, derr := as.App.Library.MigrationComplete(); derr == nil && done {
		// A concurrent same-identity worker consumed our envelope.
		o.completedElsewhere(m, prev, links)
	} else {
		o.finish(m, prev, links, StatusFailed, fmt.Errorf("%w: %v", ErrRestoreOnLiveDestination, lerr))
	}
	return as, &m.entry
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

		// For WAN destinations the attempt holds one of the link's
		// concurrency slots (LinkCap).
		release, cerr := o.acquireLink(ctx, links[dest])
		if cerr != nil {
			for _, m := range rem {
				finish(m, StatusCanceled, cerr)
			}
			return entries()
		}
		// Hold every member's (destination, identity) delivery slot for
		// the whole attempt, deliver through restore, acquired in MRENCLAVE
		// order so concurrent groups to one destination cannot deadlock.
		sort.Slice(rem, func(i, j int) bool {
			a, b := rem[i].as.App.Image().Measure(), rem[j].as.App.Image().Measure()
			return bytes.Compare(a[:], b[:]) < 0
		})
		unlocks := make([]func(), 0, len(rem))
		for _, m := range rem {
			unlocks = append(unlocks, o.locks.lock(dest.ID(), m.as.App.Image().Measure()))
		}
		unlockAll := func() {
			for i := len(unlocks) - 1; i >= 0; i-- {
				unlocks[i]()
			}
			release()
		}

		// The stream's own spans (offer, data frames) join the trace of the
		// member that opens it; every member's record carries its own.
		bs, err := src.ME.BeginBatch(dest.MEAddress(), len(rem), core.BatchOpts{
			Compress: links[dest] != "",
			Link:     links[dest],
			Trace:    rem[0].tc,
		})
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
			unlockAll()
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
					_, lerr := dest.LaunchApp(m.as.App.Image(), core.NewMemoryStorage(), core.InitMigrated)
					if lerr == nil {
						m.restored = true
						continue
					}
					if dest.ME.Enclave().Alive() {
						if done, derr := m.as.App.Library.MigrationComplete(); derr == nil && done {
							o.completedElsewhere(m, dest, links)
							continue
						}
						finish(m, StatusFailed, fmt.Errorf("%w: %v", ErrRestoreOnLiveDestination, lerr))
						continue
					}
					// The destination machine restarted after accepting the
					// data: the envelope died with the ME's enclave memory,
					// and the source still holds its copy (no DONE arrived),
					// so re-sending cannot fork.
					m.retryErr = lerr
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
				// A concurrent same-identity worker consumed our envelope:
				// the source ME refuses the re-send, and the migration is in
				// fact complete.
				o.completedElsewhere(m, dest, links)
			} else if aerr != nil {
				// Stream already failed (or closed): the member stays frozen
				// and held; the next attempt re-streams it.
				m.retryErr = aerr
			}
		})
		statuses, serr := bs.Finish()
		restoreWg.Wait()
		if serr != nil {
			lastErr = serr
		}

		// A member refused because another same-identity envelope occupies
		// its slot at this live destination restores that envelope here,
		// still under the slot; whether it was ours is decided below.
		var busy []*member
		for i, m := range rem {
			if st, acked := statuses[uint32(i)]; acked && !st.OK && !m.terminal && isAlreadyPending(errors.New(st.Detail)) {
				if _, lerr := dest.LaunchApp(m.as.App.Image(), core.NewMemoryStorage(), core.InitMigrated); lerr != nil {
					finish(m, StatusFailed, fmt.Errorf("%w: %v", ErrRestoreOnLiveDestination, lerr))
				} else {
					busy = append(busy, m)
				}
			}
		}
		// Flush the destination's queued DONE confirmations back to the
		// source so MigrationComplete verifies below. Best-effort: a lost
		// flush leaves DoneConfirmed=false, never an unsafe state.
		_ = dest.ME.FlushDones(src.ME.Address())
		unlockAll()

		for _, m := range busy {
			if done, derr := m.as.App.Library.MigrationComplete(); derr == nil && done {
				o.complete(m, dest, links)
			} else {
				// The restored envelope belonged to a same-identity sibling;
				// our data is still parked at the source ME. Stop here rather
				// than risk racing the sibling's own worker — a later plan
				// resumes this migration through its token.
				finish(m, StatusFailed, ErrIdentityBusy)
			}
		}
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
