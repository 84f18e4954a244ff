package fleet

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Status is the terminal state of one journaled migration.
type Status int

// Migration outcomes.
const (
	// StatusCompleted: the enclave's persistent state was restored on the
	// destination and the source library verified frozen.
	StatusCompleted Status = iota + 1
	// StatusFailed: the migration could not complete within its attempt
	// budget. The source library stays frozen and the migration data is
	// held at the source Migration Enclave, so no state is lost and no
	// fork window opens; the operator can redirect it later.
	StatusFailed
	// StatusCanceled: the context was canceled before the migration
	// completed (it may not have started).
	StatusCanceled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Entry records the outcome of one migration.
type Entry struct {
	// App is the enclave image name.
	App string
	// Source and Dest are machine IDs; Dest is where the enclave actually
	// landed, PlannedDest where the plan originally put it.
	Source, PlannedDest, Dest string
	// Attempts counts delivery attempts this plan performed (1 = first
	// try succeeded, also for a resumed migration re-delivered to the
	// machine that may still hold it; 0 = a resumed migration whose DONE
	// had already arrived — no delivery happened here).
	Attempts int
	// Redirects counts destination changes after delivery failures.
	Redirects int
	// StateBytes is the canonical encoded size of the migrated
	// persistent-state payload (Table I: counter table + MSK), a stable
	// near-upper bound on the wire payload (whose exact size varies with
	// the digits of the secret values).
	StateBytes int
	// Counters is the enclave's active counter count at migration (or
	// recovery) time — with StateBytes, the per-app history cost-aware
	// placement packs destinations by.
	Counters int
	// Link names the federation WAN link the migration traversed to
	// reach its destination (empty for intra-DC migrations).
	Link string
	// Latency is the end-to-end migration time, freeze through restore,
	// as performed by this plan (a resumed entry with Attempts == 0
	// records only its bookkeeping time).
	Latency time.Duration
	// SourceFrozen records the post-transfer verification that the source
	// library refuses to operate (the fork-freedom invariant).
	SourceFrozen bool
	// DoneConfirmed records whether the source ME received the DONE
	// confirmation from the destination (Fig. 2's final arrow).
	DoneConfirmed bool
	// Recovered marks an escrow-based resurrection (recovery mode): the
	// enclave was re-instantiated from the rack escrow because its source
	// machine was gone, not migrated from a live source.
	Recovered bool
	Status    Status
	// Err is the final error for failed or canceled migrations.
	Err string
}

// Journal accumulates per-migration outcomes. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	entries []Entry
}

// NewJournal creates an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Record appends one outcome.
func (j *Journal) Record(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, e)
}

// Entries returns a copy of all recorded outcomes.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Entry(nil), j.entries...)
}

// Count returns the number of entries with the given status.
func (j *Journal) Count(st Status) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.entries {
		if e.Status == st {
			n++
		}
	}
	return n
}

// Len returns the total number of entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// LatencySummary summarizes completed-migration latencies in
// milliseconds as mean ± CI half-width at the given confidence level,
// using the same statistics machinery as the paper's figures. Resumed
// migrations found already completed (Attempts == 0, no delivery work
// performed) are excluded so they do not skew the figure.
func (j *Journal) LatencySummary(conf float64) (stats.Summary, error) {
	j.mu.Lock()
	var ms []float64
	for _, e := range j.entries {
		if e.Status == StatusCompleted && e.Attempts > 0 {
			ms = append(ms, float64(e.Latency)/float64(time.Millisecond))
		}
	}
	j.mu.Unlock()
	return stats.Summarize(ms, conf)
}
