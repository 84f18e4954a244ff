// Package chaos is the repo's "Jepsen for enclaves": a seeded, fully
// deterministic fault-schedule generator that interleaves machine
// kills, restarts, rack cold-restarts, WAN partitions, mirror lag,
// forced site-loss failovers, and concurrent fleet plans against a
// running two-datacenter federation while a nemesis workload drives
// counter increments and records a global operation history — and a
// model-based checker that replays that history against the paper's
// R1–R4 guarantees: monotone counters (no rollback), at most one live
// instance per enclave identity (no fork, exactly-one resurrection),
// no recovered-away zombie ever serving a request, strictly advancing
// escrow versions, and an audit event stream consistent with what the
// schedule actually did.
//
// Determinism is the load-bearing property: the same Config (seed
// included) produces the same history, op for op, so any failing
// schedule shrinks to a minimal repro that is just a seed plus a step
// list. Everything random in a run is either derived from the seed
// (schedule draws, WAN loss) or kept out of the recorded history
// (crypto nonces, escrow instance IDs, trace IDs — error strings are
// canonicalized so none of them leak in).
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/pse"
	"repro/internal/pserepl"
	"repro/internal/transport"
)

// Op is one recorded event in the global history: a workload operation
// (inc/read/request), a fault or recovery action, a committed escrow
// put, or a post-step liveness scan. The checker replays the Op stream;
// the determinism tests compare it byte for byte across runs.
type Op struct {
	// I is the op's index in the history; Step is the index of the
	// schedule step that produced it (-1 for world setup).
	I    int    `json:"i"`
	Step int    `json:"step"`
	Kind string `json:"kind"`
	// App is the enclave identity (image name) the op concerns.
	App string `json:"app,omitempty"`
	// Slot is the app-counter index for inc/read ops.
	Slot int `json:"slot,omitempty"`
	// Inst is the identity's incarnation number the op was issued
	// against (0 = the originally launched instance).
	Inst int `json:"inst,omitempty"`
	// Val is the observed counter value (inc/read), live-instance count
	// (scan), or committed version (escrow).
	Val uint32 `json:"val,omitempty"`
	// Err is the canonicalized error ("" = success).
	Err string `json:"err,omitempty"`
	// Note carries op-specific detail (machine, plan intent, forced…).
	Note string `json:"note,omitempty"`
}

// String renders the op in the canonical one-line form fingerprints and
// repro listings use.
func (o Op) String() string {
	return fmt.Sprintf("%d/%d %s app=%s slot=%d inst=%d val=%d err=%q note=%q",
		o.I, o.Step, o.Kind, o.App, o.Slot, o.Inst, o.Val, o.Err, o.Note)
}

// History is the globally ordered operation record of one chaos run.
// Appends may come from the nemesis goroutine, fleet workers, and the
// escrow auditor hooks; the mutex keeps it safe, and the sequential
// step executor keeps the order deterministic.
type History struct {
	mu  sync.Mutex
	ops []Op
}

func (h *History) add(op Op) {
	h.mu.Lock()
	op.I = len(h.ops)
	h.ops = append(h.ops, op)
	h.mu.Unlock()
}

// Ops returns the recorded operations in order.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}

// Len reports the number of recorded operations.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}

// Fingerprint collapses the history into one comparable string; two
// runs of the same seed must produce identical fingerprints.
func (h *History) Fingerprint() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	for i := range h.ops {
		b.WriteString(h.ops[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// sentinel maps a wrapped error to its canonical history name.
type sentinel struct {
	err  error
	name string
}

// sentinels is the canonicalization table, checked with errors.Is so
// wrapped and joined errors resolve to stable names.
var sentinels = []sentinel{
	{core.ErrEscrowConsumed, "escrow-consumed"},
	{core.ErrEscrowStale, "escrow-stale"},
	{core.ErrRecoveredAway, "recovered-away"},
	{core.ErrFrozen, "frozen"},
	{core.ErrSlotInactive, "slot-inactive"},
	{core.ErrNotInitialized, "not-initialized"},
	{core.ErrAlreadyInitialized, "already-initialized"},
	{core.ErrNoEscrow, "no-escrow"},
	{core.ErrMigrationPending, "migration-pending"},
	{pserepl.ErrNoQuorum, "no-quorum"},
	{pserepl.ErrEscrowSuperseded, "escrow-superseded"},
	{pserepl.ErrEscrowNotFound, "escrow-not-found"},
	{pserepl.ErrEscrowDecommissioned, "escrow-decommissioned"},
	{pserepl.ErrReplicaUnsynced, "replica-unsynced"},
	{pse.ErrCounterNotFound, "counter-not-found"},
	{transport.ErrLinkDown, "link-down"},
	{transport.ErrDropped, "dropped"},
	{cloud.ErrMachineDown, "machine-down"},
	{cloud.ErrMachineUp, "machine-up"},
	{cloud.ErrInstanceAlive, "instance-alive"},
	{federation.ErrMirrorStale, "mirror-stale"},
	{federation.ErrNotMirrored, "not-mirrored"},
	{federation.ErrMirrorRefused, "mirror-refused"},
	{federation.ErrOriginUnreachable, "origin-unreachable"},
	{federation.ErrOriginAlive, "origin-alive"},
	{federation.ErrNotPartnered, "not-partnered"},
	{federation.ErrNotConnected, "not-connected"},
	{fleet.ErrAttemptsExhausted, "attempts-exhausted"},
	{fleet.ErrRestoreOnLiveDestination, "restore-on-live-dest"},
	{fleet.ErrNoDestination, "no-destination"},
	{fleet.ErrEmptyPlan, "empty-plan"},
}

// canonErr canonicalizes an error for the history: known sentinels
// resolve to stable short names (joined errors to the sorted "+"-join
// of every matching name), anything else to its message with hex runs
// scrubbed — escrow IDs, binding UUIDs, and nonces are crypto-random
// per run and must never make two same-seed histories differ.
func canonErr(err error) string {
	if err == nil {
		return ""
	}
	var names []string
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			names = append(names, s.name)
		}
	}
	if len(names) > 0 {
		return strings.Join(names, "+")
	}
	return scrubHex(err.Error())
}

// canonStr scrubs a free-form message the same way canonErr does.
func canonStr(s string) string { return scrubHex(s) }

// scrubHex replaces every run of 4+ hex digits with '#' and newlines
// with "; " so multi-part errors stay one history line.
func scrubHex(s string) string {
	s = strings.ReplaceAll(s, "\n", "; ")
	var b strings.Builder
	run := 0
	flush := func(end int) {
		if run >= 4 {
			b.WriteByte('#')
		} else {
			b.WriteString(s[end-run : end])
		}
		run = 0
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		isHex := c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
		if isHex {
			run++
			continue
		}
		flush(i)
		b.WriteByte(c)
	}
	flush(len(s))
	return b.String()
}
