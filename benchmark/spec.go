package main

// The benchmark's contract: the workload names, the end-to-end metrics
// with their units, directions and regression bounds, and the per-layer
// metric names. BENCHMARK.json at the repository root states the same
// catalogue for the driver; TestCatalogueMatchesBenchmarkJSON keeps the
// two identical.

import "slices"

// Workload names (normative: later issues cite them).
const (
	wLibops   = "libops"
	wMigrate  = "migrate"
	wDrain    = "drain"
	wDrainRTT = "drain-rtt"
	wRack     = "rack"
)

type workloadSpec struct {
	Name string
	// Scale is the sim.Latency scale the workload's timed section runs at.
	Scale float64
	Why   string
}

var workloads = []workloadSpec{
	{wLibops, 0, "Paper Fig. 3/4 developer-facing cost: one enclave's counter, seal and init calls on a plain machine; core.Library, seal, xcrypto AEAD and pse do the work, transport/fleet/pserepl none."},
	{wMigrate, 0, "Paper VII-B: sequential classic Fig. 2 migrations between two machines; handshake crypto (ed25519, P-256 ECDH) dominates, batching/compression/fleet/pserepl are bypassed."},
	{wDrain, 0, "Operator bulk path, CPU-bound: fleet evacuates a1 across a WAN link with Workers 32, BatchSize 64, LinkCap 4 and obs wired as fleetd wires it; every layer is on-core."},
	{wDrainRTT, 0.25, "Same drain at sim scale 0.25 (50 ms effective RTT): wall time is modeled sleeps, so round trips, session resume and link-slot use show and a pure CPU saving must not."},
	{wRack, 0, "Replicated persistent state with a fault every round: f=1 rack quorum writes and reads, escrow, Kill then RecoverMachine on a peer; no migration protocol, no fleet."},
}

// metricSpec is one end-to-end metric. Bound is the share of the parent
// median by which the metric may worsen before a change is rejected.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Home lists the workloads whose own operations produce the metric;
	// nil means every workload (setup_s). -compare gates a metric on its
	// home workloads only. The driver's contract has every run report
	// every end-to-end metric, so a run of another workload also executes
	// Home[0] at reference size to supply the value (see phasesFor).
	Home []string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.15, nil},
	{"migration_p50_ms", "ms", "lower", 0.10, []string{wMigrate, wDrain}},
	{"migration_p95_ms", "ms", "lower", 0.10, []string{wMigrate, wDrain, wDrainRTT}},
	{"drain_migps", "1/s", "higher", 0.10, []string{wDrain, wDrainRTT}},
	{"wan_bytes_per_migration", "B", "lower", 0.05, []string{wDrain, wDrainRTT}},
	{"recover_p05_ms", "ms", "lower", 0.10, []string{wRack}},
	{"recover_p95_ms", "ms", "lower", 0.15, []string{wRack}},
	{"repl_increment_p50_us", "us", "lower", 0.10, []string{wRack}},
	{"repl_read_p50_us", "us", "lower", 0.10, []string{wRack}},
	{"lib_increment_ns", "ns", "lower", 0.15, []string{wLibops}},
	{"lib_seal_100B_ns", "ns", "lower", 0.15, []string{wLibops}},
	{"lib_seal_100k_us", "us", "lower", 0.15, []string{wLibops}},
	{"lib_unseal_100k_us", "us", "lower", 0.15, []string{wLibops}},
	{"lib_init_us", "us", "lower", 0.10, []string{wLibops}},
}

// maxBound caps every bound: a metric whose two runs of one commit do not
// agree within it is lengthened or stepped down a percentile, not widened.
const maxBound = 0.15

// homeOf reports whether the workload's own operations produce the metric.
func (m metricSpec) homeOf(workload string) bool {
	return m.Home == nil || slices.Contains(m.Home, workload)
}

// boundOn is the bound -compare applies on one workload. BENCHMARK.json
// states one bound per metric; drain-rtt's throughput is modeled sleeps,
// steadier than the CPU-bound drain's, and is held to half of it.
func (m metricSpec) boundOn(workload string) float64 {
	if m.Name == "drain_migps" && workload == wDrainRTT {
		return 0.05
	}
	return m.Bound
}

// Event counters: things a correct run may do but should do rarely. A
// workload reports the ones its own operations can produce beside
// ops_failed, each as a count among the occasions it could have happened
// on, and -compare gates them (see judgeCount); they are not failures.
const (
	// cQuorumRetries counts calls against the replica group repeated after
	// a transient ErrNoQuorum (rack).
	cQuorumRetries = "quorum_retries"
	// cOverAdvances counts increments and reads that returned more than
	// the next value (rack): pserepl may over-advance a counter, never
	// regress it.
	cOverAdvances = "counter_overadvances"
	// cStaleRefusals counts recoveries refused with ErrEscrowStale (rack):
	// an over-advanced binding counter makes the escrow record read one
	// version behind, and recovery fails safe instead of resurrecting.
	cStaleRefusals = "recover_refused_stale"
	// cDoneUnconfirmed counts journal entries whose DoneConfirmed flag,
	// best effort by fleet's own account, read false (drain, drain-rtt).
	cDoneUnconfirmed = "done_unconfirmed"
)

// counterSpec is one event counter. The events come in bursts (a batch's
// 64 DONE tokens at once) and a run's count is a small random number:
// done_unconfirmed read 0, 0, 3, 21, 134 and 140 of 30 000 in six runs of
// one commit. Slack is the share of the occasions that -compare tolerates
// on top of twice the old count.
type counterSpec struct {
	Name  string
	Slack float64
}

var counters = []counterSpec{
	{cQuorumRetries, 0.0005}, // seen: 1 call in 4 000-5 000
	{cOverAdvances, 0.0001},  // seen: 0-6 in 220 000 calls
	{cStaleRefusals, 0.002},  // seen: 1 recovery in 24 000
	{cDoneUnconfirmed, 0.01}, // seen: 0-0.5 % of journal entries
}

type layerSpec struct {
	Name   string
	Unit   string
	Better string
}

// perLayer lists the -trace metrics as <module>.<metric>. They carry no
// bound: they explain a move in an end-to-end metric, they do not gate.
var perLayer = []layerSpec{
	{"xcrypto.ecdh_us", "us", "lower"},
	{"xcrypto.sign_us", "us", "lower"},
	{"xcrypto.verify_cert_us", "us", "lower"},
	{"xcrypto.aead_seal_1k_ns", "ns", "lower"},
	{"xcrypto.aead_open_1k_ns", "ns", "lower"},
	{"xcrypto.aead_seal_64k_us", "us", "lower"},
	{"xcrypto.channel_roundtrip_256B_ns", "ns", "lower"},
	{"xcrypto.stream_roundtrip_4k_ns", "ns", "lower"},
	{"xcrypto.derive_key_ns", "ns", "lower"},
	{"attest.local_attest_us", "us", "lower"},
	{"attest.quote_verify_us", "us", "lower"},
	{"seal.native_seal_100B_ns", "ns", "lower"},
	{"seal.native_seal_100k_us", "us", "lower"},
	{"seal.native_unseal_100k_us", "us", "lower"},
	{"seal.state_seal_4k_ns", "ns", "lower"},
	{"pse.increment_ns", "ns", "lower"},
	{"pse.read_ns", "ns", "lower"},
	{"pse.create_destroy_ns", "ns", "lower"},
	{"wirec.migration_data_roundtrip_ns", "ns", "lower"},
	{"wirec.journal_roundtrip_us_per_1k", "us", "lower"},
	{"wirec.cert_json_roundtrip_us", "us", "lower"},
	{"wirec.grant_roundtrip_us", "us", "lower"},
	{"transport.network_hop_256B_ns", "ns", "lower"},
	{"transport.wan_hop_4k_us", "us", "lower"},
	{"transport.tcp_hop_256B_us", "us", "lower"},
	{"transport.compress_4k_us", "us", "lower"},
	{"transport.compress_ratio", "ratio", "lower"},
	{"transport.msgs_per_migration", "count", "lower"},
	{"transport.bytes_per_migration", "B", "lower"},
	{"transport.send_self_us_per_migration", "us", "lower"},
	{"pserepl.increment_us", "us", "lower"},
	{"pserepl.read_us", "us", "lower"},
	{"pserepl.msgs_per_increment", "count", "lower"},
	{"pserepl.retries_per_1k_ops", "count", "lower"},
	{"pserepl.escrow_put_get_4k_us", "us", "lower"},
	{"pserepl.escrow_put_get_1m_us", "us", "lower"},
	{"core.start_migration_us", "us", "lower"},
	{"core.restore_us", "us", "lower"},
	{"core.init_new_us", "us", "lower"},
	{"core.create_destroy_us", "us", "lower"},
	{"core.recover_app_us", "us", "lower"},
	{"core.batch_us_per_member", "us", "lower"},
	{"core.sessions_per_1k_migrations", "count", "lower"},
	{"cloud.launch_app_us", "us", "lower"},
	{"cloud.heap_kb_per_enclave", "kB", "lower"},
	{"fleet.compile_us_per_1k", "us", "lower"},
	{"fleet.cpu_s_per_1k_migrations", "s", "lower"},
	{"fleet.cpu_utilisation", "ratio", "higher"},
	{"fleet.journal_bytes_per_entry", "B", "lower"},
	{"fleet.done_unconfirmed_pct", "%", "lower"},
	{"federation.recover_wan_ms", "ms", "lower"},
	{"federation.mirror_flush_us", "us", "lower"},
	{"sim.modeled_ms_per_migration", "ms", "lower"},
	{"sim.ecalls_per_migration", "count", "lower"},
	{"sim.counter_ops_per_migration", "count", "lower"},
	{"sim.net_rtts_per_migration", "count", "lower"},
	{"sim.wan_hops_per_migration", "count", "lower"},
	{"obs.drain_overhead_pct", "%", "lower"},
	{"obs.spans_per_migration", "count", "lower"},
	{"obs.freeze_window_p50_ms", "ms", "lower"},
	{"obs.freeze_window_p99_ms", "ms", "lower"},
	{"obs.critical_path_other_pct", "%", "lower"},
	{"obs.increment_wired_overhead_ns", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
