package chaos

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/health"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Config parameterizes one chaos run. The zero value is not runnable;
// use Defaults() or fill Seed and rely on withDefaults.
type Config struct {
	// Seed drives every random draw in the run: the schedule generator
	// and the WAN link's loss process both derive from it, so one seed
	// fully determines one history.
	Seed int64 `json:"seed"`
	// Steps is the schedule length when generating (ignored in replay).
	Steps int `json:"steps"`
	// Machines is the per-datacenter machine count (>= 3; the f=1
	// replica group needs 2f+1 members).
	Machines int `json:"machines"`
	// Apps is the number of enclave identities launched on dc-a.
	Apps int `json:"apps"`
	// Counters is the number of monotonic counters per identity.
	Counters int `json:"counters"`
	// WANLoss is the inter-DC link's loss probability in [0, 1).
	WANLoss float64 `json:"wan_loss"`
	// Replay, when non-nil, executes exactly this step list instead of
	// generating one (the repro / shrink path). Steps whose guards no
	// longer hold are recorded as skipped and ignored.
	Replay []Step `json:"replay,omitempty"`
	// Bias, when non-nil, multiplies candidate weights during generation
	// toward transitions the accumulator has seen least, and absorbs
	// this run's transition coverage afterward. Nil (the default) leaves
	// generation exactly seed-deterministic; replay never consults it.
	// Not serialized: a repro must not depend on search-time state.
	Bias *Bias `json:"-"`
}

// Defaults returns the standard smoke-test configuration for a seed:
// a lossy WAN and the full step palette.
func Defaults(seed int64) Config {
	return Config{Seed: seed, WANLoss: 0.1}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Steps <= 0 {
		c.Steps = 30
	}
	if c.Machines < 3 {
		// Three replica-group members plus one spare, so drain plans have
		// a replica-handoff taker and migration paths actually execute.
		c.Machines = 4
	}
	if c.Apps <= 0 {
		c.Apps = 4
	}
	if c.Counters <= 0 {
		c.Counters = 2
	}
	if c.WANLoss < 0 || c.WANLoss >= 1 {
		c.WANLoss = 0
	}
	return c
}

// Result is one run's verdict: the concrete steps that executed, the
// recorded history, and every invariant violation the checker found
// (empty = the run upheld R1–R4).
type Result struct {
	Seed       int64       `json:"seed"`
	Steps      []Step      `json:"steps"`
	Violations []Violation `json:"violations,omitempty"`
	Ops        int         `json:"ops"`
	Events     int         `json:"events"`
	// Coverage records which invariants the checker evaluated and which
	// transitions the schedule executed — the search-quality signal.
	Coverage Coverage `json:"coverage"`
	// Health is the per-entity health state at the end of the run: the
	// active watchdogs' independent verdict on the same history the
	// checker read. A mutation test convicts an injected fault only when
	// both planes saw it.
	Health []health.EntityHealth `json:"health,omitempty"`

	// History is the full operation record (not serialized by default;
	// repros carry the seed + steps instead).
	History *History `json:"-"`
	// Flight is an encoded black-box bundle (flight.DecodeBundle reads
	// it), captured at verdict time when the run found violations; nil on
	// clean runs. Like History it stays out of the JSON repro — chaoshunt
	// writes it beside the repro file instead.
	Flight []byte `json:"-"`
}

// Failed reports whether the run found any invariant violation.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// identity is the runner's model of one enclave identity across its
// incarnations (launch, migrations, resurrections).
type identity struct {
	name     string
	img      *sgx.Image
	escrowID [16]byte
	ctrs     []int
	app      *cloud.App // current live instance, nil while lost
	inst     int        // incarnation number of app
	lost     bool
	lostDC   string // DC whose rack escrow can resurrect it
	// replayable marks an identity whose state was recovered cross-DC
	// with origin arbitration (unforced): the origin rack still holds
	// its superseded record, making it the adversarial replay-recover
	// target — a second resurrection attempt from the consumed record.
	replayable bool
}

// probe is a retained handle to a superseded incarnation (migrated-away
// or replaced pointer): the nemesis keeps issuing state-advancing
// operations against it to prove zombies never make progress. Counter
// increments ride PSE hardware counters and are not fenced by the
// binding — only persisting operations are — so probes drive a persist
// (CreateCounter), which a frozen or recovered-away incarnation must
// refuse.
type probe struct {
	id   string
	inst int
	slot int
	app  *cloud.App
}

// world is one running two-DC federation under test plus the runner's
// bookkeeping.
type world struct {
	mu     sync.Mutex // guards escrowSeq/escrowCount (auditor callbacks)
	cfg    Config
	fed    *federation.Federation
	dcA    *cloud.DataCenter
	dcB    *cloud.DataCenter
	link   *transport.WANLink
	mirror *federation.Mirror
	obs    *obs.Observer
	mon    *health.Monitor

	ids    []*identity
	byName map[string]*identity
	// ownerName maps an identity's enclave measurement to its name so
	// escrow-auditor callbacks (keyed by owner) attribute to the right
	// identity without leaking crypto-random escrow IDs into history.
	ownerName map[sgx.Measurement]string
	// escrowSeq assigns each escrow instance ID a small per-identity
	// ordinal (migration mints a fresh instance whose versions restart
	// at 1); the ordinal goes into the history instead of the random ID.
	escrowSeq   map[[16]byte]int
	escrowCount map[string]int
	h           *History
	rng         *rand.Rand
	probes      []probe
	cov         Coverage

	step         int  // current schedule step index
	partitioned  bool // WAN link currently down
	disconnected bool // Disconnect is permanent
}

// machineRef renders "dc/machine".
func machineRef(dc, m string) string { return dc + "/" + m }

// Run executes one chaos schedule and checks the resulting history.
// The returned error covers world-construction failures only; invariant
// violations land in Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.fed.Close()

	var steps []Step
	if cfg.Replay != nil {
		steps = w.replay(cfg.Replay)
	} else {
		steps = w.generate(cfg.Steps)
	}
	w.quiesce()
	states := w.mon.Evaluate(time.Now()).States

	events := w.obs.Events.Events()
	violations, cov := CheckCoverage(w.h, events, w.ownerIndex())
	cov.Merge(w.cov) // add the executed-transition counts
	cfg.Bias.Absorb(cov)
	res := &Result{
		Seed:       cfg.Seed,
		Steps:      steps,
		Violations: violations,
		Ops:        w.h.Len(),
		Events:     len(events),
		Coverage:   cov,
		Health:     states,
		History:    w.h,
	}
	if len(violations) > 0 {
		// Black-box the failing run: everything the watchdogs and checker
		// saw, frozen at verdict time, so a repro ships with its context.
		b := flight.Capture(w.obs, flight.Trigger{
			Kind:   flight.TriggerChaosViolation,
			Actor:  "chaos",
			Detail: violations[0].String(),
		}, time.Now(), flight.CaptureOpts{Health: states})
		res.Flight = b.Encode()
	}
	return res, nil
}

// buildWorld provisions the standard chaos fixture: two data centers
// (dc-a, dc-b) with cfg.Machines machines each, one f=1 replica group
// per site (rack-a, rack-b), a lossy WAN link whose loss RNG derives
// from the seed, a manual-mode escrow mirror rack-a -> rack-b, and
// cfg.Apps identities launched round-robin across dc-a with their
// counters created and advanced once.
func buildWorld(cfg Config) (*world, error) {
	w := &world{
		cfg:         cfg,
		fed:         federation.New("chaos"),
		byName:      make(map[string]*identity),
		ownerName:   make(map[sgx.Measurement]string),
		escrowSeq:   make(map[[16]byte]int),
		escrowCount: make(map[string]int),
		h:           &History{},
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		cov:         NewCoverage(),
		step:        -1,
	}
	w.obs = obs.NewObserver()
	// The health plane watches the run live, one evaluation per step.
	// TripAfter 1 (vs the serving default 2) because a chaos step is a
	// coarse instant, not a scrape tick: the injected fault classes must
	// reach degraded/critical within the schedule that provoked them.
	w.mon = health.New(w.obs, health.Config{TripAfter: 1, ClearAfter: 2}, health.DefaultRules()...)

	for _, name := range []string{"dc-a", "dc-b"} {
		dc, err := cloud.NewDataCenter(name, sim.NewInstantLatency())
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", name, err)
		}
		dc.SetObserver(w.obs)
		prefix := name[len(name)-1:]
		ids := make([]string, 0, cfg.Machines)
		for i := 1; i <= cfg.Machines; i++ {
			id := fmt.Sprintf("%s%d", prefix, i)
			if _, err := dc.AddMachine(id); err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		// The f=1 replica group takes exactly the first three machines;
		// any further machines are spare capacity. A spare is what lets a
		// drain of a replica host actually run: the role hands off to the
		// spare instead of the plan being refused (every taker already
		// hosting a replica), so migration paths — including the batched
		// stream — get exercised rather than refused at compile.
		if _, err := dc.NewReplicaGroup("rack-"+prefix, 1, ids[:3]...); err != nil {
			return nil, err
		}
		if err := w.fed.Admit(dc); err != nil {
			return nil, err
		}
		if name == "dc-a" {
			w.dcA = dc
		} else {
			w.dcB = dc
		}
	}
	w.fed.SetObserver(w.obs)

	// The WAN link's loss process must replay with the schedule: inject
	// a source derived from the seed (satellite of the same PR that made
	// WANConfig.Rand injectable).
	link, err := w.fed.Connect("dc-a", "dc-b", transport.WANConfig{
		RTT:  20 * time.Millisecond,
		Loss: cfg.WANLoss,
		Rand: rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 0x7F4A7C15)),
	})
	if err != nil {
		return nil, err
	}
	w.link = link
	mirror, err := w.fed.PartnerGroups("dc-a", "rack-a", "dc-b", "rack-b")
	if err != nil {
		return nil, err
	}
	// Manual mode: escrow changes mark instances dirty but sync only at
	// explicit flush steps, in sorted order, on the runner's goroutine —
	// the background worker would race the schedule for loss-RNG draws.
	mirror.SetManual(true)
	w.mirror = mirror

	// Escrow auditors record every committed escrow put (the strictly-
	// advancing-versions invariant). The observer slot on rack-a belongs
	// to the mirror; the auditor hook is this PR's second slot.
	w.installAuditor("rack-a", w.dcA)
	w.installAuditor("rack-b", w.dcB)

	// Launch the fleet's identities on dc-a, round-robin over machines.
	// Images (and their measurements) are registered before the first
	// launch so escrow-auditor callbacks attribute correctly from op 0.
	signer := xcrypto.DeriveKey([]byte("chaos"), "signer")
	machines := w.dcA.Machines()
	images := make([]*sgx.Image, cfg.Apps)
	for i := range images {
		name := fmt.Sprintf("app-%02d", i)
		images[i] = &sgx.Image{
			Name:            name,
			Version:         1,
			Code:            []byte("chaos:" + name),
			SignerPublicKey: ed25519.PublicKey(signer[:]),
		}
		w.ownerName[images[i].Measure()] = name
	}
	for i := 0; i < cfg.Apps; i++ {
		name := images[i].Name
		img := images[i]
		m := machines[i%len(machines)]
		app, err := m.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
		if err != nil {
			return nil, fmt.Errorf("chaos: launch %s: %w", name, err)
		}
		id := &identity{name: name, img: img, app: app, lostDC: "dc-a"}
		if eid, ok := app.Library.EscrowID(); ok {
			id.escrowID = eid
		}
		for c := 0; c < cfg.Counters; c++ {
			slot, _, err := app.Library.CreateCounter()
			if err != nil {
				return nil, fmt.Errorf("chaos: %s counter: %w", name, err)
			}
			id.ctrs = append(id.ctrs, slot)
		}
		w.ids = append(w.ids, id)
		w.byName[name] = id
		w.h.add(Op{Step: -1, Kind: "launch", App: name, Note: machineRef("dc-a", m.ID())})
		for si, slot := range id.ctrs {
			v, err := app.Library.IncrementCounter(slot)
			w.h.add(Op{Step: -1, Kind: "inc", App: name, Slot: si, Val: v, Err: canonErr(err)})
		}
	}
	return w, nil
}

// installAuditor hooks a rack's escrow commits into the history.
func (w *world) installAuditor(rack string, dc *cloud.DataCenter) {
	g, ok := dc.ReplicaGroup(rack)
	if !ok {
		return
	}
	g.SetEscrowAuditor(func(owner sgx.Measurement, id [16]byte, version uint32) {
		name := w.escrowName(owner, id)
		w.h.add(Op{Step: w.step, Kind: "escrow", App: name, Inst: w.escrowOrdinal(name, id), Val: version, Note: rack})
	})
}

// escrowName maps an escrow commit to its identity name by owner
// measurement; unknown owners (none, in practice) canonicalize to
// "esc:?" so crypto-random IDs never reach the history.
func (w *world) escrowName(owner sgx.Measurement, id [16]byte) string {
	if name, ok := w.ownerName[owner]; ok {
		return name
	}
	_ = id
	return "esc:?"
}

// escrowOrdinal numbers an identity's escrow instances in order of
// first commit (0 = the launch instance; each migration mints a new
// one). Within one ordinal, committed versions must strictly increase;
// across ordinals they restart at 1.
func (w *world) escrowOrdinal(name string, id [16]byte) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ord, ok := w.escrowSeq[id]; ok {
		return ord
	}
	ord := w.escrowCount[name]
	w.escrowCount[name] = ord + 1
	w.escrowSeq[id] = ord
	return ord
}

// ownerIndex maps MRENCLAVE actor strings ("lib:<measurement>") to
// identity names for the checker's audit cross-checks.
func (w *world) ownerIndex() map[string]string {
	idx := make(map[string]string, len(w.ids))
	for _, id := range w.ids {
		idx["lib:"+id.img.Measure().String()] = id.name
	}
	return idx
}

// quiesce waits out both racks' background repair work so every step
// starts from settled replica state (determinism across runs).
func (w *world) quiesce() {
	if g, ok := w.dcA.ReplicaGroup("rack-a"); ok {
		g.Quiesce()
	}
	if g, ok := w.dcB.ReplicaGroup("rack-b"); ok {
		g.Quiesce()
	}
}

// dc resolves a datacenter by name.
func (w *world) dc(name string) *cloud.DataCenter {
	if name == "dc-b" {
		return w.dcB
	}
	return w.dcA
}

// other returns the peer site across the WAN link.
func (w *world) other(name string) *cloud.DataCenter {
	if name == "dc-b" {
		return w.dcA
	}
	return w.dcB
}

// aliveMachines lists a DC's alive machines sorted by ID.
func aliveMachines(dc *cloud.DataCenter) []*cloud.Machine {
	var out []*cloud.Machine
	for _, m := range dc.Machines() {
		if m.Alive() {
			out = append(out, m)
		}
	}
	return out
}

// deadMachines lists a DC's dead machines sorted by ID.
func deadMachines(dc *cloud.DataCenter) []*cloud.Machine {
	var out []*cloud.Machine
	for _, m := range dc.Machines() {
		if !m.Alive() {
			out = append(out, m)
		}
	}
	return out
}

// leastLoadedAlive picks the alive machine with the fewest apps
// (deterministic: ties break by ID through the sorted Machines walk),
// excluding the named machine.
func leastLoadedAlive(dc *cloud.DataCenter, exclude string) *cloud.Machine {
	var best *cloud.Machine
	for _, m := range aliveMachines(dc) {
		if m.ID() == exclude {
			continue
		}
		if best == nil || m.AppCount() < best.AppCount() {
			best = m
		}
	}
	return best
}

// mostLoadedAlive picks the alive machine hosting the most apps.
func mostLoadedAlive(dc *cloud.DataCenter) *cloud.Machine {
	var best *cloud.Machine
	for _, m := range aliveMachines(dc) {
		if best == nil || m.AppCount() > best.AppCount() {
			best = m
		}
	}
	return best
}

// scan records, per identity, how many unfrozen live instances exist
// across both data centers — the no-fork observable. It runs after
// every step.
func (w *world) scan() {
	counts := make(map[string]int, len(w.ids))
	for _, dc := range []*cloud.DataCenter{w.dcA, w.dcB} {
		for _, m := range dc.Machines() {
			if !m.Alive() {
				continue
			}
			for _, a := range m.Apps() {
				if a.Library.Frozen() {
					continue
				}
				counts[a.Image().Name]++
			}
		}
	}
	for _, id := range w.ids {
		w.h.add(Op{Step: w.step, Kind: "scan", App: id.name, Val: uint32(counts[id.name])})
	}
}

// relocate re-resolves an identity's live pointer after a fleet plan
// moved it: if exactly one unfrozen instance exists and it is a new
// pointer, the old one becomes a zombie probe and the incarnation
// advances.
func (w *world) relocate(id *identity) {
	var found []*cloud.App
	for _, dc := range []*cloud.DataCenter{w.dcA, w.dcB} {
		for _, m := range dc.Machines() {
			if !m.Alive() {
				continue
			}
			for _, a := range m.Apps() {
				if a.Image().Name == id.name && !a.Library.Frozen() {
					found = append(found, a)
				}
			}
		}
	}
	if len(found) != 1 || found[0] == id.app {
		return
	}
	if id.app != nil {
		w.addProbe(probe{id: id.name, inst: id.inst, app: id.app, slot: id.ctrs[0]})
	}
	// A pointer move while the identity was lost is a fleet-driven
	// escrow resurrection; while live it is a migration. The checker's
	// liveness model counts resurrections, so the distinction matters.
	kind := "migrate"
	if id.lost {
		kind = "recover"
	}
	id.app = found[0]
	id.inst++
	id.lost = false
	id.lostDC = dcOf(found[0])
	// Migration mints a fresh escrow instance; track the current one so
	// relaunch and manifest hygiene target the right record.
	if eid, ok := found[0].Library.EscrowID(); ok {
		id.escrowID = eid
	}
	note := machineRef(dcOf(found[0]), found[0].Machine().ID())
	if kind == "recover" {
		note = "fleet " + note
	}
	w.h.add(Op{Step: w.step, Kind: kind, App: id.name, Inst: id.inst, Note: note})
}

// dcOf names the datacenter hosting an app (by machine ID prefix).
func dcOf(a *cloud.App) string {
	if len(a.Machine().ID()) > 0 && a.Machine().ID()[0] == 'b' {
		return "dc-b"
	}
	return "dc-a"
}

// addProbe retains a superseded incarnation for zombie probing (bounded).
func (w *world) addProbe(p probe) {
	w.probes = append(w.probes, p)
	if len(w.probes) > 6 {
		w.probes = w.probes[len(w.probes)-6:]
	}
}

// markLost transitions every live identity hosted on m to lost state
// and records the loss (the incarnation can never serve again).
func (w *world) markLost(dcName string, m *cloud.Machine) {
	names := make([]string, 0, 2)
	for _, id := range w.ids {
		if id.app != nil && id.app.Machine() == m {
			names = append(names, id.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		id := w.byName[n]
		w.h.add(Op{Step: w.step, Kind: "lost", App: n, Inst: id.inst, Note: machineRef(dcName, m.ID())})
		id.app = nil
		id.lost = true
		id.lostDC = dcName
	}
}

// adoptRecovered records a successful resurrection set and rebinds the
// identities' live pointers, sorted by identity name. Any displaced
// live pointer is demoted to a zombie probe (it was fenced by the
// recovery's binding arbitration and must never serve again), and the
// identity's stale lost-manifest entries on other dead machines are
// dropped — the runner is the fleet operator, and operators keep
// manifests truthful so a recovery never targets an identity that is
// already live elsewhere.
func (w *world) adoptRecovered(apps []*cloud.App, note string, replayable bool) {
	sort.Slice(apps, func(i, j int) bool { return apps[i].Image().Name < apps[j].Image().Name })
	for _, app := range apps {
		id, ok := w.byName[app.Image().Name]
		if !ok {
			continue
		}
		if id.app != nil && id.app != app {
			w.addProbe(probe{id: id.name, inst: id.inst, app: id.app, slot: id.ctrs[0]})
		}
		id.app = app
		id.lost = false
		id.inst++
		id.lostDC = dcOf(app)
		id.replayable = replayable
		if eid, ok := app.Library.EscrowID(); ok {
			id.escrowID = eid
		}
		w.dropStaleManifests(id)
		w.h.add(Op{Step: w.step, Kind: "recover", App: id.name, Inst: id.inst,
			Note: note + " " + machineRef(dcOf(app), app.Machine().ID())})
	}
}

// dropStaleManifests removes a now-live identity from every dead
// machine's lost manifest in both sites.
func (w *world) dropStaleManifests(id *identity) {
	for _, dc := range []*cloud.DataCenter{w.dcA, w.dcB} {
		for _, m := range dc.Machines() {
			if !m.Alive() {
				m.DropLost(id.escrowID)
			}
		}
	}
}
