// Package cloud assembles the full simulated environment of the paper's
// deployment: a data-center operator (cloud provider) running multiple
// SGX machines, each with Platform Services counters, a Quoting Enclave,
// and a provisioned Migration Enclave, all connected by an untrusted
// network. It is the top-level convenience API that examples, benchmarks,
// and integration tests build on.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pse"
	"repro/internal/pserepl"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// Machine lifecycle errors.
var (
	// ErrMachineDown reports an operation on a killed machine.
	ErrMachineDown = errors.New("cloud: machine is down")
	// ErrNoReplica reports a replica operation on a machine that hosts no
	// counter replica.
	ErrNoReplica = errors.New("cloud: machine hosts no counter replica")
	// ErrHasReplica reports an attempt to place a second counter replica
	// on a machine.
	ErrHasReplica = errors.New("cloud: machine already hosts a counter replica")
	// ErrMachineUp reports a recovery of a machine that is still alive:
	// resurrecting a live machine's enclaves would run two copies.
	ErrMachineUp = errors.New("cloud: machine is alive; recovery is for dead machines")
	// ErrNotRackPeer reports a recovery target outside the dead machine's
	// rack group: only rack peers share the escrow and the counters.
	ErrNotRackPeer = errors.New("cloud: recovery target is not a rack peer of the dead machine")
	// ErrInstanceAlive reports a recovery of an enclave instance that is
	// still running somewhere in the data center. Like fleet's
	// redirect-only-to-replace-a-dead-destination rule, instance
	// liveness is the management plane's §V-D judgment call: the binding
	// counter would eventually freeze the older copy, but only after a
	// window in which two copies run.
	ErrInstanceAlive = errors.New("cloud: an enclave with this escrow instance is still running")
)

// DataCenter is one cloud provider's fleet: a certificate authority for
// Migration Enclave credentials, an EPID group issuer + IAS for remote
// attestation, a shared latency model, and the untrusted network.
type DataCenter struct {
	name     string
	Provider *attest.Provider
	Issuer   *xcrypto.Authority
	IAS      *attest.IAS
	// Network is the in-memory network (nil when a custom Messenger such
	// as TCP is used); adversary middleware attaches here.
	Network *transport.Network
	// Messenger is the transport Migration Enclaves communicate over.
	Messenger transport.Messenger
	Latency   *sim.Latency

	mu       sync.Mutex
	machines map[string]*Machine
	groups   map[string]*pserepl.Group
	obs      atomic.Pointer[obs.Observer]
}

// SetObserver installs a telemetry observer on the data center: every
// existing and future Migration Enclave, replica group, and library
// launched here reports traces, metrics, and audit events into it. A
// nil observer (the default) keeps all instrumentation as no-ops.
func (dc *DataCenter) SetObserver(o *obs.Observer) {
	dc.obs.Store(o)
	dc.mu.Lock()
	machines := make([]*Machine, 0, len(dc.machines))
	for _, m := range dc.machines {
		machines = append(machines, m)
	}
	groups := make([]*pserepl.Group, 0, len(dc.groups))
	for _, g := range dc.groups {
		groups = append(groups, g)
	}
	dc.mu.Unlock()
	for _, m := range machines {
		m.ME.SetObserver(o)
	}
	for _, g := range groups {
		g.SetObserver(o)
	}
}

// Observer returns the installed telemetry observer (nil when none).
func (dc *DataCenter) Observer() *obs.Observer { return dc.obs.Load() }

// Machine is one physical SGX machine inside a data center, fully
// provisioned: hardware, counter service, QE, and Migration Enclave.
//
// QE and ME are replaced by Restart; reading them while a concurrent
// Restart runs is not supported (restart a machine only between fleet
// operations, as a real operator would).
type Machine struct {
	HW       *sgx.Machine
	Counters *pse.Service
	QE       *attest.QuotingEnclave
	ME       *core.MigrationEnclave

	dc     *DataCenter
	meAddr transport.Address

	mu      sync.Mutex
	apps    map[*App]struct{}
	killed  bool
	group   *pserepl.Group
	replica *pserepl.Replica
	// lost records the apps that died in the last Kill, with the escrow
	// IDs captured while they were alive: the recovery manifest
	// DataCenter.RecoverMachine (and fleet's recovery mode) resurrects
	// from. Entries are removed as apps are recovered.
	lost []LostApp
}

// LostApp is one enclave that died with its machine: what is needed to
// resurrect it from the rack escrow on a peer.
type LostApp struct {
	Image *sgx.Image
	// EscrowID identifies the instance in the rack escrow; Escrowed is
	// false for apps that were not escrowed (CPU-bound, unrecoverable —
	// they can only come back via Restart + InitRestore on the same
	// machine).
	EscrowID [16]byte
	Escrowed bool
}

// MEAddress returns the machine's Migration Enclave network address.
func (m *Machine) MEAddress() transport.Address { return m.ME.Address() }

// ID returns the machine identifier within the data center.
func (m *Machine) ID() string { return string(m.HW.ID()) }

// Apps returns the live applications currently hosted on the machine
// (launched here and neither terminated nor killed by a restart), in no
// particular order. Fleet orchestration uses this to build its inventory.
// Apps whose enclaves died without Terminate (machine restart) are
// pruned from the registry as they are encountered.
func (m *Machine) Apps() []*App {
	m.mu.Lock()
	defer m.mu.Unlock()
	apps := make([]*App, 0, len(m.apps))
	for a := range m.apps {
		if a.Enclave.Alive() {
			apps = append(apps, a)
		} else {
			delete(m.apps, a)
		}
	}
	return apps
}

// AppCount returns the number of live applications on the machine (the
// load figure placement policies balance on).
func (m *Machine) AppCount() int { return len(m.Apps()) }

// NewDataCenter creates a data center with its own provider identity,
// EPID group, IAS, and network, using the given latency scale.
func NewDataCenter(name string, lat *sim.Latency) (*DataCenter, error) {
	net := transport.NewNetwork(lat)
	dc, err := NewDataCenterWithNetwork(name, lat, net)
	if err != nil {
		return nil, err
	}
	dc.Network = net
	return dc, nil
}

// NewDataCenterWithNetwork creates a data center whose Migration Enclaves
// communicate over a caller-supplied transport (e.g. TCP).
func NewDataCenterWithNetwork(name string, lat *sim.Latency, m transport.Messenger) (*DataCenter, error) {
	provider, err := attest.NewProvider(name)
	if err != nil {
		return nil, fmt.Errorf("provider: %w", err)
	}
	issuer, err := xcrypto.NewAuthority(name + "/epid-group")
	if err != nil {
		return nil, fmt.Errorf("group issuer: %w", err)
	}
	return &DataCenter{
		name:      name,
		Provider:  provider,
		Issuer:    issuer,
		IAS:       attest.NewIAS(issuer, lat),
		Messenger: m,
		Latency:   lat,
		machines:  make(map[string]*Machine),
		groups:    make(map[string]*pserepl.Group),
	}, nil
}

// Name returns the data center's name (its provider identity).
func (dc *DataCenter) Name() string { return dc.name }

// AddMachine provisions one SGX machine: fresh CPU secret, counter
// service, QE membership in the data center's EPID group, and a Migration
// Enclave with a provider credential, registered on the network under the
// machine's name.
func (dc *DataCenter) AddMachine(id string) (*Machine, error) {
	return dc.AddMachineAt(id, transport.Address(id))
}

// AddMachineAt provisions a machine whose Migration Enclave listens on an
// explicit transport address (used with TCP transports, where addresses
// are host:port rather than machine names).
func (dc *DataCenter) AddMachineAt(id string, addr transport.Address) (*Machine, error) {
	// Held for the whole provisioning sequence so a concurrent add of the
	// same ID cannot slip between the duplicate check and the insert.
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, exists := dc.machines[id]; exists {
		return nil, fmt.Errorf("cloud: machine %q already exists", id)
	}
	hw, err := sgx.NewMachine(sgx.MachineID(id), dc.Latency)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", id, err)
	}
	qe, err := attest.NewQuotingEnclave(hw, dc.Issuer)
	if err != nil {
		return nil, fmt.Errorf("quoting enclave %s: %w", id, err)
	}
	cred, err := dc.Provider.ProvisionME(id)
	if err != nil {
		return nil, fmt.Errorf("provision %s: %w", id, err)
	}
	me, err := core.NewMigrationEnclave(hw, qe, dc.IAS, cred, dc.Messenger, addr)
	if err != nil {
		return nil, fmt.Errorf("migration enclave %s: %w", id, err)
	}
	me.SetObserver(dc.obs.Load())
	m := &Machine{
		HW:       hw,
		Counters: pse.NewService(dc.Latency),
		QE:       qe,
		ME:       me,
		dc:       dc,
		meAddr:   addr,
		apps:     make(map[*App]struct{}),
	}
	dc.machines[id] = m
	return m, nil
}

// replicaAddr is the messenger address of a machine's counter replica.
func replicaAddr(machineID string) transport.Address {
	return transport.Address(machineID + "/ctr-replica")
}

// NewReplicaGroup builds a rack-scoped replicated counter group: a
// quorum of 2f+1 counter replicas, one on each named machine. The named
// machines switch their counter facility to the group, so every app
// launched (or migrated onto) them from now on gets quorum-backed,
// machine-failure-surviving counters; machines outside the group keep
// the plain per-machine service.
func (dc *DataCenter) NewReplicaGroup(name string, f int, machineIDs ...string) (*pserepl.Group, error) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, exists := dc.groups[name]; exists {
		return nil, fmt.Errorf("cloud: replica group %q already exists", name)
	}
	members := make([]*Machine, 0, len(machineIDs))
	for _, id := range machineIDs {
		m, ok := dc.machines[id]
		if !ok {
			return nil, fmt.Errorf("cloud: unknown machine %q", id)
		}
		members = append(members, m)
	}
	replicas := make([]*pserepl.Replica, 0, len(members))
	fail := func(err error) (*pserepl.Group, error) {
		for _, r := range replicas {
			r.Close()
		}
		return nil, err
	}
	for _, m := range members {
		m.mu.Lock()
		busy := m.replica != nil || m.group != nil
		down := m.killed
		m.mu.Unlock()
		if busy {
			// Hosting a replica, or merely rack-associated with another
			// group: a machine serves exactly one group's counters, ever —
			// re-wiring its facility would strand every counter its apps
			// created through the old one.
			return fail(fmt.Errorf("%w: %s", ErrHasReplica, m.ID()))
		}
		if down {
			return fail(fmt.Errorf("%w: %s", ErrMachineDown, m.ID()))
		}
		r, err := pserepl.NewReplica(m.ID(), m.HW, m.Counters, dc.Messenger, replicaAddr(m.ID()))
		if err != nil {
			return fail(fmt.Errorf("replica on %s: %w", m.ID(), err))
		}
		replicas = append(replicas, r)
	}
	g, err := pserepl.NewGroup(name, f, dc.Messenger, replicas...)
	if err != nil {
		return fail(err)
	}
	g.SetObserver(dc.obs.Load())
	for i, m := range members {
		m.mu.Lock()
		m.group, m.replica = g, replicas[i]
		m.mu.Unlock()
	}
	dc.groups[name] = g
	return g, nil
}

// ReplicaGroup returns a previously created replica group.
func (dc *DataCenter) ReplicaGroup(name string) (*pserepl.Group, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	g, ok := dc.groups[name]
	return g, ok
}

// DecommissionApp is the escrow garbage collector's operator entry
// point: it destroys a terminated app instance's replicated counters —
// the escrow binding counter and every app counter — and tombstones its
// escrow record on the named rack group, reclaiming the hard counter
// budget and store space the instance would otherwise leak forever.
// The tombstone is permanent and carried through snapshots and reseeds.
//
// Refused while an enclave with this escrow instance still runs
// anywhere in the data center (ErrInstanceAlive): decommissioning a
// live instance would destroy the counters out from under it.
func (dc *DataCenter) DecommissionApp(groupName string, img *sgx.Image, escrowID [16]byte) error {
	g, ok := dc.ReplicaGroup(groupName)
	if !ok {
		return fmt.Errorf("cloud: unknown replica group %q", groupName)
	}
	if live := dc.findInstance(escrowID); live != nil {
		return fmt.Errorf("%w: %s on %s", ErrInstanceAlive, live.Image().Name, live.Machine().ID())
	}
	return core.DecommissionEscrow(g, g.EscrowSealer(), img.Measure(), escrowID)
}

// HandoffReplica moves the counter-replica role hosted on machine srcID
// to machine dstID: a fresh replica on the destination is seeded from
// the quorum's state and swapped into the group, then the old replica is
// retired. This is how a machine that hosts a replica is drained without
// shrinking its group below 2f+1 (fleet runs it before moving enclaves).
// The destination also joins the rack: its counter facility becomes the
// group.
//
// dc.mu is held for the whole handoff (like NewReplicaGroup), so
// concurrent reconfigurations — two orchestrators draining onto the same
// destination, or a racing NewReplicaGroup — cannot both claim one
// machine between the availability check and the placement.
func (dc *DataCenter) HandoffReplica(srcID, dstID string) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	src, ok := dc.machines[srcID]
	if !ok {
		return fmt.Errorf("cloud: unknown machine %q", srcID)
	}
	dst, ok := dc.machines[dstID]
	if !ok {
		return fmt.Errorf("cloud: unknown machine %q", dstID)
	}
	src.mu.Lock()
	group, old := src.group, src.replica
	src.mu.Unlock()
	if old == nil {
		return fmt.Errorf("%w: %s", ErrNoReplica, srcID)
	}
	dst.mu.Lock()
	// The destination must be free of replica roles AND not already
	// rack-associated with a different group: switching a machine's
	// counter facility would strand every counter its apps created
	// through the old one.
	busy := dst.replica != nil || (dst.group != nil && dst.group != group)
	down := dst.killed
	dst.mu.Unlock()
	if busy {
		return fmt.Errorf("%w: %s", ErrHasReplica, dstID)
	}
	if down {
		return fmt.Errorf("%w: %s", ErrMachineDown, dstID)
	}
	rep, err := pserepl.NewReplica(dstID, dst.HW, dst.Counters, dc.Messenger, replicaAddr(dstID))
	if err != nil {
		return fmt.Errorf("replica on %s: %w", dstID, err)
	}
	if err := group.Handoff(srcID, rep); err != nil {
		rep.Close()
		return err
	}
	dst.mu.Lock()
	dst.group, dst.replica = group, rep
	dst.mu.Unlock()
	src.mu.Lock()
	src.replica = nil
	// The source keeps the group as its counter facility: it is still
	// rack-associated (apps that remain or return use the quorum), it
	// just no longer hosts a share of it.
	src.mu.Unlock()
	old.Close()
	return nil
}

// RecoverMachine is the restart-anywhere recovery path: it re-instantiates
// every escrowed enclave of the dead machine on the named rack peer, by
// fetching each escrowed Table II blob from the quorum, verifying its
// binding counter, and re-sealing it natively on the target's CPU
// (Machine.RecoverApp per app). Counters are untouched — they live in the
// rack's replicated group and survive the machine by construction (PR 3);
// this closes the other half: the library state blobs now survive too.
//
// The dead machine must actually be down (a recovery of a live machine
// would run two copies of every enclave — the binding counters would
// freeze the originals, but the operator asked for something wrong) and
// the target must belong to the same rack group (only peers share the
// escrow and the counter facility). Un-escrowed apps cannot be recovered
// and stay in the dead machine's LostApps manifest; a failed recovery
// leaves the app there too, so the call can be retried.
func (dc *DataCenter) RecoverMachine(deadID, targetID string) ([]*App, error) {
	dead, ok := dc.Machine(deadID)
	if !ok {
		return nil, fmt.Errorf("cloud: unknown machine %q", deadID)
	}
	target, ok := dc.Machine(targetID)
	if !ok {
		return nil, fmt.Errorf("cloud: unknown machine %q", targetID)
	}
	if dead.Alive() {
		return nil, fmt.Errorf("%w: %s", ErrMachineUp, deadID)
	}
	if !target.Alive() {
		return nil, fmt.Errorf("%w: %s", ErrMachineDown, targetID)
	}
	g := dead.Group()
	if g == nil || target.Group() != g {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNotRackPeer, deadID, targetID)
	}
	var recovered []*App
	var errs []error
	for _, la := range dead.LostApps() {
		if !la.Escrowed {
			continue // CPU-bound app: only Restart + InitRestore can bring it back
		}
		app, err := target.RecoverApp(la.Image, la.EscrowID)
		if err != nil {
			// Keep going: one unrecoverable app (e.g. frozen mid-migration)
			// must not block the recoverable ones behind it in the
			// manifest. Failed apps stay in LostApps for a retry.
			errs = append(errs, fmt.Errorf("recover %s on %s: %w", la.Image.Name, targetID, err))
			continue
		}
		dead.DropLost(la.EscrowID)
		recovered = append(recovered, app)
	}
	return recovered, errors.Join(errs...)
}

// Machine returns a previously added machine.
func (dc *DataCenter) Machine(id string) (*Machine, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	m, ok := dc.machines[id]
	return m, ok
}

// Machines returns every machine in the data center, sorted by ID.
func (dc *DataCenter) Machines() []*Machine {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	ms := make([]*Machine, 0, len(dc.machines))
	for _, m := range dc.machines {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID() < ms[j].ID() })
	return ms
}

// CounterFacility returns the counter service apps on this machine are
// wired to: the rack's replicated group when the machine belongs to one,
// the plain per-machine Platform Services manager otherwise.
func (m *Machine) CounterFacility() core.CounterService {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.group != nil {
		return m.group
	}
	return m.Counters
}

// HostsReplica reports whether the machine hosts a counter replica of a
// replicated group (fleet checks this before draining the machine).
func (m *Machine) HostsReplica() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replica != nil
}

// Group returns the replicated counter group this machine belongs to
// (nil when it serves plain per-machine counters).
func (m *Machine) Group() *pserepl.Group {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.group
}

// Alive reports whether the machine is up (not killed).
func (m *Machine) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.killed
}

// Kill powers the machine off abruptly (hardware failure, maintenance
// pull): every enclave — apps, QE, Migration Enclave, counter-replica
// agent — dies with its memory, and nothing can launch until Restart.
// Counters on the machine-local Platform Services facility are stranded
// while the machine is down; counters replicated through a group stay
// available from the surviving quorum, and escrowed library state can be
// resurrected on any rack peer (DataCenter.RecoverMachine). The manifest
// of lost apps is captured here, while their escrow IDs are still
// readable.
func (m *Machine) Kill() {
	m.mu.Lock()
	m.killed = true
	m.lost = m.lost[:0]
	for a := range m.apps {
		if !a.Enclave.Alive() {
			continue
		}
		la := LostApp{Image: a.image}
		la.EscrowID, la.Escrowed = a.Library.EscrowID()
		m.lost = append(m.lost, la)
	}
	// The manifest is rebuilt from a map; order it so every recovery
	// path (local, fleet, cross-DC) resurrects in a reproducible order —
	// chaos schedules replay bit-identically only if recoveries do.
	sort.Slice(m.lost, func(i, j int) bool { return m.lost[i].Image.Name < m.lost[j].Image.Name })
	m.mu.Unlock()
	m.HW.Restart()
}

// LostApps returns the manifest of apps that died in the machine's last
// Kill and have not been recovered yet.
func (m *Machine) LostApps() []LostApp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]LostApp(nil), m.lost...)
}

// DropLost removes one recovered app from the lost manifest (the cloud
// and fleet recovery paths call it after a successful resurrection).
func (m *Machine) DropLost(escrowID [16]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.lost {
		if m.lost[i].Escrowed && m.lost[i].EscrowID == escrowID {
			m.lost = append(m.lost[:i], m.lost[i+1:]...)
			return
		}
	}
}

// Restart boots the machine (back) up: any remaining enclaves are torn
// down (a reboot of a live machine), the Quoting Enclave and Migration
// Enclave are re-provisioned fresh (pending ME state died with its
// enclave memory, exactly the failure model the fleet layer assumes),
// and, if the machine hosts a counter replica, the replica's agent is
// reloaded and re-seeded from its group's quorum before it serves again.
// The CPU secret and the firmware counter state survive, as on real
// hardware.
func (m *Machine) Restart() error {
	m.HW.Restart()
	qe, err := attest.NewQuotingEnclave(m.HW, m.dc.Issuer)
	if err != nil {
		return fmt.Errorf("restart %s: quoting enclave: %w", m.ID(), err)
	}
	cred, err := m.dc.Provider.ProvisionME(m.ID())
	if err != nil {
		return fmt.Errorf("restart %s: provision: %w", m.ID(), err)
	}
	m.dc.Messenger.Unregister(m.meAddr)
	me, err := core.NewMigrationEnclave(m.HW, qe, m.dc.IAS, cred, m.dc.Messenger, m.meAddr)
	if err != nil {
		return fmt.Errorf("restart %s: migration enclave: %w", m.ID(), err)
	}
	me.SetObserver(m.dc.obs.Load())
	m.mu.Lock()
	m.QE, m.ME = qe, me
	m.killed = false
	replica, group := m.replica, m.group
	m.mu.Unlock()
	if replica != nil {
		if err := replica.Restart(); err != nil {
			return fmt.Errorf("restart %s: %w", m.ID(), err)
		}
		if err := group.Reseed(m.ID()); err != nil {
			// The machine is up but its replica stays unsynced (it will
			// not vote with stale values); re-run Reseed once enough of
			// the group is reachable.
			return fmt.Errorf("restart %s: %w", m.ID(), err)
		}
	}
	return nil
}

// App is a migratable application: its enclave instance, its Migration
// Library, and its untrusted storage for the sealed library blob.
type App struct {
	Enclave *sgx.Enclave
	Library *core.Library
	Storage *core.MemoryStorage

	machine *Machine
	image   *sgx.Image
}

// LaunchApp loads the application enclave on the machine and initializes
// its Migration Library in the given state. Storage may be shared across
// launches of the same app (it models the VM's disk, which travels with
// the VM during migration).
//
// On a rack-associated machine the library is wired to the rack's state
// escrow during the launch (the secure provisioning phase): its Table II
// blob is then escrowed with the quorum on every update, making the app
// recoverable on any rack peer after this machine dies.
func (m *Machine) LaunchApp(img *sgx.Image, storage *core.MemoryStorage, state core.InitState) (*App, error) {
	return m.launch(img, storage, func(lib *core.Library) error { return lib.Init(state, m.ME) })
}

// RestoreApp is LaunchApp(img, storage, core.InitMigrated) for the one
// incoming migration named by its done-token, rather than the oldest one
// pending for img's identity: the fleet's restore of a stream member.
func (m *Machine) RestoreApp(img *sgx.Image, storage *core.MemoryStorage, token []byte) (*App, error) {
	return m.launch(img, storage, func(lib *core.Library) error { return lib.InitMigratedToken(m.ME, token) })
}

// launch loads img's enclave, runs one of the library's entry calls
// (init, init from a named migration, recover) on it, and registers the app.
func (m *Machine) launch(img *sgx.Image, storage *core.MemoryStorage, enter func(*core.Library) error) (*App, error) {
	lib, e, err := m.prepareLibrary(img, storage)
	if err != nil {
		return nil, err
	}
	if err := enter(lib); err != nil {
		m.HW.Destroy(e)
		return nil, fmt.Errorf("start migration library: %w", err)
	}
	return m.registerApp(e, lib, storage, img), nil
}

// RecoverApp resurrects a dead rack peer's enclave on this machine from
// the rack escrow: the restart-anywhere path. escrowID names the lost
// instance (from the dead machine's LostApps manifest); the library
// fetches the escrowed blob from the quorum, verifies its binding
// counter, re-seals natively on this CPU, and continues with all
// counters — they live in the same replicated group — intact.
func (m *Machine) RecoverApp(img *sgx.Image, escrowID [16]byte) (*App, error) {
	return m.RecoverAppCtx(obs.TraceContext{}, img, escrowID)
}

// RecoverAppCtx is RecoverApp under a caller-supplied trace context, so
// the recovery's spans (lib.recover, escrow.get, binding.win) join the
// caller's trace instead of starting a fresh one.
func (m *Machine) RecoverAppCtx(tc obs.TraceContext, img *sgx.Image, escrowID [16]byte) (*App, error) {
	if live := m.dc.findInstance(escrowID); live != nil {
		return nil, fmt.Errorf("%w: %s on %s", ErrInstanceAlive, live.Image().Name, live.Machine().ID())
	}
	return m.launch(img, core.NewMemoryStorage(), func(lib *core.Library) error { return lib.RecoverCtx(tc, m.ME, escrowID) })
}

// prepareLibrary loads the enclave and builds its library with the
// machine's counter facility and — on rack-associated machines — the
// rack's escrow service and escrow key.
func (m *Machine) prepareLibrary(img *sgx.Image, storage *core.MemoryStorage) (*core.Library, *sgx.Enclave, error) {
	if !m.Alive() {
		return nil, nil, fmt.Errorf("%w: %s", ErrMachineDown, m.ID())
	}
	e, err := m.HW.Load(img)
	if err != nil {
		return nil, nil, fmt.Errorf("load app enclave: %w", err)
	}
	lib := core.NewLibrary(e, m.CounterFacility(), storage)
	lib.SetObserver(m.dc.obs.Load())
	if g := m.Group(); g != nil {
		lib.EnableEscrow(g, g.EscrowSealer())
	}
	return lib, e, nil
}

// findInstance returns a live app with the given escrow instance ID, or
// nil. The check is management-plane bookkeeping (fork-freedom of the
// counters never depends on it); it stops an operator from resurrecting
// an instance that is still running.
func (dc *DataCenter) findInstance(escrowID [16]byte) *App {
	for _, m := range dc.Machines() {
		for _, a := range m.Apps() {
			if id, ok := a.Library.EscrowID(); ok && id == escrowID {
				return a
			}
		}
	}
	return nil
}

// registerApp records a successfully initialized app on the machine.
func (m *Machine) registerApp(e *sgx.Enclave, lib *core.Library, storage *core.MemoryStorage, img *sgx.Image) *App {
	app := &App{Enclave: e, Library: lib, Storage: storage, machine: m, image: img}
	m.mu.Lock()
	m.apps[app] = struct{}{}
	m.mu.Unlock()
	return app
}

// Terminate destroys the app's enclave (application closed / crashed)
// and ends its library's session with the machine's Migration Enclave.
func (a *App) Terminate() {
	a.machine.mu.Lock()
	delete(a.machine.apps, a)
	a.machine.mu.Unlock()
	a.Library.Close()
	a.machine.HW.Destroy(a.Enclave)
}

// Machine returns the hosting machine.
func (a *App) Machine() *Machine { return a.machine }

// Image returns the enclave image the app was launched from.
func (a *App) Image() *sgx.Image { return a.image }
