package main

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pserepl"
	"repro/internal/sgx"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/xcrypto"
)

// env is what a phase needs besides its inputs: the tracer (nil in the
// untraced run, which is where every end-to-end number comes from).
type env struct {
	tr *tracer
}

var signerKey = func() ed25519.PublicKey {
	k := xcrypto.DeriveKey([]byte("repro/benchmark"), "app-signer")
	return ed25519.PublicKey(k[:])
}()

func appImage(name string) *sgx.Image {
	return &sgx.Image{Name: name, Version: 1, Code: []byte("benchmark:" + name), SignerPublicKey: signerKey}
}

// newDC builds a data center the way a library user does: the default
// in-memory network, observer nil. In the traced run the public
// Messenger handed to the data center is wrapped by a probe.
func (e env) newDC(name string, scale float64) (*cloud.DataCenter, *probeMessenger, error) {
	lat := sim.NewLatency(scale)
	if e.tr == nil {
		dc, err := cloud.NewDataCenter(name, lat)
		return dc, nil, err
	}
	probe := &probeMessenger{inner: transport.NewNetwork(lat), tr: e.tr}
	dc, err := cloud.NewDataCenterWithNetwork(name, lat, probe)
	return dc, probe, err
}

func addMachines(dc *cloud.DataCenter, ids ...string) ([]*cloud.Machine, error) {
	out := make([]*cloud.Machine, 0, len(ids))
	for _, id := range ids {
		m, err := dc.AddMachine(id)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// drainWorld is the two-site federation both drain workloads run on:
// 3+3 machines, a 200 ms / 1 GiB/s link, provisioned at scale 0.
type drainWorld struct {
	fed      *federation.Federation
	dcA, dcB *cloud.DataCenter
	link     *transport.WANLink
	a1       *cloud.Machine
	remotes  []fleet.RemoteTarget
	observer *obs.Observer
	meter    *fleet.Meter
	probes   []*probeMessenger
}

const (
	drainLinkRTT       = 200 * time.Millisecond
	drainLinkBandwidth = 1 << 30
)

// newDrainWorld wires telemetry as cmd/fleetd does — network ->
// fleet.Meter sharing the observer's registry -> data center, then
// SetObserver — because fleetd has no off switch, so that is the path an
// operator runs. (fleetd's analyze.Plane only reads the observer after
// the plan, so it is not part of the wiring.) observed=false leaves
// every observer nil (the obs-overhead comparison).
func (e env) newDrainWorld(name string, observed bool) (*drainWorld, error) {
	w := &drainWorld{fed: federation.New(name)}
	if observed {
		w.observer = obs.NewObserver()
		if e.tr != nil {
			// The traced pass reads whole-round span sets back out of the
			// observer; the shipped 64k-span ring would shed most of them.
			w.observer.Tracer.SetCapacity(0)
		}
		w.fed.SetObserver(w.observer)
	}
	build := func(dcName, prefix string) (*cloud.DataCenter, error) {
		lat := sim.NewLatency(0)
		var msgr transport.Messenger = transport.NewNetwork(lat)
		if observed {
			meter := fleet.NewMeterWithMetrics(msgr, w.observer.Metrics)
			if w.meter == nil {
				w.meter = meter
			}
			msgr = meter
		}
		if e.tr != nil {
			probe := &probeMessenger{inner: msgr, tr: e.tr}
			w.probes = append(w.probes, probe)
			msgr = probe
		}
		dc, err := cloud.NewDataCenterWithNetwork(dcName, lat, msgr)
		if err != nil {
			return nil, err
		}
		if observed {
			dc.SetObserver(w.observer)
		}
		if _, err := addMachines(dc, prefix+"1", prefix+"2", prefix+"3"); err != nil {
			return nil, err
		}
		return dc, w.fed.Admit(dc)
	}
	var err error
	if w.dcA, err = build(name+"-a", "a"); err != nil {
		return nil, err
	}
	if w.dcB, err = build(name+"-b", "b"); err != nil {
		return nil, err
	}
	w.link, err = w.fed.Connect(w.dcA.Name(), w.dcB.Name(), transport.WANConfig{
		RTT: drainLinkRTT, Bandwidth: drainLinkBandwidth,
	})
	if err != nil {
		return nil, err
	}
	w.a1, _ = w.dcA.Machine("a1")
	for _, m := range w.dcB.Machines() {
		w.remotes = append(w.remotes, fleet.RemoteTarget{Machine: m, Link: w.link.Name()})
	}
	return w, nil
}

// setScale switches the three latency models of the federation.
func (w *drainWorld) setScale(scale float64) {
	w.dcA.Latency.SetScale(scale)
	w.dcB.Latency.SetScale(scale)
	w.link.Latency().SetScale(scale)
}

// simTotals is the modeled-cost accounting of a set of latency models.
type simTotals struct {
	virtual                              time.Duration
	ecalls, counterOps, netRTTs, wanHops int
}

func simTotalsOf(lats ...*sim.Latency) simTotals {
	var t simTotals
	for _, l := range lats {
		t.virtual += l.VirtualTotal()
		c := l.Counts()
		t.ecalls += c[sim.OpECall]
		t.counterOps += c[sim.OpCounterCreate] + c[sim.OpCounterRead] + c[sim.OpCounterIncrement] + c[sim.OpCounterDestroy]
		t.netRTTs += c[sim.OpNetworkRTT]
		t.wanHops += c[sim.OpWANHop]
	}
	return t
}

func (t simTotals) minus(o simTotals) simTotals {
	return simTotals{t.virtual - o.virtual, t.ecalls - o.ecalls, t.counterOps - o.counterOps, t.netRTTs - o.netRTTs, t.wanHops - o.wanHops}
}

func (w *drainWorld) sim() simTotals {
	return simTotalsOf(w.dcA.Latency, w.dcB.Latency, w.link.Latency())
}

// rackWorld is an f=1 rack: three machines in one replica group, which
// also turns the rack's state escrow on for every app launched there.
type rackWorld struct {
	dc    *cloud.DataCenter
	group *pserepl.Group
	host  *cloud.Machine
	peer  *cloud.Machine
	probe *probeMessenger
}

func (e env) newRackWorld(name string) (*rackWorld, error) {
	dc, probe, err := e.newDC(name, 0)
	if err != nil {
		return nil, err
	}
	ms, err := addMachines(dc, "rack-0", "rack-1", "rack-2")
	if err != nil {
		return nil, err
	}
	group, err := dc.NewReplicaGroup("rack", 1, "rack-0", "rack-1", "rack-2")
	if err != nil {
		return nil, fmt.Errorf("replica group: %w", err)
	}
	return &rackWorld{dc: dc, group: group, host: ms[0], peer: ms[1], probe: probe}, nil
}
