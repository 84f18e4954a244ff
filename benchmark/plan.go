package main

import (
	"math"
	"math/rand"
)

// sizes fixes how much work each phase of a run does. Op counts are a
// pure function of the focus workload and -seconds, never of elapsed
// time, so two commits measured with the same arguments do identical
// work.
type sizes struct {
	LibRounds                                              int
	LibInc, LibRead, LibPairs, LibSmall, LibLarge, LibInit int

	MigIters int

	DrainRounds, DrainWidth int
	RTTRounds, RTTWidth     int

	RackRounds, RackOps int
}

// Rounds (chunks of migrateChunk migrations for migrate, of recycleRounds
// rounds for rack) per second of -seconds, calibrated on the 2-core
// reference host so that the timed sections of a run add up to about
// -seconds. focus is the size of the workload the run is about; ref the
// size of a phase that only supplies the metrics the focus workload does
// not produce, which is also the size of every phase in the traced pass.
var perSecond = map[string]struct{ focus, ref float64 }{
	wLibops:   {45, 16},
	wMigrate:  {3.2, 1.2},
	wDrain:    {1.4, 0.6},
	wDrainRTT: {0.4, 0.1},
	wRack:     {4.4, 2.4},
}

// recycleRounds is how many rack rounds share one data center: every
// round leaves its app counter and escrow binding counter behind, and a
// rack has a 256-counter budget per enclave identity.
const recycleRounds = 50

// migrateChunk is how many sequential migrations form one "round" of the
// migrate workload (GC runs between rounds, quartiles are across them).
const migrateChunk = 250

// phaseOrder is the order in which a run executes its phases.
var phaseOrder = []string{wLibops, wMigrate, wRack, wDrain, wDrainRTT}

// phasesFor lists the phases a run of the focus workload executes: the
// focus itself, and for every end-to-end metric it does not produce the
// metric's first home workload. (For drain-rtt that leaves the drain
// phase out, for drain the migrate phase.) The traced pass runs every
// phase but the other drain, so that every per-layer row has a source.
func phasesFor(focus string, traced bool) []string {
	need := map[string]bool{focus: true}
	for _, m := range endToEnd {
		if !m.homeOf(focus) {
			need[m.Home[0]] = true
		}
	}
	if traced {
		need[wLibops], need[wMigrate], need[wRack] = true, true, true
	}
	var out []string
	for _, p := range phaseOrder {
		if need[p] {
			out = append(out, p)
		}
	}
	return out
}

// sizesFor sizes a run. An empty focus gives every phase its reference
// size (the traced pass).
func sizesFor(focus string, seconds int, quick bool) sizes {
	if quick {
		return sizes{
			LibRounds: 2, LibInc: 20, LibRead: 20, LibPairs: 4, LibSmall: 20, LibLarge: 2, LibInit: 2,
			MigIters:    6,
			DrainRounds: 1, DrainWidth: 12,
			RTTRounds: 1, RTTWidth: 8,
			RackRounds: 3, RackOps: 4,
		}
	}
	n := func(phase string, floor int) int {
		r := perSecond[phase].ref
		if phase == focus {
			r = perSecond[phase].focus
		}
		return max(floor, int(math.Round(r*float64(seconds))))
	}
	sz := sizes{
		LibRounds: n(wLibops, 8),
		LibInc:    1000, LibRead: 1000, LibPairs: 200, LibSmall: 1000, LibLarge: 50, LibInit: 20,
		MigIters:    n(wMigrate, 2) * migrateChunk,
		DrainRounds: n(wDrain, 2), DrainWidth: 2000,
		RTTRounds: n(wDrainRTT, 1), RTTWidth: 1000,
		RackRounds: n(wRack, 1) * recycleRounds, RackOps: 50,
	}
	if focus == "" {
		// A traced rack round records some 700 spans (every quorum send
		// and its handler); a tenth of the reference size keeps the span
		// file in the megabytes.
		sz.RackRounds = max(recycleRounds, sz.RackRounds/10)
	}
	return sz
}

// refSlices is how many slices a reference phase of libops, migrate or
// rack runs in, dealt around the run's other phases. On the reference
// host the speed of calls that allocate (the create/destroy pairs, the
// seals) moves by several percent over seconds with a neighbour's memory
// traffic; a two-second phase caught one state of it. Three slices six
// seconds apart see three.
const refSlices = 3

// slice returns the sizes of one of k slices of the sliced phases, whole
// chunks each, at least the whole's k-th part.
func (sz sizes) slice(k int) sizes {
	part := func(n, chunk int) int {
		if n < chunk {
			return (n + k - 1) / k
		}
		chunks := n / chunk
		return (chunks + k - 1) / k * chunk
	}
	sz.LibRounds = part(sz.LibRounds, 1)
	sz.MigIters = part(sz.MigIters, migrateChunk)
	sz.RackRounds = part(sz.RackRounds, recycleRounds)
	return sz
}

// inputPlan is every seeded input of a run (of one slice of it, where
// reference phases run in slices). The program under test receives only
// these; the same seed and sizes give the same plan byte for byte. Each
// phase draws from its own stream, so resizing one phase does not shift
// another's inputs.
type inputPlan struct {
	Seed int64
	// libops: the sealed payloads and their additional MAC text, and per
	// world (libWorldRounds rounds) the sizes of the allocations made ahead
	// of it, which move where its objects land.
	Small, Large, AAD []byte
	LibPad            [][]uint16
	// migrate: per migration, the increments applied to each of its 1-4
	// counters before it moves.
	Migrate [][]uint8
	// drain: per round (warm-up first), per enclave, the increments of
	// each of its 0-2 counters.
	Drain [][][]uint8
	// drain-rtt: per round (warm-up first), per enclave, the increments of
	// its one counter.
	DrainRTT [][][]uint8
	// rack: per round, untimed increments applied before the timed ones.
	Rack []uint8
}

func stream(seed int64, phase string, slice int) *rand.Rand {
	h := seed
	for _, c := range phase {
		h = h*1099511628211 + int64(c)
	}
	h = h*1099511628211 + int64(slice)
	return rand.New(rand.NewSource(h))
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func counts(r *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(1 + r.Intn(7))
	}
	return out
}

// strata returns n values cycling through lo..hi in a seeded order: every
// seed gives the same mix (so the work of a run does not depend on the
// seed's luck), only who gets which value differs.
func strata(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i%(hi-lo+1)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newPlan generates the inputs of one slice of a run (slice 0 where a
// phase runs whole).
func newPlan(seed int64, sz sizes, slice int) *inputPlan {
	p := &inputPlan{Seed: seed}

	r := stream(seed, wLibops, slice)
	p.Small, p.Large, p.AAD = randBytes(r, 100), randBytes(r, 100*1024), randBytes(r, 16)
	p.LibPad = make([][]uint16, sz.LibRounds/libWorldRounds+1)
	for i := range p.LibPad {
		p.LibPad[i] = make([]uint16, r.Intn(200))
		for j := range p.LibPad[i] {
			p.LibPad[i][j] = 8 << r.Intn(10)
		}
	}

	r = stream(seed, wMigrate, slice)
	p.Migrate = make([][]uint8, sz.MigIters)
	for i, c := range strata(r, sz.MigIters, 1, 4) {
		p.Migrate[i] = counts(r, c)
	}

	r = stream(seed, wDrain, slice)
	p.Drain = make([][][]uint8, sz.DrainRounds+1) // +1: the discarded warm-up round
	for i := range p.Drain {
		p.Drain[i] = make([][]uint8, sz.DrainWidth)
		for j, c := range strata(r, sz.DrainWidth, 0, 2) {
			p.Drain[i][j] = counts(r, c)
		}
	}

	r = stream(seed, wDrainRTT, slice)
	p.DrainRTT = make([][][]uint8, sz.RTTRounds+1) // +1: the warm-up round, a quarter as wide
	for i := range p.DrainRTT {
		width := sz.RTTWidth
		if i == 0 {
			width = max(1, width/4)
		}
		p.DrainRTT[i] = make([][]uint8, width)
		for j := range p.DrainRTT[i] {
			p.DrainRTT[i][j] = counts(r, 1)
		}
	}

	r = stream(seed, wRack, slice)
	p.Rack = make([]uint8, sz.RackRounds+1) // +1: warm-up
	for i := range p.Rack {
		p.Rack[i] = uint8(r.Intn(4))
	}
	return p
}
