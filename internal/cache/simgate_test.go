package cache_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"spco/internal/cache"
	"spco/internal/perf"
	"spco/internal/simmem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simgate_digest.golden from the current model")

// The sim-gate digest drives every profile variant through seeded
// access streams and records everything the model can be observed
// through: the per-access cycle sequence, cache.Stats, every PMU
// counter, the profiler's samples, the eviction matrix and a residency
// scan (a fingerprint of the contents). The golden was recorded at the
// commit before the hit fast path; a host-speed change to the model
// must reproduce it byte for byte. Rewrite it (-update) only for a
// change that means to alter modeled behaviour.

// Tagged regions. prq and umq are also designated network data on the
// variants that treat it specially; addresses past app are untagged.
var (
	regPRQ = simmem.Region{Base: 0x100000, Size: 64 << 10}
	regUMQ = simmem.Region{Base: 0x200040, Size: 32 << 10} // not page aligned
	regApp = simmem.Region{Base: 0x400000, Size: 1 << 20}
)

const untaggedBase = simmem.Addr(0x800000)

func tinyProfile() cache.Profile {
	return cache.Profile{
		Name:                 "tiny",
		ClockGHz:             1.0,
		Cores:                3,
		L1:                   cache.LevelConfig{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 4},
		L2:                   cache.LevelConfig{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LatencyCycles: 12},
		L3:                   cache.LevelConfig{Name: "L3", SizeBytes: 64 << 10, Ways: 8, LatencyCycles: 30, Shared: true},
		DRAMLatency:          200,
		DCUPrefetch:          true,
		AdjacentLinePrefetch: true,
		AdjacentPairPrefetch: true,
		StreamerDegree:       2,
		L3ContentionCycles:   10,
	}
}

type simVariant struct {
	name   string
	prof   cache.Profile
	heater bool
}

func simVariants() []simVariant {
	with := func(p cache.Profile, f func(*cache.Profile)) cache.Profile { f(&p); return p }
	tiny := tinyProfile()
	return []simVariant{
		{name: "sandybridge", prof: cache.SandyBridge},
		{name: "broadwell", prof: cache.Broadwell}, // 36864 L3 sets: the modulo index
		{name: "nehalem", prof: cache.Nehalem},
		{name: "knl", prof: cache.KNL},
		{name: "tiny", prof: tiny},
		{name: "tiny+heater", prof: tiny, heater: true},
		{name: "broadwell+heater", prof: cache.Broadwell, heater: true},
		{name: "tiny+tlb", prof: with(tiny, func(p *cache.Profile) { p.TLBEntries, p.TLBMissCycles = 8, 30 })},
		{name: "sandybridge+tlb", prof: with(cache.SandyBridge, func(p *cache.Profile) { p.TLBEntries, p.TLBMissCycles = 64, 26 })},
		{name: "tiny+netcache", prof: cache.WithNetworkCache(tiny, 2<<10)},
		{name: "sandybridge+netcache", prof: cache.WithNetworkCache(cache.SandyBridge, 64<<10)},
		{name: "tiny+partition", prof: with(tiny, func(p *cache.Profile) { p.L3PartitionWays = 2 })},
		{name: "broadwell+partition+heater", prof: with(cache.Broadwell, func(p *cache.Profile) { p.L3PartitionWays = 4 }), heater: true},
		{name: "tiny+hashindex", prof: with(tiny, func(p *cache.Profile) {
			p.L1.HashIndex, p.L2.HashIndex, p.L3.HashIndex = true, true, true
		})},
		{name: "tiny+modindex", prof: with(tiny, func(p *cache.Profile) {
			p.L1.SizeBytes, p.L2.SizeBytes, p.L3.SizeBytes = 6*2*64, 12*4*64, 100*8*64
		})},
		{name: "tiny-noprefetch", prof: with(tiny, func(p *cache.Profile) {
			p.DCUPrefetch, p.AdjacentLinePrefetch, p.AdjacentPairPrefetch, p.StreamerDegree = false, false, false, 0
		})},
		{name: "tiny+streamer4+tlb+netcache", prof: with(cache.WithNetworkCache(tiny, 4<<10), func(p *cache.Profile) {
			p.StreamerDegree, p.TLBEntries, p.TLBMissCycles = 4, 4, 17
		})},
	}
}

// xorshift64: the streams must not depend on a library's generator.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// driver feeds one hierarchy and folds every returned cycle count into
// an order-sensitive hash.
type driver struct {
	h      *cache.Hierarchy
	cycles uint64
	hash   uint64
	n      int // accesses issued; the profiler's segment is derived from it
}

func (d *driver) access(core int, addr simmem.Addr, size uint64) {
	cy := d.h.Access(core, addr, size)
	d.cycles += cy
	d.hash = (d.hash ^ cy) * 0x100000001b3
	d.n++
}

// A stream is a fixed op sequence over a driver.
type simStream struct {
	name string
	run  func(d *driver, v simVariant)
}

func simStreams() []simStream {
	return []simStream{
		{"same-line", streamSameLine},
		{"strided", streamStrided},
		{"random", streamRandom},
		{"mixed", streamMixed},
		{"hazards", streamHazards},
	}
}

// streamSameLine re-touches one line many times before moving on, with
// jumps back to earlier lines and to the buddy line.
func streamSameLine(d *driver, _ simVariant) {
	r := rng(0x5a17e11e)
	line := regPRQ.Base
	for i := 0; i < 6000; i++ {
		switch r.intn(16) {
		case 0:
			line += 64
		case 1:
			line = regPRQ.Base + simmem.Addr(r.intn(64))*64
		case 2:
			line ^= 64
		case 3:
			line = regUMQ.Base + simmem.Addr(r.intn(8))*4096
		}
		d.access(r.intn(8)/7, line+simmem.Addr(r.intn(56)), 8)
	}
}

// streamStrided walks the shapes the structures produce: packed 24-byte
// entries in 128-aligned nodes (twice, so the second pass hits), 16-byte
// entries, whole-line and page-plus-a-line strides that thrash the
// streamer's 16 trackers and the TLB, and a descending walk.
func streamStrided(d *driver, _ simVariant) {
	for pass := 0; pass < 2; pass++ {
		for node := 0; node < 96; node++ {
			base := regPRQ.Base + simmem.Addr(node*256)
			d.access(0, base, 8)
			for e := 0; e < 8; e++ {
				d.access(0, base+simmem.Addr(8+e*24), 24)
			}
			d.access(0, base+simmem.Addr(8+8*24), 8)
		}
	}
	for node := 0; node < 64; node++ {
		base := regUMQ.Base + simmem.Addr(node*256)
		d.access(0, base, 8)
		for e := 0; e < 12; e++ {
			d.access(0, base+simmem.Addr(8+e*16), 16)
		}
	}
	for i := 0; i < 3000; i++ {
		d.access(0, regApp.Base+simmem.Addr(i*64), 8)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 40; i++ {
			d.access(1, regApp.Base+simmem.Addr(i*(4096+64)), 4)
		}
	}
	for i := 2000; i >= 0; i -= 3 {
		d.access(0, untaggedBase+simmem.Addr(i*64), 64)
	}
	for i := 0; i < 1500; i++ {
		d.access(0, untaggedBase+simmem.Addr(i*40), 40) // straddles lines
	}
}

// randomAddr draws from the tagged regions and the untagged tail, with
// half the draws near the previous address.
func randomAddr(r *rng, prev simmem.Addr) simmem.Addr {
	if r.intn(2) == 0 {
		return prev + simmem.Addr(r.intn(512)) - 128
	}
	switch r.intn(4) {
	case 0:
		return regPRQ.Base + simmem.Addr(r.intn(int(regPRQ.Size)))
	case 1:
		return regUMQ.Base + simmem.Addr(r.intn(int(regUMQ.Size)))
	case 2:
		return regApp.Base + simmem.Addr(r.intn(int(regApp.Size)))
	}
	return untaggedBase + simmem.Addr(r.intn(256<<10))
}

func streamRandom(d *driver, _ simVariant) {
	r := rng(0xc0ffee11)
	addr := regPRQ.Base
	for i := 0; i < 20000; i++ {
		addr = randomAddr(&r, addr)
		d.access(r.intn(2), addr, uint64(r.intn(131)))
	}
}

// streamMixed interleaves demand accesses with everything else that
// mutates the model: heater touches, both flushes, network
// (un)designation and owner (un)tagging. Tags stay disjoint, as the
// engine's are: a hole is cut out of prq and later re-tagged whole.
func streamMixed(d *driver, v simVariant) {
	r := rng(0x0ddba11)
	addr := regUMQ.Base
	var hole simmem.Region
	for i := 0; i < 20000; i++ {
		switch op := r.intn(200); {
		case op < 4:
			d.h.HeaterTouch(r.intn(3), regPRQ.Base+simmem.Addr(r.intn(32<<10)), uint64(1+r.intn(4096)))
		case op == 4:
			d.h.Flush()
		case op == 5:
			d.h.FlushPrivate(r.intn(2))
		case op == 6 && hole.Size == 0:
			hole = simmem.Region{Base: regPRQ.Base + simmem.Addr(r.intn(60<<10)), Size: uint64(1 + r.intn(4096))}
			d.h.UndesignateNetwork(hole)
			d.h.UntagOwner(hole)
		case op == 7 && hole.Size > 0:
			d.h.DesignateNetwork(hole)
			d.h.TagOwner("prq2", hole)
			hole = simmem.Region{}
		case op == 8 && v.heater:
			d.h.SetHeaterActive(!d.h.HeaterActive())
		default:
			addr = randomAddr(&r, addr)
			d.access(r.intn(2), addr, uint64(r.intn(70)))
		}
	}
}

// streamHazards replays the sequences a "same line as last time"
// shortcut could get wrong: the line leaves L1 between two touches
// (flushes, a heater sweep over its set, another core, undesignation)
// or comes back by a different route.
func streamHazards(d *driver, _ simVariant) {
	r := rng(0xbadcab1e)
	for round := 0; round < 400; round++ {
		x := regPRQ.Base + simmem.Addr(r.intn(512))*64 + simmem.Addr(r.intn(40))
		core := r.intn(2)
		d.access(core, x, 8)
		d.access(core, x, 8)
		switch round % 8 {
		case 0:
			d.h.Flush()
			d.h.HeaterTouch(core, x, 8)
		case 1:
			d.h.FlushPrivate(core)
		case 2:
			d.access(1-core, x, 8)
			d.access(1-core, x+64, 8)
		case 3:
			sub := simmem.Region{Base: x - simmem.Addr(x%64), Size: 128}
			d.h.UndesignateNetwork(sub)
			d.access(core, x, 8)
			d.h.DesignateNetwork(sub)
		case 4:
			// Sweep lines that share x's low index bits through this core.
			for k := 1; k <= 24; k++ {
				d.h.HeaterTouch(core, x+simmem.Addr(k*4096), 8)
			}
		case 5:
			for k := 1; k <= 24; k++ {
				d.access(core, x+simmem.Addr(k*4096), 8)
			}
		case 6:
			d.h.ResetStats()
			d.h.HeaterTouch(core, x, 200)
		case 7:
			d.access(core, x+64, 8)
			d.access(core, x, 8)
			d.access(core, x+128, 130)
		}
		d.access(core, x, 8)
		d.access(core, x+24, 24)
		d.access(core, x+48, 24)
	}
}

// runSim builds a hierarchy for v and drives s over it. instrumented
// attaches the PMU (sampling profiler included) and residency tracking.
func runSim(v simVariant, s simStream, instrumented bool) (*driver, *perf.PMU) {
	d := &driver{h: cache.New(v.prof), hash: 0xcbf29ce484222325}
	var pmu *perf.PMU
	if instrumented {
		pmu = perf.New(perf.Options{SampleInterval: 997, SpanCapacity: -1, Experiment: "simgate"})
		pmu.SetSegFunc(func() int { return d.n/64%40 - 1 })
		d.h.AttachProbe(pmu)
		d.h.EnableResidencyTracking()
		d.h.TagOwner("prq", regPRQ)
		d.h.TagOwner("umq", regUMQ)
		d.h.TagOwner("app", regApp)
	}
	d.h.DesignateNetwork(regPRQ)
	d.h.DesignateNetwork(regUMQ)
	d.h.SetHeaterActive(v.heater)
	s.run(d, v)
	return d, pmu
}

func simDigest() []byte {
	var b bytes.Buffer
	for _, v := range simVariants() {
		for _, s := range simStreams() {
			fmt.Fprintf(&b, "== %s / %s\n", v.name, s.name)
			bare, _ := runSim(v, s, false)
			fmt.Fprintf(&b, "bare   cycles %d seq %016x stats %+v\n", bare.cycles, bare.hash, bare.h.Stats())
			d, pmu := runSim(v, s, true)
			fmt.Fprintf(&b, "probed cycles %d seq %016x stats %+v\n", d.cycles, d.hash, d.h.Stats())
			fmt.Fprintf(&b, "pmu %+v\n", pmu.Totals())
			fmt.Fprintf(&b, "profile %s\n", strings.ReplaceAll(strings.TrimSpace(pmu.Profiler().Folded()), "\n", " | "))
			m := d.h.EvictionMatrix()
			keys := make([]cache.EvictionKey, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, c := keys[i], keys[j]
				if a.Level != c.Level {
					return a.Level < c.Level
				}
				if a.By != c.By {
					return a.By < c.By
				}
				return a.Of < c.Of
			})
			b.WriteString("evictions")
			for _, k := range keys {
				fmt.Fprintf(&b, " %s:%s>%s=%d", k.Level, k.By, k.Of, m[k])
			}
			b.WriteString("\nresidency")
			for _, r := range d.h.ScanResidency() {
				fmt.Fprintf(&b, " %+v", r)
			}
			b.WriteString("\n")
		}
	}
	return b.Bytes()
}

func TestSimGateDigestGolden(t *testing.T) {
	const path = "testdata/simgate_digest.golden"
	got := simDigest()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("digest differs from the golden in %q, line %d:\n got: %s\nwant: %s", section, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("digest has %d lines, the golden %d", len(gl), len(wl))
}
