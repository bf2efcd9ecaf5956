// Package cache implements a cycle-accounting simulator of an x86 cache
// hierarchy: private L1/L2 per core, an optional shared L3, true-LRU
// set-associative levels, and the three hardware prefetchers whose
// interplay the paper's spatial-locality results hinge on:
//
//   - the L1 DCU next-line prefetcher,
//   - the L2 adjacent-cache-line ("buddy" / spatial pair) prefetcher, and
//   - the L2 streamer.
//
// A demand access costs the load-to-use latency of the level where it
// hits; prefetched lines are filled in the background so a later demand
// access to them hits close to the core. With 24-byte match entries
// (2 per 64-byte line) this yields the paper's observation that one
// demand load effectively fetches 4 lines — 8 entries — which is why the
// linked-list-of-arrays sweep plateaus at 8 entries per node.
//
// The simulator is deterministic: identical access sequences produce
// identical cycle counts. It is not safe for concurrent use; the matching
// engine serialises access to it.
package cache

import (
	"fmt"

	"spco/internal/simmem"
)

// LineSize mirrors simmem.LineSize; all modeled machines use 64 B lines.
const LineSize = simmem.LineSize

// pageSize bounds prefetcher streams: hardware prefetchers do not cross
// 4 KiB page boundaries.
const pageSize = 4096

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name          string
	SizeBytes     int  // total capacity; 0 means the level is absent
	Ways          int  // associativity
	LatencyCycles int  // load-to-use latency on a hit at this level
	Shared        bool // shared across cores (true for L3)

	// HashIndex selects a hashed set index instead of the usual
	// modulo of the line address. Commodity caches index by low bits,
	// which strided match-queue nodes systematically under-use; the
	// proposed dedicated network cache hashes so its whole capacity
	// serves the queues (the AblationNetCacheSize benchmark shows the
	// difference).
	HashIndex bool
}

// Sets returns the number of sets implied by the configuration.
func (c LevelConfig) Sets() int {
	if c.SizeBytes == 0 {
		return 0
	}
	return c.SizeBytes / (c.Ways * LineSize)
}

// Validate checks internal consistency.
func (c LevelConfig) Validate() error {
	if c.SizeBytes == 0 {
		return nil
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache level %s: ways must be positive", c.Name)
	}
	if c.SizeBytes%(c.Ways*LineSize) != 0 {
		return fmt.Errorf("cache level %s: size %d not divisible by ways*linesize", c.Name, c.SizeBytes)
	}
	if c.LatencyCycles <= 0 {
		return fmt.Errorf("cache level %s: latency must be positive", c.Name)
	}
	return nil
}

// Profile describes a full machine: clock, core count, cache levels,
// memory latency, prefetcher complement, and the heater-interference
// parameters used by the hot-caching experiments.
type Profile struct {
	Name     string
	ClockGHz float64
	Cores    int

	L1, L2, L3  LevelConfig
	DRAMLatency int // cycles for a load serviced by memory

	// Prefetchers.
	//
	// DCUPrefetch is the L1 next-line unit (promotes lines already in
	// an outer level). AdjacentLinePrefetch completes the aligned 128 B
	// line pair on an L2 miss. AdjacentPairPrefetch is the specialized
	// unit the paper's Section 4.2 analysis identifies: on an L2 miss
	// it fetches the *next* aligned 128 B pair, so one demand load
	// gathers 4 lines — 8 packed entries — the arithmetic behind the
	// 8-entries-per-node performance peak. StreamerDegree is the number
	// of lines the L2 streamer prefetches past an L2 miss that extends
	// an ascending unit-stride run (real streamers train on all
	// accesses; issuing only on misses is the modeled simplification
	// that keeps them from outrunning the pair units).
	DCUPrefetch          bool
	AdjacentLinePrefetch bool
	AdjacentPairPrefetch bool
	StreamerDegree       int

	// L3ContentionCycles is added to every demand L3 access while a
	// heater thread is sweeping: the heater consumes L3 bandwidth and,
	// on architectures with a decoupled cache clock (Haswell/Broadwell),
	// the penalty is larger. This is the physical parameter behind the
	// paper's Sandy Bridge vs Broadwell hot-caching sign flip.
	L3ContentionCycles int

	// NetworkCache, when configured, adds the hardware the paper's
	// conclusions propose (Sections 4.6 and 6): a dedicated cache for
	// network-processing data. Lines inside designated regions are
	// cached here; the structure survives compute phases (ordinary
	// traffic cannot evict it), giving semi-permanent occupancy without
	// a heater thread, its locks, or its interference. Absent by
	// default — no shipping x86 part has one.
	NetworkCache LevelConfig

	// TLBEntries enables a per-core data-TLB model: a fully associative
	// LRU table of that many 4 KiB page translations. A miss adds
	// TLBMissCycles (a partially-cached page walk) to the access. Zero
	// disables the model; the paper's calibrations were made without it,
	// so it is an ablation knob (scattered baseline nodes span far more
	// pages than packed LLA nodes, compounding their locality penalty).
	TLBEntries    int
	TLBMissCycles int

	// L3PartitionWays reserves that many ways of every L3 set for
	// designated network regions — the paper's other Section 4.6
	// proposal ("a cache partition"), realisable today with Intel
	// CAT-style way masking: ordinary traffic allocates only in the
	// remaining ways, so compute phases cannot evict the match queues,
	// while designated lines still pay the L3's ordinary hit latency.
	// Zero disables partitioning.
	L3PartitionWays int
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("profile %s: cores must be positive", p.Name)
	}
	if p.L3PartitionWays < 0 || (p.L3PartitionWays > 0 && p.L3PartitionWays >= p.L3.Ways) {
		return fmt.Errorf("profile %s: L3 partition of %d ways must leave ordinary ways (L3 has %d)",
			p.Name, p.L3PartitionWays, p.L3.Ways)
	}
	if p.ClockGHz <= 0 {
		return fmt.Errorf("profile %s: clock must be positive", p.Name)
	}
	if p.DRAMLatency <= 0 {
		return fmt.Errorf("profile %s: DRAM latency must be positive", p.Name)
	}
	for _, lc := range []LevelConfig{p.L1, p.L2, p.L3} {
		if err := lc.Validate(); err != nil {
			return fmt.Errorf("profile %s: %w", p.Name, err)
		}
	}
	if p.L1.SizeBytes == 0 || p.L2.SizeBytes == 0 {
		return fmt.Errorf("profile %s: L1 and L2 are required", p.Name)
	}
	return nil
}

// CyclesToNanos converts a cycle count to nanoseconds at this profile's
// core clock.
func (p Profile) CyclesToNanos(cycles uint64) float64 {
	return float64(cycles) / p.ClockGHz
}

// NanosToCycles converts nanoseconds to cycles, rounding to nearest.
func (p Profile) NanosToCycles(ns float64) uint64 {
	return uint64(ns*p.ClockGHz + 0.5)
}

// Stats aggregates hierarchy activity.
type Stats struct {
	Accesses      uint64 // demand accesses (line-granular)
	L1Hits        uint64
	L2Hits        uint64
	L3Hits        uint64
	DRAMLoads     uint64
	Cycles        uint64 // total demand cycles
	Prefetches    uint64 // prefetch fills issued
	PrefHits      uint64 // demand hits on lines a prefetcher brought in
	NCHits        uint64 // demand hits in the dedicated network cache
	TLBMisses     uint64 // data-TLB misses (when the TLB model is on)
	HeaterTouches uint64
}

// HitRate returns the fraction of demand accesses served by any cache level.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Accesses-s.DRAMLoads) / float64(s.Accesses)
}

// Sub returns s - o field-by-field, for measuring deltas around a phase.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:      s.Accesses - o.Accesses,
		L1Hits:        s.L1Hits - o.L1Hits,
		L2Hits:        s.L2Hits - o.L2Hits,
		L3Hits:        s.L3Hits - o.L3Hits,
		DRAMLoads:     s.DRAMLoads - o.DRAMLoads,
		Cycles:        s.Cycles - o.Cycles,
		Prefetches:    s.Prefetches - o.Prefetches,
		PrefHits:      s.PrefHits - o.PrefHits,
		NCHits:        s.NCHits - o.NCHits,
		TLBMisses:     s.TLBMisses - o.TLBMisses,
		HeaterTouches: s.HeaterTouches - o.HeaterTouches,
	}
}

// noLine is the line number no access can have (addresses are below
// 2^64, so lines are below 2^58): an empty way's tag, and a core's
// lastLine when it has none.
const noLine = ^uint64(0)

// evictHook observes a capacity eviction: a fill of incoming displaced
// victim. The prefetched bits report how the incoming line is being
// filled and whether the victim was an unused prefetch.
type evictHook func(incoming, victim uint64, incomingPrefetched, victimPrefetched bool)

// indexMode is how a level maps a line to its set, fixed at construction.
type indexMode uint8

const (
	indexMask indexMode = iota // power-of-two set count: the line's low bits
	indexMod                   // any other set count
	indexHash                  // LevelConfig.HashIndex
)

// level is a true-LRU set-associative cache.
type level struct {
	ways  int
	nsets uint64
	mode  indexMode

	// The ways of every allocated set, back to back, one array per
	// field so that the tag search reads 8 bytes a way: lines holds the
	// tags (noLine = empty way), lastUse the LRU stamps, prefetched the
	// "filled by a prefetcher, no demand hit yet" bits. base[s] is the
	// index of set s's first way. A set is allocated on its first fill,
	// so a large L3 (16 K sets) costs 4 bytes a set until used, which
	// keeps per-rank hierarchies affordable when application studies
	// instantiate hundreds of engines. Until then base[s] is 0: ways
	// [0, ways) are a shared set that stays empty, so lookups need no
	// "allocated?" branch.
	base       []uint32
	lines      []uint64
	lastUse    []uint64
	prefetched []bool

	// mru is the index of the way the latest demand hit or demand fill
	// used. It is only a hint: find verifies it against the tag before
	// trusting it, so a stale value costs a set walk, never a wrong
	// answer.
	mru uint32

	tick uint64

	// onEvict, when set, observes capacity evictions. Nil unless the
	// hierarchy's residency tracking or PMU probe is enabled, so the
	// disabled cost is one nil check.
	onEvict evictHook
}

func newLevel(cfg LevelConfig) *level {
	n := cfg.Sets()
	if n == 0 {
		return nil
	}
	l := &level{ways: cfg.Ways, nsets: uint64(n), mode: indexMod, base: make([]uint32, n)}
	switch {
	case cfg.HashIndex:
		l.mode = indexHash
	case n&(n-1) == 0:
		l.mode = indexMask
	}
	l.allocSet() // the shared empty set
	return l
}

// allocSet appends one empty set and returns the index of its first way.
func (l *level) allocSet() int {
	b := len(l.lines)
	for i := 0; i < l.ways; i++ {
		l.lines = append(l.lines, noLine)
	}
	l.lastUse = append(l.lastUse, make([]uint64, l.ways)...)
	l.prefetched = append(l.prefetched, make([]bool, l.ways)...)
	return b
}

func (l *level) setIndex(line uint64) uint64 {
	switch l.mode {
	case indexMask:
		return line & (l.nsets - 1)
	case indexHash:
		h := line * 0x9E3779B97F4A7C15
		h ^= h >> 29
		return h % l.nsets
	}
	return line % l.nsets
}

// find returns the index of the way holding line, or -1.
func (l *level) find(line uint64) int {
	if l.lines[l.mru] == line {
		return int(l.mru)
	}
	b := int(l.base[l.setIndex(line)])
	for i, tag := range l.lines[b : b+l.ways] {
		if tag == line {
			return b + i
		}
	}
	return -1
}

// touch is a demand hit on way i: it refreshes LRU state and clears the
// prefetched bit, returning whether the line had been brought in by a
// prefetcher.
func (l *level) touch(i int) (wasPrefetch bool) {
	l.tick++
	l.lastUse[i] = l.tick
	wasPrefetch = l.prefetched[i]
	l.prefetched[i] = false
	l.mru = uint32(i)
	return wasPrefetch
}

// lookup is a demand access: on a hit it touches the line.
func (l *level) lookup(line uint64) (hit, wasPrefetch bool) {
	i := l.find(line)
	if i < 0 {
		return false, false
	}
	return true, l.touch(i)
}

// contains is a non-mutating presence probe (prefetcher filters, the
// heater, residency scans, tests).
func (l *level) contains(line uint64) bool { return l.find(line) >= 0 }

// insert fills line, evicting the LRU way if the set is full.
func (l *level) insert(line uint64, prefetched bool) {
	l.insertRange(line, prefetched, 0, l.ways)
}

// insertRange fills line using only ways [lo, hi) for allocation (the
// partitioning primitive); a line already present anywhere in the set
// is refreshed in place.
func (l *level) insertRange(line uint64, prefetched bool, lo, hi int) {
	s := l.setIndex(line)
	b := int(l.base[s])
	if b == 0 {
		b = l.allocSet()
		l.base[s] = uint32(b)
	}
	l.tick++
	tags := l.lines[b : b+l.ways]
	way := -1
	for i, tag := range tags {
		if tag == line {
			way = i
			break
		}
	}
	if way >= 0 {
		// Already present: refresh.
		if !prefetched {
			l.prefetched[b+way] = false
		}
	} else {
		// The first empty way, else the least recently used one.
		way = lo
		used := l.lastUse[b : b+l.ways]
		for i := lo; i < hi; i++ {
			if tags[i] == noLine {
				way = i
				break
			}
			if used[i] < used[way] {
				way = i
			}
		}
		if l.onEvict != nil && tags[way] != noLine {
			l.onEvict(line, tags[way], prefetched, l.prefetched[b+way])
		}
		tags[way] = line
		l.prefetched[b+way] = prefetched
	}
	l.lastUse[b+way] = l.tick
	if !prefetched {
		l.mru = uint32(b + way)
	}
}

// forEachValid visits every valid line in the level. Used by residency
// tracking's flush attribution.
func (l *level) forEachValid(fn func(line uint64)) {
	for _, tag := range l.lines {
		if tag != noLine {
			fn(tag)
		}
	}
}

// countValid reports the valid lines in ways [fromWay, Ways) of every
// set and how many of them are unused prefetches. Used by the probe's
// flush accounting; non-mutating.
func (l *level) countValid(fromWay int) (valid, prefetched uint64) {
	for b := 0; b < len(l.lines); b += l.ways {
		for i := b + fromWay; i < b+l.ways; i++ {
			if l.lines[i] != noLine {
				valid++
				if l.prefetched[i] {
					prefetched++
				}
			}
		}
	}
	return valid, prefetched
}

// flushWaysFrom invalidates ways [lo, Ways) of every set, leaving the
// reserved partition [0, lo) intact.
func (l *level) flushWaysFrom(lo int) {
	for b := 0; b < len(l.lines); b += l.ways {
		tags := l.lines[b+lo : b+l.ways]
		for i := range tags {
			tags[i] = noLine
		}
	}
}

// evict drops line if present.
func (l *level) evict(line uint64) {
	if i := l.find(line); i >= 0 {
		l.lines[i] = noLine
	}
}

func (l *level) flush() { l.flushWaysFrom(0) }

// streamState tracks the L2 streamer's view of one 4 KiB page.
type streamState struct {
	page     uint64
	lastLine uint64
	run      int
	lastUse  uint64
}

// streamTrackers is the small fully-associative table of page trackers a
// real streamer keeps (we model 16 entries, LRU-replaced).
const streamTrackers = 16

// tlbEntry is one cached page translation.
type tlbEntry struct {
	page    uint64
	valid   bool
	lastUse uint64
}

// coreState is one core's private storage: its L1 and L2, its streamer
// trackers and its TLB (nil when the model is off).
type coreState struct {
	l1, l2   *level
	trackers []streamState
	tlb      []tlbEntry

	// lastLine is the line of the core's latest demand access, noLine
	// after a flush. While it is set, trackers[trkMRU] and tlb[tlbMRU]
	// are the entries of that line's page: only this core's demand
	// accesses and the flushes change either table, the former end by
	// setting all three, the latter clear lastLine. accessLine leans on
	// this to model a repeat of lastLine without searching anything.
	lastLine uint64
	trkMRU   int
	tlbMRU   int
}

// Hierarchy is the full simulated memory system.
type Hierarchy struct {
	prof  Profile
	cores []coreState
	l3    *level // shared; nil if absent

	// The dedicated network cache (nil unless the profile configures
	// one) and the regions whose lines it serves.
	nc        *level
	netRegion simmem.RegionSet

	tick uint64

	heaterActive bool
	stats        Stats

	// probe, when attached, observes hierarchy events for the simulated
	// PMU (see probe.go). Nil costs one check per emission site.
	probe Probe

	// Residency tracking (see residency.go). All zero-valued and
	// inert until EnableResidencyTracking.
	resTrack   bool
	owners     []ownedRegion // sorted by region base, disjoint
	ownerMemo  [2]int        // see ownerOf
	evict      evictMatrix
	heaterFill bool // the insert in flight is a heater touch, not a demand or prefetch fill
}

// New builds a hierarchy from a validated profile. It panics on an
// invalid profile; profiles are package-level constants validated by
// tests, so a bad one is a programming error.
func New(prof Profile) *Hierarchy {
	if err := prof.Validate(); err != nil {
		panic("cache: " + err.Error())
	}
	h := &Hierarchy{prof: prof, cores: make([]coreState, prof.Cores)}
	for c := range h.cores {
		cs := &h.cores[c]
		cs.l1 = newLevel(prof.L1)
		cs.l2 = newLevel(prof.L2)
		cs.trackers = make([]streamState, 0, streamTrackers)
		if prof.TLBEntries > 0 {
			cs.tlb = make([]tlbEntry, prof.TLBEntries)
		}
		cs.lastLine = noLine
	}
	h.l3 = newLevel(prof.L3)
	h.nc = newLevel(prof.NetworkCache)
	return h
}

// tlbAccess charges a translation for the page holding line and returns
// the added cycles (zero on a TLB hit or with the model disabled).
func (h *Hierarchy) tlbAccess(cs *coreState, line uint64) uint64 {
	tlb := cs.tlb
	if tlb == nil {
		return 0
	}
	page := line * LineSize / pageSize
	h.tick++
	if e := &tlb[cs.tlbMRU]; e.valid && e.page == page {
		e.lastUse = h.tick
		return 0
	}
	victim := 0
	for i := range tlb {
		if tlb[i].valid && tlb[i].page == page {
			tlb[i].lastUse = h.tick
			cs.tlbMRU = i
			return 0
		}
		if !tlb[i].valid {
			victim = i
			continue
		}
		if tlb[victim].valid && tlb[i].lastUse < tlb[victim].lastUse {
			victim = i
		}
	}
	tlb[victim] = tlbEntry{page: page, valid: true, lastUse: h.tick}
	cs.tlbMRU = victim
	h.stats.TLBMisses++
	return uint64(h.prof.TLBMissCycles)
}

// Profile returns the hierarchy's machine description.
func (h *Hierarchy) Profile() Profile { return h.prof }

// Stats returns a copy of the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// SetHeaterActive marks whether a heater thread is concurrently sweeping;
// while active, demand L3 accesses pay the profile's contention penalty.
func (h *Hierarchy) SetHeaterActive(active bool) { h.heaterActive = active }

// HeaterActive reports the current heater state.
func (h *Hierarchy) HeaterActive() bool { return h.heaterActive }

// Flush invalidates every level, modeling the cache-destroying compute
// phase the paper's modified microbenchmarks emulate between iterations.
// The dedicated network cache is NOT flushed: ordinary traffic cannot
// evict it — that retention is precisely the hardware proposal.
func (h *Hierarchy) Flush() {
	if h.resTrack {
		for c := range h.cores {
			h.noteFlush(LevelL1, h.cores[c].l1)
			h.noteFlush(LevelL2, h.cores[c].l2)
		}
		// Partitioned ways survive the flush; attribute only what the
		// flush below actually invalidates.
		if h.l3 != nil && h.prof.L3PartitionWays == 0 {
			h.noteFlush(LevelL3, h.l3)
		}
	}
	for c := range h.cores {
		h.FlushPrivate(c)
		tlb := h.cores[c].tlb
		for i := range tlb {
			tlb[i].valid = false
		}
	}
	if h.l3 != nil {
		// Compute traffic is confined to the unreserved ways: a
		// partition survives the phase, and the probe counts only what
		// dies.
		if h.probe != nil {
			h.noteFlushProbe(LevelL3, h.l3, h.prof.L3PartitionWays)
		}
		h.l3.flushWaysFrom(h.prof.L3PartitionWays)
	}
}

// DesignatesNetwork reports whether designated regions get special
// treatment (a dedicated network cache or an L3 partition).
func (h *Hierarchy) DesignatesNetwork() bool {
	return h.nc != nil || h.prof.L3PartitionWays > 0
}

// DesignateNetwork marks a region as network data to be served by the
// dedicated network cache or L3 partition. A no-op without either.
func (h *Hierarchy) DesignateNetwork(r simmem.Region) {
	if h.DesignatesNetwork() {
		h.netRegion.Add(r)
	}
}

// UndesignateNetwork removes a region from network-cache/partition
// service and evicts its lines from the protected storage.
func (h *Hierarchy) UndesignateNetwork(r simmem.Region) {
	if !h.DesignatesNetwork() {
		return
	}
	h.netRegion.Remove(r)
	if r.Size > 0 {
		first := r.Base.Line()
		last := (r.End() - 1).Line()
		for line := first; line <= last; line++ {
			if h.nc != nil {
				h.nc.evict(line)
			}
			if h.prof.L3PartitionWays > 0 && h.l3 != nil {
				h.l3.evict(line)
			}
		}
	}
}

// HasNetworkCache reports whether the profile configured one.
func (h *Hierarchy) HasNetworkCache() bool { return h.nc != nil }

// InNetworkCache probes the dedicated cache without disturbing it.
func (h *Hierarchy) InNetworkCache(addr simmem.Addr) bool {
	return h.nc != nil && h.nc.contains(addr.Line())
}

// FlushPrivate invalidates only core's private L1/L2, modeling a context
// where the core's working set churned but the shared cache survived.
func (h *Hierarchy) FlushPrivate(core int) {
	cs := &h.cores[core]
	if h.probe != nil {
		h.noteFlushProbe(LevelL1, cs.l1, 0)
		h.noteFlushProbe(LevelL2, cs.l2, 0)
	}
	cs.l1.flush()
	cs.l2.flush()
	cs.trackers = cs.trackers[:0]
	cs.lastLine = noLine
}

// Access performs a demand access from core covering [addr, addr+size)
// and returns the cycle cost. Multi-line accesses cost the sum over the
// lines they touch; size 0 is treated as 1 byte.
func (h *Hierarchy) Access(core int, addr simmem.Addr, size uint64) uint64 {
	return h.AccessRun(core, addr, size, 1)
}

// AccessRun performs n back-to-back demand accesses of size bytes each,
// the i-th at addr+i*size, and returns their summed cost: exactly what n
// Access calls would do, in one call (a packed array of entries scanned
// in order).
func (h *Hierarchy) AccessRun(core int, addr simmem.Addr, size uint64, n int) uint64 {
	span := size
	if span == 0 {
		span = 1
	}
	cs := &h.cores[core]
	var cycles uint64
	for ; n > 0; n-- {
		last := (addr + simmem.Addr(span) - 1).Line()
		for line := addr.Line(); line <= last; line++ {
			cycles += h.accessLine(core, cs, line)
		}
		addr += simmem.Addr(size)
	}
	h.stats.Cycles += cycles
	return cycles
}

// accessLine is the demand path for one line.
func (h *Hierarchy) accessLine(core int, cs *coreState, line uint64) uint64 {
	h.stats.Accesses++
	l1 := cs.l1
	if line == cs.lastLine {
		// The core touches the line it touched last (packed entries share
		// lines): if it is still where L1 put it, this is an L1 hit on a
		// known way, a TLB hit on tlb[tlbMRU] and a streamer no-op on
		// trackers[trkMRU]. Same ticks, stats and probe event as the
		// general path below, with nothing searched.
		if l1.lines[l1.mru] == line {
			if cs.tlb != nil {
				h.tick++
				cs.tlb[cs.tlbMRU].lastUse = h.tick
			}
			pf := l1.touch(int(l1.mru))
			h.stats.L1Hits++
			if pf {
				h.stats.PrefHits++
			}
			total := uint64(h.prof.L1.LatencyCycles)
			if h.probe != nil {
				h.probe.OnDemand(core, Demand{Level: LevelL1, WasPrefetched: pf, Cycles: total})
			}
			if h.prof.StreamerDegree > 0 {
				h.tick++
				cs.trackers[cs.trkMRU].lastUse = h.tick
			}
			return total
		}
	}
	cs.lastLine = line
	tlbCost := h.tlbAccess(cs, line)

	if hit, pf := l1.lookup(line); hit {
		h.stats.L1Hits++
		if pf {
			h.stats.PrefHits++
		}
		total := tlbCost + uint64(h.prof.L1.LatencyCycles)
		if h.probe != nil {
			h.probe.OnDemand(core, Demand{Level: LevelL1, WasPrefetched: pf, Cycles: total, TLBCycles: tlbCost})
		}
		h.streamObserve(core, cs, line, false)
		return total
	}

	// Designated network data is served by the dedicated cache right
	// after L1; its contents survive compute phases.
	if h.nc != nil && h.netRegion.Contains(simmem.Addr(line*LineSize)) {
		if hit, _ := h.nc.lookup(line); hit {
			h.stats.NCHits++
			l1.insert(line, false)
			total := tlbCost + uint64(h.prof.NetworkCache.LatencyCycles)
			if h.probe != nil {
				h.probe.OnDemand(core, Demand{Level: LevelNC, Cycles: total, TLBCycles: tlbCost})
			}
			h.streamObserve(core, cs, line, false)
			return total
		}
		cost, src, pf, heater := h.fillFromBeyondL2(cs, line, false)
		if h.probe != nil {
			h.probe.OnDemand(core, Demand{Level: src, WasPrefetched: pf,
				Cycles: tlbCost + cost, HeaterCycles: heater, TLBCycles: tlbCost})
		}
		h.adjacentPrefetch(core, cs, line)
		h.pairPrefetch(core, cs, line)
		h.streamObserve(core, cs, line, true)
		return tlbCost + cost
	}
	if hit, pf := cs.l2.lookup(line); hit {
		h.stats.L2Hits++
		if pf {
			h.stats.PrefHits++
		}
		l1.insert(line, false)
		total := tlbCost + uint64(h.prof.L2.LatencyCycles)
		if h.probe != nil {
			h.probe.OnDemand(core, Demand{Level: LevelL2, WasPrefetched: pf, Cycles: total, TLBCycles: tlbCost})
		}
		h.dcuPrefetch(core, cs, line)
		h.streamObserve(core, cs, line, false)
		return total
	}

	// L2 miss: the adjacent-line, adjacent-pair and streamer prefetchers
	// live at L2 and react here.
	cost, src, pf, heater := h.fillFromBeyondL2(cs, line, false)
	if h.probe != nil {
		h.probe.OnDemand(core, Demand{Level: src, WasPrefetched: pf,
			Cycles: tlbCost + cost, HeaterCycles: heater, TLBCycles: tlbCost})
	}
	h.adjacentPrefetch(core, cs, line)
	h.pairPrefetch(core, cs, line)
	h.streamObserve(core, cs, line, true)
	h.dcuPrefetch(core, cs, line)
	return tlbCost + cost
}

// fillFromBeyondL2 resolves a line that missed a core's L1 and L2,
// returning the demand cost, and fills the private levels. When
// prefetched is true the fill is attributed to a prefetcher (and costs
// the caller nothing). For demand fills the extra returns identify the
// serving level, whether it held the line via a prefetch, and the
// heater-contention share of the cost (probe bookkeeping only).
func (h *Hierarchy) fillFromBeyondL2(cs *coreState, line uint64, prefetched bool) (cost uint64, src LevelID, wasPf bool, heaterExtra uint64) {
	src, cost = LevelDRAM, uint64(h.prof.DRAMLatency)
	if h.l3 != nil {
		// A prefetcher only probes the L3; a demand fill touches it.
		if i := h.l3.find(line); i >= 0 {
			src, cost = LevelL3, uint64(h.prof.L3.LatencyCycles)
			if !prefetched {
				wasPf = h.l3.touch(i)
				h.stats.L3Hits++
				if wasPf {
					h.stats.PrefHits++
				}
				if h.heaterActive {
					heaterExtra = uint64(h.prof.L3ContentionCycles)
					cost += heaterExtra
				}
			}
		} else {
			h.l3insert(line, prefetched)
		}
	}
	if src == LevelDRAM && !prefetched {
		h.stats.DRAMLoads++
	}
	cs.l2.insert(line, prefetched)
	cs.l1.insert(line, prefetched)
	// The network cache captures designated lines on any fill, demand
	// or prefetched — the "custom prefetching units" of the paper's
	// proposal feed it alongside the regular hierarchy.
	if h.nc != nil && h.netRegion.Contains(simmem.Addr(line*LineSize)) {
		h.nc.insert(line, prefetched)
	}
	return cost, src, wasPf, heaterExtra
}

// l3insert routes an L3 fill through the way partition when one is
// configured: designated network lines allocate in the reserved ways,
// everything else in the remainder.
func (h *Hierarchy) l3insert(line uint64, prefetched bool) {
	p := h.prof.L3PartitionWays
	if p > 0 {
		if h.netRegion.Contains(simmem.Addr(line * LineSize)) {
			h.l3.insertRange(line, prefetched, 0, p)
		} else {
			h.l3.insertRange(line, prefetched, p, h.prof.L3.Ways)
		}
		return
	}
	h.l3.insert(line, prefetched)
}

// dcuPrefetch models the L1 DCU next-line prefetcher: on an L1 fill it
// pulls the following line into L1 if it is already in L2 or L3 (the DCU
// unit does not launch memory requests).
func (h *Hierarchy) dcuPrefetch(core int, cs *coreState, line uint64) {
	if !h.prof.DCUPrefetch {
		return
	}
	next := line + 1
	if samePage := (line*LineSize)/pageSize == (next*LineSize)/pageSize; !samePage {
		return
	}
	if cs.l2.contains(next) || (h.l3 != nil && h.l3.contains(next)) {
		cs.l1.insert(next, true)
		h.stats.Prefetches++
		if h.probe != nil {
			h.probe.OnPrefetchIssue(core, UnitDCU)
		}
	}
}

// adjacentPrefetch models the L2 spatial ("adjacent cache line") unit:
// on an L2 miss it completes the aligned 128-byte line pair.
func (h *Hierarchy) adjacentPrefetch(core int, cs *coreState, line uint64) {
	if !h.prof.AdjacentLinePrefetch {
		return
	}
	buddy := line ^ 1
	if cs.l2.contains(buddy) {
		return
	}
	h.fillFromBeyondL2(cs, buddy, true)
	h.stats.Prefetches++
	if h.probe != nil {
		h.probe.OnPrefetchIssue(core, UnitAdjacent)
	}
}

// pairPrefetch models the specialized adjacent-pair unit: on an L2 miss
// it fetches the next aligned 128-byte pair (two lines), stopping at the
// page boundary.
func (h *Hierarchy) pairPrefetch(core int, cs *coreState, line uint64) {
	if !h.prof.AdjacentPairPrefetch {
		return
	}
	lastInPage := ((line*LineSize)/pageSize+1)*pageSize/LineSize - 1
	first := (line | 1) + 1 // first line of the following pair
	for l := first; l <= first+1 && l <= lastInPage; l++ {
		if cs.l2.contains(l) {
			continue
		}
		h.fillFromBeyondL2(cs, l, true)
		h.stats.Prefetches++
		if h.probe != nil {
			h.probe.OnPrefetchIssue(core, UnitPair)
		}
	}
}

// streamObserve feeds the L2 streamer. It trains on every access but
// issues prefetches only when an L2 miss extends an ascending
// unit-stride run of at least two lines within one page, fetching
// StreamerDegree lines ahead into L2.
func (h *Hierarchy) streamObserve(core int, cs *coreState, line uint64, missed bool) {
	if h.prof.StreamerDegree <= 0 {
		return
	}
	page := line * LineSize / pageSize
	h.tick++
	trackers := cs.trackers
	// A page has at most one tracker, so the latest one used is the
	// answer whenever it matches; otherwise search the table.
	idx := cs.trkMRU
	if idx >= len(trackers) || trackers[idx].page != page {
		idx = -1
		for i := range trackers {
			if trackers[i].page == page {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		st := streamState{page: page, lastLine: line, run: 1, lastUse: h.tick}
		if len(trackers) < streamTrackers {
			cs.trkMRU = len(trackers)
			cs.trackers = append(trackers, st)
		} else {
			victim := 0
			for i := range trackers {
				if trackers[i].lastUse < trackers[victim].lastUse {
					victim = i
				}
			}
			trackers[victim] = st
			cs.trkMRU = victim
		}
		return
	}
	cs.trkMRU = idx
	st := &trackers[idx]
	st.lastUse = h.tick
	switch {
	case line == st.lastLine:
		// Same line re-accessed: no stream progress.
		return
	case line == st.lastLine+1:
		st.run++
	default:
		st.run = 1
	}
	st.lastLine = line
	if st.run < 2 || !missed {
		return
	}
	// A miss that extends an already-trained run (the streamer was
	// issuing on the previous access too) means the unit did not run far
	// enough ahead of demand: the model's late-prefetch signal.
	if h.probe != nil && st.run >= 3 {
		h.probe.OnLatePrefetch(core)
	}
	lastInPage := (page+1)*pageSize/LineSize - 1
	for d := 1; d <= h.prof.StreamerDegree; d++ {
		next := line + uint64(d)
		if next > lastInPage {
			break
		}
		if cs.l2.contains(next) {
			continue
		}
		h.fillFromBeyondL2(cs, next, true)
		h.stats.Prefetches++
		if h.probe != nil {
			h.probe.OnPrefetchIssue(core, UnitStreamer)
		}
	}
}

// HeaterTouch performs a heater access from core: it warms the shared L3
// and the heater core's private levels without charging demand cycles or
// perturbing demand statistics (beyond the HeaterTouches counter).
func (h *Hierarchy) HeaterTouch(core int, addr simmem.Addr, size uint64) {
	if size == 0 {
		size = 1
	}
	first := addr.Line()
	last := (addr + simmem.Addr(size) - 1).Line()
	cs := &h.cores[core]
	h.heaterFill = true
	for line := first; line <= last; line++ {
		h.stats.HeaterTouches++
		if h.probe != nil {
			h.probe.OnHeaterLine(core)
		}
		if h.l3 != nil {
			h.l3.insert(line, false)
		}
		cs.l2.insert(line, false)
		cs.l1.insert(line, false)
	}
	h.heaterFill = false
}

// Present reports the closest level holding the line for the given core:
// 1, 2, 3, or 0 when only memory has it. Probing does not disturb LRU.
func (h *Hierarchy) Present(core int, addr simmem.Addr) int {
	line := addr.Line()
	if h.cores[core].l1.contains(line) {
		return 1
	}
	if h.cores[core].l2.contains(line) {
		return 2
	}
	if h.l3 != nil && h.l3.contains(line) {
		return 3
	}
	return 0
}
