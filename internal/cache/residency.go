package cache

import (
	"sort"

	"spco/internal/simmem"
)

// Residency tracking teaches the hierarchy *whose* lines it is holding.
// Owners tag address regions ("prq", "umq", "app", ...) and the
// hierarchy can then report, at any instant of simulated time, the
// fraction of each owner's lines resident per level — the occupancy
// curve behind the paper's semi-permanent-occupancy claim — plus an
// eviction-attribution matrix (who evicted whom, per level).
//
// The tracker is strictly opt-in. Until EnableResidencyTracking is
// called the hierarchy carries no owner state, every insert path sees
// one nil callback check, and demand cycle accounting is untouched, so
// benchmark results are bit-identical with tracking off. Even when
// enabled, scans probe with non-mutating lookups (LRU state and the
// prefetched bits are not disturbed) and charge no cycles.

// Agent names used in the eviction matrix beside region owners.
const (
	// AgentHeater marks fills performed by the hot-caching heater.
	AgentHeater = "heater"
	// AgentCompute marks invalidations by the compute-phase flush.
	AgentCompute = "compute"
	// AgentOther labels lines outside any tagged region.
	AgentOther = "other"
)

// ownerID is an owner or agent name interned by evictMatrix, so the
// per-eviction bookkeeping compares and indexes small integers.
type ownerID uint16

// The agents are interned first, in this order.
const (
	ownerOther ownerID = iota // also "untagged" for region lookups
	ownerHeater
	ownerCompute
)

// ownedRegion associates a tagged region with its owner.
type ownedRegion struct {
	r  simmem.Region
	id ownerID
}

// EvictionKey identifies one cell of the eviction-attribution matrix:
// at Level, a fill by By displaced a line owned by Of.
type EvictionKey struct {
	Level string // "l1", "l2", "l3", "nc"
	By    string // owner of the incoming line, AgentHeater, or AgentCompute
	Of    string // owner of the victim line, or AgentOther
}

// evictMatrix is the eviction-attribution matrix in the form the hot
// path wants it: names interned to ownerIDs when a region is tagged,
// counts in a dense array per level. Recording an eviction hashes no
// string and allocates nothing; EvictionMatrix turns the counts back
// into EvictionKeys.
type evictMatrix struct {
	names []string // ownerID -> name
	ids   map[string]ownerID

	// cells[level][by*len(names)+of], one array per cache level (the
	// LevelIDs below LevelDRAM). Interning a name re-lays the rows out;
	// that happens once per distinct owner, a handful per run.
	cells [LevelDRAM][]uint64
}

// intern returns name's id, assigning the next one on first sight.
func (m *evictMatrix) intern(name string) ownerID {
	if id, ok := m.ids[name]; ok {
		return id
	}
	n := len(m.names)
	for lvl, old := range m.cells {
		grown := make([]uint64, (n+1)*(n+1))
		for by := 0; by < n; by++ {
			copy(grown[by*(n+1):], old[by*n:(by+1)*n])
		}
		m.cells[lvl] = grown
	}
	m.names = append(m.names, name)
	m.ids[name] = ownerID(n)
	return ownerID(n)
}

func (m *evictMatrix) add(level LevelID, by, of ownerID) {
	m.cells[level][int(by)*len(m.names)+int(of)]++
}

// Residency reports one owner's line counts: how many of its Lines are
// resident in each level. L1/L2 count lines present in *any* core's
// private level.
type Residency struct {
	Owner string
	Lines uint64 // total tagged lines for this owner
	L1    uint64
	L2    uint64
	L3    uint64
	NC    uint64 // dedicated network cache
}

// frac guards the empty-owner division.
func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// L1Frac returns the fraction of the owner's lines resident in any L1.
func (r Residency) L1Frac() float64 { return frac(r.L1, r.Lines) }

// L2Frac returns the fraction resident in any L2.
func (r Residency) L2Frac() float64 { return frac(r.L2, r.Lines) }

// L3Frac returns the fraction resident in the shared L3.
func (r Residency) L3Frac() float64 { return frac(r.L3, r.Lines) }

// NCFrac returns the fraction resident in the dedicated network cache.
func (r Residency) NCFrac() float64 { return frac(r.NC, r.Lines) }

// EnableResidencyTracking switches on owner tagging and eviction
// attribution. Idempotent. There is deliberately no disable: the
// telemetry layer decides at engine construction.
func (h *Hierarchy) EnableResidencyTracking() {
	if h.resTrack {
		return
	}
	h.resTrack = true
	h.evict.ids = make(map[string]ownerID)
	for _, agent := range [...]string{ownerOther: AgentOther, ownerHeater: AgentHeater, ownerCompute: AgentCompute} {
		h.evict.intern(agent)
	}
	h.installEvictHooks()
}

// ResidencyTracking reports whether tracking is enabled.
func (h *Hierarchy) ResidencyTracking() bool { return h.resTrack }

// TagOwner marks a region as belonging to owner. Regions tagged by the
// same owner may be adjacent or disjoint, but no two tagged regions may
// overlap (allocations from one simmem.Space never do): owner lookup
// relies on it. A no-op until tracking is enabled.
func (h *Hierarchy) TagOwner(owner string, r simmem.Region) {
	if !h.resTrack || r.Size == 0 || owner == "" {
		return
	}
	i := sort.Search(len(h.owners), func(i int) bool {
		return h.owners[i].r.Base >= r.Base
	})
	h.owners = append(h.owners, ownedRegion{})
	copy(h.owners[i+1:], h.owners[i:])
	h.owners[i] = ownedRegion{r: r, id: h.evict.intern(owner)}
}

// UntagOwner removes any tagged region overlapping r, splitting tags
// that straddle it (mirroring simmem.RegionSet.Remove).
func (h *Hierarchy) UntagOwner(r simmem.Region) {
	if !h.resTrack || r.Size == 0 {
		return
	}
	out := h.owners[:0]
	for _, o := range h.owners {
		if !o.r.Overlaps(r) {
			out = append(out, o)
			continue
		}
		if o.r.Base < r.Base {
			out = append(out, ownedRegion{
				r:  simmem.Region{Base: o.r.Base, Size: uint64(r.Base - o.r.Base)},
				id: o.id,
			})
		}
		if o.r.End() > r.End() {
			out = append(out, ownedRegion{
				r:  simmem.Region{Base: r.End(), Size: uint64(o.r.End() - r.End())},
				id: o.id,
			})
		}
	}
	h.owners = out
}

// OwnerOf returns the owner tag of the line's first byte, or "" when
// untagged.
func (h *Hierarchy) OwnerOf(line uint64) string {
	if id := h.ownerOf(line, 0); id != ownerOther {
		return h.evict.names[id]
	}
	return ""
}

// ownerOf returns the id of the region holding the line's first byte,
// ownerOther when untagged. Evictions come in runs over one node's
// lines, for the incoming line and for the victim alike, so each of the
// two keeps the index of the region that answered last (memo slot 0 and
// 1) and tries it before the binary search; a stale index fails the
// Contains test and costs only the search.
func (h *Hierarchy) ownerOf(line uint64, slot int) ownerID {
	addr := simmem.Addr(line * LineSize)
	owners := h.owners
	if i := h.ownerMemo[slot]; i < len(owners) && owners[i].r.Contains(addr) {
		return owners[i].id
	}
	// First region ending past addr: the only one that can hold it.
	lo, hi := 0, len(owners)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if owners[mid].r.End() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(owners) && owners[lo].r.Contains(addr) {
		h.ownerMemo[slot] = lo
		return owners[lo].id
	}
	return ownerOther
}

// noteEviction records one matrix cell increment. Called from the
// levels' onEvict hooks, which exist only while tracking is enabled.
func (h *Hierarchy) noteEviction(level LevelID, incoming, victim uint64) {
	by := ownerHeater
	if !h.heaterFill {
		by = h.ownerOf(incoming, 0)
	}
	h.evict.add(level, by, h.ownerOf(victim, 1))
}

// noteFlush attributes a compute-phase invalidation of every tagged
// line currently valid in the level. Untagged victims are skipped: the
// flush clears everything, and the matrix cares about who lost
// designated network state.
func (h *Hierarchy) noteFlush(level LevelID, l *level) {
	if l == nil {
		return
	}
	l.forEachValid(func(line uint64) {
		if of := h.ownerOf(line, 1); of != ownerOther {
			h.evict.add(level, ownerCompute, of)
		}
	})
}

// EvictionMatrix returns a copy of the eviction-attribution counts
// (nil until tracking is enabled).
func (h *Hierarchy) EvictionMatrix() map[EvictionKey]uint64 {
	if !h.resTrack {
		return nil
	}
	out := make(map[EvictionKey]uint64)
	names := h.evict.names
	for lvl, cells := range h.evict.cells {
		for i, v := range cells {
			if v != 0 {
				out[EvictionKey{Level: LevelID(lvl).String(), By: names[i/len(names)], Of: names[i%len(names)]}] = v
			}
		}
	}
	return out
}

// ScanResidency probes every tagged line against every level and
// returns per-owner counts, sorted by owner. The scan is passive: it
// uses non-mutating presence probes and charges no cycles.
func (h *Hierarchy) ScanResidency() []Residency {
	if !h.resTrack || len(h.owners) == 0 {
		return nil
	}
	names := h.evict.names
	acc := make(map[string]*Residency)
	// Adjacent regions of one owner can share a boundary cache line when
	// allocations are not line-aligned; lastLine dedupes it (the owners
	// slice is sorted by base address).
	lastLine := make(map[string]uint64)
	for _, o := range h.owners {
		owner := names[o.id]
		res, ok := acc[owner]
		if !ok {
			res = &Residency{Owner: owner}
			acc[owner] = res
		}
		first := o.r.Base.Line()
		last := (o.r.End() - 1).Line()
		if prev, seen := lastLine[owner]; seen && first <= prev {
			first = prev + 1
		}
		if last < first {
			continue
		}
		lastLine[owner] = last
		for line := first; line <= last; line++ {
			res.Lines++
			for c := range h.cores {
				if h.cores[c].l1.contains(line) {
					res.L1++
					break
				}
			}
			for c := range h.cores {
				if h.cores[c].l2.contains(line) {
					res.L2++
					break
				}
			}
			if h.l3 != nil && h.l3.contains(line) {
				res.L3++
			}
			if h.nc != nil && h.nc.contains(line) {
				res.NC++
			}
		}
	}
	out := make([]Residency, 0, len(acc))
	for _, r := range acc {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// ResidencyOf returns the scan entry for one owner (zero value when
// the owner has no tagged regions).
func (h *Hierarchy) ResidencyOf(owner string) Residency {
	for _, r := range h.ScanResidency() {
		if r.Owner == owner {
			return r
		}
	}
	return Residency{Owner: owner}
}
