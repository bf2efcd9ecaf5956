package cache

// The hierarchy can expose its internal events — where each demand
// access was served and what it cost, which prefetch unit issued each
// fill, who displaced whom, what a compute-phase flush destroyed — to a
// Probe, the attachment point of the simulated performance-monitoring
// unit (internal/perf). The probe is strictly an observer: attaching
// one never changes cycle accounting or replacement state, so
// simulated results are bit-identical with and without a PMU (enforced
// by test). Every emission site is guarded by one nil check, keeping
// the detached cost negligible.

// LevelID identifies a hierarchy level (or memory) in probe events.
type LevelID uint8

// The levels a demand access can be served from, and the flushable
// storage identifiers.
const (
	LevelL1 LevelID = iota
	LevelL2
	LevelL3
	LevelNC   // the dedicated network cache
	LevelDRAM // no cache held the line
	NumLevels
)

// String returns the conventional lower-case level name.
func (l LevelID) String() string {
	switch l {
	case LevelL1:
		return "l1"
	case LevelL2:
		return "l2"
	case LevelL3:
		return "l3"
	case LevelNC:
		return "nc"
	case LevelDRAM:
		return "dram"
	}
	return "?"
}

// PrefetchUnit identifies which modeled prefetcher issued a fill.
type PrefetchUnit uint8

// The four modeled units (see the package comment and Profile).
const (
	UnitDCU PrefetchUnit = iota
	UnitAdjacent
	UnitPair
	UnitStreamer
	NumPrefetchUnits
)

// String returns the unit's short name.
func (u PrefetchUnit) String() string {
	switch u {
	case UnitDCU:
		return "dcu"
	case UnitAdjacent:
		return "adjacent"
	case UnitPair:
		return "pair"
	case UnitStreamer:
		return "streamer"
	}
	return "?"
}

// EvictCause classifies the fill that displaced a victim line.
type EvictCause uint8

// Eviction causes: an ordinary demand fill, a prefetcher fill, or a
// heater sweep touch.
const (
	EvictByDemand EvictCause = iota
	EvictByPrefetch
	EvictByHeater
	NumEvictCauses
)

// String returns the cause's short name.
func (c EvictCause) String() string {
	switch c {
	case EvictByDemand:
		return "demand"
	case EvictByPrefetch:
		return "prefetch"
	case EvictByHeater:
		return "heater"
	}
	return "?"
}

// Demand describes one demand line access: the level that served it and
// the full cycle breakdown charged for it.
type Demand struct {
	// Level is the storage that served the line (LevelDRAM when no
	// cache held it).
	Level LevelID

	// WasPrefetched reports that the serving level held the line
	// because a prefetcher brought it in (a useful prefetch).
	WasPrefetched bool

	// Cycles is the total demand cost charged for this line, including
	// the heater-contention and TLB shares below.
	Cycles uint64

	// HeaterCycles is the L3 contention penalty paid because a heater
	// sweep was concurrently active (0 otherwise).
	HeaterCycles uint64

	// TLBCycles is the page-walk share (0 on a TLB hit or with the TLB
	// model disabled).
	TLBCycles uint64
}

// Probe observes hierarchy events. Implementations must treat calls as
// read-only notifications: calling back into the hierarchy from a probe
// method is not supported. All methods fire synchronously on the
// simulation path.
type Probe interface {
	// OnDemand fires once per demand line access with its serving level
	// and cycle breakdown.
	OnDemand(core int, d Demand)

	// OnPrefetchIssue fires when a prefetch unit issues a fill.
	OnPrefetchIssue(core int, unit PrefetchUnit)

	// OnLatePrefetch fires when a demand access misses L2 despite
	// extending an already-trained streamer run (run length >= 3): the
	// stream was detected and prefetching, but not far enough ahead.
	// This is the model's analog of a late-prefetch stall.
	OnLatePrefetch(core int)

	// OnEvict fires on a capacity eviction: at level, a fill of the
	// given cause displaced a victim. victimPrefetched reports that the
	// victim had been brought in by a prefetcher and never demanded — a
	// wasted prefetch.
	OnEvict(level LevelID, cause EvictCause, victimPrefetched bool)

	// OnFlush fires per level on a compute-phase flush (or private
	// flush) with the number of valid lines invalidated and how many of
	// them were unused prefetches.
	OnFlush(level LevelID, invalidated, prefetchedUnused uint64)

	// OnHeaterLine fires for every line a heater sweep touches.
	OnHeaterLine(core int)
}

// AttachProbe connects a probe (the simulated PMU). Passing nil
// detaches. The probe sees events from the moment of attachment;
// attaching never modifies cache contents, statistics, or cycle
// accounting.
func (h *Hierarchy) AttachProbe(p Probe) {
	h.probe = p
	if p != nil {
		h.installEvictHooks()
	}
}

// ProbeAttached reports whether a probe is connected.
func (h *Hierarchy) ProbeAttached() bool { return h.probe != nil }

// installEvictHooks points every level's eviction callback at the
// hierarchy dispatcher, which fans out to residency tracking and the
// probe. Idempotent.
func (h *Hierarchy) installEvictHooks() {
	hook := func(id LevelID) evictHook {
		return func(incoming, victim uint64, incomingPf, victimPf bool) {
			h.noteEvict(id, incoming, victim, incomingPf, victimPf)
		}
	}
	for c := range h.cores {
		h.cores[c].l1.onEvict = hook(LevelL1)
		h.cores[c].l2.onEvict = hook(LevelL2)
	}
	if h.l3 != nil {
		h.l3.onEvict = hook(LevelL3)
	}
	if h.nc != nil {
		h.nc.onEvict = hook(LevelNC)
	}
}

// noteEvict dispatches one capacity eviction to whoever is listening.
func (h *Hierarchy) noteEvict(id LevelID, incoming, victim uint64, incomingPf, victimPf bool) {
	if h.resTrack {
		h.noteEviction(id, incoming, victim)
	}
	if h.probe != nil {
		cause := EvictByDemand
		switch {
		case h.heaterFill:
			cause = EvictByHeater
		case incomingPf:
			cause = EvictByPrefetch
		}
		h.probe.OnEvict(id, cause, victimPf)
	}
}

// noteFlushProbe reports a level's imminent invalidation to the probe.
// fromWay restricts the count to ways [fromWay, Ways) (the partition
// flush); pass 0 for a full flush.
func (h *Hierarchy) noteFlushProbe(id LevelID, l *level, fromWay int) {
	if l == nil {
		return
	}
	valid, pf := l.countValid(fromWay)
	if valid > 0 {
		h.probe.OnFlush(id, valid, pf)
	}
}
