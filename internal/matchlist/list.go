// Package matchlist provides the match-queue data structures the paper
// studies and compares against (Sections 2.2, 3.1, 5):
//
//   - Baseline: the MPICH-style single linked list, one entry per node,
//     each node larger than a cache line (the unmodified reference).
//   - LLA: the paper's linked list of arrays — K entries packed
//     contiguously per node, tombstone holes, optional element pool.
//   - HashBins: the Flajslik-style hash map over full matching criteria
//     with a wildcard fallback (related work).
//   - RankArray: the Open MPI hierarchical per-communicator, per-source
//     array of lists — O(1) bucket lookup, O(N) memory per process.
//   - FourD: the Zounmevo-Afsahi 4-dimensional rank decomposition.
//
// Every structure allocates its metadata from a simulated address space
// (internal/simmem) and reports each byte it inspects to an Accessor, so
// the cache simulator observes the exact memory-touch sequence a real
// traversal would produce. Matching order follows MPI semantics: among
// all entries that could match, the earliest posted/arrived one wins.
package matchlist

import (
	"fmt"

	"spco/internal/match"
	"spco/internal/simmem"
)

// Accessor receives every demand memory access a structure performs.
type Accessor interface {
	// Access models a load or store of size bytes at addr and returns
	// its cost in cycles (zero for cost-free accessors).
	Access(addr simmem.Addr, size uint64) uint64

	// AccessRun models n back-to-back accesses of size bytes each, the
	// i-th at addr+i*size — a scan over packed array elements — and
	// returns their summed cost. It is exactly n Access calls in one
	// dispatch.
	AccessRun(addr simmem.Addr, size uint64, n int) uint64
}

// FreeAccessor ignores accesses; used when only algorithmic behaviour
// (lengths, depths, correctness) is under study.
type FreeAccessor struct{}

// Access implements Accessor at zero cost.
func (FreeAccessor) Access(simmem.Addr, uint64) uint64 { return 0 }

// AccessRun implements Accessor at zero cost.
func (FreeAccessor) AccessRun(simmem.Addr, uint64, int) uint64 { return 0 }

// CountingAccessor tallies accesses and bytes; useful in tests.
type CountingAccessor struct {
	Accesses uint64
	Bytes    uint64
}

// Access implements Accessor.
func (c *CountingAccessor) Access(_ simmem.Addr, size uint64) uint64 {
	c.Accesses++
	c.Bytes += size
	return 0
}

// AccessRun implements Accessor.
func (c *CountingAccessor) AccessRun(_ simmem.Addr, size uint64, n int) uint64 {
	c.Accesses += uint64(n)
	c.Bytes += uint64(n) * size
	return 0
}

// PostedList is a posted-receive queue (PRQ).
type PostedList interface {
	// Post appends a receive, preserving MPI posting order.
	Post(p match.Posted)

	// Search finds, removes, and returns the earliest posted entry
	// matching the envelope. depth is the number of slots inspected
	// (holes included: they cost memory traffic too).
	Search(e match.Envelope) (p match.Posted, depth int, ok bool)

	// Cancel removes the entry with the given request handle, as
	// MPI_Cancel would. It reports whether the handle was found.
	Cancel(req uint64) bool

	// Len returns the number of live (non-hole) entries.
	Len() int

	// Regions returns the memory regions backing the structure, for
	// registration with the hot-caching heater.
	Regions() []simmem.Region

	// MemoryBytes returns the structure's total metadata footprint.
	MemoryBytes() uint64

	// Name identifies the implementation (for reports).
	Name() string
}

// UnexpectedList is an unexpected-message queue (UMQ).
type UnexpectedList interface {
	// Append records a message that found no posted receive.
	Append(u match.Unexpected)

	// SearchBy finds, removes, and returns the earliest arrived message
	// matching the posted receive.
	SearchBy(p match.Posted) (u match.Unexpected, depth int, ok bool)

	Len() int
	Regions() []simmem.Region
	MemoryBytes() uint64
	Name() string
}

// Kind selects a PostedList implementation.
type Kind int

// The implementations.
const (
	KindBaseline Kind = iota
	KindLLA
	KindHashBins
	KindRankArray
	KindFourD
	KindHWOffload
	KindPerComm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindLLA:
		return "lla"
	case KindHashBins:
		return "hashbins"
	case KindRankArray:
		return "rankarray"
	case KindFourD:
		return "fourd"
	case KindHWOffload:
		return "hwoffload"
	case KindPerComm:
		return "percomm"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "baseline":
		return KindBaseline, nil
	case "lla":
		return KindLLA, nil
	case "hashbins":
		return KindHashBins, nil
	case "rankarray":
		return KindRankArray, nil
	case "fourd":
		return KindFourD, nil
	case "hwoffload":
		return KindHWOffload, nil
	case "percomm":
		return KindPerComm, nil
	}
	return 0, fmt.Errorf("matchlist: unknown kind %q", s)
}

// RegionListener observes the lifecycle of a structure's memory regions.
// The hot-caching heater implements it to keep its registry in sync; the
// returned values are the synchronisation cycles the operation cost,
// which the listener also accumulates for its owner to charge.
type RegionListener interface {
	RegionAdded(simmem.Region) uint64
	RegionRemoved(simmem.Region) uint64
}

// regAdd records a region and notifies the listener.
func regAdd(cfg *Config, rs *simmem.RegionSet, r simmem.Region) {
	rs.Add(r)
	if cfg.Listener != nil {
		cfg.Listener.RegionAdded(r)
	}
}

// regRemove drops a region and notifies the listener.
func regRemove(cfg *Config, rs *simmem.RegionSet, r simmem.Region) {
	rs.Remove(r)
	if cfg.Listener != nil {
		cfg.Listener.RegionRemoved(r)
	}
}

// PoolStats counts free-pool activity for one structure (zero unless
// Config.Pool). The engine publishes the PRQ+UMQ sums as spco_pool_*
// counters.
type PoolStats struct {
	Gets   uint64 // nodes served from the pool
	Misses uint64 // nodes freshly allocated with pooling on (pool empty)
	Puts   uint64 // nodes returned to the pool
	Size   int    // nodes currently pooled
}

// Add returns the elementwise sum.
func (p PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Gets:   p.Gets + o.Gets,
		Misses: p.Misses + o.Misses,
		Puts:   p.Puts + o.Puts,
		Size:   p.Size + o.Size,
	}
}

// PoolStatser is implemented by structures that recycle nodes through a
// free pool.
type PoolStatser interface {
	PoolStats() PoolStats
}

// chainPool recycles the Go-side chainNode objects of the bucketed
// structures. Unlike the LLA pool it does not pin simulated addresses:
// chain.remove still returns the block to Space's free list and
// chain.append still draws from AllocReuse, so the simulated allocation
// sequence — and with it every modeled cycle — is bit-identical with
// pooling on or off. Only the Go heap traffic disappears.
type chainPool struct {
	free  []*chainNode
	stats PoolStats
}

// Config parameterises construction.
type Config struct {
	Space *simmem.Space // required: simulated address space
	Acc   Accessor      // required: access cost sink

	// Listener, when set, observes region allocation and release (the
	// hot-caching heater registers itself here).
	Listener RegionListener

	// EntriesPerNode is the LLA's K (2,4,8,16,32 in the paper's sweep;
	// 64+ for the "LLA-Large" variant). Ignored by other kinds.
	EntriesPerNode int

	// Bins is the HashBins bucket count (the paper's related work uses
	// 256). Ignored by other kinds.
	Bins int

	// CommSize is the communicator size for RankArray/FourD sizing.
	CommSize int

	// Pool enables node recycling through a free pool (the modified LLA
	// used by the temporal-locality experiments: reuse keeps node
	// addresses stable, which both warms reuse and lets the heater skip
	// region-list removals).
	Pool bool

	// NoiseBytes is the unrelated allocation (request object, user
	// metadata) modeled between successive entry posts. It scatters
	// baseline nodes so no prefetcher can bridge them — the realistic
	// long-lived-heap behaviour the paper's baseline exhibits. Zero
	// selects the per-kind default.
	NoiseBytes uint64

	// cpool is the shared chain-node free pool; the bucketed
	// constructors set it when Pool is enabled. Chains reach it through
	// their owner's cfg pointer.
	cpool *chainPool
}

// DefaultNoiseBytes models the per-post request-object allocation that
// accompanies every receive in a real MPI library.
const DefaultNoiseBytes = 192

func (c Config) noise() uint64 {
	if c.NoiseBytes == 0 {
		return DefaultNoiseBytes
	}
	return c.NoiseBytes
}

// setSeg publishes the queue segment (node index) the current search is
// inspecting, for the PMU profiler's leaf frame. Only the cache-routed
// accessor carries the field; cost-free accessors ignore it. Pass -1
// when the search ends.
func (c *Config) setSeg(v int) {
	if ca, ok := c.Acc.(*CacheAccessor); ok {
		ca.Seg = v
	}
}

// MaxCommSize is the largest communicator the packed entry layout can
// address: the 2-byte rank field of Figure 2 caps sources at 32768.
const MaxCommSize = 1 << 15

// ValidateParams checks the kind-specific sizing parameters without
// requiring a full Config (library boundaries validate user input with
// it before any simulated allocation happens).
func ValidateParams(kind Kind, entriesPerNode, bins, commSize int) error {
	if entriesPerNode < 0 {
		return fmt.Errorf("matchlist: negative EntriesPerNode %d", entriesPerNode)
	}
	if bins < 0 {
		return fmt.Errorf("matchlist: negative Bins %d", bins)
	}
	if commSize < 0 {
		return fmt.Errorf("matchlist: negative CommSize %d", commSize)
	}
	if commSize > MaxCommSize {
		return fmt.Errorf("matchlist: CommSize %d exceeds the packed-rank cap %d", commSize, MaxCommSize)
	}
	switch kind {
	case KindBaseline, KindLLA, KindHashBins, KindHWOffload, KindPerComm:
	case KindRankArray:
		if commSize <= 0 {
			return fmt.Errorf("matchlist: %v requires Config.CommSize > 0", kind)
		}
	case KindFourD:
		// The 4D radix capacity (radix = ceil(N^(1/4)), capacity =
		// radix^4 >= N) is implied by CommSize; checking once here is
		// what lets the structure reject nothing mid-workload.
		if commSize <= 0 {
			return fmt.Errorf("matchlist: %v requires Config.CommSize > 0", kind)
		}
	default:
		return fmt.Errorf("matchlist: unknown kind %v", kind)
	}
	return nil
}

// Validate checks the configuration for the given kind. Constructors
// reject exactly what Validate rejects; any panic past construction is
// an internal invariant violation, not a configuration error.
func (c Config) Validate(kind Kind) error {
	if c.Space == nil {
		return fmt.Errorf("matchlist: Config.Space is required")
	}
	if c.Acc == nil {
		return fmt.Errorf("matchlist: Config.Acc is required")
	}
	return ValidateParams(kind, c.EntriesPerNode, c.Bins, c.CommSize)
}

// NewPostedList constructs the selected PRQ implementation, rejecting
// misconfiguration with an error.
func NewPostedList(kind Kind, cfg Config) (PostedList, error) {
	if err := cfg.Validate(kind); err != nil {
		return nil, err
	}
	switch kind {
	case KindBaseline:
		return newBaselinePosted(cfg), nil
	case KindLLA:
		return newLLAPosted(cfg), nil
	case KindHashBins:
		return newHashBins(cfg), nil
	case KindRankArray:
		return newRankArray(cfg), nil
	case KindFourD:
		return newFourD(cfg), nil
	case KindHWOffload:
		// Config.Bins carries the hardware capacity (see NewHWOffload).
		return newHWOffload(cfg), nil
	case KindPerComm:
		return newPerComm(cfg), nil
	}
	return nil, fmt.Errorf("matchlist: unknown kind %v", kind)
}

// NewUnexpectedList constructs a UMQ matching the PRQ kind: baseline
// kinds get the baseline UMQ; LLA gets the packed-array UMQ (3 entries
// per line at the first locality level); bucketed kinds reuse the
// baseline UMQ (the paper's comparators focus on the PRQ).
func NewUnexpectedList(kind Kind, cfg Config) (UnexpectedList, error) {
	if err := cfg.Validate(kind); err != nil {
		return nil, err
	}
	if kind == KindLLA {
		return newLLAUnexpected(cfg), nil
	}
	return newBaselineUnexpected(cfg), nil
}

// NewPosted is NewPostedList for pre-validated, code-authored configs
// (tests, workloads behind a validated boundary); it panics on the
// errors NewPostedList returns.
func NewPosted(kind Kind, cfg Config) PostedList {
	l, err := NewPostedList(kind, cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// NewUnexpected is NewUnexpectedList with NewPosted's panicking
// contract.
func NewUnexpected(kind Kind, cfg Config) UnexpectedList {
	u, err := NewUnexpectedList(kind, cfg)
	if err != nil {
		panic(err)
	}
	return u
}
