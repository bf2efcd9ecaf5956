package matchlist

import (
	"spco/internal/cache"
	"spco/internal/simmem"
)

// CacheAccessor routes structure memory accesses through the cache
// hierarchy simulator on behalf of one core, accumulating demand cycles.
type CacheAccessor struct {
	H    *cache.Hierarchy
	Core int

	// Cycles accumulates the cost of every access since the last Reset.
	Cycles uint64

	// Seg is the queue segment (node index) the current search is
	// inspecting, -1 outside searches. The search loops maintain it
	// unconditionally — plain host-side stores, zero simulated cycles —
	// and the PMU's sampling profiler reads it for its leaf frame.
	Seg int
}

// NewCacheAccessor binds a hierarchy and a core.
func NewCacheAccessor(h *cache.Hierarchy, core int) *CacheAccessor {
	return &CacheAccessor{H: h, Core: core, Seg: -1}
}

// Access implements Accessor.
func (c *CacheAccessor) Access(addr simmem.Addr, size uint64) uint64 {
	cy := c.H.Access(c.Core, addr, size)
	c.Cycles += cy
	return cy
}

// AccessRun implements Accessor.
func (c *CacheAccessor) AccessRun(addr simmem.Addr, size uint64, n int) uint64 {
	cy := c.H.AccessRun(c.Core, addr, size, n)
	c.Cycles += cy
	return cy
}

// Reset zeroes the accumulated cycle count.
func (c *CacheAccessor) Reset() { c.Cycles = 0 }
