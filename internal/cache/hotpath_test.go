package cache_test

import (
	"testing"

	"spco/internal/cache"
	"spco/internal/perf"
	"spco/internal/simmem"
)

// servingHierarchy is the cache model as the daemon runs it: Sandy
// Bridge with the PMU (sampling profiler on) and residency tracking
// attached, its buffer tagged in node-sized regions like a match queue.
func servingHierarchy(buf simmem.Region) *cache.Hierarchy {
	h := cache.New(cache.SandyBridge)
	pmu := perf.New(perf.Options{SampleInterval: perf.DefaultSampleInterval, SpanCapacity: -1})
	pmu.SetSegFunc(func() int { return 3 })
	h.AttachProbe(pmu)
	h.EnableResidencyTracking()
	for off := uint64(0); off < buf.Size; off += 4096 {
		owner := "prq"
		if off/4096%2 == 1 {
			owner = "umq"
		}
		h.TagOwner(owner, simmem.Region{Base: buf.Base + simmem.Addr(off), Size: 2048})
	}
	// Fill the streamer's tracker table, as a scan over a deep queue's
	// pages keeps it: finding a page's tracker is part of every access.
	for k := 0; k < 16; k++ {
		h.Access(0, buf.End()+simmem.Addr(k*4096), 8)
	}
	return h
}

// accessPatterns are the four regimes of Hierarchy.Access by serving
// level. Each walk wraps inside its buffer, so after one pass the
// pattern is in steady state.
var accessPatterns = []struct {
	name   string
	size   uint64 // buffer bytes
	stride uint64
	down   bool
}{
	// One line, over and over: 8 of 12 accesses in an LLA-8 scan.
	{name: "same-line", size: 64},
	// Ascending lines inside an L1-resident buffer: a new line each time, always an L1 hit.
	{name: "next-line-l1", size: 16 << 10, stride: 64},
	// Descending lines (no prefetcher follows) over 4x L1: L1 miss and eviction, L2 hit.
	{name: "l2-hit", size: 128 << 10, stride: 64, down: true},
	// Descending 256-byte steps over 3x L3: every level misses and evicts.
	{name: "dram-miss", size: 64 << 20, stride: 256, down: true},
}

// walker returns a function issuing the pattern's next access and the
// number of accesses in one pass over the buffer.
func walker(size, stride uint64, down bool) (touch func(h *cache.Hierarchy, buf simmem.Region) uint64, pass uint64) {
	i := uint64(0)
	return func(h *cache.Hierarchy, buf simmem.Region) uint64 {
		off := i * stride % size
		if down {
			off = size - stride - off
		}
		i++
		return h.Access(0, buf.Base+simmem.Addr(off), 8)
	}, size / max(stride, 64)
}

func BenchmarkHierarchyAccess(b *testing.B) {
	for _, p := range accessPatterns {
		b.Run(p.name, func(b *testing.B) {
			buf := simmem.Region{Base: 1 << 30, Size: p.size}
			h := servingHierarchy(buf)
			touch, pass := walker(p.size, p.stride, p.down)
			for i := uint64(0); i < 2*pass; i++ {
				touch(h, buf)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles += touch(h, buf)
			}
			b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
		})
	}
}

// TestAccessSteadyStateZeroAlloc: with the PMU sampling and residency
// tracking on, neither a hit at any level nor an eviction (which the
// tracker attributes to its owners) may allocate.
func TestAccessSteadyStateZeroAlloc(t *testing.T) {
	for _, p := range accessPatterns[:3] {
		buf := simmem.Region{Base: 1 << 30, Size: p.size}
		h := servingHierarchy(buf)
		touch, pass := walker(p.size, p.stride, p.down)
		for i := uint64(0); i < 2*pass; i++ {
			touch(h, buf)
		}
		before := h.EvictionMatrix()
		if allocs := testing.AllocsPerRun(2000, func() { touch(h, buf) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Access, want 0", p.name, allocs)
		}
		evicted := false
		for k, v := range h.EvictionMatrix() {
			evicted = evicted || v > before[k]
		}
		if want := p.name == "l2-hit"; evicted != want {
			t.Errorf("%s: evictions attributed = %v, want %v", p.name, evicted, want)
		}
	}
}
