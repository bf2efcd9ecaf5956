package engine

import (
	"testing"

	"spco/internal/cache"
	"spco/internal/match"
	"spco/internal/perf"
)

// coldScanFills posts nodes*8 never-matching receives into an LLA-8,
// empties every cache level, scans the whole queue once and returns the
// DRAM demand loads and the prefetch fills the scan caused, plus how
// many nodes have their second line pair in the next 4 KiB page (no
// prefetcher crosses a page, so those cost a second demand miss).
func coldScanFills(t *testing.T, nodes int) (demand, adjacent, pairOrStreamer, straddlers uint64) {
	t.Helper()
	pmu := perf.New(perf.Options{})
	cfg := baseCfg()
	cfg.EntriesPerNode = 8
	cfg.Perf = pmu
	en := MustNew(cfg)
	for i := 0; i < nodes*8; i++ {
		en.PostRecv(1, 1_000_000+i, 0, uint64(i+1))
	}
	for _, r := range en.prq.Regions() {
		if r.Size == match.NodeBytes(8, match.PostedEntryBytes) && uint64(r.Base)%4096 == 4096-128 {
			straddlers++
		}
	}
	en.BeginComputePhase(0)
	before := pmu.Totals()
	if _, ok, _ := en.Arrive(match.Envelope{Rank: 2, Tag: 7}, 1); ok {
		t.Fatal("the probe envelope must miss the whole queue")
	}
	after := pmu.Totals()
	return after.Demand[cache.LevelDRAM] - before.Demand[cache.LevelDRAM],
		after.PrefIssued[cache.UnitAdjacent] - before.PrefIssued[cache.UnitAdjacent],
		after.PrefIssued[cache.UnitPair] + after.PrefIssued[cache.UnitStreamer] -
			before.PrefIssued[cache.UnitPair] - before.PrefIssued[cache.UnitStreamer],
		straddlers
}

// The paper explains the K=8 peak by counting the lines one demand load
// brings in: with 24-byte entries an 8-entry node is 4 lines, and a
// cold miss on its first line drags the other three in behind it — the
// buddy through the adjacent-line unit, the next aligned pair through
// the pair unit or the streamer. Hold that arithmetic through the PMU's
// counters, not through the shape of a latency curve: two cold scans of
// different depth differ, per extra node, by exactly 1 demand load, 1
// adjacent fill and 2 pair/streamer fills (the difference cancels the
// control lines and the UMQ append both scans pay; a node split across
// pages pays one more demand load and adjacent fill for the same 4 lines).
func TestK8OneDemandMissFetchesTheNode(t *testing.T) {
	const short, long = 32, 96
	d0, a0, p0, s0 := coldScanFills(t, short)
	d1, a1, p1, s1 := coldScanFills(t, long)
	extra, split := uint64(long-short), s1-s0
	if d1-d0 != extra+split || a1-a0 != extra+split || p1-p0 != 2*extra {
		t.Errorf("%d extra nodes (%d split across pages) cost %d demand loads, %d adjacent fills, %d pair/streamer fills; want %d, %d, %d",
			extra, split, d1-d0, a1-a0, p1-p0, extra+split, extra+split, 2*extra)
	}
	if split >= extra/4 {
		t.Errorf("%d of %d nodes split across pages: the allocator no longer packs nodes the way the K=8 argument assumes", split, extra)
	}
}
