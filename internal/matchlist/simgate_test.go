package matchlist

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"spco/internal/match"
	"spco/internal/simmem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simgate_lla_accesses.golden from the current structures")

// seqAccessor folds every (addr, size) a structure touches, in order,
// into a hash. A run is by definition its elements one after another,
// so the hash cannot tell a run-granular charge from per-entry ones —
// which is the property the golden holds.
type seqAccessor struct {
	n    uint64
	hash uint64
}

func (s *seqAccessor) Access(addr simmem.Addr, size uint64) uint64 {
	s.n++
	s.hash = (s.hash ^ uint64(addr)) * 0x100000001b3
	s.hash = (s.hash ^ size) * 0x100000001b3
	return 0
}

func (s *seqAccessor) AccessRun(addr simmem.Addr, size uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		s.Access(addr+simmem.Addr(uint64(i)*size), size)
	}
	return 0
}

// llaAccessDigest drives a seeded post/search/cancel mix through the
// LLA PRQ and an append/search mix through the LLA UMQ and reports the
// access-sequence hash with the functional outcome folded in.
func llaAccessDigest(k int, pool bool) string {
	acc := &seqAccessor{hash: 0xcbf29ce484222325}
	cfg := Config{Space: simmem.NewSpace(), Acc: acc, EntriesPerNode: k, Pool: pool}
	prq := NewPosted(KindLLA, cfg)
	umq := NewUnexpected(KindLLA, cfg)
	rng := rand.New(rand.NewSource(int64(k)*2 + 1))
	var out uint64
	fold := func(v ...uint64) {
		for _, x := range v {
			out = (out ^ x) * 0x100000001b3
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	req := uint64(0)
	for i := 0; i < 6000; i++ {
		rank, tag := rng.Intn(6), rng.Intn(4)
		switch op := rng.Intn(10); {
		case op < 4:
			req++
			if rng.Intn(8) == 0 {
				rank = match.AnySource
			}
			if rng.Intn(8) == 0 {
				tag = match.AnyTag
			}
			prq.Post(match.NewPosted(rank, tag, 0, req))
		case op < 7:
			p, depth, ok := prq.Search(match.Envelope{Rank: int32(rank), Tag: int32(tag)})
			fold(p.Req, uint64(depth), b2u(ok))
		case op == 7 && req > 0:
			fold(b2u(prq.Cancel(1 + uint64(rng.Intn(int(req))))))
		case op == 8:
			umq.Append(match.NewUnexpected(match.Envelope{Rank: int32(rank), Tag: int32(tag)}, uint64(i)))
		default:
			if rng.Intn(6) == 0 {
				rank = match.AnySource
			}
			u, depth, ok := umq.SearchBy(match.NewPosted(rank, tag, 0, 0))
			fold(u.Msg, uint64(depth), b2u(ok))
		}
	}
	return fmt.Sprintf("k=%d pool=%v accesses %d seq %016x results %016x prq %d umq %d",
		k, pool, acc.n, acc.hash, out, prq.Len(), umq.Len())
}

// TestSimGateLLAAccessSequence pins the exact (addr, size) sequence the
// LLA reports to its accessor against a golden recorded before Search,
// SearchBy and Cancel began charging a node's entries as one run.
func TestSimGateLLAAccessSequence(t *testing.T) {
	const path = "testdata/simgate_lla_accesses.golden"
	var got bytes.Buffer
	for _, k := range []int{2, 3, 8, 32, 100} {
		for _, pool := range []bool{false, true} {
			fmt.Fprintln(&got, llaAccessDigest(k, pool))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("LLA access sequence moved:\n got:\n%swant:\n%s", got.Bytes(), want)
	}
}
