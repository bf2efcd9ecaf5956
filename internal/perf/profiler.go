package perf

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Profiler is the PMU's sampling profiler. Simulated cycles stream in
// from demand accesses and operation remainders; every SampleInterval
// cycles it records the current logical stack —
//
//	experiment ; phase ; operation ; queue-node bucket
//
// — into a folded-stack histogram. The output loads directly in
// flamegraph.pl and speedscope, and WritePprof renders the same data as
// a gzipped pprof protobuf for `go tool pprof`.
type Profiler struct {
	root     string
	phase    string
	op       string
	cur      *stackKeys   // keys of the current root;phase[;op]
	stacks   []*stackKeys // every (phase, op) seen: a handful
	interval uint64
	acc      uint64 // cycles toward the next sample
	opAcc    uint64 // cycles ticked since the op frame last changed
	samples  map[string]uint64
}

// stackKeys caches the histogram keys under one (phase, op) so that a
// sample concatenates nothing: prefix is "root;phase[;op]" and leaf[b]
// is prefix + ";" + the frame of the nodes with bits.Len(index) == b,
// built the first time it is sampled.
type stackKeys struct {
	phase, op string
	prefix    string
	leaf      [bits.UintSize]string
}

// leafKey returns the key of the stack ending in queue-node s's frame.
func (st *stackKeys) leafKey(s int) string {
	b := bits.Len(uint(s))
	if st.leaf[b] == "" {
		st.leaf[b] = st.prefix + ";" + segFrame(s)
	}
	return st.leaf[b]
}

func newProfiler(root string, interval uint64) *Profiler {
	pr := &Profiler{root: root, phase: "comm", interval: interval, samples: make(map[string]uint64)}
	pr.rebuild()
	return pr
}

// Interval returns the sampling period in simulated cycles.
func (pr *Profiler) Interval() uint64 { return pr.interval }

func (pr *Profiler) setPhase(name string) {
	if pr.phase == name {
		return
	}
	pr.phase = name
	pr.rebuild()
}

func (pr *Profiler) setOp(name string) {
	if pr.op == name {
		return
	}
	pr.op = name
	pr.opAcc = 0
	pr.rebuild()
}

func (pr *Profiler) rebuild() {
	for _, st := range pr.stacks {
		if st.phase == pr.phase && st.op == pr.op {
			pr.cur = st
			return
		}
	}
	prefix := pr.root + ";" + pr.phase
	if pr.op != "" {
		prefix += ";" + pr.op
	}
	pr.cur = &stackKeys{phase: pr.phase, op: pr.op, prefix: prefix}
	pr.stacks = append(pr.stacks, pr.cur)
}

// tick advances the sample clock by cycles; when a sample boundary is
// crossed, the current stack is recorded with seg's queue-node bucket as
// the leaf (seg nil or negative → no leaf frame).
func (pr *Profiler) tick(cycles uint64, seg func() int) {
	pr.opAcc += cycles
	pr.acc += cycles
	if pr.acc < pr.interval {
		return
	}
	key := pr.cur.prefix
	if seg != nil {
		if s := seg(); s >= 0 {
			key = pr.cur.leafKey(s)
		}
	}
	for pr.acc >= pr.interval {
		pr.acc -= pr.interval
		pr.samples[key]++
	}
}

// tickFlat advances the clock attributing samples to the current stack
// with no leaf frame.
func (pr *Profiler) tickFlat(cycles uint64) { pr.tick(cycles, nil) }

// takeOpCycles returns and resets the cycles ticked since the op frame
// last changed (the in-op memory share, for remainder attribution).
func (pr *Profiler) takeOpCycles() uint64 {
	v := pr.opAcc
	pr.opAcc = 0
	return v
}

// segFrames names the power-of-two buckets of queue-node indexes
// ("node:0", "node:1", "node:2-3", "node:8-15"), indexed by bits.Len of
// the index: bounded frame cardinality on arbitrarily long lists.
var segFrames = func() (t [bits.UintSize]string) {
	t[0], t[1] = "node:0", "node:1"
	for b := 2; b < len(t); b++ {
		t[b] = fmt.Sprintf("node:%d-%d", 1<<(b-1), 1<<b-1)
	}
	return t
}()

// segFrame returns the frame of queue-node index s.
func segFrame(s int) string {
	if s <= 0 {
		return segFrames[0]
	}
	return segFrames[bits.Len(uint(s))]
}

// NumSamples returns the total samples recorded.
func (pr *Profiler) NumSamples() uint64 {
	var n uint64
	for _, c := range pr.samples {
		n += c
	}
	return n
}

// foldedKeys returns the stack keys sorted, for deterministic export.
func (pr *Profiler) foldedKeys() []string {
	keys := make([]string, 0, len(pr.samples))
	for k := range pr.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFolded emits the folded-stack histogram ("a;b;c 42" per line,
// sorted) — the input format of flamegraph.pl and speedscope.
func (pr *Profiler) WriteFolded(w io.Writer) error {
	for _, k := range pr.foldedKeys() {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, pr.samples[k]); err != nil {
			return err
		}
	}
	return nil
}

// Folded returns WriteFolded as a string.
func (pr *Profiler) Folded() string {
	var b strings.Builder
	pr.WriteFolded(&b)
	return b.String()
}
