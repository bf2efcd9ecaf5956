package matchlist

import (
	"spco/internal/match"
	"spco/internal/simmem"
)

// DefaultEntriesPerNode is the first spatial-locality level: two PRQ
// entries fill a 64-byte line together with the node header and next
// pointer (Figure 2).
const DefaultEntriesPerNode = 2

// llaNode is one linked-list-of-arrays node: a header (head/tail
// indexes), K contiguous entries, and a next pointer, laid out in
// simulated memory as
//
//	[0,8)            head+tail indexes
//	[8, 8+24K)       entries
//	[8+24K, 16+24K)  next pointer
type llaNode struct {
	addr    simmem.Addr
	entries []match.Posted
	head    int // first used slot
	tail    int // one past last used slot
	live    int // non-hole entries in [head,tail)
	next    *llaNode
}

func (n *llaNode) entryAddr(i int) simmem.Addr {
	return n.addr + simmem.Addr(match.NodeHeaderBytes+i*match.PostedEntryBytes)
}

func (n *llaNode) nextPtrAddr(k int) simmem.Addr {
	return n.addr + simmem.Addr(match.NodeHeaderBytes+k*match.PostedEntryBytes)
}

// llaPosted is the paper's linked list of arrays PRQ.
type llaPosted struct {
	cfg       Config
	k         int
	nodeBytes uint64
	ctrl      simmem.Addr
	head      *llaNode
	tail      *llaNode
	n         int
	bytes     uint64
	regions   simmem.RegionSet
	pool      []*llaNode
	pstats    PoolStats
}

func newLLAPosted(cfg Config) *llaPosted {
	k := cfg.EntriesPerNode
	if k <= 0 {
		k = DefaultEntriesPerNode
	}
	l := &llaPosted{cfg: cfg, k: k, nodeBytes: match.NodeBytes(k, match.PostedEntryBytes)}
	l.ctrl = cfg.Space.AllocLines(1)
	l.bytes += simmem.LineSize
	regAdd(&l.cfg, &l.regions, simmem.Region{Base: l.ctrl, Size: simmem.LineSize})
	return l
}

func (l *llaPosted) Name() string { return "lla" }

// EntriesPerNode reports K (used by reports and tests).
func (l *llaPosted) EntriesPerNode() int { return l.k }

func (l *llaPosted) allocNode() *llaNode {
	if len(l.pool) > 0 {
		n := l.pool[len(l.pool)-1]
		l.pool = l.pool[:len(l.pool)-1]
		l.pstats.Gets++
		n.head, n.tail, n.live, n.next = 0, 0, 0, nil
		for i := range n.entries {
			n.entries[i] = match.Posted{}
		}
		regAdd(&l.cfg, &l.regions, simmem.Region{Base: n.addr, Size: l.nodeBytes})
		l.bytes += l.nodeBytes
		return n
	}
	if l.cfg.Pool {
		l.pstats.Misses++
	}
	// Nodes are 128-byte aligned so the adjacent-line prefetcher's
	// buddy is the node's own second line, exactly as the paper's
	// explanation of the 8-entry peak assumes.
	addr := l.cfg.Space.Alloc(l.nodeBytes, 128)
	l.bytes += l.nodeBytes
	regAdd(&l.cfg, &l.regions, simmem.Region{Base: addr, Size: l.nodeBytes})
	return &llaNode{addr: addr, entries: make([]match.Posted, l.k)}
}

func (l *llaPosted) freeNode(n *llaNode) {
	regRemove(&l.cfg, &l.regions, simmem.Region{Base: n.addr, Size: l.nodeBytes})
	l.bytes -= l.nodeBytes
	if l.cfg.Pool {
		l.pool = append(l.pool, n)
		l.pstats.Puts++
	} else {
		l.cfg.Space.Free(n.addr, l.nodeBytes)
	}
}

// PoolStats implements PoolStatser.
func (l *llaPosted) PoolStats() PoolStats {
	st := l.pstats
	st.Size = len(l.pool)
	return st
}

// Post appends at the tail array, growing the list by a node when full.
// Per-post unrelated allocations (request objects) still land between
// node allocations, as in a real library.
func (l *llaPosted) Post(p match.Posted) {
	l.cfg.Space.Alloc(l.cfg.noise(), 8)
	l.cfg.Acc.Access(l.ctrl, 16)
	if l.tail == nil || l.tail.tail == l.k {
		n := l.allocNode()
		if l.tail == nil {
			l.head, l.tail = n, n
		} else {
			l.cfg.Acc.Access(l.tail.nextPtrAddr(l.k), 8)
			l.tail.next = n
			l.tail = n
		}
	}
	n := l.tail
	n.entries[n.tail] = p
	l.cfg.Acc.Access(n.entryAddr(n.tail), match.PostedEntryBytes)
	l.cfg.Acc.Access(n.addr, 8) // update tail index
	n.tail++
	n.live++
	l.n++
}

// Search walks nodes in order. The per-slot candidate test runs through
// the packed branch-free kernel (match.FindPosted) over the node's
// contiguous entry array; the modeled accounting is that of a
// slot-by-slot loop — every slot up to and including the hit (or every
// used slot on a miss) is charged one entry access and one depth unit,
// holes included — issued as one run per node.
func (l *llaPosted) Search(e match.Envelope) (match.Posted, int, bool) {
	l.cfg.Acc.Access(l.ctrl, 16)
	depth, seg := 0, 0
	var prev *llaNode
	for n := l.head; n != nil; n = n.next {
		l.cfg.setSeg(seg)
		l.cfg.Acc.Access(n.addr, 8) // head/tail indexes
		hit := match.FindPosted(n.entries[n.head:n.tail], e)
		last := n.tail
		if hit >= 0 {
			last = n.head + hit + 1
		}
		l.cfg.Acc.AccessRun(n.entryAddr(n.head), match.PostedEntryBytes, last-n.head)
		depth += last - n.head
		if hit >= 0 {
			i := n.head + hit
			ent := n.entries[i]
			l.removeAt(prev, n, i)
			l.cfg.setSeg(-1)
			return ent, depth, true
		}
		l.cfg.Acc.Access(n.nextPtrAddr(l.k), 8)
		prev = n
		seg++
	}
	l.cfg.setSeg(-1)
	return match.Posted{}, depth, false
}

// Cancel removes the entry with the given request handle.
func (l *llaPosted) Cancel(req uint64) bool {
	l.cfg.Acc.Access(l.ctrl, 16)
	var prev *llaNode
	for n := l.head; n != nil; n = n.next {
		l.cfg.Acc.Access(n.addr, 8)
		hit, last := -1, n.tail
		for i := n.head; i < n.tail; i++ {
			if ent := n.entries[i]; !ent.IsHole() && ent.Req == req {
				hit, last = i, i+1
				break
			}
		}
		l.cfg.Acc.AccessRun(n.entryAddr(n.head), match.PostedEntryBytes, last-n.head)
		if hit >= 0 {
			l.removeAt(prev, n, hit)
			return true
		}
		l.cfg.Acc.Access(n.nextPtrAddr(l.k), 8)
		prev = n
	}
	return false
}

// removeAt deletes slot i of node n. Mid-array deletions become holes
// (tag/source invalidated, masks set — Section 3.1); head deletions
// advance the head index past any leading holes; empty nodes unlink.
func (l *llaPosted) removeAt(prev, n *llaNode, i int) {
	if i == n.head {
		n.head++
		for n.head < n.tail && n.entries[n.head].IsHole() {
			l.cfg.Acc.Access(n.entryAddr(n.head), match.PostedEntryBytes)
			n.head++
		}
	} else {
		n.entries[i] = match.Hole()
		l.cfg.Acc.Access(n.entryAddr(i), match.PostedEntryBytes)
	}
	l.cfg.Acc.Access(n.addr, 8)
	n.live--
	l.n--
	// Unlink a node once it holds no live entries and cannot receive
	// future appends (only the tail node with free slots can).
	if n.live == 0 && (n != l.tail || n.tail == l.k) {
		l.unlinkNode(prev, n)
	}
}

func (l *llaPosted) unlinkNode(prev, n *llaNode) {
	if prev == nil {
		l.head = n.next
	} else {
		l.cfg.Acc.Access(prev.nextPtrAddr(l.k), 8)
		prev.next = n.next
	}
	if l.tail == n {
		l.tail = prev
	}
	l.cfg.Acc.Access(l.ctrl, 16)
	l.freeNode(n)
}

func (l *llaPosted) Len() int { return l.n }

func (l *llaPosted) Regions() []simmem.Region { return l.regions.Regions() }

func (l *llaPosted) MemoryBytes() uint64 { return l.bytes }

// llaUnexpected is the UMQ variant: 16-byte entries, three per line at
// the first locality level (K_umq = 3·K_prq/2 keeps the node byte size
// aligned with the PRQ sweep).
type llaUnexpected struct {
	cfg       Config
	k         int
	nodeBytes uint64
	ctrl      simmem.Addr
	head      *lluNode
	tail      *lluNode
	n         int
	bytes     uint64
	regions   simmem.RegionSet
	pool      []*lluNode
	pstats    PoolStats
}

type lluNode struct {
	addr    simmem.Addr
	entries []match.Unexpected
	head    int
	tail    int
	live    int
	next    *lluNode
}

func (n *lluNode) entryAddr(i int) simmem.Addr {
	return n.addr + simmem.Addr(match.NodeHeaderBytes+i*match.UnexpectedEntryBytes)
}

func (n *lluNode) nextPtrAddr(k int) simmem.Addr {
	return n.addr + simmem.Addr(match.NodeHeaderBytes+k*match.UnexpectedEntryBytes)
}

// UMQEntriesFor maps a PRQ K to the UMQ node capacity: 2 PRQ entries
// correspond to 3 UMQ entries per node (same 64-byte node).
func UMQEntriesFor(prqK int) int {
	if prqK <= 0 {
		prqK = DefaultEntriesPerNode
	}
	k := prqK * 3 / 2
	if k < 3 {
		k = 3
	}
	return k
}

func newLLAUnexpected(cfg Config) *llaUnexpected {
	k := UMQEntriesFor(cfg.EntriesPerNode)
	l := &llaUnexpected{cfg: cfg, k: k, nodeBytes: match.NodeBytes(k, match.UnexpectedEntryBytes)}
	l.ctrl = cfg.Space.AllocLines(1)
	l.bytes += simmem.LineSize
	regAdd(&l.cfg, &l.regions, simmem.Region{Base: l.ctrl, Size: simmem.LineSize})
	return l
}

func (l *llaUnexpected) Name() string { return "lla" }

func (l *llaUnexpected) allocNode() *lluNode {
	if len(l.pool) > 0 {
		n := l.pool[len(l.pool)-1]
		l.pool = l.pool[:len(l.pool)-1]
		l.pstats.Gets++
		n.head, n.tail, n.live, n.next = 0, 0, 0, nil
		regAdd(&l.cfg, &l.regions, simmem.Region{Base: n.addr, Size: l.nodeBytes})
		l.bytes += l.nodeBytes
		return n
	}
	if l.cfg.Pool {
		l.pstats.Misses++
	}
	addr := l.cfg.Space.Alloc(l.nodeBytes, 128)
	l.bytes += l.nodeBytes
	regAdd(&l.cfg, &l.regions, simmem.Region{Base: addr, Size: l.nodeBytes})
	return &lluNode{addr: addr, entries: make([]match.Unexpected, l.k)}
}

func (l *llaUnexpected) Append(u match.Unexpected) {
	l.cfg.Space.Alloc(l.cfg.noise(), 8)
	l.cfg.Acc.Access(l.ctrl, 16)
	if l.tail == nil || l.tail.tail == l.k {
		n := l.allocNode()
		if l.tail == nil {
			l.head, l.tail = n, n
		} else {
			l.cfg.Acc.Access(l.tail.nextPtrAddr(l.k), 8)
			l.tail.next = n
			l.tail = n
		}
	}
	n := l.tail
	n.entries[n.tail] = u
	l.cfg.Acc.Access(n.entryAddr(n.tail), match.UnexpectedEntryBytes)
	l.cfg.Acc.Access(n.addr, 8)
	n.tail++
	n.live++
	l.n++
}

// SearchBy mirrors llaPosted.Search: the packed kernel
// (match.FindUnexpected) picks the candidate, the accounting charges
// the accesses and depth of a slot-by-slot loop, one run per node.
func (l *llaUnexpected) SearchBy(p match.Posted) (match.Unexpected, int, bool) {
	l.cfg.Acc.Access(l.ctrl, 16)
	depth, seg := 0, 0
	var prev *lluNode
	for n := l.head; n != nil; n = n.next {
		l.cfg.setSeg(seg)
		l.cfg.Acc.Access(n.addr, 8)
		hit := match.FindUnexpected(n.entries[n.head:n.tail], p)
		last := n.tail
		if hit >= 0 {
			last = n.head + hit + 1
		}
		l.cfg.Acc.AccessRun(n.entryAddr(n.head), match.UnexpectedEntryBytes, last-n.head)
		depth += last - n.head
		if hit >= 0 {
			i := n.head + hit
			ent := n.entries[i]
			l.removeAt(prev, n, i)
			l.cfg.setSeg(-1)
			return ent, depth, true
		}
		l.cfg.Acc.Access(n.nextPtrAddr(l.k), 8)
		prev = n
		seg++
	}
	l.cfg.setSeg(-1)
	return match.Unexpected{}, depth, false
}

func (l *llaUnexpected) removeAt(prev, n *lluNode, i int) {
	if i == n.head {
		n.head++
		for n.head < n.tail && n.entries[n.head].IsHole() {
			l.cfg.Acc.Access(n.entryAddr(n.head), match.UnexpectedEntryBytes)
			n.head++
		}
	} else {
		n.entries[i] = match.UnexpectedHole()
		l.cfg.Acc.Access(n.entryAddr(i), match.UnexpectedEntryBytes)
	}
	l.cfg.Acc.Access(n.addr, 8)
	n.live--
	l.n--
	if n.live == 0 && (n != l.tail || n.tail == l.k) {
		if prev == nil {
			l.head = n.next
		} else {
			l.cfg.Acc.Access(prev.nextPtrAddr(l.k), 8)
			prev.next = n.next
		}
		if l.tail == n {
			l.tail = prev
		}
		l.cfg.Acc.Access(l.ctrl, 16)
		regRemove(&l.cfg, &l.regions, simmem.Region{Base: n.addr, Size: l.nodeBytes})
		l.bytes -= l.nodeBytes
		if l.cfg.Pool {
			l.pool = append(l.pool, n)
			l.pstats.Puts++
		} else {
			l.cfg.Space.Free(n.addr, l.nodeBytes)
		}
	}
}

// PoolStats implements PoolStatser.
func (l *llaUnexpected) PoolStats() PoolStats {
	st := l.pstats
	st.Size = len(l.pool)
	return st
}

func (l *llaUnexpected) Len() int { return l.n }

func (l *llaUnexpected) Regions() []simmem.Region { return l.regions.Regions() }

func (l *llaUnexpected) MemoryBytes() uint64 { return l.bytes }
