package cycles

import (
	"math/rand"
	"testing"
)

// refMeter is a straight-line model of Meter with no shortcuts: every
// fetch and data access probes the TLB and its L1, every charge goes
// through a map, and the key set is the set of components ever charged
// since the last Reset. The fast paths in Meter (the TLB-generation
// fetch and data-page skips, the cached bucket pointer) must be
// indistinguishable from it.
type refMeter struct {
	buckets  map[Component]uint64
	current  Component
	stack    []Component
	lifetime uint64

	tlb   [tlbSets][tlbWays]uint32
	tlbRR [tlbSets]uint8
	l1    [l1Lines]uint32
	l1i   [l1Lines]uint32

	tlbMisses, l1Misses, l1iMisses, memAccesses uint64
}

func newRefMeter() *refMeter {
	r := &refMeter{buckets: map[Component]uint64{}, current: CompXen}
	r.flush()
	return r
}

func (r *refMeter) add(c Component, n uint64) { r.buckets[c] += n }

func (r *refMeter) tlbProbe(vpage uint32) uint64 {
	set := vpage & tlbIndexMask
	for w := 0; w < tlbWays; w++ {
		if r.tlb[set][w] == vpage {
			return 0
		}
	}
	r.tlb[set][r.tlbRR[set]] = vpage
	r.tlbRR[set] = (r.tlbRR[set] + 1) % tlbWays
	r.tlbMisses++
	return CostTLBMiss
}

func (r *refMeter) memAccess(vaddr uint32) uint64 {
	r.memAccesses++
	cost := r.tlbProbe(vaddr >> pageShiftConst)
	line := vaddr >> l1LineShift
	if r.l1[line&l1IndexMask] == line {
		cost += CostL1Hit
	} else {
		r.l1[line&l1IndexMask] = line
		r.l1Misses++
		cost += CostL1Miss
	}
	r.add(r.current, cost)
	return cost
}

func (r *refMeter) fetchCost(pc uint32) uint64 {
	cost := r.tlbProbe(pc >> pageShiftConst)
	line := pc >> l1LineShift
	if r.l1i[line&l1IndexMask] != line {
		r.l1i[line&l1IndexMask] = line
		r.l1iMisses++
		cost += CostL1Miss
	}
	return cost
}

func (r *refMeter) flush() {
	for i := range r.tlb {
		for w := range r.tlb[i] {
			r.tlb[i][w] = invalidTag
		}
	}
	for i := range r.l1 {
		r.l1[i], r.l1i[i] = invalidTag, invalidTag
	}
}

func (r *refMeter) total() uint64 {
	var t uint64
	for _, v := range r.buckets {
		t += v
	}
	return t
}

func (r *refMeter) reset() {
	r.lifetime += r.total()
	r.buckets = map[Component]uint64{}
	r.tlbMisses, r.l1Misses, r.l1iMisses, r.memAccesses = 0, 0, 0, 0
}

func (r *refMeter) merge(s *refMeter) {
	for c, v := range s.buckets {
		r.buckets[c] += v
	}
	r.tlbMisses += s.tlbMisses
	r.l1Misses += s.l1Misses
	r.l1iMisses += s.l1iMisses
	r.memAccesses += s.memAccesses
}

// meterPair drives a Meter and its reference in lockstep. side is a
// second pair that only Merge reads.
type meterPair struct {
	m    *Meter
	r    *refMeter
	side *meterPair
}

func newMeterPair() *meterPair {
	p := &meterPair{m: NewMeter(), r: newRefMeter()}
	p.side = &meterPair{m: NewMeter(), r: newRefMeter()}
	return p
}

// Operations of a trace. An op byte selects the operation; the address
// or component comes from the next bytes.
const (
	opIFetch = iota
	opIssue
	opMemAccess
	opAdd
	opAddTo
	opSetComponent
	opPush
	opPop
	opFlush
	opReset
	opMerge
	opSideFetch
	opSideAccess
	opTouchLines
	numOps
)

var traceComps = []Component{CompDom0, CompDomU, CompXen, CompDriver, "upcall", "softirq"}

// traceAddr maps two bytes to an address drawn from a few pages that
// collide in one TLB set and a few lines that collide in one L1 index,
// so short traces still hit, miss and evict.
func traceAddr(a, b byte) uint32 {
	page := uint32(a&7)*tlbSets + uint32(a>>3&3) // 8 pages per set, 4 sets
	line := uint32(b&7) * 8                      // lines 0..56 of the page
	return page<<pageShiftConst | line<<l1LineShift | uint32(b>>3&7)*8
}

func (p *meterPair) apply(t *testing.T, op, a, b byte) {
	t.Helper()
	m, r := p.m, p.r
	switch int(op) % numOps {
	case opIFetch:
		pc := traceAddr(a, b)
		got, want := m.IFetch(pc), r.fetchCost(pc)
		r.add(r.current, want)
		if got != want {
			t.Fatalf("IFetch(%#x) = %d, reference %d", pc, got, want)
		}
	case opIssue:
		pc := traceAddr(a, b)
		m.Issue(pc)
		r.add(r.current, r.fetchCost(pc)+1)
	case opMemAccess:
		va := traceAddr(a, b)
		if got, want := m.MemAccess(va), r.memAccess(va); got != want {
			t.Fatalf("MemAccess(%#x) = %d, reference %d", va, got, want)
		}
	case opAdd:
		m.Add(uint64(a % 3)) // zero-cycle charges still create keys
		r.add(r.current, uint64(a%3))
	case opAddTo:
		c := traceComps[int(a)%len(traceComps)]
		m.AddTo(c, uint64(b%3))
		r.add(c, uint64(b%3))
	case opSetComponent:
		c := traceComps[int(a)%len(traceComps)]
		m.SetComponent(c)
		r.current = c
	case opPush:
		c := traceComps[int(a)%len(traceComps)]
		m.PushComponent(c)
		r.stack = append(r.stack, r.current)
		r.current = c
	case opPop:
		m.PopComponent()
		if n := len(r.stack); n > 0 {
			r.current, r.stack = r.stack[n-1], r.stack[:n-1]
		}
	case opFlush:
		m.FlushHW()
		r.flush()
	case opReset:
		m.Reset()
		r.reset()
	case opMerge:
		m.Merge(p.side.m)
		r.merge(p.side.r)
	case opSideFetch:
		p.side.apply(t, opIFetch, a, b)
	case opSideAccess:
		p.side.apply(t, opMemAccess, a, b)
	case opTouchLines:
		va, n := traceAddr(a, b), int(a%5)*64+int(b%64)
		got := m.TouchLines(va, n)
		var want uint64
		for off := 0; off < n; off += 1 << l1LineShift {
			want += r.memAccess(va + uint32(off))
		}
		if got != want {
			t.Fatalf("TouchLines(%#x, %d) = %d, reference %d", va, n, got, want)
		}
	}
	p.check(t)
}

// check compares everything observable.
func (p *meterPair) check(t *testing.T) {
	t.Helper()
	m, r := p.m, p.r
	if m.TLBMisses != r.tlbMisses || m.L1Misses != r.l1Misses ||
		m.L1IMisses != r.l1iMisses || m.MemAccesses != r.memAccesses {
		t.Fatalf("stats tlb=%d l1=%d l1i=%d mem=%d, reference %d %d %d %d",
			m.TLBMisses, m.L1Misses, m.L1IMisses, m.MemAccesses,
			r.tlbMisses, r.l1Misses, r.l1iMisses, r.memAccesses)
	}
	got := m.Breakdown()
	if len(got) != len(r.buckets) {
		t.Fatalf("Breakdown() = %v, reference %v", got, r.buckets)
	}
	for c, v := range r.buckets {
		if g, ok := got[c]; !ok || g != v {
			t.Fatalf("Breakdown()[%s] = %d (present %v), reference %d", c, g, ok, v)
		}
	}
	if m.Lifetime() != r.lifetime+r.total() {
		t.Fatalf("Lifetime() = %d, reference %d", m.Lifetime(), r.lifetime+r.total())
	}
	if m.Component() != r.current {
		t.Fatalf("Component() = %s, reference %s", m.Component(), r.current)
	}
}

func runTrace(t *testing.T, trace []byte) {
	t.Helper()
	p := newMeterPair()
	for i := 0; i+2 < len(trace); i += 3 {
		p.apply(t, trace[i], trace[i+1], trace[i+2])
	}
}

// TestMeterFastPathMatchesReference runs Meter against the reference
// model on seeded random traces and on traces built to defeat each
// shortcut.
func TestMeterFastPathMatchesReference(t *testing.T) {
	// Page 0 is in TLB set 0, as are pages 16, 32, 48 and 64.
	pc := uint32(0x0000_0040)
	setMate := func(k uint32) uint32 { return k * tlbSets << pageShiftConst }
	adversarial := map[string]func(p *meterPair){
		"same-line refetch after data fills evict its page": func(p *meterPair) {
			p.m.IFetch(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc))
			for k := uint32(1); k <= tlbWays; k++ { // four fills in set 0
				p.m.MemAccess(setMate(k))
				p.r.memAccess(setMate(k))
			}
			p.m.Issue(pc + 8) // same line: the page must miss again
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
		},
		"same-page fetch of a new line after data fills evict the page": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			for k := uint32(1); k <= tlbWays; k++ {
				p.m.MemAccess(setMate(k))
				p.r.memAccess(setMate(k))
			}
			p.m.Issue(pc + 1<<l1LineShift)
			p.r.add(p.r.current, p.r.fetchCost(pc+1<<l1LineShift)+1)
		},
		"same-line refetch after one data fill in the set": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.MemAccess(setMate(1))
			p.r.memAccess(setMate(1))
			p.m.Issue(pc + 16)
			p.r.add(p.r.current, p.r.fetchCost(pc+16)+1)
		},
		"data page evicted by fetch fills": func(p *meterPair) {
			p.m.MemAccess(setMate(1))
			p.r.memAccess(setMate(1))
			for k := uint32(2); k <= tlbWays+1; k++ {
				p.m.IFetch(setMate(k))
				p.r.add(p.r.current, p.r.fetchCost(setMate(k)))
			}
			p.m.MemAccess(setMate(1) + 4)
			p.r.memAccess(setMate(1) + 4)
		},
		"flush between fetches and accesses": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.MemAccess(0x5000)
			p.r.memAccess(0x5000)
			p.m.FlushHW()
			p.r.flush()
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.MemAccess(0x5000)
			p.r.memAccess(0x5000)
		},
		"reset, merge and component switches between charges": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.Reset()
			p.r.reset()
			p.m.Issue(pc) // first charge after Reset: key reappears
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.SetComponent(CompDriver)
			p.r.current = CompDriver
			p.m.Add(0)
			p.r.add(CompDriver, 0)
			p.side.m.AddTo(CompDomU, 4)
			p.side.r.add(CompDomU, 4)
			p.m.Merge(p.side.m)
			p.r.merge(p.side.r)
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.PushComponent("upcall")
			p.r.stack, p.r.current = append(p.r.stack, p.r.current), "upcall"
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.PopComponent()
			p.r.current, p.r.stack = p.r.stack[0], nil
			p.m.Reset()
			p.r.reset()
			p.m.Merge(p.side.m)
			p.r.merge(p.side.r)
			p.m.Add(2) // charged after a Merge marked the bucket
			p.r.add(p.r.current, 2)
		},
		// The cases below put each iLine reset of Issue's shortcut
		// between two fetches from one line.
		"non-paper charges between same-line issues, then a paper bucket": func(p *meterPair) {
			p.m.SetComponent(CompDriver)
			p.r.current = CompDriver
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.PushComponent("upcall") // bucket is nil from here on
			p.r.stack, p.r.current = append(p.r.stack, p.r.current), "upcall"
			p.m.Issue(pc + 8)
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
			p.m.Add(2)
			p.r.add(p.r.current, 2)
			p.m.Issue(pc + 16)
			p.r.add(p.r.current, p.r.fetchCost(pc+16)+1)
			p.m.IFetch(pc + 24)
			p.r.add(p.r.current, p.r.fetchCost(pc+24))
			p.m.Issue(pc + 24)
			p.r.add(p.r.current, p.r.fetchCost(pc+24)+1)
			p.m.PopComponent()
			p.r.current, p.r.stack = p.r.stack[0], nil
			p.m.Issue(pc + 32)
			p.r.add(p.r.current, p.r.fetchCost(pc+32)+1)
			p.m.Issue(pc + 40)
			p.r.add(p.r.current, p.r.fetchCost(pc+40)+1)
		},
		"AddTo a non-paper bucket between same-line issues": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.AddTo("softirq", 3)
			p.r.add("softirq", 3)
			p.m.Issue(pc + 8)
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
		},
		"Reset between same-line issues": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.Reset()
			p.r.reset()
			p.m.Issue(pc + 8) // the bucket's key must reappear
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
			p.m.Issue(pc + 16)
			p.r.add(p.r.current, p.r.fetchCost(pc+16)+1)
		},
		"Merge between same-line issues": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.side.m.SetComponent(CompDomU)
			p.side.r.current = CompDomU
			p.side.m.Issue(pc)
			p.side.r.add(CompDomU, p.side.r.fetchCost(pc)+1)
			p.side.m.MemAccess(setMate(1))
			p.side.r.memAccess(setMate(1))
			p.m.Merge(p.side.m)
			p.r.merge(p.side.r)
			p.m.Issue(pc + 8)
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
		},
		"data-side TLB fill in the fetched page's set between same-line issues": func(p *meterPair) {
			p.m.Issue(pc)
			p.r.add(p.r.current, p.r.fetchCost(pc)+1)
			p.m.Issue(pc + 8)
			p.r.add(p.r.current, p.r.fetchCost(pc+8)+1)
			p.m.MemAccess(setMate(2) + 0x40) // fills a way of set 0
			p.r.memAccess(setMate(2) + 0x40)
			p.m.Issue(pc + 16)
			p.r.add(p.r.current, p.r.fetchCost(pc+16)+1)
			p.m.MemAccess(setMate(3)) // fills another way; the page survives
			p.r.memAccess(setMate(3))
			p.m.Issue(pc + 24)
			p.r.add(p.r.current, p.r.fetchCost(pc+24)+1)
		},
	}
	for name, run := range adversarial {
		t.Run(name, func(t *testing.T) {
			p := newMeterPair()
			p.check(t)
			run(p)
			p.check(t)
		})
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]byte, 3*2000)
		rng.Read(trace)
		// Mostly fetches and accesses, like the interpreter.
		for i := 0; i < len(trace); i += 3 {
			if trace[i]&3 != 0 {
				trace[i] = []byte{opIssue, opIssue, opMemAccess}[trace[i]%3]
			}
		}
		runTrace(t, trace)
	}
}

// FuzzMeterAccess differentially fuzzes Meter against the reference
// model: each three input bytes are one operation.
func FuzzMeterAccess(f *testing.F) {
	f.Add([]byte{opIssue, 0, 1, opMemAccess, 8, 1, opIssue, 0, 2})
	f.Add([]byte{opFlush, 0, 0, opIssue, 3, 3, opReset, 0, 0, opIssue, 3, 4})
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) > 3*4096 {
			trace = trace[:3*4096]
		}
		runTrace(t, trace)
	})
}
