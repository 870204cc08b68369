// Package cycles models machine time: a per-component cycle meter and a
// small hardware model (TLB + L1 data cache) whose state is flushed on
// domain switches.
//
// The dominant cost TwinDrivers removes from the Xen I/O path is "the
// frequent context switches between the driver domain and guest domains
// ... which results in increased TLB and cache misses" (§2 of the paper).
// Making switch-induced TLB/cache cold-start an emergent property of the
// simulation — rather than a constant — is therefore load-bearing: the
// domU path performs more switches and automatically pays more per packet.
package cycles

import (
	"fmt"
	"sort"
	"strings"
)

// Component labels a cycle bucket. The four buckets match the breakdown in
// Figures 7 and 8 of the paper.
type Component string

// The paper's profile buckets.
const (
	CompDom0   Component = "dom0"  // dom0 / native Linux kernel work
	CompDomU   Component = "domU"  // guest kernel work
	CompXen    Component = "xen"   // hypervisor work
	CompDriver Component = "e1000" // network driver execution
)

// Cost parameters of the hardware model. These are microarchitectural
// constants (a 3 GHz Netburst-era Xeon, per the paper's testbed), not
// calibration knobs; workload-level calibration lives in internal/cost.
const (
	CostTLBMiss    = 28 // page-walk penalty
	CostL1Hit      = 2  // load-to-use on hit
	CostL1Miss     = 22 // L2 access on L1 miss
	tlbSets        = 16 // 64 entries, 4-way set associative
	tlbWays        = 4
	l1Lines        = 512 // 32 KiB / 64 B
	l1LineShift    = 6
	l1IndexMask    = l1Lines - 1
	tlbIndexMask   = tlbSets - 1
	invalidTag     = ^uint32(0)
	pageShiftConst = 12
)

// paperComps lists the paper's buckets in dense-index order. Charging one
// of them indexes Meter.dense; any other component falls back to a map.
var paperComps = [numDense]Component{CompDom0, CompDomU, CompXen, CompDriver}

const numDense = 4

// denseIndex returns c's slot in Meter.dense, or -1 for a non-paper
// component.
func denseIndex(c Component) int {
	for i, p := range paperComps {
		if p == c {
			return i
		}
	}
	return -1
}

// Meter accumulates cycles per component and exposes the hardware model.
//
// Every simulated instruction charges the current bucket, so the paper's
// four buckets live in a fixed array indexed by a dense slot resolved once
// per SetComponent/PushComponent/PopComponent; only other components pay
// for a map. A bucket is a Breakdown key once charged (even with 0 cycles),
// tracked per dense slot in the charged bitmask. The first Add after a
// SetComponent or Reset marks the bucket charged and points bucket at it,
// so every later Add is one indirect increment.
//
// A Meter holds a pointer into itself and must not be copied; make one
// with NewMeter, whose cold start the Issue shortcut relies on.
type Meter struct {
	dense   [numDense]uint64
	bucket  *uint64              // &dense[cur], charged since SetComponent/Reset; else nil
	charged uint8                // bit i set once dense[i] is charged
	other   map[Component]uint64 // non-paper buckets; nil until used
	current Component
	cur     int // denseIndex(current)
	stack   []Component

	// lifetime holds the cycles retired by past measurement epochs:
	// Reset folds the live buckets in here before zeroing them, so
	// Lifetime() — lifetime plus the live buckets — is a monotonic
	// machine clock (fault-escalation windows and MTTR need one) at zero
	// cost on the charging hot paths.
	lifetime uint64

	// Hardware state: 4-way set-associative TLB (round-robin victim),
	// direct-mapped L1D and L1I tags.
	tlb   [tlbSets][tlbWays]uint32
	tlbRR [tlbSets]uint8
	l1    [l1Lines]uint32
	l1i   [l1Lines]uint32

	// tlbGen counts TLB fills and flushes. A TLB hit changes no state, so
	// a page resident at generation g stays resident while tlbGen == g.
	// The fetch side remembers its last page (iPage, at iGen) and its last
	// line (iLine, reset to invalidTag whenever Issue could not trust it),
	// the data side its last page (dPage, at dGen), and each skips the
	// probes whose outcome is already known.
	tlbGen uint64
	iLine  uint32
	iPage  uint32
	iGen   uint64
	dPage  uint32
	dGen   uint64

	// Statistics.
	TLBMisses   uint64
	L1Misses    uint64
	L1IMisses   uint64
	MemAccesses uint64
	Flushes     uint64
}

// NewMeter returns a meter with cold hardware state, attributing to Xen.
func NewMeter() *Meter {
	m := &Meter{}
	m.SetComponent(CompXen)
	m.FlushHW()
	return m
}

// SetComponent switches the attribution bucket.
func (m *Meter) SetComponent(c Component) {
	m.current = c
	m.cur = denseIndex(c)
	m.bucket, m.iLine = nil, invalidTag
}

// Component returns the current attribution bucket.
func (m *Meter) Component() Component { return m.current }

// PushComponent switches buckets, remembering the previous one.
func (m *Meter) PushComponent(c Component) {
	m.stack = append(m.stack, m.current)
	m.SetComponent(c)
}

// PopComponent restores the bucket saved by PushComponent.
func (m *Meter) PopComponent() {
	if n := len(m.stack); n > 0 {
		m.SetComponent(m.stack[n-1])
		m.stack = m.stack[:n-1]
	}
}

// Add charges n cycles to the current component.
func (m *Meter) Add(n uint64) {
	if b := m.bucket; b != nil {
		*b += n
		return
	}
	m.addFirst(n)
}

// addFirst is Add's path for the first charge since SetComponent or Reset:
// it marks the bucket charged and, for a paper bucket, points bucket at it.
// A non-paper bucket leaves bucket nil, so it drops iLine (see Issue).
func (m *Meter) addFirst(n uint64) {
	m.charge(m.cur, m.current, n)
	if m.cur >= 0 {
		m.bucket = &m.dense[m.cur]
	} else {
		m.iLine = invalidTag
	}
}

// AddTo charges n cycles to a specific component.
func (m *Meter) AddTo(c Component, n uint64) { m.charge(denseIndex(c), c, n) }

// charge adds n to component c, whose dense slot is i (-1: none).
func (m *Meter) charge(i int, c Component, n uint64) {
	if i < 0 {
		m.addOther(c, n)
		return
	}
	m.dense[i] += n
	m.charged |= 1 << i
}

func (m *Meter) addOther(c Component, n uint64) {
	if m.other == nil {
		m.other = make(map[Component]uint64)
	}
	m.other[c] += n
}

// tlbAccess looks up (and on miss, fills) the TLB; it returns the miss
// penalty incurred.
func (m *Meter) tlbAccess(vpage uint32) uint64 {
	set := vpage & tlbIndexMask
	for w := 0; w < tlbWays; w++ {
		if m.tlb[set][w] == vpage {
			return 0
		}
	}
	m.tlb[set][m.tlbRR[set]] = vpage
	m.tlbRR[set] = (m.tlbRR[set] + 1) % tlbWays
	m.tlbGen, m.iLine = m.tlbGen+1, invalidTag
	m.TLBMisses++
	return CostTLBMiss
}

// MemAccess charges a data memory access at vaddr through the TLB and L1
// model and returns the cycles charged.
func (m *Meter) MemAccess(vaddr uint32) uint64 {
	m.MemAccesses++
	var cost uint64
	if page := vaddr >> pageShiftConst; page != m.dPage || m.tlbGen != m.dGen {
		cost = m.tlbAccess(page)
		m.dPage, m.dGen = page, m.tlbGen
	}
	line := vaddr >> l1LineShift
	li := line & l1IndexMask
	if m.l1[li] == line {
		cost += CostL1Hit
	} else {
		m.l1[li] = line
		m.L1Misses++
		cost += CostL1Miss
	}
	m.Add(cost)
	return cost
}

// IFetch charges the instruction-fetch cost at pc: an I-cache miss pays the
// L2 penalty (amortised across the straight-line code in the line); hits
// are free (fetch is pipelined). Shares the TLB with the data side.
func (m *Meter) IFetch(pc uint32) uint64 {
	var cost uint64
	if pc>>l1LineShift != m.iLine {
		cost = m.probeFetch(pc)
	}
	m.Add(cost)
	return cost
}

// Issue charges the fetch of the instruction at pc plus its 1-cycle issue
// cost, in one Add. It is IFetch(pc) followed by Add(1).
//
// Refetching the last line is free and needs no probe, so the common case
// is one compare and one increment. That rests on one invariant: iLine is
// either invalidTag or the last fetched line, with no TLB fill or flush
// since it was fetched and bucket non-nil. Its page then still hits, and
// the L1I still holds it (the L1I changes only on fetch misses, which move
// iLine, and on flushes). Every TLB fill, FlushHW, SetComponent, Reset and
// charge to a non-paper bucket resets iLine; each reset costs at most one
// re-probe of a resident line, which hits at zero cost.
func (m *Meter) Issue(pc uint32) {
	if pc>>l1LineShift == m.iLine {
		*m.bucket++
		return
	}
	m.issueProbe(pc)
}

// issueProbe is Issue's out-of-line path for a fetch from a new line.
func (m *Meter) issueProbe(pc uint32) { m.Add(m.probeFetch(pc) + 1) }

// probeFetch runs the L1I probe for a fetch at pc, and the TLB probe
// unless pc is in the last fetched page with no fill or flush since.
func (m *Meter) probeFetch(pc uint32) uint64 {
	var cost uint64
	page := pc >> pageShiftConst
	if page != m.iPage || m.tlbGen != m.iGen {
		cost = m.tlbAccess(page)
	}
	line := pc >> l1LineShift
	li := line & l1IndexMask
	if m.l1i[li] != line {
		m.l1i[li] = line
		m.L1IMisses++
		cost += CostL1Miss
	}
	m.iLine, m.iPage, m.iGen = line, page, m.tlbGen
	return cost
}

// TouchLines charges the cache cost of streaming through n bytes starting
// at vaddr (one access per cache line). Used for modeled bulk copies that
// do not execute instruction-by-instruction.
func (m *Meter) TouchLines(vaddr uint32, n int) uint64 {
	total := uint64(0)
	for off := 0; off < n; off += 1 << l1LineShift {
		total += m.MemAccess(vaddr + uint32(off))
	}
	return total
}

// FlushHW invalidates the TLB and L1 cache — the effect of a domain
// (address space) switch on real hardware.
func (m *Meter) FlushHW() {
	for i := range m.tlb {
		for w := range m.tlb[i] {
			m.tlb[i][w] = invalidTag
		}
	}
	for i := range m.l1 {
		m.l1[i] = invalidTag
	}
	for i := range m.l1i {
		m.l1i[i] = invalidTag
	}
	m.tlbGen, m.iLine = m.tlbGen+1, invalidTag
	m.Flushes++
}

// Lifetime returns every cycle charged since the meter was built. Unlike
// Total it is monotonic: Reset folds the live buckets into the retired
// count instead of discarding them, so deltas across measurement epochs
// stay meaningful (the recovery supervisor's MTTR and escalation windows
// are measured on this clock).
func (m *Meter) Lifetime() uint64 { return m.lifetime + m.Total() }

// Total returns the sum over all components.
func (m *Meter) Total() uint64 {
	var t uint64
	for _, v := range m.dense {
		t += v
	}
	for _, v := range m.other {
		t += v
	}
	return t
}

// Get returns the cycles charged to a component.
func (m *Meter) Get(c Component) uint64 {
	if i := denseIndex(c); i >= 0 {
		return m.dense[i]
	}
	return m.other[c]
}

// Breakdown returns a copy of all buckets.
func (m *Meter) Breakdown() map[Component]uint64 {
	out := make(map[Component]uint64, numDense+len(m.other))
	for i, c := range paperComps {
		if m.charged&(1<<i) != 0 {
			out[c] = m.dense[i]
		}
	}
	for k, v := range m.other {
		out[k] = v
	}
	return out
}

// Reset zeroes the buckets and statistics but keeps hardware state warm
// (measurement epochs start after warm-up). The zeroed cycles are retired
// into the lifetime clock, which never goes backward.
func (m *Meter) Reset() {
	m.lifetime += m.Total()
	m.dense, m.charged, m.other, m.bucket = [numDense]uint64{}, 0, nil, nil
	m.iLine = invalidTag
	m.TLBMisses, m.L1Misses, m.L1IMisses, m.MemAccesses = 0, 0, 0, 0
}

// Merge folds the live buckets and hardware-event statistics of every src
// meter into m. Per-queue service loops each meter their own simulated
// core; Merge is the measurement step that reunifies them into one
// machine-wide breakdown (the per-queue meters are left untouched). With
// a single source whose buckets are empty this is the identity, so the
// degenerate one-queue configuration merges to exactly the old global
// meter.
func (m *Meter) Merge(srcs ...*Meter) {
	for _, s := range srcs {
		if s == nil || s == m {
			continue
		}
		for i, v := range s.dense {
			m.dense[i] += v
		}
		m.charged |= s.charged
		for c, v := range s.other {
			m.addOther(c, v)
		}
		m.TLBMisses += s.TLBMisses
		m.L1Misses += s.L1Misses
		m.L1IMisses += s.L1IMisses
		m.MemAccesses += s.MemAccesses
	}
}

// String formats the breakdown, components sorted.
func (m *Meter) String() string {
	buckets := m.Breakdown()
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, buckets[Component(k)])
	}
	return b.String()
}
