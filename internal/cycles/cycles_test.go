package cycles

import (
	"testing"
	"testing/quick"
)

func TestAttribution(t *testing.T) {
	m := NewMeter()
	m.SetComponent(CompDom0)
	m.Add(100)
	m.PushComponent(CompXen)
	m.Add(7)
	m.PopComponent()
	m.Add(3)
	if m.Get(CompDom0) != 103 || m.Get(CompXen) != 7 {
		t.Errorf("buckets: %s", m)
	}
	if m.Total() != 110 {
		t.Errorf("total = %d", m.Total())
	}
	m.AddTo(CompDriver, 5)
	if m.Get(CompDriver) != 5 {
		t.Error("AddTo failed")
	}
}

func TestPushPopNesting(t *testing.T) {
	m := NewMeter()
	m.SetComponent(CompDomU)
	m.PushComponent(CompXen)
	m.PushComponent(CompDom0)
	if m.Component() != CompDom0 {
		t.Error("push failed")
	}
	m.PopComponent()
	if m.Component() != CompXen {
		t.Error("pop failed")
	}
	m.PopComponent()
	if m.Component() != CompDomU {
		t.Error("pop to base failed")
	}
	m.PopComponent() // underflow is a no-op
	if m.Component() != CompDomU {
		t.Error("underflow changed component")
	}
}

func TestTLBAndCacheWarmth(t *testing.T) {
	m := NewMeter()
	first := m.MemAccess(0x10000)
	second := m.MemAccess(0x10004) // same line, same page
	if second >= first {
		t.Errorf("warm access (%d) should be cheaper than cold (%d)", second, first)
	}
	if m.TLBMisses != 1 || m.L1Misses != 1 {
		t.Errorf("misses: tlb=%d l1=%d", m.TLBMisses, m.L1Misses)
	}
	// New line, same page: L1 miss only.
	third := m.MemAccess(0x10040)
	if third != CostL1Miss {
		t.Errorf("new line cost = %d, want %d", third, CostL1Miss)
	}
	// Flush: both cold again.
	m.FlushHW()
	fourth := m.MemAccess(0x10000)
	if fourth != first {
		t.Errorf("post-flush cost = %d, want %d", fourth, first)
	}
}

func TestIFetchWarmth(t *testing.T) {
	m := NewMeter()
	cold := m.IFetch(0x100000)
	warm := m.IFetch(0x100008) // same line
	if cold == 0 || warm != 0 {
		t.Errorf("ifetch cold=%d warm=%d", cold, warm)
	}
	if m.L1IMisses != 1 {
		t.Errorf("L1I misses = %d", m.L1IMisses)
	}
}

func TestTouchLines(t *testing.T) {
	m := NewMeter()
	cost := m.TouchLines(0x20000, 1500)
	// 1500 bytes = 24 lines; all cold.
	if m.L1Misses != 24 {
		t.Errorf("L1 misses = %d, want 24", m.L1Misses)
	}
	if cost == 0 {
		t.Error("no cost charged")
	}
}

func TestResetKeepsWarmth(t *testing.T) {
	m := NewMeter()
	m.MemAccess(0x30000)
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset did not clear buckets")
	}
	c := m.MemAccess(0x30000)
	if c != CostL1Hit {
		t.Errorf("warmth lost across reset: cost = %d", c)
	}
}

// Property: repeated access to the same address is never dearer than the
// first, and total equals the sum of per-component buckets.
func TestQuickWarmthMonotone(t *testing.T) {
	fn := func(addr uint32) bool {
		m := NewMeter()
		c1 := m.MemAccess(addr)
		c2 := m.MemAccess(addr)
		if c2 > c1 {
			return false
		}
		var sum uint64
		for _, v := range m.Breakdown() {
			sum += v
		}
		return sum == m.Total()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// TestBreakdownKeySet pins which buckets appear as Breakdown keys: a
// bucket charged even 0 cycles is a key (the BENCH_*.json breakdown maps
// serialize it), an uncharged one is not, and reading never creates one.
func TestBreakdownKeySet(t *testing.T) {
	m := NewMeter()
	if got := m.Breakdown(); len(got) != 0 {
		t.Fatalf("fresh meter breakdown = %v, want empty", got)
	}
	m.SetComponent(CompDomU)
	m.Add(0)
	m.AddTo(CompDom0, 5)
	_ = m.Get(CompDriver)
	_ = m.Get("upcall")
	got := m.Breakdown()
	want := map[Component]uint64{CompDomU: 0, CompDom0: 5}
	if len(got) != len(want) {
		t.Fatalf("breakdown = %v, want %v", got, want)
	}
	for c, v := range want {
		if g, ok := got[c]; !ok || g != v {
			t.Errorf("breakdown[%s] = %d (present %v), want %d", c, g, ok, v)
		}
	}
	got[CompXen] = 99 // a copy: mutating it leaves the meter alone
	if _, ok := m.Breakdown()[CompXen]; ok {
		t.Error("Breakdown returned the meter's own storage")
	}
}

// TestNonPaperComponent covers a bucket outside the paper's four: it is
// charged, read, totalled and listed like any other.
func TestNonPaperComponent(t *testing.T) {
	m := NewMeter()
	m.AddTo("upcall", 7)
	m.AddTo("upcall", 0)
	m.PushComponent("softirq")
	m.Add(3)
	m.MemAccess(0x1000)
	m.PopComponent()
	m.Add(2) // back on xen
	if m.Get("upcall") != 7 {
		t.Errorf("upcall = %d, want 7", m.Get("upcall"))
	}
	soft := m.Get("softirq")
	if soft != 3+CostTLBMiss+CostL1Miss {
		t.Errorf("softirq = %d", soft)
	}
	if m.Get(CompXen) != 2 || m.Total() != 7+soft+2 {
		t.Errorf("xen = %d total = %d", m.Get(CompXen), m.Total())
	}
	if s := m.String(); s != "softirq=53 upcall=7 xen=2" {
		t.Errorf("String() = %q", s)
	}
}

// TestMergeDenseAndFallback merges meters charging both paper and
// non-paper buckets: values sum and key sets union, zero-cycle keys too.
func TestMergeDenseAndFallback(t *testing.T) {
	a, b, c := NewMeter(), NewMeter(), NewMeter()
	a.AddTo(CompDom0, 10)
	a.AddTo("upcall", 1)
	b.AddTo(CompDom0, 5)
	b.AddTo(CompDriver, 0)
	b.AddTo("upcall", 2)
	c.AddTo("other", 0)
	a.IFetch(0x4000)
	b.IFetch(0x8000)
	a.Merge(b, c, nil, a)
	want := map[Component]uint64{CompDom0: 15, CompDriver: 0, "upcall": 3, "other": 0,
		CompXen: 2 * (CostTLBMiss + CostL1Miss)}
	got := a.Breakdown()
	if len(got) != len(want) {
		t.Fatalf("merged breakdown = %v, want %v", got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("merged[%s] = %d (present %v), want %d", k, g, ok, v)
		}
	}
	if a.L1IMisses != 2 || a.TLBMisses != 2 {
		t.Errorf("merged stats: L1I=%d TLB=%d", a.L1IMisses, a.TLBMisses)
	}
	if b.Get(CompDom0) != 5 || len(b.Breakdown()) != 4 {
		t.Error("Merge modified a source meter")
	}
}

// TestResetFoldsIntoLifetime: Reset zeroes every bucket and statistic,
// empties the key set, and retires the cycles into Lifetime.
func TestResetFoldsIntoLifetime(t *testing.T) {
	m := NewMeter()
	m.AddTo(CompDom0, 100)
	m.AddTo("upcall", 20)
	m.MemAccess(0x5000)
	m.IFetch(0x9000)
	before := m.Lifetime()
	if before != m.Total() {
		t.Fatalf("lifetime %d != total %d before any reset", before, m.Total())
	}
	m.Reset()
	if m.Total() != 0 || len(m.Breakdown()) != 0 || m.String() != "" {
		t.Errorf("after reset: total=%d breakdown=%v", m.Total(), m.Breakdown())
	}
	if m.TLBMisses != 0 || m.L1Misses != 0 || m.L1IMisses != 0 || m.MemAccesses != 0 {
		t.Errorf("stats survive reset: tlb=%d l1=%d l1i=%d mem=%d",
			m.TLBMisses, m.L1Misses, m.L1IMisses, m.MemAccesses)
	}
	if m.Lifetime() != before {
		t.Errorf("lifetime = %d, want %d", m.Lifetime(), before)
	}
	m.AddTo("upcall", 5)
	if m.Lifetime() != before+5 || m.Get("upcall") != 5 {
		t.Errorf("post-reset charge: lifetime=%d upcall=%d", m.Lifetime(), m.Get("upcall"))
	}
}

// TestStringOrdering: components print sorted by name, paper and
// non-paper buckets interleaved.
func TestStringOrdering(t *testing.T) {
	m := NewMeter()
	for _, c := range []Component{"zeta", CompXen, CompDriver, "alpha", CompDomU, CompDom0} {
		m.AddTo(c, 1)
	}
	if s, want := m.String(), "alpha=1 dom0=1 domU=1 e1000=1 xen=1 zeta=1"; s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

// BenchmarkMeterCharge measures the per-instruction charging path: one
// instruction fetch, one base-cost Add and one data access, the shape the
// CPU interpreter charges for a memory-operand instruction.
func BenchmarkMeterCharge(b *testing.B) {
	m := NewMeter()
	m.SetComponent(CompDriver)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pc := 0x100000 + uint32(i&1023)*8
		m.IFetch(pc)
		m.Add(1)
		m.MemAccess(0x200000 + uint32(i&4095)*4)
	}
}

// BenchmarkIFetch measures one instruction fetch through the TLB and L1I
// model over straight-line code of 1024 instructions: eight instructions
// per cache line, two pages.
func BenchmarkIFetch(b *testing.B) {
	m := NewMeter()
	m.SetComponent(CompDriver)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.IFetch(0x100000 + uint32(i&1023)*8)
	}
}

// BenchmarkIssue measures the per-instruction fetch-and-issue charge.
// same-line refetches the line of the last fetch (eight instructions per
// line, the straight-line case the inlined shortcut serves); new-line
// moves to a resident line on every issue, so each takes the probe path.
func BenchmarkIssue(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride uint32
	}{{"same-line", 0}, {"new-line", 1 << l1LineShift}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMeter()
			m.SetComponent(CompDriver)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Issue(0x100000 + uint32(i&7)*8 + uint32(i&63)*bc.stride)
			}
		})
	}
}

// BenchmarkMemAccess measures one data access through the TLB and L1D
// model: 4-byte strides over 16 KiB, four pages.
func BenchmarkMemAccess(b *testing.B) {
	m := NewMeter()
	m.SetComponent(CompDriver)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MemAccess(0x200000 + uint32(i&4095)*4)
	}
}
