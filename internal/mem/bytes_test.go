package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// The chunked ReadBytes/WriteBytes/Copy must behave exactly like a
// byte-at-a-time loop over Load/Store: same data, same fault (address,
// space, direction), same prefix written before a fault, and the same
// ordered sequence of device accesses. These tests run both on identical
// fixtures and compare everything observable.

// Fixture layout (vpages), guest space "g" chained to global space "hv":
//
//	0x10-0x12  guest RAM
//	0x13       unmapped hole
//	0x14       guest RAM
//	0x15       MMIO (recording device), shadowing global RAM
//	0x16-0x17  guest RAM
//	0x18       global-only RAM (resolved through Global)
//	0x19       guest RAM, shadowing a different global frame
//	0x1a       mapped to a frame with neither RAM nor a device,
//	           shadowing global RAM
const (
	fxBase  = 0x10000
	fxPages = 11
	fxEnd   = fxBase + fxPages*PageSize
)

type mmioCall struct {
	write          bool
	off, size, val uint32
}

type recDev struct{ calls []mmioCall }

func (d *recDev) MMIORead(off, size uint32) uint32 {
	d.calls = append(d.calls, mmioCall{off: off, size: size})
	return off*7 + 1
}

func (d *recDev) MMIOWrite(off, size, val uint32) {
	d.calls = append(d.calls, mmioCall{write: true, off: off, size: size, val: val})
}

type fixture struct {
	phys   *Physical
	hv, g  *AddressSpace
	dev    *recDev
	frames []uint32 // every RAM frame, for whole-memory comparison
}

func newFixture() *fixture {
	fx := &fixture{phys: NewPhysical(), dev: &recDev{}}
	fx.hv = NewAddressSpace("hv", fx.phys, nil)
	fx.g = NewAddressSpace("g", fx.phys, fx.hv)
	ram := func(as *AddressSpace, vpage uint32) {
		f := fx.phys.AllocFrame(OwnerDom0)
		fd := fx.phys.FrameData(f)
		for i := range fd {
			fd[i] = byte(f*31 + uint32(i)*13)
		}
		as.Map(vpage, f)
		fx.frames = append(fx.frames, f)
	}
	for _, vp := range []uint32{0x10, 0x11, 0x12, 0x14, 0x16, 0x17, 0x19} {
		ram(fx.g, vp)
	}
	ram(fx.hv, 0x18)
	ram(fx.hv, 0x19)
	ram(fx.hv, 0x15)
	ram(fx.hv, 0x1a)
	fx.g.Map(0x15, fx.phys.ClaimMMIO(OwnerDom0, 1, fx.dev))
	fx.g.Map(0x1a, 0xFFFFF) // a frame with neither RAM nor a device
	return fx
}

// memory snapshots every RAM frame.
func (fx *fixture) memory() []byte {
	var out []byte
	for _, f := range fx.frames {
		out = append(out, fx.phys.FrameData(f)[:]...)
	}
	return out
}

// refRead and refWrite are the byte-at-a-time reference semantics.
func refRead(as *AddressSpace, vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		b, err := as.Load(vaddr+uint32(i), 1)
		if err != nil {
			return nil, err
		}
		out[i] = byte(b)
	}
	return out, nil
}

func refWrite(as *AddressSpace, vaddr uint32, b []byte) error {
	for i, x := range b {
		if err := as.Store(vaddr+uint32(i), 1, uint32(x)); err != nil {
			return err
		}
	}
	return nil
}

// refCopy is Copy's reference: each piece bounded by a source or
// destination page checks the source translation, then the destination,
// then moves byte by byte.
func refCopy(dstAS *AddressSpace, dst uint32, srcAS *AddressSpace, src uint32, n int) error {
	for n > 0 {
		chunk := PageSize - int(src&PageMask)
		if c := PageSize - int(dst&PageMask); c < chunk {
			chunk = c
		}
		if chunk > n {
			chunk = n
		}
		if _, ok := srcAS.Translate(src); !ok {
			return &PageFault{Space: srcAS.Name, Addr: src}
		}
		if _, ok := dstAS.Translate(dst); !ok {
			return &PageFault{Space: dstAS.Name, Addr: dst, Write: true}
		}
		for i := 0; i < chunk; i++ {
			v, err := srcAS.Load(src+uint32(i), 1)
			if err != nil {
				return err
			}
			if err := dstAS.Store(dst+uint32(i), 1, v); err != nil {
				return err
			}
		}
		src, dst, n = src+uint32(chunk), dst+uint32(chunk), n-chunk
	}
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var pa, pb *PageFault
	if errors.As(a, &pa) != errors.As(b, &pb) {
		return false
	}
	if pa != nil {
		return *pa == *pb
	}
	return a.Error() == b.Error()
}

type bytesOp struct {
	kind  string // "read", "write", "copy-in", "copy-out", "copy-self"
	vaddr uint32
	n     int
}

// checkEquivalent runs op chunked on one fixture and by reference on a
// twin fixture, failing on any observable difference.
func checkEquivalent(t *testing.T, op bytesOp) {
	t.Helper()
	got, want := newFixture(), newFixture()
	payload := make([]byte, op.n)
	for i := range payload {
		payload[i] = byte(i*5 + 3)
	}
	var gotErr, wantErr error
	var gotData, wantData []byte
	switch op.kind {
	case "read":
		gotData, gotErr = got.g.ReadBytes(op.vaddr, op.n)
		wantData, wantErr = refRead(want.g, op.vaddr, op.n)
	case "write":
		gotErr = got.g.WriteBytes(op.vaddr, payload)
		wantErr = refWrite(want.g, op.vaddr, payload)
	case "copy-in", "copy-out":
		// A plain RAM space on the other side, offset so page
		// boundaries fall differently on the two sides.
		side := func(fx *fixture) (*AddressSpace, uint32) {
			as := NewAddressSpace("flat", fx.phys, nil)
			f := fx.phys.AllocFrames(OwnerDom0, 4)
			as.MapRange(0x80000, f, 4)
			for i := uint32(0); i < 4; i++ {
				fx.frames = append(fx.frames, f+i)
			}
			return as, 0x80000 + 0x123
		}
		gs, ga := side(got)
		ws, wa := side(want)
		if op.kind == "copy-in" {
			gotErr = Copy(got.g, op.vaddr, gs, ga, op.n)
			wantErr = refCopy(want.g, op.vaddr, ws, wa, op.n)
		} else {
			gotErr = Copy(gs, ga, got.g, op.vaddr, op.n)
			wantErr = refCopy(ws, wa, want.g, op.vaddr, op.n)
		}
	case "copy-self":
		// Two pages down and slightly shifted: MMIO sources meet the
		// hole as a destination.
		dst := op.vaddr - 2*PageSize + 0x40
		gotErr = Copy(got.g, dst, got.g, op.vaddr, op.n)
		wantErr = refCopy(want.g, dst, want.g, op.vaddr, op.n)
	}
	if !sameErr(gotErr, wantErr) {
		t.Fatalf("%+v: err = %v, reference %v", op, gotErr, wantErr)
	}
	if !bytes.Equal(gotData, wantData) {
		t.Fatalf("%+v: data differs from reference", op)
	}
	if !bytes.Equal(got.memory(), want.memory()) {
		t.Fatalf("%+v: memory after the op differs from reference", op)
	}
	if !reflect.DeepEqual(got.dev.calls, want.dev.calls) {
		t.Fatalf("%+v: MMIO calls %v, reference %v", op, got.dev.calls, want.dev.calls)
	}
}

var opKinds = []string{"read", "write", "copy-in", "copy-out", "copy-self"}

func TestBytesMatchPerByteReference(t *testing.T) {
	page := func(vp uint32) uint32 { return vp * PageSize }
	cases := []struct {
		name  string
		vaddr uint32
		n     int
	}{
		{"within-page", page(0x10) + 100, 1500},
		{"straddle", page(0x11) - 700, 1500},
		{"three-pages", page(0x10) + 1, 2*PageSize + 50},
		{"empty", page(0x10) + 9, 0},
		{"hole-mid", page(0x12) + 4000, 600},
		{"hole-start", page(0x13), 10},
		{"mmio-page", page(0x14) + 4090, 40},
		{"mmio-through", page(0x15) - 3, PageSize + 6},
		{"mmio-over-hole", page(0x15) + 0x10, 0x40},
		{"global-only", page(0x18) + 17, 200},
		{"global-straddle", page(0x17) + 4000, 300},
		{"local-shadows-global", page(0x18) + 4000, 200},
		{"no-ram-frame", page(0x19) + 4090, 20},
	}
	for _, c := range cases {
		for _, kind := range opKinds {
			t.Run(c.name+"/"+kind, func(t *testing.T) {
				checkEquivalent(t, bytesOp{kind: kind, vaddr: c.vaddr, n: c.n})
			})
		}
	}
}

// TestWriteBytesFaultLeavesPrefix pins the fault contract directly: the
// fault names the first unmapped byte and everything before it landed.
func TestWriteBytesFaultLeavesPrefix(t *testing.T) {
	fx := newFixture()
	start := uint32(0x13*PageSize - 100)
	b := bytes.Repeat([]byte{0xEE}, 300)
	err := fx.g.WriteBytes(start, b)
	var pf *PageFault
	if !errors.As(err, &pf) || pf.Addr != 0x13*PageSize || !pf.Write || pf.Space != "g" {
		t.Fatalf("err = %v, want write fault at %#x", err, 0x13*PageSize)
	}
	got, err := fx.g.ReadBytes(start, 100)
	if err != nil || !bytes.Equal(got, b[:100]) {
		t.Fatalf("prefix before the fault not written: %v", err)
	}
}

// FuzzAddressSpaceBytes differentially fuzzes the chunked copies against
// the per-byte reference over the fixture's mix of RAM, holes, MMIO,
// global-only and RAM-less pages.
func FuzzAddressSpaceBytes(f *testing.F) {
	f.Add(uint16(0x1000-700), uint16(1500), uint8(0))
	f.Add(uint16(0x2000+4000), uint16(600), uint8(1))
	f.Add(uint16(0x5000-3), uint16(PageSize+6), uint8(2))
	f.Add(uint16(0x7000+4000), uint16(300), uint8(3))
	f.Add(uint16(0x9000+4090), uint16(20), uint8(1))
	f.Fuzz(func(t *testing.T, off, n uint16, kind uint8) {
		vaddr := fxBase + uint32(off)%(fxPages*PageSize)
		size := int(n) % (3 * PageSize)
		if vaddr+uint32(size) > fxEnd+PageSize {
			size = int(fxEnd + PageSize - vaddr)
		}
		checkEquivalent(t, bytesOp{kind: opKinds[int(kind)%len(opKinds)], vaddr: vaddr, n: size})
	})
}

// TestTranslationCacheInvalidation: every Map/Unmap must drop cached
// translations, hits and misses alike, locally and through Global.
func TestTranslationCacheInvalidation(t *testing.T) {
	p := NewPhysical()
	hv := NewAddressSpace("hv", p, nil)
	g := NewAddressSpace("g", p, hv)
	f1, f2 := p.AllocFrame(OwnerDom0), p.AllocFrame(OwnerDom0)
	const vp = 0x40

	lookup := func(as *AddressSpace, want uint32, wantOK bool) {
		t.Helper()
		for i := 0; i < 2; i++ { // second round is served from the cache
			f, ok := as.Lookup(vp)
			if f != want || ok != wantOK {
				t.Fatalf("%s.Lookup(%#x) = %d,%v, want %d,%v", as.Name, vp, f, ok, want, wantOK)
			}
		}
	}

	lookup(g, 0, false) // a cached miss...
	g.Map(vp, f1)
	lookup(g, f1, true) // ...does not survive Map
	g.Unmap(vp)
	lookup(g, 0, false)
	g.Map(vp, f1)
	lookup(g, f1, true)
	g.Map(vp, f2) // remap to a different frame
	lookup(g, f2, true)
	g.Unmap(vp)

	// Chained through Global: the guest's cached local miss stays valid
	// while the global table changes underneath it.
	hv.Map(vp, f1)
	lookup(g, f1, true)
	hv.Map(vp, f2)
	lookup(g, f2, true)
	hv.Unmap(vp)
	lookup(g, 0, false)

	// The SVM first-touch shape: map a page and its successor into the
	// hypervisor window, then burn the successor by unmapping it. A
	// straddling access from guest context must fault on the hole.
	if err := g.Store(vp*PageSize, 4, 1); err == nil {
		t.Fatal("store to an unmapped page succeeded")
	}
	hv.Map(vp, f1)
	hv.Map(vp+1, 0)
	if _, ok := g.Lookup(vp + 1); !ok {
		t.Fatal("successor not mapped")
	}
	hv.Unmap(vp + 1)
	if _, ok := g.Lookup(vp + 1); ok {
		t.Fatal("unmapped successor still translates")
	}
	err := g.Store((vp+1)*PageSize-2, 4, 0xAABBCCDD)
	var pf *PageFault
	if !errors.As(err, &pf) || pf.Addr != (vp+1)*PageSize {
		t.Fatalf("straddling store err = %v, want fault at %#x", err, (vp+1)*PageSize)
	}
	if v, err := g.Load(vp*PageSize+8, 4); err != nil || v != 0 {
		t.Fatalf("first page: %#x, %v", v, err)
	}

	// Conflicting vpages share a cache slot; both stay correct.
	g.Map(vp, f1)
	g.Map(vp+tcEntries, f2)
	for i := 0; i < 3; i++ {
		if f, _ := g.LookupLocal(vp); f != f1 {
			t.Fatalf("conflict: vp -> %d", f)
		}
		if f, _ := g.LookupLocal(vp + tcEntries); f != f2 {
			t.Fatalf("conflict: vp+%d -> %d", tcEntries, f)
		}
	}

	// The RAM-page cache behind Load and Store follows the same rules.
	p = NewPhysical()
	hv = NewAddressSpace("hv", p, nil)
	g = NewAddressSpace("g", p, hv)
	fa, fb := p.AllocFrame(OwnerDom0), p.AllocFrame(OwnerDom0)
	const rp = 0x80
	addr := uint32(rp*PageSize + 12)
	load := func(as *AddressSpace, want uint32) {
		t.Helper()
		for i := 0; i < 2; i++ { // second round is served from the cache
			if v, err := as.Load(addr, 4); err != nil || v != want {
				t.Fatalf("%s.Load(%#x) = %#x, %v, want %#x", as.Name, addr, v, err, want)
			}
		}
	}
	faults := func(as *AddressSpace) {
		t.Helper()
		_, err := as.Load(addr, 4)
		if !errors.As(err, &pf) || *pf != (PageFault{Space: as.Name, Addr: addr}) {
			t.Fatalf("%s.Load(%#x) err = %v, want a read fault there", as.Name, addr, err)
		}
		err = as.Store(addr, 2, 1)
		if !errors.As(err, &pf) || *pf != (PageFault{Space: as.Name, Addr: addr, Write: true}) {
			t.Fatalf("%s.Store(%#x) err = %v, want a write fault there", as.Name, addr, err)
		}
	}

	// Load, Unmap, Load faults at the same address.
	g.Map(rp, fa)
	if err := g.Store(addr, 4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	load(g, 0x11223344)
	g.Unmap(rp)
	faults(g)

	// A global page is cached in the global space, so an Unmap there is
	// seen by the guest.
	hv.Map(rp, fb)
	if err := hv.Store(addr, 4, 0x55); err != nil {
		t.Fatal(err)
	}
	load(g, 0x55)
	hv.Unmap(rp)
	faults(g)
	faults(hv)

	// A new local Map shadows the cached global page, for loads and
	// stores alike.
	hv.Map(rp, fb)
	load(g, 0x55)
	g.Map(rp, fa)
	load(g, 0x11223344)
	if err := g.Store(addr, 2, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	load(g, 0x1122BEEF)
	load(hv, 0x55)
}

// refLoad and refStore are Load and Store without the RAM-page cache:
// translate, then access the physical address; byte by byte across a
// page boundary.
func refLoad(as *AddressSpace, vaddr, size uint32) (uint32, error) {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return 0, &PageFault{Space: as.Name, Addr: vaddr}
		}
		return as.Phys.readPhys(pa, size)
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		b, err := refLoad(as, vaddr+i, 1)
		if err != nil {
			return 0, err
		}
		v |= b << (8 * i)
	}
	return v, nil
}

func refStore(as *AddressSpace, vaddr, size, val uint32) error {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr, Write: true}
		}
		return as.Phys.writePhys(pa, size, val)
	}
	for i := uint32(0); i < size; i++ {
		if err := refStore(as, vaddr+i, 1, val>>(8*i)); err != nil {
			return err
		}
	}
	return nil
}

// TestLoadStoreMatchPhysicalPath runs seeded random word accesses, with
// remaps in between, through Load/Store on one fixture and through the
// uncached reference on a twin, comparing values, faults, memory and the
// device's access sequence.
func TestLoadStoreMatchPhysicalPath(t *testing.T) {
	got, want := newFixture(), newFixture()
	spare := got.phys.AllocFrame(OwnerDom0)
	want.phys.AllocFrame(OwnerDom0)
	got.frames = append(got.frames, spare)
	want.frames = append(want.frames, spare)
	rng := rand.New(rand.NewSource(1))
	sizes := []uint32{1, 2, 4}
	for i := 0; i < 20000; i++ {
		space := func(fx *fixture) *AddressSpace {
			if i&7 == 0 {
				return fx.hv
			}
			return fx.g
		}
		// Offsets cluster near page ends so straddles are common.
		vaddr := uint32(fxBase + rng.Intn(fxPages)*PageSize)
		if rng.Intn(3) == 0 {
			vaddr += PageSize - uint32(rng.Intn(8))
		} else {
			vaddr += uint32(rng.Intn(PageSize))
		}
		size := sizes[rng.Intn(len(sizes))]
		switch r := rng.Intn(100); {
		case r < 45:
			gv, gerr := space(got).Load(vaddr, size)
			wv, werr := refLoad(space(want), vaddr, size)
			if gv != wv || !sameErr(gerr, werr) {
				t.Fatalf("op %d: Load(%#x, %d) = %#x, %v; reference %#x, %v", i, vaddr, size, gv, gerr, wv, werr)
			}
		case r < 90:
			val := rng.Uint32()
			gerr := space(got).Store(vaddr, size, val)
			werr := refStore(space(want), vaddr, size, val)
			if !sameErr(gerr, werr) {
				t.Fatalf("op %d: Store(%#x, %d) = %v; reference %v", i, vaddr, size, gerr, werr)
			}
		case r < 95: // remap a page to the spare frame or back, in either space
			vp := uint32(fxBase/PageSize + rng.Intn(fxPages))
			f := spare
			if rng.Intn(2) == 0 {
				f = got.frames[rng.Intn(len(got.frames))]
			}
			space(got).Map(vp, f)
			space(want).Map(vp, f)
		default:
			vp := uint32(fxBase/PageSize + rng.Intn(fxPages))
			space(got).Unmap(vp)
			space(want).Unmap(vp)
		}
	}
	if !bytes.Equal(got.memory(), want.memory()) {
		t.Fatal("memory differs from reference")
	}
	if !reflect.DeepEqual(got.dev.calls, want.dev.calls) {
		t.Fatalf("MMIO calls differ from reference: %d vs %d calls", len(got.dev.calls), len(want.dev.calls))
	}
}

// TestLoadStoreAllocations: word accesses to RAM allocate nothing, on
// the cached page, across pages and through the global space.
func TestLoadStoreAllocations(t *testing.T) {
	fx := newFixture()
	addrs := []uint32{0x10*PageSize + 8, 0x11*PageSize + 12, 0x11*PageSize - 2, 0x18*PageSize + 4}
	if a := testing.AllocsPerRun(100, func() {
		for _, va := range addrs {
			v, err := fx.g.Load(va, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := fx.g.Store(va, 2, v+1); err != nil {
				t.Fatal(err)
			}
		}
	}); a != 0 {
		t.Errorf("Load/Store allocs/op = %v, want 0", a)
	}
}

// TestBytesAllocations guards the RAM fast path: WriteBytes allocates
// nothing and ReadBytes allocates only its result.
func TestBytesAllocations(t *testing.T) {
	fx := newFixture()
	src := make([]byte, 1500)
	va := uint32(0x11*PageSize - 700)
	if a := testing.AllocsPerRun(100, func() {
		if err := fx.g.WriteBytes(va, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteBytes allocs/op = %v, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := fx.g.ReadBytes(va, len(src)); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("ReadBytes allocs/op = %v, want 1", a)
	}
}

func benchBytes(b *testing.B, write bool) {
	fx := newFixture()
	buf := make([]byte, 1500)
	va := uint32(0x11*PageSize - 700) // straddles a page
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if write {
			err = fx.g.WriteBytes(va, buf)
		} else {
			_, err = fx.g.ReadBytes(va, len(buf))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBytesMTU reads a 1500-byte frame straddling a page.
func BenchmarkReadBytesMTU(b *testing.B) { benchBytes(b, false) }

// BenchmarkWriteBytesMTU writes a 1500-byte frame straddling a page.
func BenchmarkWriteBytesMTU(b *testing.B) { benchBytes(b, true) }

// BenchmarkLoadStoreWord measures the interpreter's memory-operand shape:
// one 4-byte load and one 4-byte store per op, in 4-byte strides over
// guest pages 0x10-0x11, then 0x16-0x17, so the page changes every 1024
// ops.
func BenchmarkLoadStoreWord(b *testing.B) {
	fx := newFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := uint32(0x10*PageSize) + uint32(i&2047)*4
		if i&2048 != 0 {
			va += 6 * PageSize
		}
		v, err := fx.g.Load(va, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := fx.g.Store(va, 4, v+1); err != nil {
			b.Fatal(err)
		}
	}
}
