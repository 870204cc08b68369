// Package mem models the physical and virtual memory of the simulated
// machine: a physical frame pool with per-frame ownership, per-domain page
// tables (address spaces), and memory-mapped I/O regions.
//
// Frame ownership is what TwinDrivers' SVM slow path checks when the
// hypervisor driver touches a page for the first time: "if the access is
// permitted (i.e., the memory page belongs to dom0 address space)" (§4.1).
// Address spaces support a shared global region — the hypervisor mapping
// present in every guest context — which is what lets the hypervisor driver
// run without an address-space switch.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of a page/frame in bytes.
const PageSize = 4096

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

// Owner identifies the owner of a physical frame. By convention the
// hypervisor is OwnerHypervisor, dom0 is 0, and guests are positive.
type Owner int

// Reserved owners.
const (
	OwnerNone       Owner = -2
	OwnerHypervisor Owner = -1
	OwnerDom0       Owner = 0
)

// MMIO is implemented by devices that claim physical frames. Accesses to
// such frames bypass RAM and are routed to the device. Offsets are relative
// to the start of the claimed region.
type MMIO interface {
	MMIORead(off uint32, size uint32) uint32
	MMIOWrite(off uint32, size uint32, val uint32)
}

// Physical is the machine's physical memory: a frame pool plus MMIO
// routing.
//
// Frames are numbered contiguously from 1 and never freed, so storage and
// ownership are slices indexed by frame number. Device regions are few and
// consulted only for frames without RAM.
type Physical struct {
	frames []*[PageSize]byte // frame number -> storage (nil: MMIO or frame 0)
	owners []Owner           // frame number -> owner
	mmio   []mmioRegion
}

// mmioRegion is one device's claimed run of frames.
type mmioRegion struct {
	dev   MMIO
	first uint32 // first frame of the region
	n     uint32 // frames claimed
}

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical {
	// Frame 0 stays unused so a zero PTE is never valid.
	return &Physical{frames: []*[PageSize]byte{nil}, owners: []Owner{OwnerNone}}
}

// AllocFrame allocates a fresh zeroed frame owned by owner.
func (p *Physical) AllocFrame(owner Owner) uint32 {
	f := uint32(len(p.frames))
	p.frames = append(p.frames, new([PageSize]byte))
	p.owners = append(p.owners, owner)
	return f
}

// AllocFrames allocates n physically contiguous frames.
func (p *Physical) AllocFrames(owner Owner, n int) uint32 {
	first := uint32(len(p.frames))
	for i := 0; i < n; i++ {
		p.AllocFrame(owner)
	}
	return first
}

// ClaimMMIO reserves n contiguous frames for a device and routes accesses
// to it. Returns the first frame number.
func (p *Physical) ClaimMMIO(owner Owner, n int, dev MMIO) uint32 {
	first := uint32(len(p.frames))
	for i := 0; i < n; i++ {
		p.frames = append(p.frames, nil)
		p.owners = append(p.owners, owner)
	}
	p.mmio = append(p.mmio, mmioRegion{dev: dev, first: first, n: uint32(n)})
	return first
}

// FrameOwner returns the owner of a frame, or OwnerNone if unallocated.
func (p *Physical) FrameOwner(f uint32) Owner {
	if f < uint32(len(p.owners)) {
		return p.owners[f]
	}
	return OwnerNone
}

// SetFrameOwner transfers frame ownership (grant-table style page transfer).
func (p *Physical) SetFrameOwner(f uint32, o Owner) {
	if f != 0 && f < uint32(len(p.owners)) {
		p.owners[f] = o
	}
}

// IsMMIO reports whether a frame is device-mapped.
func (p *Physical) IsMMIO(f uint32) bool { return p.device(f) != nil }

// device returns the region claiming frame f, or nil.
func (p *Physical) device(f uint32) *mmioRegion {
	for i := range p.mmio {
		if r := &p.mmio[i]; f-r.first < r.n { // unsigned: f < first wraps high
			return r
		}
	}
	return nil
}

// FrameData returns the RAM storage of a frame (nil for MMIO/unallocated).
func (p *Physical) FrameData(f uint32) *[PageSize]byte {
	if f < uint32(len(p.frames)) {
		return p.frames[f]
	}
	return nil
}

// readPhys reads size (1/2/4) bytes at physical address pa. The access must
// not cross a frame boundary.
func (p *Physical) readPhys(pa uint32, size uint32) (uint32, error) {
	f, off := pa/PageSize, pa&PageMask
	if fr := p.FrameData(f); fr != nil {
		var v uint32
		for i := uint32(0); i < size; i++ {
			v |= uint32(fr[off+i]) << (8 * i)
		}
		return v, nil
	}
	if r := p.device(f); r != nil {
		return r.dev.MMIORead((f-r.first)*PageSize+off, size), nil
	}
	return 0, fmt.Errorf("mem: physical read of unallocated frame %#x", f)
}

func (p *Physical) writePhys(pa uint32, size uint32, val uint32) error {
	f, off := pa/PageSize, pa&PageMask
	if fr := p.FrameData(f); fr != nil {
		for i := uint32(0); i < size; i++ {
			fr[off+i] = byte(val >> (8 * i))
		}
		return nil
	}
	if r := p.device(f); r != nil {
		r.dev.MMIOWrite((f-r.first)*PageSize+off, size, val)
		return nil
	}
	return fmt.Errorf("mem: physical write of unallocated frame %#x", f)
}

// PageFault reports a failed virtual memory access.
type PageFault struct {
	Space string
	Addr  uint32
	Write bool
}

func (e *PageFault) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: page fault: %s of %#08x in %s", kind, e.Addr, e.Space)
}

// AddressSpace is a virtual address space: a page table over Physical, with
// an optional shared global space consulted for pages the local table does
// not map (the hypervisor region present in every guest context).
type AddressSpace struct {
	Name   string
	Phys   *Physical
	Global *AddressSpace // nil for the hypervisor space itself

	pt map[uint32]uint32 // vpage -> frame; the source of truth

	// tc is a direct-mapped cache of local page-table lookups, hits and
	// misses alike, in front of pt; every Map/Unmap clears it. A hit
	// also carries the frame's RAM, so Load and Store reach a cached
	// RAM page without touching Physical. Lookups fill it, so even
	// LookupLocal writes the AddressSpace. That is safe only because the
	// simulated machine is one CPU driven by one goroutine: core starts
	// no goroutines, so no two translate through the same space at once,
	// and page-table mutations are setup-time or SVM first-touch
	// Map/Unmap calls on that same path.
	tc      [tcEntries]tcEntry
	tcDirty bool // some tc entry may be valid
}

// tcEntries is the size of the translation cache; a power of two.
const tcEntries = 64

// tcEntry caches one local lookup. frame is meaningful only when ok; ram
// is then the frame's storage, nil for a frame without RAM (MMIO).
type tcEntry struct {
	ram          *[PageSize]byte
	vpage, frame uint32
	valid, ok    bool
}

// NewAddressSpace returns an empty address space over phys.
func NewAddressSpace(name string, phys *Physical, global *AddressSpace) *AddressSpace {
	return &AddressSpace{Name: name, Phys: phys, Global: global, pt: make(map[uint32]uint32)}
}

// Map installs vpage -> frame.
func (as *AddressSpace) Map(vpage, frame uint32) {
	as.pt[vpage] = frame
	as.flushTC()
}

// MapRange maps n consecutive pages starting at vaddr to consecutive frames
// starting at frame.
func (as *AddressSpace) MapRange(vaddr, frame uint32, n int) {
	vp := vaddr / PageSize
	for i := uint32(0); i < uint32(n); i++ {
		as.Map(vp+i, frame+i)
	}
}

// Unmap removes a mapping.
func (as *AddressSpace) Unmap(vpage uint32) {
	delete(as.pt, vpage)
	as.flushTC()
}

func (as *AddressSpace) flushTC() {
	if as.tcDirty {
		as.tc = [tcEntries]tcEntry{}
		as.tcDirty = false
	}
}

// local returns vpage's translation-cache entry, filling it from the
// local page table on a miss.
func (as *AddressSpace) local(vpage uint32) *tcEntry {
	e := &as.tc[vpage&(tcEntries-1)]
	if e.valid && e.vpage == vpage {
		return e
	}
	f, ok := as.pt[vpage]
	*e = tcEntry{vpage: vpage, frame: f, valid: true, ok: ok}
	if ok {
		e.ram = as.Phys.FrameData(f)
	}
	as.tcDirty = true
	return e
}

// ramFor returns the RAM behind vpage, resolved like Lookup, or nil when
// the page is unmapped or has no RAM (MMIO). A page is cached only by the
// space whose own table maps it, so a Map or Unmap there invalidates it.
func (as *AddressSpace) ramFor(vpage uint32) *[PageSize]byte {
	for s := as; s != nil; s = s.Global {
		if e := s.local(vpage); e.ok {
			return e.ram
		}
	}
	return nil
}

// Lookup translates a virtual page to a frame, consulting the global space.
func (as *AddressSpace) Lookup(vpage uint32) (uint32, bool) {
	if f, ok := as.LookupLocal(vpage); ok {
		return f, true
	}
	if as.Global != nil {
		return as.Global.Lookup(vpage)
	}
	return 0, false
}

// LookupLocal translates only through the local table (no global chaining).
func (as *AddressSpace) LookupLocal(vpage uint32) (uint32, bool) {
	e := as.local(vpage)
	return e.frame, e.ok
}

// Translate converts a virtual address to a physical address.
func (as *AddressSpace) Translate(vaddr uint32) (uint32, bool) {
	f, ok := as.Lookup(vaddr / PageSize)
	if !ok {
		return 0, false
	}
	return f*PageSize + vaddr&PageMask, true
}

// Load reads size (1/2/4) bytes at vaddr, handling page-straddling accesses
// (the ISA permits unaligned access, which is why SVM maps two consecutive
// pages per stlb miss). An access within one RAM page reads the frame
// directly; every other access takes the translate-then-physical path.
func (as *AddressSpace) Load(vaddr uint32, size uint32) (uint32, error) {
	if off := vaddr & PageMask; off+size <= PageSize {
		if fr := as.ramFor(vaddr / PageSize); fr != nil {
			switch size {
			case 4:
				return binary.LittleEndian.Uint32(fr[off:]), nil
			case 2:
				return uint32(binary.LittleEndian.Uint16(fr[off:])), nil
			case 1:
				return uint32(fr[off]), nil
			}
		}
		pa, ok := as.Translate(vaddr)
		if !ok {
			return 0, &PageFault{Space: as.Name, Addr: vaddr}
		}
		return as.Phys.readPhys(pa, size)
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		b, err := as.Load(vaddr+i, 1)
		if err != nil {
			return 0, err
		}
		v |= b << (8 * i)
	}
	return v, nil
}

// Store writes size (1/2/4) bytes at vaddr, through the same two paths
// as Load.
func (as *AddressSpace) Store(vaddr uint32, size uint32, val uint32) error {
	if off := vaddr & PageMask; off+size <= PageSize {
		if fr := as.ramFor(vaddr / PageSize); fr != nil {
			switch size {
			case 4:
				binary.LittleEndian.PutUint32(fr[off:], val)
				return nil
			case 2:
				binary.LittleEndian.PutUint16(fr[off:], uint16(val))
				return nil
			case 1:
				fr[off] = byte(val)
				return nil
			}
		}
		pa, ok := as.Translate(vaddr)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr, Write: true}
		}
		return as.Phys.writePhys(pa, size, val)
	}
	for i := uint32(0); i < size; i++ {
		if err := as.Store(vaddr+i, 1, val>>(8*i)); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes copies n bytes starting at vaddr into a fresh slice.
func (as *AddressSpace) ReadBytes(vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	err := as.walk(vaddr, n, func(off int, ram []byte, size int) error {
		if ram != nil {
			copy(out[off:], ram)
			return nil
		}
		for i := off; i < off+size; i++ {
			b, err := as.Load(vaddr+uint32(i), 1)
			if err != nil {
				return err
			}
			out[i] = byte(b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBytes copies b into memory at vaddr. A fault leaves every byte
// before the faulting address written.
func (as *AddressSpace) WriteBytes(vaddr uint32, b []byte) error {
	return as.walk(vaddr, len(b), func(off int, ram []byte, size int) error {
		if ram != nil {
			copy(ram, b[off:])
			return nil
		}
		for i := off; i < off+size; i++ {
			if err := as.Store(vaddr+uint32(i), 1, uint32(b[i])); err != nil {
				return err
			}
		}
		return nil
	})
}

// walk visits [vaddr, vaddr+n) one page-bounded piece at a time, in
// address order, stopping at the first error fn returns. off is the
// piece's offset from vaddr and size its length; ram is the piece's frame
// storage, or nil when the page is unmapped, MMIO or has no RAM. Callers
// fall back to per-byte Load/Store for a nil piece, so faults and device
// access sequences are exactly those of a byte-at-a-time loop.
func (as *AddressSpace) walk(vaddr uint32, n int, fn func(off int, ram []byte, size int) error) error {
	for off := 0; off < n; {
		va := vaddr + uint32(off)
		size := PageSize - int(va&PageMask)
		if size > n-off {
			size = n - off
		}
		var ram []byte
		if fr := as.ramFor(va / PageSize); fr != nil {
			po := va & PageMask
			ram = fr[po : po+uint32(size)]
		}
		if err := fn(off, ram, size); err != nil {
			return err
		}
		off += size
	}
	return nil
}

// Copy moves n bytes from (srcAS, src) to (dstAS, dst). The hypervisor uses
// this shape when moving packet payloads between guest buffers and dom0
// sk_buffs. Each piece bounded by a source or destination page is checked
// source first, then destination, before any of its bytes move.
func Copy(dstAS *AddressSpace, dst uint32, srcAS *AddressSpace, src uint32, n int) error {
	return srcAS.walk(src, n, func(off int, s []byte, size int) error {
		return dstAS.walk(dst+uint32(off), size, func(doff int, d []byte, dsize int) error {
			if s != nil && d != nil {
				copy(d, s[doff:])
				return nil
			}
			sa, da := src+uint32(off+doff), dst+uint32(off+doff)
			if _, ok := srcAS.Translate(sa); !ok {
				return &PageFault{Space: srcAS.Name, Addr: sa}
			}
			if _, ok := dstAS.Translate(da); !ok {
				return &PageFault{Space: dstAS.Name, Addr: da, Write: true}
			}
			// MMIO or unallocated: fall back to the byte loop.
			for i := 0; i < dsize; i++ {
				v, err := srcAS.Load(sa+uint32(i), 1)
				if err != nil {
					return err
				}
				if err := dstAS.Store(da+uint32(i), 1, v); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// MappedPages returns the number of locally mapped pages.
func (as *AddressSpace) MappedPages() int { return len(as.pt) }
