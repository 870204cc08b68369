package cpu

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"twindrivers/internal/asm"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
)

// The differential rig's address space: RAM pages with an unmapped page
// right after them, one MMIO page, and the code the slot runs from. The
// code page shares TLB set 0 with the first RAM page.
const (
	formRAM      = 0x10000
	formRAMPages = 2
	formHole     = formRAM + formRAMPages*mem.PageSize // unmapped
	formMMIO     = 0x40000
	formCode     = 0x100000
)

// formBoundaries are the operand values every ALU form is crossed over.
var formBoundaries = []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff}

// formDev is an MMIO device that logs every access and answers reads with
// a value that depends on the access count, so a form that touches the
// device a different number of times, or in a different order, shows.
type formDev struct{ log []uint32 }

func (d *formDev) MMIORead(off, size uint32) uint32 {
	d.log = append(d.log, 0, off, size)
	return (off*0x9e3779b9 + uint32(len(d.log))) & sizeMask(size)
}

func (d *formDev) MMIOWrite(off, size, val uint32) {
	d.log = append(d.log, 1, off, size, val)
}

// formState is everything a differential case sets before the slot runs.
type formState struct {
	regs                [isa.NumRegs]uint32
	zf, sf, cf, of      bool
	budget, inst        uint64
	guardLow, guardHigh uint32
	warm                bool // fetch the code line and touch RAM first
}

type formRig struct {
	c   *CPU
	dev *formDev
}

func newFormRig(st *formState) *formRig {
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace("forms", phys, nil)
	as.MapRange(formRAM, phys.AllocFrames(mem.OwnerDom0, formRAMPages), formRAMPages)
	dev := &formDev{}
	as.Map(formMMIO/mem.PageSize, phys.ClaimMMIO(mem.OwnerDom0, 1, dev))
	ram := make([]byte, formRAMPages*mem.PageSize)
	for i := range ram {
		ram[i] = byte(i*7 + i>>8)
	}
	if err := as.WriteBytes(formRAM, ram); err != nil {
		panic(err)
	}
	m := cycles.NewMeter()
	m.SetComponent(cycles.CompDriver)
	if st.warm {
		m.Issue(formCode)
		m.MemAccess(formRAM)
	}
	c := New(as, m)
	c.Regs = st.regs
	c.ZF, c.SF, c.CF, c.OF = st.zf, st.sf, st.cf, st.of
	c.Budget, c.inst = st.budget, st.inst
	c.GuardLow, c.GuardHigh = st.guardLow, st.guardHigh
	return &formRig{c: c, dev: dev}
}

// run executes s at formCode through the interpreter loop, followed by a
// UD2, so the run ends with s's own fault, or with the fault of whatever
// runs next: the UD2 at formCode+8, or a bad fetch at any other target.
func (r *formRig) run(s asm.Slot) error {
	r.c.code = []asm.Slot{s, {Op: isa.UD2, Size: 4}}
	r.c.codeBase = formCode
	r.c.PC = formCode
	return r.c.run(0)
}

// runFormCase runs s once through its form and once, on an identical
// rig, as FormGeneric through step, and fails on any observable
// difference.
func runFormCase(t *testing.T, name string, s asm.Slot, st *formState) {
	t.Helper()
	if s.Form == asm.FormGeneric {
		t.Fatalf("%s: %+v has no form", name, s)
	}
	form, ref := newFormRig(st), newFormRig(st)
	generic := s
	generic.Form = asm.FormGeneric
	errForm, errRef := form.run(s), ref.run(generic)
	if d := diffRigs(form, ref, errForm, errRef); d != "" {
		t.Fatalf("%s: slot %+v\nstate %+v\nform and step differ: %s", name, s, *st, d)
	}
}

func diffRigs(a, b *formRig, errA, errB error) string {
	ca, cb := a.c, b.c
	if !reflect.DeepEqual(errA, errB) {
		return fmt.Sprintf("error %#v, step %#v", errA, errB)
	}
	if ca.Regs != cb.Regs {
		return fmt.Sprintf("regs %#x, step %#x", ca.Regs, cb.Regs)
	}
	if ca.ZF != cb.ZF || ca.SF != cb.SF || ca.CF != cb.CF || ca.OF != cb.OF {
		return fmt.Sprintf("flags ZF=%v SF=%v CF=%v OF=%v, step %v %v %v %v",
			ca.ZF, ca.SF, ca.CF, ca.OF, cb.ZF, cb.SF, cb.CF, cb.OF)
	}
	if ca.PC != cb.PC || ca.inst != cb.inst || ca.Retired != cb.Retired {
		return fmt.Sprintf("pc=%#x inst=%d retired=%d, step %#x %d %d",
			ca.PC, ca.inst, ca.Retired, cb.PC, cb.inst, cb.Retired)
	}
	ra, _ := ca.AS.ReadBytes(formRAM, formRAMPages*mem.PageSize)
	rb, _ := cb.AS.ReadBytes(formRAM, formRAMPages*mem.PageSize)
	if string(ra) != string(rb) {
		return "RAM contents differ"
	}
	if !reflect.DeepEqual(a.dev.log, b.dev.log) {
		return fmt.Sprintf("MMIO log %v, step %v", a.dev.log, b.dev.log)
	}
	ma, mb := ca.Meter, cb.Meter
	if !reflect.DeepEqual(ma.Breakdown(), mb.Breakdown()) || ma.Lifetime() != mb.Lifetime() {
		return fmt.Sprintf("meter %s (lifetime %d), step %s (%d)", ma, ma.Lifetime(), mb, mb.Lifetime())
	}
	if ma.TLBMisses != mb.TLBMisses || ma.L1Misses != mb.L1Misses || ma.L1IMisses != mb.L1IMisses ||
		ma.MemAccesses != mb.MemAccesses || ma.Flushes != mb.Flushes {
		return fmt.Sprintf("meter stats tlb=%d l1=%d l1i=%d mem=%d flush=%d, step %d %d %d %d %d",
			ma.TLBMisses, ma.L1Misses, ma.L1IMisses, ma.MemAccesses, ma.Flushes,
			mb.TLBMisses, mb.L1Misses, mb.L1IMisses, mb.MemAccesses, mb.Flushes)
	}
	// The TLB and caches are not exported; equal costs for the same probe
	// sequence show they hold the same lines.
	for _, va := range []uint32{formCode, formCode + 8, formRAM, formRAM + 0x40, formHole - 4, formMMIO, formHole} {
		if x, y := ma.IFetch(va), mb.IFetch(va); x != y {
			return fmt.Sprintf("probe IFetch(%#x) = %d, step %d", va, x, y)
		}
		if x, y := ma.MemAccess(va), mb.MemAccess(va); x != y {
			return fmt.Sprintf("probe MemAccess(%#x) = %d, step %d", va, x, y)
		}
	}
	return ""
}

// formTemplates returns, for every form, a size-4 slot of its shape with
// zeroed operands, found by asking the decoder's classifier about every
// op and operand-kind pair.
func formTemplates(t testing.TB) map[asm.Form]asm.Slot {
	out := make(map[asm.Form]asm.Slot)
	for op := isa.Op(0); op < isa.NumOps; op++ {
		for sk := isa.KindNone; sk <= isa.KindMem; sk++ {
			for dk := isa.KindNone; dk <= isa.KindMem; dk++ {
				s := asm.Slot{Op: op, Size: 4,
					Src: asm.SlotOperand{Kind: sk, Base: isa.RegNone, Index: isa.RegNone, Scale: 1},
					Dst: asm.SlotOperand{Kind: dk, Base: isa.RegNone, Index: isa.RegNone, Scale: 1}}
				if f := asm.FormOf(&s); f != asm.FormGeneric {
					s.Form = f
					out[f] = s
				}
			}
		}
	}
	if len(out) != int(asm.NumForms)-1 {
		t.Fatalf("%d forms have a shape, want %d", len(out), asm.NumForms-1)
	}
	return out
}

// memTargets are the addresses a memory operand is aimed at: plain RAM,
// a load or store straddling from RAM into the unmapped page, the MMIO
// page and the unmapped page.
var memTargets = []struct {
	name string
	addr uint32
}{
	{"ram", formRAM + 0x124},
	{"straddle", formHole - 2},
	{"mmio", formMMIO + 0x10},
	{"unmapped", formHole + 0x20},
}

// aim sets o's displacement so that its effective address under regs is
// addr.
func aim(o *asm.SlotOperand, regs *[isa.NumRegs]uint32, addr uint32) {
	a := addr
	if o.Base != isa.RegNone {
		a -= regs[o.Base]
	}
	if o.Index != isa.RegNone {
		a -= regs[o.Index] * uint32(o.Scale)
	}
	o.Disp = int32(a)
}

// TestFormsMatchGeneric runs every form against step on boundary
// operands: 0, 1, 0x7fffffff, 0x80000000 and 0xffffffff in every
// register, immediate and memory operand pairing, shift counts 0, 1, 31,
// 32 and 33, jcc on every condition and flag combination, memory operands
// in RAM, straddling into an unmapped page, on MMIO and unmapped, stack
// operations at the edges of the stack and its guard, and a watchdog
// budget that trips on and right after the instruction.
func TestFormsMatchGeneric(t *testing.T) {
	tmpl := formTemplates(t)
	covered := make(map[asm.Form]int)
	check := func(name string, s asm.Slot, st formState) {
		t.Helper()
		runFormCase(t, name, s, &st)
		covered[s.Form]++
	}
	base := func() formState {
		st := formState{}
		for i := range st.regs {
			st.regs[i] = 0x1000*uint32(i) + 0x11
		}
		st.regs[isa.ESP] = formRAM + 0x800
		return st
	}

	for f := asm.Form(1); f < asm.NumForms; f++ {
		s0 := tmpl[f]
		name := fmt.Sprintf("form %d (%s)", f, s0.Op)
		switch {
		case s0.Op == isa.JCC:
			for cc := isa.Cond(1); cc < isa.NumConds; cc++ {
				for flags := 0; flags < 16; flags++ {
					s := s0
					s.Cond, s.Target = cc, formCode+0x40
					st := base()
					st.zf, st.sf, st.cf, st.of = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
					check(fmt.Sprintf("%s %s flags=%04b", name, cc, flags), s, st)
				}
			}
		case s0.Op == isa.JMP:
			for _, target := range []uint32{formCode, formCode + 8, formCode + 0x40, 0} {
				s := s0
				s.Target = target
				st := base()
				st.budget = 4 // ends the jump to itself
				check(fmt.Sprintf("%s to %#x", name, target), s, st)
			}
		case s0.Op == isa.PUSH || s0.Op == isa.POP:
			for _, sp := range []uint32{formRAM + 0x800, formRAM, formRAM + 2, formHole, formHole - 2, formMMIO + 8, 0} {
				for _, r := range []isa.Reg{isa.EAX, isa.ESP} {
					s := s0
					if s.Op == isa.PUSH {
						s.Src.Reg = r
					} else {
						s.Dst.Reg = r
					}
					st := base()
					st.regs[isa.ESP] = sp
					check(fmt.Sprintf("%s %s esp=%#x", name, r, sp), s, st)
					st.guardLow, st.guardHigh = formRAM+0x400, formRAM+0x1000
					check(fmt.Sprintf("%s %s esp=%#x guarded", name, r, sp), s, st)
				}
			}
		default:
			for _, d := range formBoundaries {
				for _, v := range append(formBoundaries, 31, 32, 33) {
					s := s0
					st := base()
					s.Dst.Reg = isa.EBX
					st.regs[isa.EBX] = d
					switch s.Src.Kind {
					case isa.KindReg:
						s.Src.Reg = isa.ECX
						st.regs[isa.ECX] = v
					case isa.KindImm:
						s.Src.Imm = int32(v)
					}
					if s.Src.Kind == isa.KindMem || s.Dst.Kind == isa.KindMem {
						// The value goes in memory; the other operand
						// is EBX, holding d.
						mo := &s.Src
						if s.Dst.Kind == isa.KindMem {
							mo, s.Src.Reg = &s.Dst, isa.EBX
						}
						mo.Base, mo.Index, mo.Scale = isa.ESI, isa.EDI, 4
						st.regs[isa.ESI], st.regs[isa.EDI] = v, d
						for _, tg := range memTargets {
							aim(mo, &st.regs, tg.addr)
							check(fmt.Sprintf("%s d=%#x v=%#x %s", name, d, v, tg.name), s, st)
						}
						continue
					}
					check(fmt.Sprintf("%s d=%#x v=%#x", name, d, v), s, st)
				}
			}
			// The same register as source and destination, and as the
			// base of a memory operand.
			s := s0
			s.Src.Reg, s.Dst.Reg = isa.EDX, isa.EDX
			st := base()
			if mo := memOperand(&s); mo != nil {
				mo.Base, mo.Index = isa.EDX, isa.RegNone
				aim(mo, &st.regs, formRAM+0x200)
			}
			check(name+" aliased", s, st)
		}

		// A watchdog budget that trips on the instruction, and one that
		// trips on the instruction after it.
		s := tmpl[f]
		s.Dst.Reg, s.Src.Reg = isa.EAX, isa.ECX
		s.Cond, s.Target = isa.E, formCode+8
		if mo := memOperand(&s); mo != nil {
			mo.Base = isa.RegNone
			mo.Disp = formRAM + 0x40
		}
		for _, inst := range []uint64{0, 1} {
			for _, warm := range []bool{false, true} {
				st := base()
				st.budget, st.inst, st.warm = 1, inst, warm
				check(fmt.Sprintf("%s budget 1 after %d warm=%v", name, inst, warm), s, st)
			}
		}
	}

	for f := asm.Form(1); f < asm.NumForms; f++ {
		if covered[f] == 0 {
			t.Errorf("form %d has no differential case", f)
		}
	}
}

// memOperand returns s's memory operand, or nil.
func memOperand(s *asm.Slot) *asm.SlotOperand {
	switch {
	case s.Src.Kind == isa.KindMem:
		return &s.Src
	case s.Dst.Kind == isa.KindMem:
		return &s.Dst
	}
	return nil
}

// formFuzzInput is the length of one FuzzFormsMatchGeneric input; shorter
// inputs are zero-padded.
const formFuzzInput = 56

// decodeFormCase builds a differential case from fuzz bytes:
//
//	0      form          1  cond      2  src reg (bit 7: budget spent)
//	3      dst reg
//	4      mem target    5  base reg  6  index reg (>= 8: none)
//	7      scale, flags, budget and warm bits
//	8-11   immediate     12-15 displacement offset
//	16-47  registers     48-55 jump target, stack pointer offset
func decodeFormCase(tmpl map[asm.Form]asm.Slot, b []byte) (asm.Slot, formState) {
	var in [formFuzzInput]byte
	copy(in[:], b)
	u32 := func(i int) uint32 { return binary.LittleEndian.Uint32(in[i:]) }

	s := tmpl[asm.Form(1+int(in[0])%(int(asm.NumForms)-1))]
	var st formState
	for r := range st.regs {
		st.regs[r] = u32(16 + 4*r)
	}
	bits := in[7]
	st.zf, st.sf, st.cf, st.of = bits&0x04 != 0, bits&0x08 != 0, bits&0x10 != 0, bits&0x20 != 0
	st.budget = 4 // ends a jump to itself
	if bits&0x40 != 0 {
		st.budget, st.inst = 1, uint64(in[2]>>7) // 1: trips on the slot
	}
	st.warm = bits&0x80 != 0

	s.Cond = isa.Cond(1 + int(in[1])%(int(isa.NumConds)-1))
	s.Target = formCode + u32(48)%4*8
	if s.Src.Kind == isa.KindReg {
		s.Src.Reg = isa.Reg(in[2] % uint8(isa.NumRegs))
	}
	if s.Dst.Kind == isa.KindReg {
		s.Dst.Reg = isa.Reg(in[3] % uint8(isa.NumRegs))
	}
	if s.Src.Kind == isa.KindImm {
		s.Src.Imm = int32(u32(8))
	}
	if s.Op == isa.PUSH || s.Op == isa.POP {
		// Keep the stack near RAM, MMIO or the hole so it does not
		// always fault.
		st.regs[isa.ESP] = []uint32{formRAM, formHole, formMMIO}[in[4]%3] + u32(52)%0x1000 - 0x800
	}
	if mo := memOperand(&s); mo != nil {
		mo.Base, mo.Index = isa.Reg(in[5]%9), isa.Reg(in[6]%9)
		if mo.Base == isa.NumRegs {
			mo.Base = isa.RegNone
		}
		if mo.Index == isa.NumRegs || mo.Index == isa.ESP {
			mo.Index = isa.RegNone
		}
		mo.Scale = 1 << (bits & 3)
		tg := memTargets[int(in[4])%len(memTargets)].addr
		aim(mo, &st.regs, tg+u32(12)%64-32)
	}
	return s, st
}

// FuzzFormsMatchGeneric differentially fuzzes every form against step:
// each input is one slot of a fuzz-chosen form with fuzz-chosen operands,
// registers, flags, stack and watchdog state.
func FuzzFormsMatchGeneric(f *testing.F) {
	for i := 0; i < int(asm.NumForms)-1; i++ {
		seed := make([]byte, formFuzzInput)
		seed[0], seed[1], seed[4], seed[7] = byte(i), byte(i), byte(i), byte(i*37)
		for j := 8; j < formFuzzInput; j++ {
			seed[j] = byte(i*j + j)
		}
		f.Add(seed)
	}
	tmpl := formTemplates(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, st := decodeFormCase(tmpl, b)
		runFormCase(t, "fuzz", s, &st)
	})
}
