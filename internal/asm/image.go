package asm

import (
	"fmt"
	"sort"

	"twindrivers/internal/isa"
)

// InstSlot is the fixed size, in bytes of address space, occupied by every
// instruction in a laid-out image. A constant slot size keeps code
// addresses, return addresses and the VM→hypervisor code delta trivially
// computable, mirroring how the real TwinDrivers keeps "a constant offset
// for all routines" by running the same rewritten binary in both instances.
const InstSlot = 8

// Resolver supplies addresses for symbols the unit does not define. The
// dom0 module loader and the hypervisor driver loader implement this
// differently: the former binds imports to dom0 kernel symbols, the latter
// binds data imports to the *same dom0 addresses* (saved relocation info,
// §5.2) and call imports to hypervisor support routines or upcall stubs.
type Resolver func(sym string) (uint32, bool)

// Image is a laid-out, linked unit: every instruction has an address, every
// symbolic reference is resolved.
//
// Code is held once, as a dense slice of decoded Slots indexed by
// (addr-CodeBase)/InstSlot. The full isa.Inst form (labels, source lines,
// symbol names) stays in the Unit the image was laid out from.
type Image struct {
	Name     string
	CodeBase uint32
	CodeEnd  uint32
	DataBase uint32
	DataEnd  uint32

	slots []Slot

	funcStart map[string]uint32 // function name -> entry address
	funcAt    map[uint32]string // entry address -> function name
	dataAddr  map[string]uint32 // data symbol -> address
	dataSize  map[string]uint32
	imports   map[string]uint32 // symbols bound through the Resolver

	dataInit []byte // initial contents of [DataBase, DataEnd)
}

// Slot is one linked instruction in the form the interpreter reads it:
// pointer-free, 44 bytes, with every symbol folded into its operand and
// the branch target resolved to an address.
type Slot struct {
	Target   uint32 // resolved direct branch target (0 if none)
	Op       isa.Op
	Cond     isa.Cond
	Size     uint8 // operand size in bytes: 1, 2 or 4 (never 0)
	Rep      isa.Rep
	Indirect bool
	Form     Form // operand shape, for the interpreter's dispatch
	Src      SlotOperand
	Dst      SlotOperand
}

// Form names the operand shape of a slot for the interpreter's dispatch.
// The hot 32-bit shapes each get a form the interpreter runs directly;
// every other shape is FormGeneric. In the names, R is a register, I an
// immediate and M one memory operand, destination first: FormMovRM is
// "movl mem, %reg", FormMovMR is "movl %reg, mem".
type Form uint8

// Forms. Only size-4 instructions without a REP prefix, and with no
// indirect target, get a form other than FormGeneric.
const (
	FormGeneric Form = iota
	FormMovRR
	FormMovRI
	FormMovRM
	FormMovMR
	FormLea // lea mem, %reg
	FormAddRR
	FormAddRI
	FormAddRM
	FormSubRR
	FormSubRI
	FormCmpRR
	FormCmpRI
	FormCmpRM
	FormAndRI
	FormOrRR
	FormXorRR
	FormXorRM
	FormTestRR
	FormTestRI
	FormShlRI
	FormShrRI
	FormInc // inc %reg
	FormDec // dec %reg
	FormJcc
	FormJmp  // direct jmp
	FormPush // push %reg
	FormPop  // pop %reg
	NumForms
)

// shape is an operation with its source and destination operand kinds.
type shape struct {
	op       isa.Op
	src, dst isa.OperandKind
}

// FormOf returns the form decode assigns to s, from its op, size, REP
// prefix, indirect flag and operand kinds.
func FormOf(s *Slot) Form {
	if s.Size != 4 || s.Rep != isa.RepNone || s.Indirect {
		return FormGeneric
	}
	const n, r, i, m = isa.KindNone, isa.KindReg, isa.KindImm, isa.KindMem
	switch (shape{s.Op, s.Src.Kind, s.Dst.Kind}) {
	case shape{isa.MOV, r, r}:
		return FormMovRR
	case shape{isa.MOV, i, r}:
		return FormMovRI
	case shape{isa.MOV, m, r}:
		return FormMovRM
	case shape{isa.MOV, r, m}:
		return FormMovMR
	case shape{isa.LEA, m, r}:
		return FormLea
	case shape{isa.ADD, r, r}:
		return FormAddRR
	case shape{isa.ADD, i, r}:
		return FormAddRI
	case shape{isa.ADD, m, r}:
		return FormAddRM
	case shape{isa.SUB, r, r}:
		return FormSubRR
	case shape{isa.SUB, i, r}:
		return FormSubRI
	case shape{isa.CMP, r, r}:
		return FormCmpRR
	case shape{isa.CMP, i, r}:
		return FormCmpRI
	case shape{isa.CMP, m, r}:
		return FormCmpRM
	case shape{isa.AND, i, r}:
		return FormAndRI
	case shape{isa.OR, r, r}:
		return FormOrRR
	case shape{isa.XOR, r, r}:
		return FormXorRR
	case shape{isa.XOR, m, r}:
		return FormXorRM
	case shape{isa.TEST, r, r}:
		return FormTestRR
	case shape{isa.TEST, i, r}:
		return FormTestRI
	case shape{isa.SHL, i, r}:
		return FormShlRI
	case shape{isa.SHR, i, r}:
		return FormShrRI
	case shape{isa.INC, n, r}:
		return FormInc
	case shape{isa.DEC, n, r}:
		return FormDec
	case shape{isa.JCC, n, n}:
		return FormJcc
	case shape{isa.JMP, n, n}:
		return FormJmp
	case shape{isa.PUSH, r, n}:
		return FormPush
	case shape{isa.POP, n, r}:
		return FormPop
	}
	return FormGeneric
}

// SlotOperand is a linked operand: isa.Operand with its symbol folded
// into Imm (immediates) or Disp (memory) and its scale normalised.
type SlotOperand struct {
	Kind  isa.OperandKind
	Reg   isa.Reg
	Base  isa.Reg
	Index isa.Reg
	Scale uint8 // effective scale: 1, 2, 4 or 8 (never 0)
	Imm   int32
	Disp  int32
}

// decode converts a folded instruction (no symbol left in its operands)
// and its resolved branch target into a slot.
func decode(in *isa.Inst, target uint32) Slot {
	s := Slot{
		Target:   target,
		Op:       in.Op,
		Cond:     in.Cond,
		Size:     uint8(in.EffSize()),
		Rep:      in.Rep,
		Indirect: in.Indirect,
		Src:      decodeOperand(&in.Src),
		Dst:      decodeOperand(&in.Dst),
	}
	s.Form = FormOf(&s)
	return s
}

func decodeOperand(o *isa.Operand) SlotOperand {
	return SlotOperand{
		Kind: o.Kind, Reg: o.Reg, Base: o.Base, Index: o.Index,
		Scale: o.EffScale(), Imm: o.Imm, Disp: o.Disp,
	}
}

// LayoutError reports a link failure.
type LayoutError struct {
	Sym string
	Msg string
}

func (e *LayoutError) Error() string { return fmt.Sprintf("asm: layout: %s: %s", e.Sym, e.Msg) }

// Layout links a unit at the given code and data base addresses. Undefined
// symbols are resolved through r; a nil resolver fails on any import.
func Layout(name string, u *Unit, codeBase, dataBase uint32, r Resolver) (*Image, error) {
	im := &Image{
		Name:      name,
		CodeBase:  codeBase,
		DataBase:  dataBase,
		funcStart: make(map[string]uint32),
		funcAt:    make(map[uint32]string),
		dataAddr:  make(map[string]uint32),
		dataSize:  make(map[string]uint32),
		imports:   make(map[string]uint32),
	}

	// Pass 1: place functions and data.
	addr := codeBase
	for _, f := range u.Funcs {
		im.funcStart[f.Name] = addr
		im.funcAt[addr] = f.Name
		addr += uint32(len(f.Insts)) * InstSlot
	}
	im.CodeEnd = addr

	daddr := dataBase
	for _, d := range u.Datas {
		align := d.Align
		if align == 0 {
			align = 4
		}
		daddr = (daddr + align - 1) &^ (align - 1)
		im.dataAddr[d.Name] = daddr
		im.dataSize[d.Name] = uint32(len(d.Bytes))
		daddr += uint32(len(d.Bytes))
	}
	im.DataEnd = daddr
	im.dataInit = make([]byte, daddr-dataBase)
	for _, d := range u.Datas {
		if d.Section == "bss" {
			continue
		}
		copy(im.dataInit[im.dataAddr[d.Name]-dataBase:], d.Bytes)
	}

	resolve := func(sym string, f *Func, fbase uint32) (uint32, bool) {
		if f != nil {
			if idx, ok := f.Labels[sym]; ok {
				return fbase + uint32(idx)*InstSlot, true
			}
		}
		if a, ok := im.funcStart[sym]; ok {
			return a, true
		}
		if a, ok := im.dataAddr[sym]; ok {
			return a, true
		}
		if r != nil {
			if a, ok := r(sym); ok {
				im.imports[sym] = a
				return a, true
			}
		}
		return 0, false
	}

	// Pass 2: fold symbols into a copy of each instruction and decode it.
	im.slots = make([]Slot, 0, u.InstCount())
	for _, f := range u.Funcs {
		fbase := im.funcStart[f.Name]
		for i := range f.Insts {
			in := f.Insts[i] // copy
			var target uint32
			if in.Target != "" {
				a, ok := resolve(in.Target, f, fbase)
				if !ok {
					return nil, &LayoutError{Sym: in.Target, Msg: fmt.Sprintf("undefined branch target (in %s, line %d)", f.Name, in.Line)}
				}
				target = a
			}
			if err := foldOperand(&in.Src, f, fbase, resolve); err != nil {
				return nil, err
			}
			if err := foldOperand(&in.Dst, f, fbase, resolve); err != nil {
				return nil, err
			}
			im.slots = append(im.slots, decode(&in, target))
		}
	}
	return im, nil
}

func foldOperand(o *isa.Operand, f *Func, fbase uint32, resolve func(string, *Func, uint32) (uint32, bool)) error {
	if o.Sym == "" {
		return nil
	}
	a, ok := resolve(o.Sym, f, fbase)
	if !ok {
		return &LayoutError{Sym: o.Sym, Msg: fmt.Sprintf("undefined symbol (in %s)", f.Name)}
	}
	switch o.Kind {
	case isa.KindImm:
		o.Imm += int32(a)
	case isa.KindMem:
		o.Disp += int32(a)
	}
	o.Sym = ""
	return nil
}

// Contains reports whether addr is a valid instruction address in the image.
func (im *Image) Contains(addr uint32) bool {
	return addr >= im.CodeBase && addr < im.CodeEnd && (addr-im.CodeBase)%InstSlot == 0
}

// At returns the slot of the instruction at addr.
func (im *Image) At(addr uint32) (*Slot, bool) {
	if !im.Contains(addr) {
		return nil, false
	}
	return &im.slots[(addr-im.CodeBase)/InstSlot], true
}

// Slots returns the image's code: the slot of the instruction at address
// CodeBase+i*InstSlot is element i. The slice is shared, not copied.
func (im *Image) Slots() []Slot { return im.slots }

// FuncEntry returns the function entry address for name.
func (im *Image) FuncEntry(name string) (uint32, bool) {
	a, ok := im.funcStart[name]
	return a, ok
}

// IsFuncEntry reports whether addr is the entry of a function. The CPU
// validates indirect call targets with this: a rewritten driver that
// computes a bogus function pointer faults instead of executing mid-stream.
func (im *Image) IsFuncEntry(addr uint32) bool {
	_, ok := im.funcAt[addr]
	return ok
}

// FuncNameAt returns the name of the function whose entry is addr.
func (im *Image) FuncNameAt(addr uint32) (string, bool) {
	n, ok := im.funcAt[addr]
	return n, ok
}

// FuncContaining returns the name of the function whose code range contains
// addr, for diagnostics.
func (im *Image) FuncContaining(addr uint32) string {
	if addr < im.CodeBase || addr >= im.CodeEnd {
		return ""
	}
	best, bestAddr := "", uint32(0)
	for name, a := range im.funcStart {
		if a <= addr && a >= bestAddr {
			best, bestAddr = name, a
		}
	}
	return best
}

// DataSymbol returns the address of a data symbol.
func (im *Image) DataSymbol(name string) (uint32, bool) {
	a, ok := im.dataAddr[name]
	return a, ok
}

// DataSymbolSize returns the size in bytes of a data symbol.
func (im *Image) DataSymbolSize(name string) (uint32, bool) {
	s, ok := im.dataSize[name]
	return s, ok
}

// Import returns the address the Resolver bound an imported symbol to.
func (im *Image) Import(sym string) (uint32, bool) {
	a, ok := im.imports[sym]
	return a, ok
}

// DataSymbols returns all data symbol names, sorted.
func (im *Image) DataSymbols() []string {
	out := make([]string, 0, len(im.dataAddr))
	for n := range im.dataAddr {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DataInit returns the initial data segment contents (relative to DataBase).
func (im *Image) DataInit() []byte { return im.dataInit }

// NumInsts returns the number of instructions in the image.
func (im *Image) NumInsts() int { return len(im.slots) }
