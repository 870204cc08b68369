// Package cpu interprets programs laid out by package asm against address
// spaces from package mem, charging cycles through package cycles.
//
// The CPU executes either the original driver or the SVM-rewritten one with
// identical semantics; the only privilege machinery is (a) faults on
// privileged instructions, (b) the watchdog instruction budget the
// hypervisor arms before invoking the derived driver (the VINO-style
// containment of §4.5.2), and (c) an optional shadow return stack that
// detects stack-smashing control-flow corruption (§4.5.1). Memory safety of
// the derived driver is *not* enforced here — it is a property of the
// rewritten code itself, exactly as in the paper.
package cpu

import (
	"fmt"

	"twindrivers/internal/asm"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
)

// ReturnSentinel is the pseudo return address pushed by Call; a RET to it
// ends the call frame.
const ReturnSentinel = 0xFFFFFFF0

// FaultKind classifies CPU faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone        FaultKind = iota
	FaultPage                  // unmapped memory access
	FaultProtection            // SVM abort (raised by the slow path)
	FaultPrivileged            // privileged instruction in unprivileged context
	FaultInvalidOp             // UD2, STD, malformed instruction
	FaultBadCall               // indirect call/jump to a non-function address
	FaultBadFetch              // PC outside any loaded image
	FaultDivide                // division by zero / overflow
	FaultWatchdog              // instruction budget exhausted
	FaultShadowStack           // return address mismatch (corrupted stack)
	FaultStackGuard            // stack pointer entered a guard page
)

var faultNames = map[FaultKind]string{
	FaultPage: "page fault", FaultProtection: "protection violation",
	FaultPrivileged: "privileged instruction", FaultInvalidOp: "invalid opcode",
	FaultBadCall: "bad indirect call target", FaultBadFetch: "bad instruction fetch",
	FaultDivide: "divide error", FaultWatchdog: "watchdog timeout",
	FaultShadowStack: "shadow stack mismatch", FaultStackGuard: "stack guard page hit",
}

// String names the fault kind as the fault message prints it.
func (k FaultKind) String() string {
	if n, ok := faultNames[k]; ok {
		return n
	}
	return "no fault"
}

// Fault is a CPU exception delivered to the invoking environment.
type Fault struct {
	Kind FaultKind
	PC   uint32
	Addr uint32
	Msg  string
}

func (f *Fault) Error() string {
	s := fmt.Sprintf("cpu: %s at pc=%#08x", faultNames[f.Kind], f.PC)
	if f.Addr != 0 {
		s += fmt.Sprintf(" addr=%#08x", f.Addr)
	}
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}

// IsFault reports whether err is a *Fault of the given kind.
func IsFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}

// Extern is a native routine callable from simulated code. It reads
// arguments with CPU.Arg, may touch simulated memory and call back into
// simulated code, and returns the value to place in EAX.
type Extern func(c *CPU) (uint32, error)

type externEntry struct {
	name string
	fn   Extern
}

// CPU is a single simulated processor.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	ZF    bool
	SF    bool
	CF    bool
	OF    bool
	PC    uint32
	AS    *mem.AddressSpace
	Meter *cycles.Meter

	// AllowPrivileged permits CLI/STI/HLT/IN/OUT (the dom0 kernel context).
	AllowPrivileged bool

	// Budget, when non-zero, faults with FaultWatchdog once that many
	// instructions execute within one outer Call. The hypervisor arms it
	// before invoking the derived driver.
	Budget uint64

	// ShadowStack enables return-address checking.
	ShadowStack bool

	// GuardLow/GuardHigh bound the valid stack-pointer range when nonzero;
	// pushes outside fault with FaultStackGuard (guard pages on the
	// hypervisor driver stack, §4.1).
	GuardLow, GuardHigh uint32

	// Hypercall handles INT imm (the paravirtual gate). Vector is the
	// immediate operand.
	Hypercall func(c *CPU, vector uint32) error

	// OnExternCall, when set, observes every extern invocation (used by
	// internal/trace to regenerate Table 1).
	OnExternCall func(name string)

	images  []*asm.Image
	externs map[uint32]externEntry

	// code and codeBase cache the slots of the image run last fetched
	// from, so a fetch inside it is one subtraction and one index. Only
	// AddImage and RemoveImage change the images, and both drop the cache.
	code     []asm.Slot
	codeBase uint32

	inst    uint64 // instructions retired in the current outer Call
	depth   int    // nesting of Call
	shadow  []uint32
	Retired uint64 // total instructions retired (for statistics)
}

// New returns a CPU bound to an address space and meter.
func New(as *mem.AddressSpace, m *cycles.Meter) *CPU {
	return &CPU{AS: as, Meter: m, externs: make(map[uint32]externEntry)}
}

// AddImage makes an image's code executable.
func (c *CPU) AddImage(im *asm.Image) {
	c.images = append(c.images, im)
	c.code = nil
}

// RemoveImage unloads an image (driver teardown after a fault).
func (c *CPU) RemoveImage(im *asm.Image) {
	for i, x := range c.images {
		if x == im {
			c.images = append(c.images[:i], c.images[i+1:]...)
			c.code = nil
			return
		}
	}
}

// Images returns the loaded images.
func (c *CPU) Images() []*asm.Image { return c.images }

// BindExtern registers a native routine at addr.
func (c *CPU) BindExtern(addr uint32, name string, fn Extern) {
	c.externs[addr] = externEntry{name: name, fn: fn}
}

// ExternAt returns the name of the extern bound at addr.
func (c *CPU) ExternAt(addr uint32) (string, bool) {
	e, ok := c.externs[addr]
	return e.name, ok
}

// imageAt finds the image containing addr.
func (c *CPU) imageAt(addr uint32) *asm.Image {
	for _, im := range c.images {
		if im.Contains(addr) {
			return im
		}
	}
	return nil
}

// IsCodeAddr reports whether addr is a function entry in any image.
func (c *CPU) IsCodeAddr(addr uint32) bool {
	for _, im := range c.images {
		if im.IsFuncEntry(addr) {
			return true
		}
	}
	return false
}

// Arg returns the i-th stack argument of the current cdecl frame (valid at
// function entry and inside externs).
func (c *CPU) Arg(i int) uint32 {
	v, err := c.AS.Load(c.Regs[isa.ESP]+4+uint32(i)*4, 4)
	if err != nil {
		return 0
	}
	return v
}

// Push pushes a word on the simulated stack.
func (c *CPU) Push(v uint32) error {
	sp := c.Regs[isa.ESP] - 4
	if c.GuardLow != 0 && (sp < c.GuardLow || sp >= c.GuardHigh) {
		return &Fault{Kind: FaultStackGuard, PC: c.PC, Addr: sp}
	}
	c.Regs[isa.ESP] = sp
	return c.AS.Store(sp, 4, v)
}

// Pop pops a word from the simulated stack.
func (c *CPU) Pop() (uint32, error) {
	v, err := c.AS.Load(c.Regs[isa.ESP], 4)
	if err != nil {
		return 0, err
	}
	c.Regs[isa.ESP] += 4
	return v, nil
}

// Call invokes the function at entry with cdecl arguments and runs it to
// completion, returning EAX. It is reentrant: externs may Call back into
// simulated code.
func (c *CPU) Call(entry uint32, args ...uint32) (uint32, error) {
	if c.depth == 0 {
		c.inst = 0
	}
	c.depth++
	defer func() { c.depth-- }()

	savedSP := c.Regs[isa.ESP]
	for i := len(args) - 1; i >= 0; i-- {
		if err := c.Push(args[i]); err != nil {
			return 0, err
		}
	}
	if err := c.Push(ReturnSentinel); err != nil {
		return 0, err
	}
	shadowBase := len(c.shadow)

	// An extern entry point is legal (the kernel calling a support routine
	// that happens to be native).
	if e, ok := c.externs[entry]; ok {
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c)
		if err != nil {
			return 0, err
		}
		c.Regs[isa.ESP] = savedSP
		c.Regs[isa.EAX] = ret
		return ret, nil
	}

	c.PC = entry
	err := c.run(shadowBase)
	if err != nil {
		c.shadow = c.shadow[:shadowBase]
		return 0, err
	}
	c.Regs[isa.ESP] = savedSP
	return c.Regs[isa.EAX], nil
}

// run executes until a RET pops ReturnSentinel.
func (c *CPU) run(shadowBase int) error {
	for {
		pc := c.PC
		off := pc - c.codeBase
		if off%asm.InstSlot != 0 || off/asm.InstSlot >= uint32(len(c.code)) {
			im := c.imageAt(pc)
			if im == nil {
				return &Fault{Kind: FaultBadFetch, PC: pc}
			}
			c.code, c.codeBase = im.Slots(), im.CodeBase
			off = pc - im.CodeBase
		}
		in := &c.code[off/asm.InstSlot]
		c.inst++
		c.Retired++
		if c.Budget != 0 && c.inst > c.Budget {
			c.Meter.IFetch(pc) // fetched, never issued
			return &Fault{Kind: FaultWatchdog, PC: pc, Msg: "instruction budget exhausted"}
		}
		c.Meter.Issue(pc)

		// The hot 32-bit shapes run here directly; every other shape is
		// FormGeneric and runs through step, the reference each form
		// must match (TestFormsMatchGeneric).
		next := pc + asm.InstSlot
		switch in.Form {
		case asm.FormMovRR:
			c.Regs[in.Dst.Reg] = c.Regs[in.Src.Reg]
		case asm.FormMovRI:
			c.Regs[in.Dst.Reg] = uint32(in.Src.Imm)
		case asm.FormMovRM:
			v, err := c.loadMem(&in.Src, 4)
			if err != nil {
				return err
			}
			c.Regs[in.Dst.Reg] = v
		case asm.FormMovMR:
			if err := c.storeMem(&in.Dst, 4, c.Regs[in.Src.Reg]); err != nil {
				return err
			}
		case asm.FormLea:
			c.Regs[in.Dst.Reg] = c.EA(&in.Src)
		case asm.FormAddRR:
			d := &c.Regs[in.Dst.Reg]
			*d = c.addFlags(*d, c.Regs[in.Src.Reg], 0, 4)
		case asm.FormAddRI:
			d := &c.Regs[in.Dst.Reg]
			*d = c.addFlags(*d, uint32(in.Src.Imm), 0, 4)
		case asm.FormAddRM:
			s, err := c.loadMem(&in.Src, 4)
			if err != nil {
				return err
			}
			d := &c.Regs[in.Dst.Reg]
			*d = c.addFlags(*d, s, 0, 4)
		case asm.FormSubRR:
			d := &c.Regs[in.Dst.Reg]
			*d = c.subFlags(*d, c.Regs[in.Src.Reg], 0, 4)
		case asm.FormSubRI:
			d := &c.Regs[in.Dst.Reg]
			*d = c.subFlags(*d, uint32(in.Src.Imm), 0, 4)
		case asm.FormCmpRR:
			c.subFlags(c.Regs[in.Dst.Reg], c.Regs[in.Src.Reg], 0, 4)
		case asm.FormCmpRI:
			c.subFlags(c.Regs[in.Dst.Reg], uint32(in.Src.Imm), 0, 4)
		case asm.FormCmpRM:
			s, err := c.loadMem(&in.Src, 4)
			if err != nil {
				return err
			}
			c.subFlags(c.Regs[in.Dst.Reg], s, 0, 4)
		case asm.FormAndRI:
			d := &c.Regs[in.Dst.Reg]
			*d = c.logicFlags(*d&uint32(in.Src.Imm), 4)
		case asm.FormOrRR:
			d := &c.Regs[in.Dst.Reg]
			*d = c.logicFlags(*d|c.Regs[in.Src.Reg], 4)
		case asm.FormXorRR:
			d := &c.Regs[in.Dst.Reg]
			*d = c.logicFlags(*d^c.Regs[in.Src.Reg], 4)
		case asm.FormXorRM:
			s, err := c.loadMem(&in.Src, 4)
			if err != nil {
				return err
			}
			d := &c.Regs[in.Dst.Reg]
			*d = c.logicFlags(*d^s, 4)
		case asm.FormTestRR:
			c.logicFlags(c.Regs[in.Dst.Reg]&c.Regs[in.Src.Reg], 4)
		case asm.FormTestRI:
			c.logicFlags(c.Regs[in.Dst.Reg]&uint32(in.Src.Imm), 4)
		case asm.FormShlRI:
			if cnt := uint32(in.Src.Imm) & 31; cnt != 0 {
				d := &c.Regs[in.Dst.Reg]
				*d = c.shlFlags(*d, cnt, 4)
			}
		case asm.FormShrRI:
			if cnt := uint32(in.Src.Imm) & 31; cnt != 0 {
				d := &c.Regs[in.Dst.Reg]
				*d = c.shrFlags(*d, cnt, 4)
			}
		case asm.FormInc:
			d := &c.Regs[in.Dst.Reg]
			*d = c.incFlags(*d, 4)
		case asm.FormDec:
			d := &c.Regs[in.Dst.Reg]
			*d = c.decFlags(*d, 4)
		case asm.FormJcc:
			if c.cond(in.Cond) {
				next = in.Target
			}
		case asm.FormJmp:
			next = in.Target
		case asm.FormPush:
			if err := c.pushData(c.Regs[in.Src.Reg]); err != nil {
				return err
			}
		case asm.FormPop:
			v, err := c.popData()
			if err != nil {
				return err
			}
			c.Regs[in.Dst.Reg] = v
		default:
			done, err := c.step(in, shadowBase)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			continue
		}
		c.PC = next
	}
}

// EA computes the effective address of a memory operand.
func (c *CPU) EA(o *asm.SlotOperand) uint32 {
	a := uint32(o.Disp)
	if o.Base != isa.RegNone {
		a += c.Regs[o.Base]
	}
	if o.Index != isa.RegNone {
		a += c.Regs[o.Index] * uint32(o.Scale)
	}
	return a
}

// loadOperand reads an operand's value (masked to size).
func (c *CPU) loadOperand(o *asm.SlotOperand, size uint32) (uint32, error) {
	switch o.Kind {
	case isa.KindImm:
		return uint32(o.Imm) & sizeMask(size), nil
	case isa.KindReg:
		return c.Regs[o.Reg] & sizeMask(size), nil
	case isa.KindMem:
		return c.loadMem(o, size)
	}
	return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "empty operand"}
}

// storeOperand writes val (masked to size) to a register or memory operand.
// Sub-word register writes preserve the upper bits, as on x86.
func (c *CPU) storeOperand(o *asm.SlotOperand, size uint32, val uint32) error {
	switch o.Kind {
	case isa.KindReg:
		c.storeReg(o.Reg, size, val)
		return nil
	case isa.KindMem:
		return c.storeMem(o, size, val)
	}
	return &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "bad store operand"}
}

// loadMem reads size bytes at a memory operand, charging the data access.
func (c *CPU) loadMem(o *asm.SlotOperand, size uint32) (uint32, error) {
	a := c.EA(o)
	c.Meter.MemAccess(a)
	v, err := c.AS.Load(a, size)
	if err != nil {
		return 0, c.pageFault(err, a)
	}
	return v, nil
}

// storeMem writes val (masked to size) to a memory operand, charging the
// data access.
func (c *CPU) storeMem(o *asm.SlotOperand, size uint32, val uint32) error {
	a := c.EA(o)
	c.Meter.MemAccess(a)
	if err := c.AS.Store(a, size, val&sizeMask(size)); err != nil {
		return c.pageFault(err, a)
	}
	return nil
}

// pushData pushes v, charging the data access at the new stack top.
func (c *CPU) pushData(v uint32) error {
	c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
	return c.Push(v)
}

// popData pops a word, charging the data access at the stack top; a
// failed load is a page fault at the stack pointer.
func (c *CPU) popData() (uint32, error) {
	c.Meter.MemAccess(c.Regs[isa.ESP])
	v, err := c.Pop()
	if err != nil {
		return 0, c.pageFault(err, c.Regs[isa.ESP])
	}
	return v, nil
}

func (c *CPU) pageFault(err error, addr uint32) error {
	if pf, ok := err.(*mem.PageFault); ok {
		return &Fault{Kind: FaultPage, PC: c.PC, Addr: pf.Addr}
	}
	return &Fault{Kind: FaultPage, PC: c.PC, Addr: addr, Msg: err.Error()}
}

// sizeMask is the value mask of an operand size (1, 2 or 4 bytes).
func sizeMask(size uint32) uint32 { return ^uint32(0) >> (32 - size*8) }

// The flag helpers below hold each flag rule once. Their operands are
// already masked to size. step passes the slot's size; the forms in run
// pass a constant 4, and the helpers are small enough to inline there.

// setZSO sets ZF and SF from the low size bytes of res and OF from the
// size's sign bit of ov, and returns res masked to size.
func (c *CPU) setZSO(res, ov, size uint32) uint32 {
	top := 32 - size*8 // moves the size's sign bit to bit 31
	res <<= top
	c.ZF = res == 0
	c.SF = int32(res) < 0
	c.OF = int32(ov<<top) < 0
	return res >> top
}

// addFlags returns d+s+carry at size and sets the flags ADD and ADC set.
func (c *CPU) addFlags(d, s, carry, size uint32) uint32 {
	r := uint64(d) + uint64(s) + uint64(carry)
	c.CF = r>>(size*8) != 0
	return c.setZSO(uint32(r), ^(d^s)&(d^uint32(r)), size)
}

// subFlags returns d-s-borrow at size and sets the flags SUB, SBB, CMP
// and the string compares set.
func (c *CPU) subFlags(d, s, borrow, size uint32) uint32 {
	r := uint64(d) - uint64(s) - uint64(borrow)
	c.CF = r>>63 != 0 // negative: a borrow out
	return c.setZSO(uint32(r), (d^s)&(d^uint32(r)), size)
}

// logicFlags returns res at size and sets the flags AND, OR, XOR and TEST
// set.
func (c *CPU) logicFlags(res, size uint32) uint32 {
	c.CF = false
	return c.setZSO(res, 0, size)
}

// incFlags returns d+1 at size and sets the flags INC sets (CF is
// unaffected, as on x86).
func (c *CPU) incFlags(d, size uint32) uint32 { return c.setZSO(d+1, ^d&(d+1), size) }

// decFlags returns d-1 at size and sets the flags DEC sets.
func (c *CPU) decFlags(d, size uint32) uint32 { return c.setZSO(d-1, d&^(d-1), size) }

// shlFlags returns d<<cnt at size, for a count of 1 to 31, and sets the
// flags SHL sets. CF is the last bit shifted out; a count past the size
// shifts out a zero (a Go shift by 32 or more is 0).
func (c *CPU) shlFlags(d, cnt, size uint32) uint32 {
	c.CF = d&(1<<(size*8-cnt)) != 0
	return c.setZSO(d<<cnt, 0, size)
}

// shrFlags returns d>>cnt at size, for a count of 1 to 31, and sets the
// flags SHR sets.
func (c *CPU) shrFlags(d, cnt, size uint32) uint32 {
	c.CF = d&(1<<(cnt-1)) != 0
	return c.setZSO(d>>cnt, 0, size)
}

// flagsPack encodes flags in x86 EFLAGS bit positions.
func (c *CPU) flagsPack() uint32 {
	var f uint32 = 0x2 // reserved bit
	if c.CF {
		f |= 1 << 0
	}
	if c.ZF {
		f |= 1 << 6
	}
	if c.SF {
		f |= 1 << 7
	}
	if c.OF {
		f |= 1 << 11
	}
	return f
}

func (c *CPU) flagsUnpack(f uint32) {
	c.CF = f&(1<<0) != 0
	c.ZF = f&(1<<6) != 0
	c.SF = f&(1<<7) != 0
	c.OF = f&(1<<11) != 0
}

// cond evaluates a condition against the flags.
func (c *CPU) cond(cc isa.Cond) bool {
	switch cc {
	case isa.E:
		return c.ZF
	case isa.NE:
		return !c.ZF
	case isa.B:
		return c.CF
	case isa.AE:
		return !c.CF
	case isa.BE:
		return c.CF || c.ZF
	case isa.A:
		return !c.CF && !c.ZF
	case isa.L:
		return c.SF != c.OF
	case isa.GE:
		return c.SF == c.OF
	case isa.LE:
		return c.ZF || c.SF != c.OF
	case isa.G:
		return !c.ZF && c.SF == c.OF
	case isa.S:
		return c.SF
	case isa.NS:
		return !c.SF
	}
	return false
}
