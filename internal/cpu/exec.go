package cpu

import (
	"twindrivers/internal/asm"
	"twindrivers/internal/isa"
)

// step executes one instruction of any shape; run has already charged its
// fetch and 1-cycle issue cost. run sends it every FormGeneric slot and
// runs the other forms itself, and step is the reference those forms must
// match. It returns done=true when a RET pops the ReturnSentinel of the
// current Call frame.
func (c *CPU) step(in *asm.Slot, shadowBase int) (bool, error) {
	size := uint32(in.Size)
	next := c.PC + asm.InstSlot

	switch in.Op {
	case isa.NOP:
		// nothing

	case isa.MOV:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, v); err != nil {
			return false, err
		}

	case isa.MOVZX:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
			return false, err
		}

	case isa.MOVSX:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, 4, uint32(signExtend(v, size))); err != nil {
			return false, err
		}

	case isa.LEA:
		if in.Src.Kind != isa.KindMem || in.Dst.Kind != isa.KindReg {
			return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "lea wants mem, reg"}
		}
		c.Regs[in.Dst.Reg] = c.EA(&in.Src)

	case isa.PUSH:
		v, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		if err := c.pushData(v); err != nil {
			return false, err
		}

	case isa.POP:
		v, err := c.popData()
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
			return false, err
		}

	case isa.XCHG:
		a, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		b, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Src, size, b); err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, a); err != nil {
			return false, err
		}

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		carry := uint32(0)
		if (in.Op == isa.ADC || in.Op == isa.SBB) && c.CF {
			carry = 1
		}
		var res uint32
		if in.Op == isa.ADD || in.Op == isa.ADC {
			res = c.addFlags(d, s, carry, size)
		} else {
			res = c.subFlags(d, s, carry, size)
		}
		if in.Op != isa.CMP {
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.AND, isa.OR, isa.XOR, isa.TEST:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		var res uint32
		switch in.Op {
		case isa.AND, isa.TEST:
			res = d & s
		case isa.OR:
			res = d | s
		case isa.XOR:
			res = d ^ s
		}
		res = c.logicFlags(res, size)
		if in.Op != isa.TEST {
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.SHL, isa.SHR, isa.SAR:
		cnt, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		cnt &= 31
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if cnt > 0 {
			var res uint32
			switch in.Op {
			case isa.SHL:
				res = c.shlFlags(d, cnt, size)
			case isa.SHR:
				res = c.shrFlags(d, cnt, size)
			case isa.SAR:
				c.CF = d&(1<<(cnt-1)) != 0
				res = c.setZSO(uint32(signExtend(d, size)>>cnt), 0, size)
			}
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.INC, isa.DEC:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		var res uint32
		if in.Op == isa.INC {
			res = c.incFlags(d, size)
		} else {
			res = c.decFlags(d, size)
		}
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.NEG:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		res := c.subFlags(0, d, 0, size) // flags of 0-d
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.NOT:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, ^d&sizeMask(size)); err != nil {
			return false, err
		}

	case isa.IMUL:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		// The product of the size's signed operands; CF=OF when it does
		// not fit the size.
		full := int64(signExtend(d, size)) * int64(signExtend(s, size))
		res := c.setZSO(uint32(full), 0, size)
		c.CF = full != int64(signExtend(res, size))
		c.OF = c.CF
		c.Meter.Add(3) // multiply latency
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.MUL:
		// mulb: AX = AL*src. mulw: DX:AX = AX*src. mull: EDX:EAX =
		// EAX*src. CF=OF when the high half is non-zero.
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		full := uint64(c.Regs[isa.EAX]&sizeMask(size)) * uint64(s)
		var hi uint32
		if size == 1 {
			c.storeReg(isa.EAX, 2, uint32(full))
			hi = uint32(full >> 8)
		} else {
			c.storeReg(isa.EAX, size, uint32(full))
			hi = uint32(full >> (size * 8))
			c.storeReg(isa.EDX, size, hi)
		}
		c.CF = hi&sizeMask(size) != 0
		c.OF = c.CF
		c.Meter.Add(3)

	case isa.DIV:
		// divb: AL, AH = AX / src, AX % src. divw: AX, DX = DX:AX / src,
		// DX:AX % src. divl: EAX, EDX = EDX:EAX / src, EDX:EAX % src.
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if s == 0 {
			return false, &Fault{Kind: FaultDivide, PC: c.PC}
		}
		w := size * 8
		var n uint64
		if size == 1 {
			n = uint64(c.Regs[isa.EAX] & 0xFFFF)
		} else {
			n = uint64(c.Regs[isa.EDX]&sizeMask(size))<<w | uint64(c.Regs[isa.EAX]&sizeMask(size))
		}
		q, r := n/uint64(s), uint32(n%uint64(s))
		if q > uint64(sizeMask(size)) {
			return false, &Fault{Kind: FaultDivide, PC: c.PC, Msg: "quotient overflow"}
		}
		if size == 1 {
			c.storeReg(isa.EAX, 2, r<<8|uint32(q))
		} else {
			c.storeReg(isa.EAX, size, uint32(q))
			c.storeReg(isa.EDX, size, r)
		}
		c.Meter.Add(20) // divide latency

	case isa.SETCC:
		v := uint32(0)
		if c.cond(in.Cond) {
			v = 1
		}
		if err := c.storeOperand(&in.Dst, 1, v); err != nil {
			return false, err
		}

	case isa.JMP:
		if in.Indirect {
			t, err := c.loadOperand(&in.Src, 4)
			if err != nil {
				return false, err
			}
			return c.transfer(t, false, shadowBase)
		}
		c.PC = in.Target
		return false, nil

	case isa.JCC:
		if c.cond(in.Cond) {
			c.PC = in.Target
			return false, nil
		}

	case isa.CALL:
		t := in.Target
		if in.Indirect {
			v, err := c.loadOperand(&in.Src, 4)
			if err != nil {
				return false, err
			}
			t = v
		}
		c.Meter.Add(1) // call overhead
		return c.transferCall(t, next, shadowBase)

	case isa.RET:
		ra, err := c.popData()
		if err != nil {
			return false, err
		}
		if c.ShadowStack {
			if len(c.shadow) > shadowBase {
				want := c.shadow[len(c.shadow)-1]
				c.shadow = c.shadow[:len(c.shadow)-1]
				if want != ra {
					return false, &Fault{Kind: FaultShadowStack, PC: c.PC, Addr: ra,
						Msg: "return address corrupted"}
				}
			}
		}
		if ra == ReturnSentinel {
			return true, nil
		}
		c.PC = ra
		return false, nil

	case isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		return false, c.stringOp(in, size)

	case isa.PUSHF:
		if err := c.pushData(c.flagsPack()); err != nil {
			return false, err
		}

	case isa.POPF:
		v, err := c.popData()
		if err != nil {
			return false, err
		}
		c.flagsUnpack(v)

	case isa.CLC:
		c.CF = false
	case isa.STC:
		c.CF = true
	case isa.CLD:
		// Direction is always forward in this machine.
	case isa.STD:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "descending string direction unsupported"}

	case isa.INT:
		if c.Hypercall == nil {
			return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "no hypercall handler"}
		}
		vec, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		c.PC = next // handler sees the post-instruction PC
		if err := c.Hypercall(c, vec); err != nil {
			return false, err
		}
		return false, nil

	case isa.HLT, isa.CLI, isa.STI, isa.IN, isa.OUT:
		if !c.AllowPrivileged {
			return false, &Fault{Kind: FaultPrivileged, PC: c.PC, Msg: in.Op.String()}
		}
		// Privileged context: CLI/STI model the virtual interrupt flag at a
		// higher layer; HLT/IN/OUT are no-ops for this machine.

	case isa.UD2:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "ud2"}

	default:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: in.Op.String()}
	}

	c.PC = next
	return false, nil
}

// transfer performs an indirect jmp: extern targets behave like a tail
// call (invoke, then return to the caller's frame).
func (c *CPU) transfer(t uint32, _ bool, shadowBase int) (bool, error) {
	if e, ok := c.externs[t]; ok {
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c)
		if err != nil {
			return false, err
		}
		c.Regs[isa.EAX] = ret
		// Tail call: return to the address on top of the stack.
		ra, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		if c.ShadowStack && len(c.shadow) > shadowBase {
			c.shadow = c.shadow[:len(c.shadow)-1]
		}
		if ra == ReturnSentinel {
			return true, nil
		}
		c.PC = ra
		return false, nil
	}
	if !c.validTarget(t) {
		return false, &Fault{Kind: FaultBadCall, PC: c.PC, Addr: t}
	}
	c.PC = t
	return false, nil
}

// transferCall performs a call (direct or indirect) to t, returning to ra.
func (c *CPU) transferCall(t, ra uint32, _ int) (bool, error) {
	if e, ok := c.externs[t]; ok {
		// Native routine: simulate push of return address for the cdecl
		// frame, invoke, pop, continue — all within this instruction.
		if err := c.pushData(ra); err != nil {
			return false, err
		}
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c)
		if err != nil {
			return false, err
		}
		c.Regs[isa.EAX] = ret
		if _, err := c.Pop(); err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		c.PC = ra
		return false, nil
	}
	if !c.validTarget(t) {
		return false, &Fault{Kind: FaultBadCall, PC: c.PC, Addr: t}
	}
	if err := c.pushData(ra); err != nil {
		return false, err
	}
	if c.ShadowStack {
		c.shadow = append(c.shadow, ra)
	}
	c.PC = t
	return false, nil
}

// validTarget accepts function entries only: a corrupted function pointer
// cannot land mid-function.
func (c *CPU) validTarget(t uint32) bool {
	return c.IsCodeAddr(t)
}

// stringOp executes one string instruction, including REP forms. REP forms
// drive ECX directly, so an aborting fault leaves the architectural state
// consistent with the elements already processed.
func (c *CPU) stringOp(in *asm.Slot, size uint32) error {
	for {
		if in.Rep != isa.RepNone && c.Regs[isa.ECX] == 0 {
			break
		}
		var err error
		switch in.Op {
		case isa.MOVS:
			var v uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if v, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if err = c.AS.Store(c.Regs[isa.EDI], size, v); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.STOS:
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if err = c.AS.Store(c.Regs[isa.EDI], size, c.Regs[isa.EAX]&sizeMask(size)); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.Regs[isa.EDI] += size
		case isa.LODS:
			var v uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if v, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			m := sizeMask(size)
			c.Regs[isa.EAX] = (c.Regs[isa.EAX] &^ m) | (v & m)
			c.Regs[isa.ESI] += size
		case isa.CMPS:
			var a, b uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if a, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.subFlags(a, b, 0, size)
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.SCAS:
			var b uint32
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.subFlags(c.Regs[isa.EAX]&sizeMask(size), b, 0, size)
			c.Regs[isa.EDI] += size
		}
		c.Meter.Add(1)
		if in.Rep == isa.RepNone {
			break
		}
		c.Regs[isa.ECX]--
		if in.Op == isa.CMPS || in.Op == isa.SCAS {
			if in.Rep == isa.RepE && !c.ZF {
				break
			}
			if in.Rep == isa.RepNE && c.ZF {
				break
			}
		}
	}
	c.PC += asm.InstSlot
	return nil
}

// signExtend sign-extends the low size bytes of v to 32 bits.
func signExtend(v, size uint32) int32 {
	w := size * 8
	return int32(v<<(32-w)) >> (32 - w)
}

// storeReg writes the low size bytes of r, preserving its upper bits.
func (c *CPU) storeReg(r isa.Reg, size, val uint32) {
	m := sizeMask(size)
	c.Regs[r] = c.Regs[r]&^m | val&m
}
