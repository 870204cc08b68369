package cpu

import (
	"twindrivers/internal/asm"
	"twindrivers/internal/isa"
)

// step executes one instruction; run has already charged its fetch and
// 1-cycle issue cost. It returns done=true when a RET pops the
// ReturnSentinel of the current Call frame.
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
		if v&signBit(size) != 0 {
			v |= ^sizeMask(size)
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
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
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(v); err != nil {
			return false, err
		}

	case isa.POP:
		c.Meter.MemAccess(c.Regs[isa.ESP])
		v, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
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
		carry := uint64(0)
		if (in.Op == isa.ADC || in.Op == isa.SBB) && c.CF {
			carry = 1
		}
		var r uint64
		sub := in.Op == isa.SUB || in.Op == isa.SBB || in.Op == isa.CMP
		if sub {
			r = uint64(d) - uint64(s) - carry
		} else {
			r = uint64(d) + uint64(s) + carry
		}
		res := uint32(r) & sizeMask(size)
		c.setZS(res, size)
		if sub {
			c.CF = uint64(d) < uint64(s)+carry
			c.OF = (d^s)&(d^res)&signBit(size) != 0
		} else {
			c.CF = r > uint64(sizeMask(size))
			c.OF = ^(d^s)&(d^res)&signBit(size) != 0
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
		res &= sizeMask(size)
		c.setZS(res, size)
		c.CF, c.OF = false, false
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
		res := d
		if cnt > 0 {
			switch in.Op {
			case isa.SHL:
				c.CF = cnt <= size*8 && d&(1<<(size*8-cnt)) != 0
				res = d << cnt
			case isa.SHR:
				c.CF = d&(1<<(cnt-1)) != 0
				res = d >> cnt
			case isa.SAR:
				c.CF = d&(1<<(cnt-1)) != 0
				w := size * 8
				sv := int32(d<<(32-w)) >> (32 - w) // sign-extend to 32 bits
				res = uint32(sv>>cnt) & sizeMask(size)
			}
			res &= sizeMask(size)
			c.setZS(res, size)
			c.OF = false
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
			res = (d + 1) & sizeMask(size)
			c.OF = res == signBit(size)
		} else {
			res = (d - 1) & sizeMask(size)
			c.OF = d == signBit(size)
		}
		c.setZS(res, size) // CF unaffected, as on x86
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.NEG:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		res := (-d) & sizeMask(size)
		c.setZS(res, size)
		c.CF = d != 0
		c.OF = d == signBit(size)
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
		full := int64(int32(d)) * int64(int32(s))
		res := uint32(full)
		c.CF = full != int64(int32(res))
		c.OF = c.CF
		c.setZS(res, size)
		c.Meter.Add(3) // multiply latency
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.MUL:
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		full := uint64(c.Regs[isa.EAX]) * uint64(s)
		c.Regs[isa.EAX] = uint32(full)
		c.Regs[isa.EDX] = uint32(full >> 32)
		c.CF = c.Regs[isa.EDX] != 0
		c.OF = c.CF
		c.Meter.Add(3)

	case isa.DIV:
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if s == 0 {
			return false, &Fault{Kind: FaultDivide, PC: c.PC}
		}
		n := uint64(c.Regs[isa.EDX])<<32 | uint64(c.Regs[isa.EAX])
		q := n / uint64(s)
		if q > 0xFFFFFFFF {
			return false, &Fault{Kind: FaultDivide, PC: c.PC, Msg: "quotient overflow"}
		}
		c.Regs[isa.EAX] = uint32(q)
		c.Regs[isa.EDX] = uint32(n % uint64(s))
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
		c.Meter.MemAccess(c.Regs[isa.ESP])
		ra, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
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
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(c.flagsPack()); err != nil {
			return false, err
		}

	case isa.POPF:
		c.Meter.MemAccess(c.Regs[isa.ESP])
		v, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
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
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(ra); err != nil {
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
	c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
	if err := c.Push(ra); err != nil {
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
			res := (a - b) & sizeMask(size)
			c.setZS(res, size)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&signBit(size) != 0
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.SCAS:
			var b uint32
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			a := c.Regs[isa.EAX] & sizeMask(size)
			res := (a - b) & sizeMask(size)
			c.setZS(res, size)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&signBit(size) != 0
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
