package cpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"twindrivers/internal/isa"
)

// runALU executes "movl $a, %eax; <op>l $b, %eax" and returns eax plus the
// setcc-decoded flags.
func runALU(t *testing.T, op string, a, b uint32) (res uint32, zf, sf, cf, of bool) {
	t.Helper()
	src := fmt.Sprintf(`
f:
	movl	$%d, %%eax
	%sl	$%d, %%eax
	setb	flags
	sete	flags+1
	sets	flags+2
	movl	%%eax, result
	movl	result, %%eax
	ret
	.data
flags:
	.long	0
result:
	.long	0
`, int32(a), op, int32(b))
	c, im := testEnv(t, src)
	entry, _ := im.FuncEntry("f")
	v, err := c.Call(entry)
	if err != nil {
		t.Fatalf("%s %#x,%#x: %v", op, a, b, err)
	}
	fb, _ := c.AS.Load(0x200000, 4)
	// The setcc instructions ran AFTER the ALU op and read its flags
	// (setb/sete/sets do not write flags; the stores are plain movs).
	return v, fb&0x100 != 0, fb&0x10000 != 0, fb&0x1 != 0, false
}

// reference computes the expected result and flags in Go.
func reference(op string, a, b uint32) (res uint32, zf, sf, cf bool) {
	switch op {
	case "add":
		r64 := uint64(a) + uint64(b)
		res = uint32(r64)
		cf = r64 > 0xFFFFFFFF
	case "sub":
		res = a - b
		cf = a < b
	case "and":
		res = a & b
	case "or":
		res = a | b
	case "xor":
		res = a ^ b
	}
	zf = res == 0
	sf = res&0x80000000 != 0
	return
}

func TestALUAgainstReference(t *testing.T) {
	ops := []string{"add", "sub", "and", "or", "xor"}
	cases := [][2]uint32{
		{0, 0}, {1, 1}, {0xFFFFFFFF, 1}, {0x80000000, 0x80000000},
		{0x7FFFFFFF, 1}, {123456, 654321}, {0xFFFF0000, 0x0000FFFF},
	}
	for _, op := range ops {
		for _, c := range cases {
			got, zf, sf, cf, _ := runALU(t, op, c[0], c[1])
			want, wzf, wsf, wcf := reference(op, c[0], c[1])
			if got != want {
				t.Errorf("%s(%#x,%#x) = %#x, want %#x", op, c[0], c[1], got, want)
			}
			if zf != wzf || sf != wsf {
				t.Errorf("%s(%#x,%#x): ZF=%v SF=%v, want %v %v", op, c[0], c[1], zf, sf, wzf, wsf)
			}
			if (op == "add" || op == "sub") && cf != wcf {
				t.Errorf("%s(%#x,%#x): CF=%v, want %v", op, c[0], c[1], cf, wcf)
			}
		}
	}
}

// Property: simulated ALU matches the Go reference on random inputs.
func TestQuickALUReference(t *testing.T) {
	ops := []string{"add", "sub", "and", "or", "xor"}
	fn := func(a, b uint32, opSel uint8) bool {
		op := ops[int(opSel)%len(ops)]
		got, zf, sf, cf, _ := runALU(t, op, a, b)
		want, wzf, wsf, wcf := reference(op, a, b)
		if got != want || zf != wzf || sf != wsf {
			return false
		}
		if (op == "add" || op == "sub") && cf != wcf {
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestShiftSemantics pins down shift behaviour (counts masked to 31,
// SAR sign extension) against Go references.
func TestShiftSemantics(t *testing.T) {
	cases := []struct {
		op   string
		v    uint32
		cnt  uint32
		want uint32
	}{
		{"shl", 1, 4, 16},
		{"shl", 0x80000000, 1, 0},
		{"shr", 0x80000000, 31, 1},
		{"shr", 0xFF, 4, 0xF},
		{"sar", 0x80000000, 31, 0xFFFFFFFF},
		{"sar", 0xFFFFFFF0, 2, 0xFFFFFFFC},
		{"sar", 0x40, 3, 8},
		{"shl", 7, 32, 7}, // count masked to 0: unchanged
		{"shr", 7, 33, 3}, // count masked to 1
	}
	for _, c := range cases {
		src := fmt.Sprintf(`
f:
	movl	$%d, %%eax
	%sl	$%d, %%eax
	ret
`, int32(c.v), c.op, int32(c.cnt))
		cp, im := testEnv(t, src)
		entry, _ := im.FuncEntry("f")
		got, err := cp.Call(entry)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got != c.want {
			t.Errorf("%s %#x by %d = %#x, want %#x", c.op, c.v, c.cnt, got, c.want)
		}
	}
}

// TestMulDivSemantics checks the widening multiply and divide pairs.
func TestMulDivSemantics(t *testing.T) {
	src := `
f:
	movl	$0x10000, %eax
	movl	$0x10000, %ecx
	mull	%ecx              # edx:eax = 2^32
	movl	%edx, %eax        # high word
	ret
`
	c, im := testEnv(t, src)
	entry, _ := im.FuncEntry("f")
	v, err := c.Call(entry)
	if err != nil || v != 1 {
		t.Errorf("mul high = %d, %v", v, err)
	}

	src2 := `
g:
	movl	$1, %edx
	movl	$4, %eax          # edx:eax = 2^32 + 4
	movl	$2, %ecx
	divl	%ecx              # q = 2^31 + 2, r = 0
	ret
`
	c2, im2 := testEnv(t, src2)
	e2, _ := im2.FuncEntry("g")
	v2, err := c2.Call(e2)
	if err != nil || v2 != 0x80000002 {
		t.Errorf("div quotient = %#x, %v", v2, err)
	}
}

// TestSubWordMulDiv checks the 8- and 16-bit imul, mul and div forms
// against x86: each works on AL/AX (and DX) only, leaves the upper bits of
// EAX and EDX alone, and flags or faults at its own width.
func TestSubWordMulDiv(t *testing.T) {
	cases := []struct {
		name          string
		eax, ebx, edx uint32
		inst          string
		wantEAX       uint32
		wantEDX       uint32
		wantCF        bool // CF and OF alike
		wantFault     bool // FaultDivide
	}{
		{"imulw overflow", 0x7fff, 2, 0, "imulw %ebx, %eax", 0xfffe, 0, true, false},
		{"imulw negative fits", 0x1234fffe, 3, 0, "imulw %ebx, %eax", 0x1234fffa, 0, false, false},
		{"imulw min times -1", 0x8000, 0xffff, 0, "imulw %ebx, %eax", 0x8000, 0, true, false},
		{"mulb", 0x12340010, 0x10, 0x5678, "mulb %ebx", 0x12340100, 0x5678, true, false},
		{"mulb fits", 0x12340010, 0x0f, 0x5678, "mulb %ebx", 0x123400f0, 0x5678, false, false},
		{"mulw", 0xaaaa8000, 4, 0xbbbb1111, "mulw %ebx", 0xaaaa0000, 0xbbbb0002, true, false},
		{"mulw fits", 0xaaaa0100, 0x10, 0xbbbb1111, "mulw %ebx", 0xaaaa1000, 0xbbbb0000, false, false},
		{"divb", 0x12340107, 0x10, 0x5678, "divb %ebx", 0x12340710, 0x5678, false, false},
		{"divw", 0x88880005, 0x10, 0x99990001, "divw %ebx", 0x88881000, 0x99990005, false, false},
		{"divb overflow", 0x1000, 0x10, 0, "divb %ebx", 0, 0, false, true},
		{"divw overflow", 0x0000, 0x10, 0x10, "divw %ebx", 0, 0, false, true},
		{"divb by zero", 0x10, 0x100, 0, "divb %ebx", 0, 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, im := testEnv(t, fmt.Sprintf(`
f:
	movl	$%d, %%eax
	movl	$%d, %%ebx
	movl	$%d, %%edx
	%s
	ret
`, int32(tc.eax), int32(tc.ebx), int32(tc.edx), tc.inst))
			entry, _ := im.FuncEntry("f")
			_, err := c.Call(entry)
			if tc.wantFault {
				if !IsFault(err, FaultDivide) {
					t.Fatalf("err = %v, want a divide fault", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Regs[isa.EAX] != tc.wantEAX || c.Regs[isa.EDX] != tc.wantEDX {
				t.Errorf("eax=%#x edx=%#x, want %#x %#x", c.Regs[isa.EAX], c.Regs[isa.EDX], tc.wantEAX, tc.wantEDX)
			}
			if c.CF != tc.wantCF || c.OF != tc.wantCF {
				t.Errorf("CF=%v OF=%v, want both %v", c.CF, c.OF, tc.wantCF)
			}
		})
	}
}

// TestFlagHelpers checks the flag helpers step and the forms share
// against x86's flag definitions stated arithmetically, at every operand
// size: CF is unsigned overflow (or the last bit shifted out), OF is
// signed overflow, ZF and SF come from the truncated result.
func TestFlagHelpers(t *testing.T) {
	type flags struct {
		res            uint32
		zf, sf, cf, of bool
	}
	for _, size := range []uint32{1, 2, 4} {
		bits := size * 8
		mask := uint32(1<<bits - 1)
		smax := int64(1)<<(bits-1) - 1
		sx := func(v uint32) int64 { return int64(signExtend(v, size)) }
		want := func(res uint32, cf bool, signed int64) flags {
			res &= mask
			return flags{res, res == 0, sx(res) < 0, cf, signed > smax || signed < -smax-1}
		}
		vals := []uint32{0, 1, uint32(smax), uint32(smax) + 1, mask, 0x5a5a5a5a & mask}
		for _, d := range vals {
			for _, s := range vals {
				for carry := uint32(0); carry < 2; carry++ {
					c := &CPU{}
					got := func(res uint32) flags { return flags{res, c.ZF, c.SF, c.CF, c.OF} }
					u := int64(d) + int64(s) + int64(carry)
					if g, w := got(c.addFlags(d, s, carry, size)), want(uint32(u), u > int64(mask), sx(d)+sx(s)+int64(carry)); g != w {
						t.Errorf("add%d %#x+%#x+%d: %+v, want %+v", bits, d, s, carry, g, w)
					}
					u = int64(d) - int64(s) - int64(carry)
					if g, w := got(c.subFlags(d, s, carry, size)), want(uint32(u), u < 0, sx(d)-sx(s)-int64(carry)); g != w {
						t.Errorf("sub%d %#x-%#x-%d: %+v, want %+v", bits, d, s, carry, g, w)
					}
				}
				c := &CPU{CF: true, OF: true}
				if g, w := (flags{c.logicFlags(d^s, size), c.ZF, c.SF, c.CF, c.OF}), want(d^s, false, 0); g != w {
					t.Errorf("xor%d %#x^%#x: %+v, want %+v", bits, d, s, g, w)
				}
			}
			for _, cf := range []bool{false, true} {
				c := &CPU{CF: cf}
				if g, w := (flags{c.incFlags(d, size), c.ZF, c.SF, c.CF, c.OF}), want(d+1, cf, sx(d)+1); g != w {
					t.Errorf("inc%d %#x: %+v, want %+v", bits, d, g, w)
				}
				if g, w := (flags{c.decFlags(d, size), c.ZF, c.SF, c.CF, c.OF}), want(d-1, cf, sx(d)-1); g != w {
					t.Errorf("dec%d %#x: %+v, want %+v", bits, d, g, w)
				}
			}
			for cnt := uint32(1); cnt < 32; cnt++ {
				c := &CPU{OF: true}
				lastOut := cnt <= bits && d>>(bits-cnt)&1 != 0
				if g, w := (flags{c.shlFlags(d, cnt, size), c.ZF, c.SF, c.CF, c.OF}), want(d<<cnt, lastOut, 0); g != w {
					t.Errorf("shl%d %#x by %d: %+v, want %+v", bits, d, cnt, g, w)
				}
				if g, w := (flags{c.shrFlags(d, cnt, size), c.ZF, c.SF, c.CF, c.OF}), want(d>>cnt, d>>(cnt-1)&1 != 0, 0); g != w {
					t.Errorf("shr%d %#x by %d: %+v, want %+v", bits, d, cnt, g, w)
				}
			}
		}
	}
}
