package asm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"twindrivers/internal/isa"
)

const sampleDriver = `
	.equ	RING_SIZE, 256

	.text
	.globl	xmit
xmit:
	pushl	%ebp
	movl	%esp, %ebp
	movl	8(%ebp), %esi          # skb
	movl	12(%ebp), %edi         # dev
	movl	(%esi), %eax
	addl	$4, %eax
	cmpl	$RING_SIZE, %eax
	jne	.Lok
	xorl	%eax, %eax
.Lok:
	movl	%eax, stats+4
	call	helper
	leal	-8(%ebp), %ecx
	movl	counter(,%ebx,4), %edx
	rep; movsl
	popl	%ebp
	ret

helper:
	movl	$stats, %eax
	call	*%eax
	jmp	.Ldone
.Ldone:
	ret

	.data
	.globl	stats
stats:
	.long	1
	.long	2
	.align	8
counter:
	.long	-1
	.byte	7

	.bss
scratch:
	.space	64
`

func TestAssembleSample(t *testing.T) {
	u, err := Assemble(sampleDriver)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(u.Funcs) != 2 {
		t.Fatalf("got %d funcs, want 2", len(u.Funcs))
	}
	xmit := u.Func("xmit")
	if xmit == nil {
		t.Fatal("missing func xmit")
	}
	if got := len(xmit.Insts); got != 16 {
		t.Errorf("xmit has %d instructions, want 16", got)
	}
	if idx, ok := xmit.Labels[".Lok"]; !ok || xmit.Insts[idx].Label != ".Lok" {
		t.Errorf("label .Lok not resolved: idx=%d ok=%v", idx, ok)
	}
	// Equate folded into the cmp immediate.
	var cmp *isa.Inst
	for i := range xmit.Insts {
		if xmit.Insts[i].Op == isa.CMP {
			cmp = &xmit.Insts[i]
		}
	}
	if cmp == nil || cmp.Src.Imm != 256 {
		t.Errorf("equate not folded into cmp: %+v", cmp)
	}
	// rep prefix captured.
	foundRep := false
	for _, in := range xmit.Insts {
		if in.Op == isa.MOVS && in.Rep == isa.RepPlain && in.Size == 4 {
			foundRep = true
		}
	}
	if !foundRep {
		t.Error("rep movsl not parsed")
	}
	// Data symbols.
	if d := u.Data("stats"); d == nil || len(d.Bytes) != 8 {
		t.Errorf("stats data wrong: %+v", d)
	}
	if d := u.Data("counter"); d == nil || len(d.Bytes) != 5 || d.Align != 8 {
		t.Errorf("counter data wrong: %+v", d)
	}
	if d := u.Data("scratch"); d == nil || d.Section != "bss" || len(d.Bytes) != 64 {
		t.Errorf("scratch bss wrong: %+v", d)
	}
	// Undefined symbols: none (helper, stats, counter all defined).
	if und := u.UndefinedSymbols(); len(und) != 0 {
		t.Errorf("unexpected undefined symbols: %v", und)
	}
}

func TestAssembleImports(t *testing.T) {
	src := `
	.text
f:
	call	netif_rx
	movl	jiffies, %eax
	movl	$irq_table, %ebx
	ret
`
	u, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	got := u.UndefinedSymbols()
	want := []string{"irq_table", "jiffies", "netif_rx"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UndefinedSymbols = %v, want %v", got, want)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"inst before func", "\t.text\n\tmovl %eax, %ebx\n", "before any function"},
		{"unknown mnemonic", "f:\n\tfrobl %eax, %ebx\n", "unknown mnemonic"},
		{"two mem operands", "f:\n\tmovl (%eax), (%ebx)\n", "two memory operands"},
		{"bad register", "f:\n\tmovl %rax, %ebx\n", "unknown register"},
		{"dup label", "f:\n\tnop\n.L1:\n\tnop\n.L1:\n\tnop\n", "duplicate label"},
		{"dup func", "f:\n\tret\nf:\n\tret\n", "duplicate function"},
		{"empty func", "f:\ng:\n\tret\n", "no instructions"},
		{"rep non-string", "f:\n\trep; movl %eax, %ebx\n", "rep prefix on non-string"},
		{"bad scale", "f:\n\tmovl (%eax,%ebx,3), %ecx\n", "bad scale"},
		{"esp index", "f:\n\tmovl (%eax,%esp,4), %ecx\n", "index"},
		{"bss init", "\t.bss\nx:\n\t.long 4\n", "initialised data in .bss"},
		{"wrong operand count", "f:\n\taddl %eax\n", "wants 2 operand"},
		{"imulb", "f:\n\timulb %ebx, %eax\n", "no two-operand 8-bit imul"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestPrintRoundTrip(t *testing.T) {
	u, err := Assemble(sampleDriver)
	if err != nil {
		t.Fatal(err)
	}
	text := u.Print()
	u2, err := Assemble(text)
	if err != nil {
		t.Fatalf("re-assemble printed text: %v\n%s", err, text)
	}
	if !unitsEqual(u, u2) {
		t.Errorf("round trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text, u2.Print())
	}
}

func TestLayoutAndResolve(t *testing.T) {
	u, err := Assemble(sampleDriver)
	if err != nil {
		t.Fatal(err)
	}
	im, err := Layout("drv", u, 0x100000, 0x200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := im.FuncEntry("xmit")
	if !ok || entry != 0x100000 {
		t.Fatalf("xmit entry = %#x, %v", entry, ok)
	}
	if !im.IsFuncEntry(entry) {
		t.Error("IsFuncEntry(xmit) = false")
	}
	helper, _ := im.FuncEntry("helper")
	if helper != 0x100000+16*InstSlot {
		t.Errorf("helper entry = %#x", helper)
	}
	// Branch target of jne resolves to the .Lok instruction address.
	in, ok := im.At(entry + 7*InstSlot) // the jne
	if !ok || in.Op != isa.JCC {
		t.Fatalf("inst at slot 6: %v (op %v)", ok, in.Op)
	}
	if in.Target != entry+9*InstSlot { // .Lok labels the stats+4 store
		t.Errorf("jne target = %#x, want %#x", in.Target, entry+9*InstSlot)
	}
	// Data layout with alignment.
	stats, _ := im.DataSymbol("stats")
	counter, _ := im.DataSymbol("counter")
	if stats != 0x200000 {
		t.Errorf("stats at %#x", stats)
	}
	if counter != 0x200008 { // aligned to 8
		t.Errorf("counter at %#x, want 0x200008", counter)
	}
	// Initial data content.
	init := im.DataInit()
	if init[0] != 1 || init[4] != 2 {
		t.Errorf("stats init wrong: % x", init[:8])
	}
	if init[counter-0x200000] != 0xFF {
		t.Errorf("counter init wrong: % x", init[8:13])
	}
	// movl stats+4 folded: find the store instruction.
	in2, _ := im.At(entry + 9*InstSlot)
	if in2.Op != isa.MOV || in2.Dst.Kind != isa.KindMem || in2.Dst.Disp != int32(stats+4) {
		t.Errorf("stats+4 fold wrong: %+v", in2)
	}
	// $stats immediate in helper.
	in3, _ := im.At(helper)
	if in3.Src.Kind != isa.KindImm || uint32(in3.Src.Imm) != stats {
		t.Errorf("$stats fold wrong: %+v", in3)
	}
}

func TestLayoutUndefined(t *testing.T) {
	u, err := Assemble("f:\n\tcall missing_routine\n\tret\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Layout("x", u, 0x1000, 0x2000, nil); err == nil {
		t.Fatal("expected layout error for undefined symbol")
	}
	im, err := Layout("x", u, 0x1000, 0x2000, func(sym string) (uint32, bool) {
		if sym == "missing_routine" {
			return 0xdead0000, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := im.At(0x1000)
	if in.Target != 0xdead0000 {
		t.Errorf("resolver target = %#x", in.Target)
	}
}

func TestLayoutTwiceConstantDelta(t *testing.T) {
	// The same unit laid out at two bases gives a constant code delta for
	// every function — the property TwinDrivers' indirect-call translation
	// relies on (§5.1.2).
	u, err := Assemble(sampleDriver)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Layout("vm", u, 0x100000, 0x200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Layout("hv", u, 0x700000, 0x200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"xmit", "helper"} {
		av, _ := a.FuncEntry(fn)
		bv, _ := b.FuncEntry(fn)
		if bv-av != 0x600000 {
			t.Errorf("delta for %s = %#x", fn, bv-av)
		}
	}
}

// unitsEqual compares units structurally, ignoring Line fields.
func unitsEqual(a, b *Unit) bool {
	if len(a.Funcs) != len(b.Funcs) || len(a.Datas) != len(b.Datas) {
		return false
	}
	for i := range a.Funcs {
		fa, fb := a.Funcs[i], b.Funcs[i]
		if fa.Name != fb.Name || len(fa.Insts) != len(fb.Insts) {
			return false
		}
		if !reflect.DeepEqual(fa.Labels, fb.Labels) {
			return false
		}
		for j := range fa.Insts {
			x, y := fa.Insts[j], fb.Insts[j]
			x.Line, y.Line = 0, 0
			// Inst.Label is an arbitrary representative when several labels
			// share an index; the Labels map (compared above) is canonical.
			x.Label, y.Label = "", ""
			if !reflect.DeepEqual(x, y) {
				return false
			}
		}
	}
	for i := range a.Datas {
		da, db := a.Datas[i], b.Datas[i]
		if da.Name != db.Name || da.Section != db.Section || !reflect.DeepEqual(da.Bytes, db.Bytes) {
			return false
		}
	}
	return true
}

// randInst generates a random (valid) instruction for the round-trip
// property test.
func randInst(r *rand.Rand, localLabels []string) isa.Inst {
	regs := []isa.Reg{isa.EAX, isa.ECX, isa.EDX, isa.EBX, isa.ESP, isa.EBP, isa.ESI, isa.EDI}
	randReg := func() isa.Reg { return regs[r.Intn(len(regs))] }
	randOperand := func(allowImm bool) isa.Operand {
		switch n := r.Intn(3); {
		case n == 0 && allowImm:
			return isa.ImmOp(int32(r.Int31()) - 1<<30)
		case n <= 1:
			return isa.RegOp(randReg())
		default:
			o := isa.Operand{Kind: isa.KindMem, Base: isa.RegNone, Index: isa.RegNone, Scale: 1, Disp: int32(r.Intn(4096)) - 2048}
			if r.Intn(2) == 0 {
				o.Base = randReg()
			}
			if r.Intn(3) == 0 {
				idx := randReg()
				if idx != isa.ESP {
					o.Index = idx
					o.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
				}
			}
			if o.Base == isa.RegNone && o.Index == isa.RegNone && o.Disp < 0 {
				o.Disp = -o.Disp // absolute address must be non-negative-ish
			}
			return o
		}
	}
	binOps := []isa.Op{isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST, isa.ADC, isa.SBB, isa.IMUL, isa.LEA, isa.XCHG}
	sizes := []uint8{1, 2, 4}
	switch r.Intn(8) {
	case 0, 1, 2, 3:
		op := binOps[r.Intn(len(binOps))]
		src, dst := randOperand(op != isa.LEA && op != isa.XCHG), randOperand(false)
		if op == isa.LEA {
			src = randOperand(false)
			for src.Kind != isa.KindMem {
				src = randOperand(false)
			}
			dst = isa.RegOp(randReg())
		}
		if src.Kind == isa.KindMem && dst.Kind == isa.KindMem {
			dst = isa.RegOp(randReg())
		}
		size := sizes[r.Intn(len(sizes))]
		if op == isa.LEA || op == isa.XCHG || op == isa.IMUL {
			size = 4
		}
		return isa.Inst{Op: op, Size: size, Src: src, Dst: dst}
	case 4:
		op := []isa.Op{isa.INC, isa.DEC, isa.NEG, isa.NOT}[r.Intn(4)]
		return isa.Inst{Op: op, Size: 4, Dst: randOperand(false)}
	case 5:
		if r.Intn(2) == 0 {
			return isa.Inst{Op: isa.PUSH, Size: 4, Src: randOperand(true)}
		}
		d := randOperand(false)
		return isa.Inst{Op: isa.POP, Size: 4, Dst: d}
	case 6:
		ops := []isa.Op{isa.MOVS, isa.STOS, isa.LODS}
		reps := []isa.Rep{isa.RepNone, isa.RepPlain}
		return isa.Inst{Op: ops[r.Intn(len(ops))], Size: sizes[r.Intn(3)], Rep: reps[r.Intn(2)]}
	default:
		if len(localLabels) > 0 && r.Intn(2) == 0 {
			conds := []isa.Cond{isa.E, isa.NE, isa.B, isa.AE, isa.L, isa.G, isa.S}
			return isa.Inst{Op: isa.JCC, Cond: conds[r.Intn(len(conds))], Target: localLabels[r.Intn(len(localLabels))]}
		}
		return isa.Inst{Op: isa.NOP}
	}
}

// TestQuickPrintParseRoundTrip builds random units, prints them, re-parses
// and compares.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := NewUnit()
		nf := 1 + r.Intn(3)
		for fi := 0; fi < nf; fi++ {
			name := "fn" + string(rune('a'+fi))
			n := 3 + r.Intn(12)
			labels := []string{}
			fun := &Func{Name: name, Labels: map[string]int{name: 0}}
			// Pre-place some labels.
			for i := 0; i < n; i++ {
				if r.Intn(4) == 0 {
					l := fmt.Sprintf(".L%c%d", 'a'+fi, i)
					labels = append(labels, l)
				}
			}
			li := 0
			for i := 0; i < n; i++ {
				in := randInst(r, labels)
				if li < len(labels) && r.Intn(3) == 0 {
					in.Label = labels[li]
					fun.Labels[labels[li]] = i
					li++
				}
				fun.Insts = append(fun.Insts, in)
			}
			// Any unplaced labels attach to a final nop.
			last := isa.Inst{Op: isa.RET}
			if li < len(labels) {
				last.Label = labels[li]
				for ; li < len(labels); li++ {
					fun.Labels[labels[li]] = n
				}
			}
			fun.Insts = append(fun.Insts, last)
			u.Funcs = append(u.Funcs, fun)
			u.Globals[name] = true
		}
		text := u.Print()
		u2, err := Assemble(text)
		if err != nil {
			t.Logf("re-parse failed: %v\n%s", err, text)
			return false
		}
		if !unitsEqual(u, u2) {
			t.Logf("mismatch:\n%s\n----\n%s", text, u2.Print())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSlotIsCompact pins the decoded instruction form: at most 44 bytes
// and free of pointers, so an image's code is one flat slice the garbage
// collector never scans.
func TestSlotIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Slot{}); n > 44 {
		t.Errorf("Slot is %d bytes, want <= 44", n)
	}
	var hasPtr func(reflect.Type) bool
	hasPtr = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPtr(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPtr(ty.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return false
		}
		return true
	}
	if hasPtr(reflect.TypeOf(Slot{})) {
		t.Error("Slot holds a pointer, string, slice or map")
	}
}
