package svm_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"twindrivers/internal/asm"
	"twindrivers/internal/cpu"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/svm"
	"twindrivers/internal/xen"
)

// env is a miniature TwinDrivers loader: it lays out a unit twice (VM
// instance in dom0, rewritten instance in the hypervisor), provisions the
// stlb, globals, stacks and the slow-path gate, and runs either instance.
type env struct {
	hv         *xen.Hypervisor
	dom0, domU *xen.Domain
	sv         *svm.SVM
	vmIm, hvIm *asm.Image
	dataBase   uint32
	dataSize   uint32
	dom0Stack  uint32
	hvStack    uint32
	hvGuardLo  uint32
	hvGuardHi  uint32
}

const dataBase = 0xC0100000

func newEnv(t testing.TB, src string, opt rewrite.Options) *env {
	t.Helper()
	hv := xen.New()
	dom0 := hv.CreateDomain(mem.OwnerDom0, "dom0")
	domU := hv.CreateDomain(1, "domU")

	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ru, _, err := rewrite.Rewrite(u, opt)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	e := &env{hv: hv, dom0: dom0, domU: domU}

	// VM instance: code and data in dom0.
	e.vmIm, err = asm.Layout("vm", u, xen.Dom0DriverCode, dataBase, nil)
	if err != nil {
		t.Fatalf("layout vm: %v", err)
	}
	e.dataBase = dataBase
	e.dataSize = e.vmIm.DataEnd - e.vmIm.DataBase
	npages := int(e.dataSize/mem.PageSize) + 2
	frames := hv.Phys.AllocFrames(dom0.ID, npages)
	dom0.AS.MapRange(dataBase, frames, npages)
	if err := dom0.AS.WriteBytes(dataBase, e.vmIm.DataInit()); err != nil {
		t.Fatal(err)
	}
	// Scribble deterministic noise over the region past the initialised
	// segment so loads see varied data in both runs.
	noise := make([]byte, npages*mem.PageSize-int(e.dataSize))
	nr := rand.New(rand.NewSource(99))
	for i := range noise {
		noise[i] = byte(nr.Intn(256))
	}
	if err := dom0.AS.WriteBytes(dataBase+e.dataSize, noise); err != nil {
		t.Fatal(err)
	}

	// dom0 stack.
	sf := hv.Phys.AllocFrames(dom0.ID, 16)
	dom0.AS.MapRange(0xC0900000, sf, 16)
	e.dom0Stack = 0xC0900000 + 16*mem.PageSize

	// Hypervisor instance: stlb, globals, stack, slow-path gate.
	tableAddr := hv.AllocHVPages(svm.TableBytes / mem.PageSize)
	sv, err := svm.New(hv, dom0, hv.HVSpace, tableAddr, false)
	if err != nil {
		t.Fatal(err)
	}
	e.sv = sv
	globals := hv.AllocHVPages(1)
	slowGate := hv.BindGate("__svm_slowpath", func(c *cpu.CPU) (uint32, error) {
		return sv.SlowPath(c.Meter, c.Arg(0))
	})
	stackViol := hv.BindGate("__svm_stack_violation", func(c *cpu.CPU) (uint32, error) {
		return 0, &cpu.Fault{Kind: cpu.FaultProtection, Msg: "stack bounds violation"}
	})
	top, lo, hi := hv.AllocStack(16)
	e.hvStack, e.hvGuardLo, e.hvGuardHi = top, lo, hi

	resolver := func(sym string) (uint32, bool) {
		switch sym {
		case rewrite.SymSTLB:
			return tableAddr, true
		case rewrite.SymSlowPath:
			return slowGate, true
		case rewrite.SymStackViolation:
			return stackViol, true
		case rewrite.SymCodeLo:
			return globals + 0, true
		case rewrite.SymCodeHi:
			return globals + 4, true
		case rewrite.SymCodeDelta:
			return globals + 8, true
		case rewrite.SymScratch:
			return globals + 12, true
		case rewrite.SymStackLo:
			return globals + 16, true
		case rewrite.SymStackHi:
			return globals + 20, true
		}
		// Data imports resolve to the dom0 addresses (saved relocation
		// info, §5.2): here, the VM image's own data symbols.
		if a, ok := e.vmIm.DataSymbol(sym); ok {
			return a, true
		}
		return 0, false
	}
	// The hypervisor instance shares the single copy of driver data in
	// dom0: its data segment is laid out at the same dom0 base, so both
	// instances' data symbols resolve to identical dom0 addresses.
	e.hvIm, err = asm.Layout("hv", ru, xen.HVDriverCode, dataBase, resolver)
	if err != nil {
		t.Fatalf("layout hv: %v", err)
	}

	// Globals: code range of the VM instance and the code delta.
	hvSp := hv.HVSpace
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(hvSp.Store(globals+0, 4, e.vmIm.CodeBase))
	check(hvSp.Store(globals+4, 4, e.vmIm.CodeEnd))
	check(hvSp.Store(globals+8, 4, xen.HVDriverCode-xen.Dom0DriverCode))
	check(hvSp.Store(globals+16, 4, lo))
	check(hvSp.Store(globals+20, 4, hi))

	hv.CPU.AddImage(e.vmIm)
	hv.CPU.AddImage(e.hvIm)
	return e
}

// seedRegs installs deterministic register values.
func (e *env) seedRegs(c *cpu.CPU, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := range c.Regs {
		c.Regs[i] = uint32(r.Int31n(1 << 16))
	}
	c.Regs[isa.ESI] = e.dataBase
	c.Regs[isa.EDI] = e.dataBase + 2048
	c.Regs[isa.EBP] = 0
}

type runResult struct {
	ret  uint32
	regs [5]uint32 // eax, ebx, esi, edi, ebp
	data []byte
	err  error
}

// runVM executes the original instance in dom0 context.
func (e *env) runVM(t testing.TB, entry string, seed int64) runResult {
	t.Helper()
	c := e.hv.CPU
	c.AS = e.dom0.AS
	e.seedRegs(c, seed)
	c.Regs[isa.ESP] = e.dom0Stack
	c.GuardLow, c.GuardHigh = 0, 0
	addr, ok := e.vmIm.FuncEntry(entry)
	if !ok {
		t.Fatalf("no entry %s", entry)
	}
	ret, err := c.Call(addr)
	return e.result(t, c, ret, err)
}

// runHV executes the rewritten instance in *guest* context — the whole
// point of SVM is that no switch to dom0 is needed.
func (e *env) runHV(t testing.TB, entry string, seed int64) runResult {
	t.Helper()
	c := e.hv.CPU
	c.AS = e.domU.AS
	e.seedRegs(c, seed)
	c.Regs[isa.ESP] = e.hvStack
	c.GuardLow, c.GuardHigh = e.hvGuardLo, e.hvGuardHi
	addr, ok := e.hvIm.FuncEntry(entry)
	if !ok {
		t.Fatalf("no entry %s", entry)
	}
	ret, err := c.Call(addr)
	c.GuardLow, c.GuardHigh = 0, 0
	return e.result(t, c, ret, err)
}

func (e *env) result(t testing.TB, c *cpu.CPU, ret uint32, err error) runResult {
	res := runResult{ret: ret, err: err}
	res.regs = [5]uint32{c.Regs[isa.EAX], c.Regs[isa.EBX], c.Regs[isa.ESI], c.Regs[isa.EDI], c.Regs[isa.EBP]}
	data, derr := e.dom0.AS.ReadBytes(e.dataBase, int(e.dataSize))
	if derr != nil {
		t.Fatal(derr)
	}
	res.data = data
	return res
}

// snapshot and restore dom0 data between runs.
func (e *env) snapshot(t testing.TB) []byte {
	t.Helper()
	b, err := e.dom0.AS.ReadBytes(e.dataBase, int(e.dataSize))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (e *env) restore(t testing.TB, b []byte) {
	t.Helper()
	if err := e.dom0.AS.WriteBytes(e.dataBase, b); err != nil {
		t.Fatal(err)
	}
}

// checkEquivalent runs both instances and compares results.
func checkEquivalent(t *testing.T, src, entry string, seed int64) {
	t.Helper()
	e := newEnv(t, src, rewrite.Options{})
	init := e.snapshot(t)
	vm := e.runVM(t, entry, seed)
	if vm.err != nil {
		t.Fatalf("vm run: %v", vm.err)
	}
	e.restore(t, init)
	hvr := e.runHV(t, entry, seed)
	if hvr.err != nil {
		t.Fatalf("hv run: %v", hvr.err)
	}
	if vm.ret != hvr.ret {
		t.Errorf("return: vm=%#x hv=%#x", vm.ret, hvr.ret)
	}
	if vm.regs != hvr.regs {
		t.Errorf("regs: vm=%x hv=%x", vm.regs, hvr.regs)
	}
	if !bytes.Equal(vm.data, hvr.data) {
		for i := range vm.data {
			if vm.data[i] != hvr.data[i] {
				t.Errorf("data differs first at +%#x: vm=%#x hv=%#x", i, vm.data[i], hvr.data[i])
				break
			}
		}
	}
}

func TestSlowPathFirstTouchAndReuse(t *testing.T) {
	e := newEnv(t, "f:\n\tret\n", rewrite.Options{})
	m := e.hv.Meter
	addr := e.dataBase + 123
	tr1, err := e.sv.SlowPath(m, addr)
	if err != nil {
		t.Fatal(err)
	}
	if tr1&mem.PageMask != 123 {
		t.Errorf("offset not preserved: %#x", tr1)
	}
	if tr1 < xen.HVMapWindow {
		t.Errorf("translation %#x not in mapping window", tr1)
	}
	// The translated address reads the same bytes as the dom0 address.
	if err := e.dom0.AS.Store(addr, 4, 0xFEEDBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := e.hv.HVSpace.Load(tr1, 4)
	if err != nil || v != 0xFEEDBEEF {
		t.Errorf("through-mapping read = %#x, %v", v, err)
	}
	// stlb entry content: tag and xordiff.
	tag, xd, err := e.sv.LookupSim(addr)
	if err != nil {
		t.Fatal(err)
	}
	if tag != addr&^uint32(mem.PageMask) {
		t.Errorf("tag = %#x", tag)
	}
	if tag^xd != tr1&^uint32(mem.PageMask) {
		t.Errorf("xordiff wrong: tag^xd = %#x, hvpage = %#x", tag^xd, tr1&^uint32(mem.PageMask))
	}
	if e.sv.FirstTouches != 1 {
		t.Errorf("FirstTouches = %d", e.sv.FirstTouches)
	}
	// Translate again: warm (chain map), no new mapping.
	tr2, err := e.sv.Translate(m, addr+8)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != (tr1&^uint32(mem.PageMask))|((addr+8)&mem.PageMask) {
		t.Errorf("warm translate = %#x", tr2)
	}
	if e.sv.FirstTouches != 1 {
		t.Errorf("second touch re-mapped: %d", e.sv.FirstTouches)
	}
}

func TestSlowPathViolation(t *testing.T) {
	e := newEnv(t, "f:\n\tret\n", rewrite.Options{})
	cases := []uint32{
		xen.HypervisorBase + 0x1000, // hypervisor memory
		0x00001000,                  // unmapped low memory
		0xC0900000 - 0x100000,       // unmapped dom0 hole
	}
	for _, addr := range cases {
		if _, err := e.sv.SlowPath(e.hv.Meter, addr); !cpu.IsFault(err, cpu.FaultProtection) {
			t.Errorf("addr %#x: err = %v, want protection fault", addr, err)
		}
	}
	if e.sv.Violations != uint64(len(cases)) {
		t.Errorf("Violations = %d", e.sv.Violations)
	}
}

func TestSlowPathOtherDomainMemoryDenied(t *testing.T) {
	e := newEnv(t, "f:\n\tret\n", rewrite.Options{})
	// Map a domU-owned frame into... domU. Then forge a dom0 access: map
	// the same vaddr in dom0 pointing to a domU-owned frame (as if dom0's
	// page tables were corrupted); the owner check must still deny it.
	f := e.hv.Phys.AllocFrame(e.domU.ID)
	e.dom0.AS.Map(0xC5000000/mem.PageSize, f)
	if _, err := e.sv.SlowPath(e.hv.Meter, 0xC5000000); !cpu.IsFault(err, cpu.FaultProtection) {
		t.Errorf("foreign frame: err = %v", err)
	}
}

func TestSlowPathCollisionChain(t *testing.T) {
	e := newEnv(t, "f:\n\tret\n", rewrite.Options{})
	// Two dom0 pages whose vpns share the low 12 bits collide in the
	// table. 2^12 pages apart = 16 MB apart.
	a := uint32(dataBase)
	b := a + (1 << 24)
	f := e.hv.Phys.AllocFrames(e.dom0.ID, 2)
	e.dom0.AS.MapRange(b, f, 2)

	m := e.hv.Meter
	t1, err := e.sv.SlowPath(m, a)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.sv.SlowPath(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t2 {
		t.Fatal("collision produced identical mappings")
	}
	// b evicted a's entry; re-touching a must refill from the chain
	// (cheap) and keep the original mapping.
	before := e.sv.FirstTouches
	t1b, err := e.sv.SlowPath(m, a)
	if err != nil {
		t.Fatal(err)
	}
	if t1b != t1 {
		t.Errorf("refill changed mapping: %#x -> %#x", t1, t1b)
	}
	if e.sv.FirstTouches != before {
		t.Error("refill performed a fresh mapping")
	}
	if e.sv.ChainRefills == 0 {
		t.Error("chain refill not counted")
	}
}

func TestTwoPageMappingForStraddle(t *testing.T) {
	e := newEnv(t, "f:\n\tret\n", rewrite.Options{})
	// Touch the first data page; an unaligned dword at its end must be
	// readable through the mapping without another slow path.
	addr := e.dataBase + mem.PageSize - 2
	if err := e.dom0.AS.Store(addr, 4, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	tr, err := e.sv.SlowPath(e.hv.Meter, e.dataBase)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.hv.HVSpace.Load(tr+mem.PageSize-2, 4)
	if err != nil {
		t.Fatalf("straddling read through mapping: %v", err)
	}
	if v != 0xCAFEBABE {
		t.Errorf("straddle = %#x", v)
	}
}

func TestIdentityInstance(t *testing.T) {
	hv := xen.New()
	dom0 := hv.CreateDomain(mem.OwnerDom0, "dom0")
	// Identity table lives in dom0 memory.
	frames := hv.Phys.AllocFrames(dom0.ID, svm.TableBytes/mem.PageSize)
	dom0.AS.MapRange(0xC0600000, frames, svm.TableBytes/mem.PageSize)
	sv, err := svm.New(hv, dom0, dom0.AS, 0xC0600000, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sv.SlowPath(hv.Meter, 0xC0123456)
	if err != nil || tr != 0xC0123456 {
		t.Errorf("identity slow path = %#x, %v", tr, err)
	}
	tag, xd, _ := sv.LookupSim(0xC0123456)
	if tag != 0xC0123000 || xd != 0 {
		t.Errorf("identity entry = %#x/%#x", tag, xd)
	}
}

// --- Execution equivalence: original in dom0 vs rewritten in guest context ---

func TestEquivLoadStoreArith(t *testing.T) {
	checkEquivalent(t, `
f:
	movl	(%esi), %eax
	addl	4(%esi), %eax
	movl	%eax, 8(%esi)
	movzbl	2(%esi), %ecx
	addl	%ecx, %eax
	incl	12(%esi)
	notl	16(%esi)
	xorl	%edx, %edx
	movl	counter, %edx
	addl	$3, %edx
	movl	%edx, counter
	ret
	.data
buf:
	.space	64
counter:
	.long	100
`, "f", 42)
}

func TestEquivRMWAndFlags(t *testing.T) {
	checkEquivalent(t, `
f:
	movl	$3, %ecx
	cmpl	$5, %ecx
	movl	%ecx, (%esi)       # flags must survive this store
	jb	.Lsmall
	movl	$111, %eax
	ret
.Lsmall:
	movl	$222, %eax
	addl	%eax, 4(%esi)
	adcl	$0, 8(%esi)        # consumes CF from the add
	ret
`, "f", 7)
}

func TestEquivStringCopy(t *testing.T) {
	checkEquivalent(t, `
f:
	movl	$600, %ecx          # 2400 bytes: crosses page boundaries
	rep; movsl
	movl	$57, %eax
	ret
`, "f", 3)
}

func TestEquivStringFill(t *testing.T) {
	checkEquivalent(t, `
f:
	movl	$0xAB, %eax
	movl	$3000, %ecx
	rep; stosb
	movsb
	movsw
	movsl
	lodsl
	ret
`, "f", 9)
}

func TestEquivCmpsScasSingle(t *testing.T) {
	checkEquivalent(t, `
f:
	cmpsl
	sete	(%esi)
	scasb
	setb	1(%esi)
	ret
`, "f", 11)
}

func TestEquivPushPopMem(t *testing.T) {
	checkEquivalent(t, `
f:
	pushl	(%esi)
	pushl	4(%esi)
	popl	8(%esi)
	popl	12(%esi)
	movl	16(%esi), %eax
	ret
`, "f", 13)
}

func TestEquivIndirectCall(t *testing.T) {
	checkEquivalent(t, `
f:
	movl	$helper, %eax
	movl	%eax, fptr
	pushl	$5
	call	*fptr
	addl	$4, %esp
	movl	%eax, (%esi)
	ret

helper:
	movl	4(%esp), %eax
	imull	$9, %eax
	ret

	.data
fptr:
	.long	0
`, "f", 17)
}

func TestEquivLoopOverArray(t *testing.T) {
	checkEquivalent(t, `
sum:
	movl	$64, %ecx
	xorl	%eax, %eax
	movl	%esi, %edx
.Ltop:
	addl	(%edx), %eax
	addl	$4, %edx
	decl	%ecx
	jne	.Ltop
	movl	%eax, result
	ret
	.data
result:
	.long	0
`, "sum", 23)
}

func TestEquivForceSpill(t *testing.T) {
	// Same program, rewritten with forced spilling: results must still be
	// identical (the ablation changes cost, not semantics).
	src := `
f:
	movl	(%esi), %eax
	addl	4(%esi), %ebx
	movl	%ebx, 8(%esi)
	pushl	12(%esi)
	popl	16(%esi)
	movl	$300, %ecx
	rep; movsl
	ret
`
	e := newEnv(t, src, rewrite.Options{ForceSpill: true})
	init := e.snapshot(t)
	vm := e.runVM(t, "f", 31)
	if vm.err != nil {
		t.Fatalf("vm: %v", vm.err)
	}
	e.restore(t, init)
	hvr := e.runHV(t, "f", 31)
	if hvr.err != nil {
		t.Fatalf("hv: %v", hvr.err)
	}
	if vm.regs != hvr.regs || !bytes.Equal(vm.data, hvr.data) {
		t.Error("force-spill rewrite diverged from original")
	}
}

// --- Safety: the rewritten instance cannot escape dom0 memory ---

func TestSafetyWildWriteAborts(t *testing.T) {
	src := `
evil:
	movl	$0xF1000000, %eax   # hypervisor driver code region
	movl	$0x41414141, (%eax)
	ret
`
	e := newEnv(t, src, rewrite.Options{})
	res := e.runHV(t, "evil", 1)
	if !cpu.IsFault(res.err, cpu.FaultProtection) {
		t.Fatalf("wild write: err = %v, want protection fault", res.err)
	}
	// The VM instance in dom0 performs the same wild write and (without
	// SVM protection, running at dom0 trust) faults differently or
	// corrupts dom0 — but the hypervisor stays intact either way. Verify
	// hypervisor memory unchanged where the write aimed.
	in, ok := e.hv.CPU.Images()[1].At(0xF1000000)
	if ok && in == nil {
		t.Error("hypervisor image damaged")
	}
}

func TestSafetyGuestMemoryDenied(t *testing.T) {
	// domU-owned memory must not be accessible to the driver even though
	// the driver executes in domU's address-space context.
	src := `
evil:
	movl	$0xB0000000, %eax
	movl	(%eax), %ebx
	ret
`
	e := newEnv(t, src, rewrite.Options{})
	f := e.hv.Phys.AllocFrame(e.domU.ID)
	e.domU.AS.Map(0xB0000000/mem.PageSize, f)
	res := e.runHV(t, "evil", 1)
	if !cpu.IsFault(res.err, cpu.FaultProtection) {
		t.Fatalf("guest memory access: err = %v, want protection fault", res.err)
	}
}

func TestSafetyQuickRandomAddresses(t *testing.T) {
	e := newEnv(t, `
probe:
	movl	(%eax), %ebx
	ret
`, rewrite.Options{})
	fn := func(addr uint32) bool {
		c := e.hv.CPU
		c.AS = e.domU.AS
		c.Regs[isa.ESP] = e.hvStack
		c.Regs[isa.EAX] = addr
		entry, _ := e.hvIm.FuncEntry("probe")
		_, err := c.Call(entry)
		inDom0Data := addr >= e.dataBase && addr+4 <= e.dataBase+e.dataSize+2*mem.PageSize
		if inDom0Data {
			return err == nil
		}
		// Outside dom0's mapped data: either a protection fault (the
		// usual case) or success if it happens to hit another dom0-owned
		// mapping (the stack region).
		inDom0Stack := addr >= 0xC0900000 && addr+4 <= 0xC0900000+16*mem.PageSize
		if inDom0Stack {
			return err == nil
		}
		// Everything else must fault: protection violation from SVM, or a
		// page fault for the page-straddle hole at a region boundary.
		return err != nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- Randomized equivalence (property test over generated programs) ---

func TestQuickRandomProgramEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		e := newEnv(t, src, rewrite.Options{})
		init := e.snapshot(t)
		vm := e.runVM(t, "f", seed)
		e.restore(t, init)
		hvr := e.runHV(t, "f", seed)
		if (vm.err == nil) != (hvr.err == nil) {
			t.Logf("seed %d: err mismatch vm=%v hv=%v\n%s", seed, vm.err, hvr.err, src)
			return false
		}
		if vm.err != nil {
			return true // both faulted (e.g. generated division edge)
		}
		if vm.ret != hvr.ret || vm.regs != hvr.regs || !bytes.Equal(vm.data, hvr.data) {
			t.Logf("seed %d: divergence\nvm.regs=%x hv.regs=%x\n%s", seed, vm.regs, hvr.regs, src)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// genProgram emits a random straight-line-plus-strings function operating
// on the data region pointed to by ESI/EDI. All offsets stay within the
// region, so the only faults possible are arithmetic ones.
func genProgram(r *rand.Rand) string {
	var b bytes.Buffer
	b.WriteString("f:\n")
	regs := []string{"%eax", "%ebx", "%ecx", "%edx"}
	reg := func() string { return regs[r.Intn(len(regs))] }
	memop := func() string {
		base := []string{"%esi", "%edi"}[r.Intn(2)]
		off := r.Intn(480) * 4
		if r.Intn(3) == 0 {
			return "buf" // absolute
		}
		return itoa(off) + "(" + base + ")"
	}
	ops2 := []string{"movl", "addl", "subl", "andl", "orl", "xorl", "cmpl", "testl"}
	n := 6 + r.Intn(18)
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			op := ops2[r.Intn(len(ops2))]
			if r.Intn(2) == 0 {
				b.WriteString("\t" + op + "\t" + memop() + ", " + reg() + "\n")
			} else {
				b.WriteString("\t" + op + "\t" + reg() + ", " + memop() + "\n")
			}
		case 4:
			b.WriteString("\tmovl\t$" + itoa(r.Intn(1<<20)) + ", " + reg() + "\n")
		case 5:
			b.WriteString("\t" + []string{"incl", "decl", "notl"}[r.Intn(3)] + "\t" + memop() + "\n")
		case 6:
			b.WriteString("\tmovzbl\t" + memop() + ", " + reg() + "\n")
		case 7:
			b.WriteString("\tpushl\t" + memop() + "\n\tpopl\t" + memop() + "\n")
		case 8:
			// Bounded rep copy within the region; keep src/dst fixed
			// (esi/edi already point 2048 apart).
			b.WriteString("\tmovl\t$" + itoa(1+r.Intn(120)) + ", %ecx\n\trep; movsl\n")
			b.WriteString("\tmovl\t$" + itoa(dataBase) + ", %esi\n")
			b.WriteString("\tmovl\t$" + itoa(dataBase+2048) + ", %edi\n")
		case 9:
			b.WriteString("\tmovl\t$" + itoa(1+r.Intn(200)) + ", %ecx\n\trep; stosb\n")
			b.WriteString("\tmovl\t$" + itoa(dataBase+2048) + ", %edi\n")
		}
	}
	b.WriteString("\tret\n\t.data\nbuf:\n\t.space\t8192\n")
	return b.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	if neg {
		return "-" + string(d)
	}
	return string(d)
}
