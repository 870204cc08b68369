package cpu_test

import (
	"testing"

	"twindrivers/internal/asm"
	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/isa"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/svm"

	_ "twindrivers/internal/mqnic"
	_ "twindrivers/internal/rtl8139"
)

// formShapes lists, independently of the decoder, the operand shape of
// every form: op, then source and destination operand kinds. Only size-4
// slots with no REP prefix and no indirect target take a form.
var formShapes = map[asm.Form][3]uint8{
	asm.FormMovRR:  {uint8(isa.MOV), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormMovRI:  {uint8(isa.MOV), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormMovRM:  {uint8(isa.MOV), uint8(isa.KindMem), uint8(isa.KindReg)},
	asm.FormMovMR:  {uint8(isa.MOV), uint8(isa.KindReg), uint8(isa.KindMem)},
	asm.FormLea:    {uint8(isa.LEA), uint8(isa.KindMem), uint8(isa.KindReg)},
	asm.FormAddRR:  {uint8(isa.ADD), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormAddRI:  {uint8(isa.ADD), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormAddRM:  {uint8(isa.ADD), uint8(isa.KindMem), uint8(isa.KindReg)},
	asm.FormSubRR:  {uint8(isa.SUB), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormSubRI:  {uint8(isa.SUB), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormCmpRR:  {uint8(isa.CMP), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormCmpRI:  {uint8(isa.CMP), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormCmpRM:  {uint8(isa.CMP), uint8(isa.KindMem), uint8(isa.KindReg)},
	asm.FormAndRI:  {uint8(isa.AND), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormOrRR:   {uint8(isa.OR), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormXorRR:  {uint8(isa.XOR), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormXorRM:  {uint8(isa.XOR), uint8(isa.KindMem), uint8(isa.KindReg)},
	asm.FormTestRR: {uint8(isa.TEST), uint8(isa.KindReg), uint8(isa.KindReg)},
	asm.FormTestRI: {uint8(isa.TEST), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormShlRI:  {uint8(isa.SHL), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormShrRI:  {uint8(isa.SHR), uint8(isa.KindImm), uint8(isa.KindReg)},
	asm.FormInc:    {uint8(isa.INC), uint8(isa.KindNone), uint8(isa.KindReg)},
	asm.FormDec:    {uint8(isa.DEC), uint8(isa.KindNone), uint8(isa.KindReg)},
	asm.FormJcc:    {uint8(isa.JCC), uint8(isa.KindNone), uint8(isa.KindNone)},
	asm.FormJmp:    {uint8(isa.JMP), uint8(isa.KindNone), uint8(isa.KindNone)},
	asm.FormPush:   {uint8(isa.PUSH), uint8(isa.KindReg), uint8(isa.KindNone)},
	asm.FormPop:    {uint8(isa.POP), uint8(isa.KindNone), uint8(isa.KindReg)},
}

// wantForm is the form formShapes assigns to an instruction.
func wantForm(in *isa.Inst) asm.Form {
	if in.EffSize() != 4 || in.Rep != isa.RepNone || in.Indirect {
		return asm.FormGeneric
	}
	for f, sh := range formShapes {
		if sh == [3]uint8{uint8(in.Op), uint8(in.Src.Kind), uint8(in.Dst.Kind)} {
			return f
		}
	}
	return asm.FormGeneric
}

// TestSlotsMatchFoldedInsts checks the decoded slots the interpreter runs
// against the source instructions, for every backend's driver as the
// dom0 kernel loads it and for both instances of its derived twin: each
// slot must hold exactly the fields of its isa.Inst that execution reads,
// with symbols folded to the addresses the image bound them to, and the
// form formShapes gives its shape. Every form must occur in some image,
// so none is dead code.
func TestSlotsMatchFoldedInsts(t *testing.T) {
	if len(formShapes) != int(asm.NumForms)-1 {
		t.Fatalf("formShapes has %d forms, want %d", len(formShapes), asm.NumForms-1)
	}
	seen := make(map[asm.Form]int)
	for _, model := range drivermodel.All() {
		t.Run(model.Name, func(t *testing.T) {
			m, err := core.NewMachineModel(1, model)
			if err != nil {
				t.Fatal(err)
			}
			checkSlots(t, m.VMImage, m.Unit, seen)

			tm, tw, err := core.NewTwinMachineModel(1, 1, model, core.TwinConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ru, _, err := rewrite.Rewrite(tm.Unit, rewrite.Options{RejectPrivileged: true, STLBEntries: svm.NumEntries})
			if err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tm.VMImage, ru, seen)
			checkSlots(t, tw.HVImage, ru, seen)
		})
	}
	for f := asm.Form(0); f < asm.NumForms; f++ {
		if seen[f] == 0 {
			t.Errorf("form %d occurs in no backend's image", f)
		}
	}
}

func checkSlots(t *testing.T, im *asm.Image, u *asm.Unit, seen map[asm.Form]int) {
	t.Helper()
	if im.NumInsts() != u.InstCount() || len(im.Slots()) != u.InstCount() {
		t.Fatalf("%s: %d slots for %d instructions", im.Name, len(im.Slots()), u.InstCount())
	}
	for _, f := range u.Funcs {
		fbase, ok := im.FuncEntry(f.Name)
		if !ok {
			t.Fatalf("%s: no entry for %s", im.Name, f.Name)
		}
		// Symbols resolve in link order: local label, function, data,
		// then the import the loader bound.
		addr := func(sym string) uint32 {
			if idx, ok := f.Labels[sym]; ok {
				return fbase + uint32(idx)*asm.InstSlot
			}
			for _, look := range []func(string) (uint32, bool){im.FuncEntry, im.DataSymbol, im.Import} {
				if a, ok := look(sym); ok {
					return a
				}
			}
			t.Fatalf("%s: %s: unresolved symbol %q", im.Name, f.Name, sym)
			return 0
		}
		operand := func(o *isa.Operand) asm.SlotOperand {
			s := asm.SlotOperand{Kind: o.Kind, Reg: o.Reg, Base: o.Base, Index: o.Index,
				Scale: o.EffScale(), Imm: o.Imm, Disp: o.Disp}
			if o.Sym != "" && o.Kind == isa.KindImm {
				s.Imm += int32(addr(o.Sym))
			}
			if o.Sym != "" && o.Kind == isa.KindMem {
				s.Disp += int32(addr(o.Sym))
			}
			return s
		}
		for i := range f.Insts {
			in := &f.Insts[i]
			want := asm.Slot{Op: in.Op, Cond: in.Cond, Size: uint8(in.EffSize()), Rep: in.Rep,
				Indirect: in.Indirect, Form: wantForm(in), Src: operand(&in.Src), Dst: operand(&in.Dst)}
			seen[want.Form]++
			if in.Target != "" {
				want.Target = addr(in.Target)
			}
			pc := fbase + uint32(i)*asm.InstSlot
			got, ok := im.At(pc)
			if !ok || *got != want {
				t.Fatalf("%s: %s+%d (%s): slot %+v, want %+v", im.Name, f.Name, i, in, got, want)
			}
			if got != &im.Slots()[(pc-im.CodeBase)/asm.InstSlot] {
				t.Fatalf("%s: At(%#x) does not alias Slots()", im.Name, pc)
			}
		}
	}
}
