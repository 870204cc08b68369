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

// TestSlotsMatchFoldedInsts checks the decoded slots the interpreter runs
// against the source instructions, for every backend's driver as the
// dom0 kernel loads it and for both instances of its derived twin: each
// slot must hold exactly the fields of its isa.Inst that execution reads,
// with symbols folded to the addresses the image bound them to.
func TestSlotsMatchFoldedInsts(t *testing.T) {
	for _, model := range drivermodel.All() {
		t.Run(model.Name, func(t *testing.T) {
			m, err := core.NewMachineModel(1, model)
			if err != nil {
				t.Fatal(err)
			}
			checkSlots(t, m.VMImage, m.Unit)

			tm, tw, err := core.NewTwinMachineModel(1, 1, model, core.TwinConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ru, _, err := rewrite.Rewrite(tm.Unit, rewrite.Options{RejectPrivileged: true, STLBEntries: svm.NumEntries})
			if err != nil {
				t.Fatal(err)
			}
			checkSlots(t, tm.VMImage, ru)
			checkSlots(t, tw.HVImage, ru)
		})
	}
}

func checkSlots(t *testing.T, im *asm.Image, u *asm.Unit) {
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
				Indirect: in.Indirect, Src: operand(&in.Src), Dst: operand(&in.Dst)}
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
