package cpu_test

import (
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cpu"
)

// stepRig is an e1000 twin with one guest, switched into the guest and
// ready to transmit a 1500-byte frame through the derived driver.
type stepRig struct {
	tw    *core.Twin
	d     *core.NICDev
	frame []byte
	cpu   *cpu.CPU
}

func newStepRig(tb testing.TB) *stepRig {
	m, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)
	frame := core.EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, d.NIC.MAC, 0x0800, make([]byte, 1486))
	return &stepRig{tw: tw, d: d, frame: frame, cpu: m.HV.CPU}
}

func (r *stepRig) transmit(tb testing.TB) {
	if err := r.tw.GuestTransmit(r.d, r.frame); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCPUStep measures the interpreter on the derived e1000 transmit
// path: one iteration is one GuestTransmit of a 1500-byte frame, executed
// by the hypervisor instance of the driver. It reports interpreted
// instructions per host second and per frame.
func BenchmarkCPUStep(b *testing.B) {
	r := newStepRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := r.cpu.Retired
	for i := 0; i < b.N; i++ {
		r.transmit(b)
	}
	b.StopTimer()
	insts := float64(r.cpu.Retired - start)
	b.ReportMetric(insts/b.Elapsed().Seconds(), "inst/s")
	b.ReportMetric(insts/float64(b.N), "inst/op")
}

// TestGuestTransmitAllocs caps host allocations on the interpreted
// transmit path: the interpreter itself allocates nothing per
// instruction, so one GuestTransmit stays at the 7 allocations the
// twin's bookkeeping makes.
func TestGuestTransmitAllocs(t *testing.T) {
	r := newStepRig(t)
	r.transmit(t) // warm: first-touch SVM mappings and pool state
	if a := testing.AllocsPerRun(50, func() { r.transmit(t) }); a > 7 {
		t.Errorf("GuestTransmit allocs/op = %v, want <= 7", a)
	}
}
