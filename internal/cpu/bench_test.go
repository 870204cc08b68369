package cpu_test

import (
	"testing"

	"twindrivers/internal/core"
)

// BenchmarkCPUStep measures the interpreter on the derived e1000 transmit
// path: one iteration is one GuestTransmit of a 1500-byte frame, executed
// by the hypervisor instance of the driver. It reports interpreted
// instructions per host second and per frame.
func BenchmarkCPUStep(b *testing.B) {
	m, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		b.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)
	frame := core.EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, d.NIC.MAC, 0x0800, make([]byte, 1486))
	c := m.HV.CPU
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Retired
	for i := 0; i < b.N; i++ {
		if err := tw.GuestTransmit(d, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	insts := float64(c.Retired - start)
	b.ReportMetric(insts/b.Elapsed().Seconds(), "inst/s")
	b.ReportMetric(insts/float64(b.N), "inst/op")
}
