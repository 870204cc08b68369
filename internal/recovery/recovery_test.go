package recovery

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/e1000"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mqnic"
	"twindrivers/internal/xen"
)

// TestInjectorAdapterOffsets pins the adapter equates the injectors
// mirror: if the driver's layout moves, the injectors must move with it
// or they corrupt the wrong words and stop injecting the faults they
// claim.
func TestInjectorAdapterOffsets(t *testing.T) {
	for _, decl := range []string{
		".equ\tAD_RXD, 28", ".equ\tAD_CLEAN_RX, 52",
		".equ\tRX_RING, 256", ".equ\tCOPYBREAK, 256",
	} {
		if !strings.Contains(e1000.Source, decl) {
			t.Errorf("driver source lost %q; injectors are aimed at stale offsets", decl)
		}
	}
}

func newTwin(t *testing.T, guests int, cfg core.TwinConfig) (*core.Machine, *core.Twin, *core.NICDev) {
	t.Helper()
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 200_000 // keep runaway-loop containment fast
	}
	m, tw, err := core.NewTwinMachine(1, guests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, tw, m.Devs[0]
}

// trip injects the fault and drives traffic until the twin dies.
func trip(t *testing.T, m *core.Machine, tw *core.Twin, d *core.NICDev, inj Injector) {
	t.Helper()
	if err := inj.Inject(m, tw, d); err != nil {
		t.Fatal(err)
	}
	m.HV.Switch(m.DomU)
	if inj.TriggerOnRx {
		rx := core.EthernetFrame(d.NIC.MAC, [6]byte{9, 9, 9, 9, 9, 9}, 0x0800, make([]byte, 128))
		if !d.NIC.Inject(rx) {
			t.Fatal("inject")
		}
		if err := tw.HandleIRQ(d); !errors.Is(err, core.ErrDriverDead) {
			t.Fatalf("%s: IRQ err = %v, want ErrDriverDead", inj.Name, err)
		}
	} else {
		frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, 256))
		if err := tw.GuestTransmit(d, frame); !errors.Is(err, core.ErrDriverDead) {
			t.Fatalf("%s: transmit err = %v, want ErrDriverDead", inj.Name, err)
		}
	}
	if !tw.Dead {
		t.Fatalf("%s: twin alive after fault", inj.Name)
	}
}

// TestRecoverEachFaultType: for every injector, the supervisor revives the
// twin, reports a nonzero MTTR with the right fault attribution, and
// traffic moves again.
func TestRecoverEachFaultType(t *testing.T) {
	for _, inj := range Injectors() {
		inj := inj
		t.Run(inj.Name, func(t *testing.T) {
			m, tw, d := newTwin(t, 1, core.TwinConfig{})
			var wire [][]byte
			d.NIC.OnTransmit = func(p []byte) { wire = append(wire, append([]byte(nil), p...)) }
			trip(t, m, tw, d, inj)

			s := New(m, tw, Policy{})
			ev, err := s.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if ev == nil || ev.MTTRCycles == 0 {
				t.Fatalf("event = %+v, want nonzero MTTR", ev)
			}
			if ev.Attempt != 1 || s.Recoveries() != 1 {
				t.Errorf("attempt = %d, recoveries = %d", ev.Attempt, s.Recoveries())
			}
			if ev.Cause == "" || ev.Entry == "" {
				t.Errorf("fault attribution missing: %+v", ev)
			}
			// Each injector must die the way its fault type claims —
			// the runaway loop via the watchdog budget, not a stray
			// pointer — or the per-type teardown coverage is fictional.
			if ev.Kind != inj.Kind {
				t.Errorf("fault kind = %v, want %v", ev.Kind, inj.Kind)
			}
			// Traffic resumes: transmit and receive both work.
			m.HV.Switch(m.DomU)
			frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, 300))
			if err := tw.GuestTransmit(d, frame); err != nil {
				t.Fatalf("transmit after recovery: %v", err)
			}
			if len(wire) == 0 || !bytes.Equal(wire[len(wire)-1], frame) {
				t.Fatal("recovered transmit never reached the wire")
			}
			rx := core.EthernetFrame(d.NIC.MAC, [6]byte{8, 8, 8, 8, 8, 8}, 0x0800, make([]byte, 200))
			if !d.NIC.Inject(rx) {
				t.Fatal("inject")
			}
			if err := tw.HandleIRQ(d); err != nil {
				t.Fatalf("IRQ after recovery: %v", err)
			}
			if pkts, err := tw.DeliverPending(m.DomU); err != nil || len(pkts) != 1 {
				t.Fatalf("delivery after recovery: %d pkts, %v", len(pkts), err)
			}
		})
	}
}

// TestEscalationGivesUp: K faults inside the window trip the policy; the
// twin stays dead and further Recover calls keep refusing.
func TestEscalationGivesUp(t *testing.T) {
	m, tw, d := newTwin(t, 1, core.TwinConfig{})
	d.NIC.OnTransmit = func([]byte) {}
	inj := Injectors()[0]
	// A huge window: three rapid faults always land inside it.
	s := New(m, tw, Policy{MaxFaults: 3, Window: 1 << 60})

	for i := 0; i < 2; i++ {
		trip(t, m, tw, d, inj)
		if _, err := s.Recover(); err != nil {
			t.Fatalf("recovery %d refused: %v", i+1, err)
		}
	}
	trip(t, m, tw, d, inj)
	if _, err := s.Recover(); !errors.Is(err, ErrGivenUp) {
		t.Fatalf("third fault in window: err = %v, want ErrGivenUp", err)
	}
	if !s.GivenUp || !tw.Dead {
		t.Fatal("supervisor gave up but state disagrees")
	}
	// Permanently dead: the original containment behaviour.
	if _, err := s.Recover(); !errors.Is(err, ErrGivenUp) {
		t.Fatal("Recover after give-up must keep refusing")
	}
	if err := tw.GuestTransmit(d, core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, 100))); !errors.Is(err, core.ErrDriverDead) {
		t.Fatalf("dead twin accepted work: %v", err)
	}
}

// TestEscalationWindowSlides: faults spaced wider than the window never
// accumulate to the give-up threshold.
func TestEscalationWindowSlides(t *testing.T) {
	m, tw, d := newTwin(t, 1, core.TwinConfig{})
	d.NIC.OnTransmit = func([]byte) {}
	inj := Injectors()[0]
	// A tiny window: by the time the next fault happens, the previous
	// stamp has aged out (any real traffic burns >1000 cycles).
	s := New(m, tw, Policy{MaxFaults: 2, Window: 1000})

	frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, 400))
	for i := 0; i < 4; i++ {
		trip(t, m, tw, d, inj)
		if _, err := s.Recover(); err != nil {
			t.Fatalf("recovery %d refused: %v", i+1, err)
		}
		// Healthy traffic between faults ages the window out.
		m.HV.Switch(m.DomU)
		for j := 0; j < 8; j++ {
			if err := tw.GuestTransmit(d, frame); err != nil {
				t.Fatalf("traffic after recovery %d: %v", i+1, err)
			}
		}
	}
	if s.GivenUp {
		t.Fatal("well-spaced faults tripped the escalation window")
	}
}

// TestRecoverIsNoOpWhileAlive: supervising a healthy twin costs nothing.
func TestRecoverIsNoOpWhileAlive(t *testing.T) {
	m, tw, _ := newTwin(t, 1, core.TwinConfig{})
	s := New(m, tw, Policy{})
	ev, err := s.Recover()
	if ev != nil || err != nil {
		t.Fatalf("Recover on live twin = %+v, %v", ev, err)
	}
	if s.Recoveries() != 0 {
		t.Fatal("phantom recovery recorded")
	}
}

// TestMultiGuestRecoveryKeepsAllGuests: with four guests, a fault followed
// by supervised recovery leaves every guest's ring and route working.
func TestMultiGuestRecoveryKeepsAllGuests(t *testing.T) {
	m, tw, d := newTwin(t, 4, core.TwinConfig{})
	var wire int
	d.NIC.OnTransmit = func([]byte) { wire++ }
	s := New(m, tw, Policy{})

	trip(t, m, tw, d, Injectors()[0])
	ev, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if ev.MTTRCycles == 0 {
		t.Fatal("zero MTTR")
	}
	for _, dom := range m.Guests {
		m.HV.Switch(dom)
		frames := [][]byte{core.EthernetFrame([6]byte{2, 2, 2, 2, 2, byte(dom.ID)}, d.NIC.MAC, 0x0800, make([]byte, 200))}
		if staged, err := tw.StageTransmitBatch(dom, frames); err != nil || staged != 1 {
			t.Fatalf("guest %d staging after recovery: %d, %v", dom.ID, staged, err)
		}
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sent {
		total += n
	}
	if total != len(m.Guests) || wire != len(m.Guests) {
		t.Fatalf("post-recovery fan-out moved %d staged / %d wire, want %d", total, wire, len(m.Guests))
	}
}

// TestBatchOfOneCycleIdenticalAfterRecovery: the load-bearing batching
// invariant (a batch of one charges exactly the per-packet path's cycles)
// must survive recovery — for every fault type, a revived instance keeps
// batch=1 cycle-identical to GuestTransmit.
func TestBatchOfOneCycleIdenticalAfterRecovery(t *testing.T) {
	for _, inj := range Injectors() {
		inj := inj
		t.Run(inj.Name, func(t *testing.T) {
			run := func(batched bool) (uint64, uint64) {
				m, tw, d := newTwin(t, 1, core.TwinConfig{})
				d.NIC.OnTransmit = func([]byte) {}
				trip(t, m, tw, d, inj)
				if _, err := New(m, tw, Policy{}).Recover(); err != nil {
					t.Fatal(err)
				}
				m.HV.Switch(m.DomU)
				m.HV.Meter.Reset()
				m.HV.ResetStats()
				for i := 0; i < 50; i++ {
					frame := core.EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, d.NIC.MAC, 0x0800, make([]byte, 1200))
					if batched {
						if _, err := tw.GuestTransmitBatch(d, [][]byte{frame}); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := tw.GuestTransmit(d, frame); err != nil {
							t.Fatal(err)
						}
					}
				}
				return m.HV.Meter.Total(), m.HV.Hypercalls
			}
			pTotal, pHC := run(false)
			bTotal, bHC := run(true)
			if pTotal != bTotal || pHC != bHC {
				t.Errorf("post-recovery batch-of-1 diverged: per-packet %d cyc / %d hc, batched %d cyc / %d hc",
					pTotal, pHC, bTotal, bHC)
			}
		})
	}
}

// TestLifetimeRecoveryBudget: even faults spaced too far apart for the
// escalation window to catch have a finite lifetime allowance — every
// rebuild consumes hypervisor reload arenas that are never reclaimed.
func TestLifetimeRecoveryBudget(t *testing.T) {
	m, tw, d := newTwin(t, 1, core.TwinConfig{})
	d.NIC.OnTransmit = func([]byte) {}
	inj := Injectors()[0]
	// Tiny window (sliding never trips), tiny lifetime budget.
	s := New(m, tw, Policy{MaxFaults: 2, Window: 1, MaxRecoveries: 3})

	frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, 400))
	for i := 0; i < 3; i++ {
		trip(t, m, tw, d, inj)
		if _, err := s.Recover(); err != nil {
			t.Fatalf("recovery %d refused: %v", i+1, err)
		}
		m.HV.Switch(m.DomU)
		if err := tw.GuestTransmit(d, frame); err != nil {
			t.Fatalf("traffic after recovery %d: %v", i+1, err)
		}
	}
	trip(t, m, tw, d, inj)
	if _, err := s.Recover(); !errors.Is(err, ErrGivenUp) {
		t.Fatalf("recovery beyond the lifetime budget: %v, want ErrGivenUp", err)
	}
	if !s.GivenUp || s.Recoveries() != 3 {
		t.Fatalf("GivenUp=%v recoveries=%d", s.GivenUp, s.Recoveries())
	}
}

// TestFaultStampOnMachineClockUnderQueueService: a fault tripped while a
// multi-queue twin services queue >= 1 runs with that queue's meter
// swapped in, but its FaultRecord must still be stamped on the machine
// clock the supervisor's escalation window reads: no earlier than the
// machine lifetime before the service call, no later than at Recover.
func TestFaultStampOnMachineClockUnderQueueService(t *testing.T) {
	m, tw, err := core.NewTwinMachineModel(1, 4, mqnic.DriverModel(), core.TwinConfig{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	var dom *xen.Domain
	for _, g := range m.Guests {
		if tw.QueueOf(g.ID) >= 1 {
			dom = g
			break
		}
	}
	if dom == nil {
		t.Fatal("no guest sharded onto queue >= 1")
	}
	// Only this guest stages, so the first driver invocation runs under
	// its queue's meter.
	m.HV.Switch(dom)
	frame := core.EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, [6]byte{0x02, 0x60, 0, 0, 0, 1}, 0x0800, make([]byte, 200))
	if n, err := tw.StageTransmitBatch(dom, [][]byte{frame}); err != nil || n != 1 {
		t.Fatalf("stage: %d, %v", n, err)
	}
	// Point the adapter at the hypervisor's code: the invocation faults.
	if err := m.Dom0.AS.Store(d.Netdev+kernel.NdPriv, 4, 0xF1000040); err != nil {
		t.Fatal(err)
	}
	before := m.CPU.Meter.Lifetime()
	if _, err := tw.ServiceRings(d, 0); !errors.Is(err, core.ErrDriverDead) {
		t.Fatalf("ServiceRings err = %v, want ErrDriverDead", err)
	}
	log := tw.FaultLog()
	if len(log) != 1 {
		t.Fatalf("fault log has %d records, want 1", len(log))
	}
	atRecover := m.CPU.Meter.Lifetime()
	s := New(m, tw, Policy{})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := log[0].Cycle; st < before || st > atRecover {
		t.Errorf("fault stamped at %d, want within the machine clock's [%d, %d]", st, before, atRecover)
	}
	if len(s.stamps) != 1 || s.stamps[0] != log[0].Cycle {
		t.Errorf("escalation window holds %v, want the fault's stamp %d", s.stamps, log[0].Cycle)
	}
}
