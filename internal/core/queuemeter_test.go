// Per-queue meter accounting, driven through the multi-queue backend.
// External test package: mqnic imports core, so these tests cannot live
// inside package core itself.
package core_test

import (
	"reflect"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cycles"
	"twindrivers/internal/mem"
	"twindrivers/internal/mqnic"
)

// runShardedTraffic builds an mqnic twin at the given queue count, moves
// a fixed batch workload from every guest through ServiceRings, and
// returns the machine and twin for meter inspection.
func runShardedTraffic(t *testing.T, guests, queues int) (*core.Machine, *core.Twin) {
	t.Helper()
	m, tw, err := core.NewTwinMachineModel(1, guests, mqnic.DriverModel(), core.TwinConfig{Queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	for gi, dom := range m.Guests {
		frames := make([][]byte, 8)
		for i := range frames {
			payload := make([]byte, 400)
			for j := range payload {
				payload[j] = byte(gi + i + j)
			}
			frames[i] = core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x60, 0, 0, byte(gi), byte(i)},
				0x0800, payload)
		}
		if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
			t.Fatalf("guest %d stage: %v", gi, err)
		}
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatalf("service: %v", err)
	}
	return m, tw
}

// TestServiceRingsQueuesMatchSingleQueue pins sharded service to the
// one-queue sweep: the same staged workload serviced by ServiceRings on
// four queues must report the same per-guest sent counts and put the same
// per-guest frame sequence on the wire as on one queue, and each queue's
// meter must carry exactly its own guests' work — charged, and nothing
// charged to a queue that owns no guest.
func TestServiceRingsQueuesMatchSingleQueue(t *testing.T) {
	run := func(queues int) (map[mem.Owner]int, map[int][][]byte) {
		m, tw, err := core.NewTwinMachineModel(1, 4, mqnic.DriverModel(), core.TwinConfig{Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		d := m.Devs[0]
		byGuest := make(map[int][][]byte)
		d.Dev.SetOnTransmit(func(pkt []byte) {
			// Source MAC byte 5 tags the staging guest (set below).
			byGuest[int(pkt[11])] = append(byGuest[int(pkt[11])], append([]byte(nil), pkt...))
		})
		for gi, dom := range m.Guests {
			frames := make([][]byte, 6)
			for i := range frames {
				payload := make([]byte, 300+i)
				for j := range payload {
					payload[j] = byte(gi*31 + i + j)
				}
				frames[i] = core.EthernetFrame(
					[6]byte{2, 2, 2, 2, 2, 2},
					[6]byte{0x02, 0x61, 0, 0, byte(i), byte(gi)},
					0x0800, payload)
			}
			if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
				t.Fatalf("guest %d stage: %v", gi, err)
			}
		}
		sent, err := tw.ServiceRings(d, 0)
		if err != nil {
			t.Fatalf("service (queues=%d): %v", queues, err)
		}
		if tw.QueueCount() != queues {
			t.Fatalf("QueueCount = %d, want %d", tw.QueueCount(), queues)
		}
		owners := make(map[int]int)
		for _, dom := range m.Guests {
			owners[tw.QueueOf(dom.ID)]++
		}
		for q, qm := range tw.QueueMeters() {
			if owners[q] > 0 && qm.Total() == 0 {
				t.Errorf("queues=%d: queue %d owns %d guests but metered no cycles", queues, q, owners[q])
			}
			if owners[q] == 0 && qm.Total() != 0 {
				t.Errorf("queues=%d: queue %d owns no guests but metered %d cycles", queues, q, qm.Total())
			}
		}
		return sent, byGuest
	}
	oneSent, oneWire := run(1)
	shSent, shWire := run(4)
	if !reflect.DeepEqual(oneSent, shSent) {
		t.Fatalf("sent maps differ: one queue %v, four queues %v", oneSent, shSent)
	}
	if !reflect.DeepEqual(oneWire, shWire) {
		t.Fatal("per-guest wire sequences differ between one and four service queues")
	}
	for gi := 0; gi < 4; gi++ {
		if len(shWire[gi]) != 6 {
			t.Fatalf("guest %d put %d frames on the wire, want 6", gi, len(shWire[gi]))
		}
	}
}

// TestQueueMetersDegenerateIsGlobalMeter is the regression pin for every
// pre-multi-queue measurement: at one service queue the per-queue meter
// IS the machine meter, so merging the queue meters reproduces the
// global breakdown exactly — same buckets, same total, cycle for cycle.
// Every single-queue backend's committed bench baseline rests on this.
func TestQueueMetersDegenerateIsGlobalMeter(t *testing.T) {
	m, tw := runShardedTraffic(t, 4, 1)
	if n := tw.QueueCount(); n != 1 {
		t.Fatalf("QueueCount = %d, want 1", n)
	}
	qms := tw.QueueMeters()
	if len(qms) != 1 {
		t.Fatalf("QueueMeters has %d entries, want 1", len(qms))
	}
	if qms[0] != m.HV.Meter {
		t.Fatal("degenerate queue meter is not the machine meter")
	}
	merged := cycles.NewMeter()
	merged.Merge(qms...)
	if merged.Total() != m.HV.Meter.Total() {
		t.Fatalf("merged total %d != global meter total %d", merged.Total(), m.HV.Meter.Total())
	}
	if !reflect.DeepEqual(merged.Breakdown(), m.HV.Meter.Breakdown()) {
		t.Fatalf("merged breakdown %v != global breakdown %v", merged.Breakdown(), m.HV.Meter.Breakdown())
	}
}

// TestQueueMetersMergeConserves asserts the sharded accounting loses
// nothing: with four queues, every queue owning a guest metered work,
// the guests landed on more than one queue, and a Merge over the queue
// meters carries exactly the sum of their totals — per-queue accounting
// partitions the service work, it does not duplicate or drop any of it.
func TestQueueMetersMergeConserves(t *testing.T) {
	m, tw := runShardedTraffic(t, 4, 4)
	if n := tw.QueueCount(); n != 4 {
		t.Fatalf("QueueCount = %d, want 4", n)
	}
	owners := make(map[int]int)
	for _, dom := range m.Guests {
		q := tw.QueueOf(dom.ID)
		if q < 0 || q >= 4 {
			t.Fatalf("guest %d on queue %d", dom.ID, q)
		}
		owners[q]++
	}
	if len(owners) < 2 {
		t.Fatalf("4 guests all sharded onto %d queue(s)", len(owners))
	}
	qms := tw.QueueMeters()
	var sum uint64
	for q, qm := range qms {
		if owners[q] > 0 && qm.Total() == 0 {
			t.Errorf("queue %d owns %d guests but metered no cycles", q, owners[q])
		}
		if owners[q] == 0 && qm.Total() != 0 {
			t.Errorf("queue %d owns no guests but metered %d cycles", q, qm.Total())
		}
		sum += qm.Total()
	}
	merged := cycles.NewMeter()
	merged.Merge(qms...)
	if merged.Total() != sum {
		t.Fatalf("merge total %d != sum of queue totals %d", merged.Total(), sum)
	}
	if sum == 0 {
		t.Fatal("no queue metered any work")
	}
}
