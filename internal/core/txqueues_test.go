// Posted-transmit descriptors under multi-queue service, driven through
// the multi-queue backend. External test package: mqnic imports
// core, so these tests cannot live inside package core itself.
package core_test

import (
	"reflect"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/mem"
	"twindrivers/internal/mqnic"
)

// postTxQueues builds an mqnic twin at the given queue count, writes
// per-guest frames into guest-owned buffers, posts their (addr,len)
// descriptors, and services every queue in one crossing, returning the
// per-guest sent counts and per-guest wire sequences (tagged by
// source-MAC byte 11).
func postTxQueues(t *testing.T, queues int) (map[mem.Owner]int, map[int][][]byte) {
	t.Helper()
	m, tw, err := core.NewTwinMachineModel(1, 4, mqnic.DriverModel(), core.TwinConfig{Queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	byGuest := make(map[int][][]byte)
	d.Dev.SetOnTransmit(func(pkt []byte) {
		byGuest[int(pkt[11])] = append(byGuest[int(pkt[11])], append([]byte(nil), pkt...))
	})
	for gi, dom := range m.Guests {
		descs := make([]core.TxPost, 6)
		for i := range descs {
			payload := make([]byte, 320+i)
			for j := range payload {
				payload[j] = byte(gi*37 + i + j)
			}
			f := core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x62, 0, 0, byte(i), byte(gi)},
				0x0800, payload)
			buf := m.HV.AllocHeap(dom, 2048)
			if err := dom.AS.WriteBytes(buf, f); err != nil {
				t.Fatalf("guest %d frame %d: %v", gi, i, err)
			}
			descs[i] = core.TxPost{Addr: buf, Len: uint32(len(f))}
		}
		if posted, err := tw.PostTxDescriptors(dom, descs); err != nil || posted != len(descs) {
			t.Fatalf("guest %d posted %d: %v", gi, posted, err)
		}
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatalf("service (queues=%d): %v", queues, err)
	}
	for _, dom := range m.Guests {
		if lost := tw.PostedTxLost(dom.ID); lost != 0 {
			t.Fatalf("guest %d lost %d posted frames (queues=%d)", dom.ID, lost, queues)
		}
	}
	return sent, byGuest
}

// TestPostedTxParallelQueuesMatchSequential pins posted transmit on four
// service queues — four simulated cores, each sweeping its own shard — to
// the one-queue sequential sweep: same per-guest sent counts, same
// per-guest frame bytes on the wire, zero posted frames lost. Sharding
// changes which core meters a guest's descriptors, never what a guest
// puts on the wire.
func TestPostedTxParallelQueuesMatchSequential(t *testing.T) {
	seqSent, seqWire := postTxQueues(t, 1)
	parSent, parWire := postTxQueues(t, 4)
	if !reflect.DeepEqual(seqSent, parSent) {
		t.Fatalf("sent maps differ: one queue %v, four queues %v", seqSent, parSent)
	}
	if !reflect.DeepEqual(seqWire, parWire) {
		t.Fatal("per-guest wire sequences differ between one and four posted-TX service queues")
	}
	total := 0
	for gi := range seqWire {
		total += len(seqWire[gi])
	}
	if total != 4*6 {
		t.Fatalf("wire carried %d frames, want 24", total)
	}
}
