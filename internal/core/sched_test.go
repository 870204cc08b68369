package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"twindrivers/internal/core"
	"twindrivers/internal/mem"
	"twindrivers/internal/mqnic"
	"twindrivers/internal/xen"
)

// DRR weighted-fair scheduler properties (testing/quick, like the batch
// monotonicity properties): proportional shares, work conservation,
// starvation freedom, and rate-limit enforcement — the SLA contract of
// TwinConfig.Weights/Rates stated as machine-checked invariants.

// schedTwin builds a single-queue e1000 twin with nGuests guests and
// the given scheduler config, wire sunk.
func schedTwin(t *testing.T, nGuests int, cfg core.TwinConfig) (*core.Machine, *core.Twin, *core.NICDev) {
	t.Helper()
	m, tw, err := core.NewTwinMachine(1, nGuests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	return m, tw, d
}

// schedFrame builds one minimal frame tagged with the staging guest.
func schedFrame(gi, i int) []byte {
	return core.EthernetFrame(
		[6]byte{0, 0x50, 0x56, 9, 9, 9}, // external dst: never switch-local
		[6]byte{0x02, 0x5C, 0, 0, byte(gi), byte(i)},
		0x0800, []byte{byte(gi), byte(i)})
}

// topUp keeps every guest's staged ring full.
func topUp(t *testing.T, m *core.Machine, tw *core.Twin, gi int) {
	t.Helper()
	dom := m.Guests[gi]
	n, err := tw.StagedTx(dom.ID)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, core.TxRingSlots-1-n)
	for i := range frames {
		frames[i] = schedFrame(gi, i)
	}
	if len(frames) == 0 {
		return
	}
	if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
		t.Fatalf("guest %d stage: %v", gi, err)
	}
}

// TestQuickSchedProportionalShares: with every guest continuously
// backlogged, long-run throughput shares are proportional to weights
// within 5%, for any weight vector.
func TestQuickSchedProportionalShares(t *testing.T) {
	prop := func(rawW [4]uint8) bool {
		weights := make([]int, 4)
		totalW := 0
		for i, w := range rawW {
			weights[i] = 1 + int(w)%8
			totalW += weights[i]
		}
		m, tw, d := schedTwin(t, 4, core.TwinConfig{Weights: weights})
		sent := make(map[mem.Owner]int)
		const crossings = 40
		const budget = 24
		for c := 0; c < crossings; c++ {
			for gi := range m.Guests {
				topUp(t, m, tw, gi)
			}
			got, err := tw.ServiceRings(d, budget)
			if err != nil {
				t.Logf("service: %v", err)
				return false
			}
			for id, n := range got {
				sent[id] += n
			}
		}
		total := crossings * budget
		for gi, dom := range m.Guests {
			want := float64(total) * float64(weights[gi]) / float64(totalW)
			got := float64(sent[dom.ID])
			if got < want*0.95 || got > want*1.05 {
				t.Logf("weights=%v guest %d: got %.0f want %.0f±5%%", weights, gi, got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(0xD22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSchedWorkConserving: idle guests donate their bandwidth —
// with only one guest backlogged, it receives the entire budget no
// matter how the weights favor the idle guests.
func TestQuickSchedWorkConserving(t *testing.T) {
	prop := func(rawActive uint8, rawW [4]uint8) bool {
		weights := make([]int, 4)
		for i, w := range rawW {
			weights[i] = 1 + int(w)%8
		}
		active := int(rawActive) % 4
		m, tw, d := schedTwin(t, 4, core.TwinConfig{Weights: weights})
		const budget = 16
		topUp(t, m, tw, active)
		sent, err := tw.ServiceRings(d, budget)
		if err != nil {
			t.Logf("service: %v", err)
			return false
		}
		if got := sent[m.Guests[active].ID]; got != budget {
			t.Logf("weights=%v active=%d: got %d of budget %d", weights, active, got, budget)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(0xC0572))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSchedStarvationFree: one full deficit round serves every
// backlogged guest exactly its weight — so with a budget of one
// round's quantum sum, even the lightest guest progresses. This is the
// starvation proof: no weight vector can shut a backlogged guest out.
func TestQuickSchedStarvationFree(t *testing.T) {
	prop := func(rawW [6]uint8) bool {
		weights := make([]int, 6)
		totalW := 0
		for i, w := range rawW {
			weights[i] = 1 + int(w)%5
			totalW += weights[i]
		}
		m, tw, d := schedTwin(t, 6, core.TwinConfig{Weights: weights})
		for gi := range m.Guests {
			topUp(t, m, tw, gi)
		}
		sent, err := tw.ServiceRings(d, totalW)
		if err != nil {
			t.Logf("service: %v", err)
			return false
		}
		for gi, dom := range m.Guests {
			if sent[dom.ID] != weights[gi] {
				t.Logf("weights=%v guest %d: got %d, want exactly its weight %d in one round",
					weights, gi, sent[dom.ID], weights[gi])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(0x57A12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSchedRateLimit: a rate-capped guest consumes exactly its cap per
// crossing regardless of backlog or weight, and the leftover service
// goes to the others (the cap is a ceiling, not a reservation).
func TestSchedRateLimit(t *testing.T) {
	m, tw, d := schedTwin(t, 3, core.TwinConfig{
		Weights: []int{8, 1, 1},
		Rates:   []int{3, 0, 0},
	})
	for gi := range m.Guests {
		topUp(t, m, tw, gi)
	}
	sent, err := tw.ServiceRings(d, 0) // full drain
	if err != nil {
		t.Fatal(err)
	}
	if got := sent[m.Guests[0].ID]; got != 3 {
		t.Fatalf("capped guest sent %d, rate is 3", got)
	}
	// Uncapped guests drain completely despite the heavy neighbor's
	// weight advantage.
	for _, gi := range []int{1, 2} {
		if got := sent[m.Guests[gi].ID]; got != core.TxRingSlots-1 {
			t.Fatalf("uncapped guest %d sent %d, want full ring %d", gi, got, core.TxRingSlots-1)
		}
	}
	// Next crossing: the cap is per crossing, so the capped guest moves
	// again.
	sent, err = tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sent[m.Guests[0].ID]; got != 3 {
		t.Fatalf("capped guest sent %d on second crossing, rate is 3", got)
	}
}

// TestSchedEqualWeightsMatchClassic: the default configuration's sweep
// is unit-weight DRR, which is round-robin. Explicit equal weights
// produce exactly the default's per-guest counts and wire order, on a
// staged-only full drain and on a guest mixing staged and posted
// backlog, where a visit takes one descriptor — staged first — so the
// guest's posted frames follow its staged ones.
func TestSchedEqualWeightsMatchClassic(t *testing.T) {
	run := func(cfg core.TwinConfig) (map[mem.Owner]int, [][]byte) {
		m, tw, err := core.NewTwinMachine(1, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := m.Devs[0]
		var wire [][]byte
		d.NIC.OnTransmit = func(pkt []byte) { wire = append(wire, append([]byte(nil), pkt...)) }
		for gi, dom := range m.Guests {
			frames := make([][]byte, 5+gi)
			for i := range frames {
				frames[i] = schedFrame(gi, i)
			}
			if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
				t.Fatal(err)
			}
		}
		sent, err := tw.ServiceRings(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sent, wire
	}
	classicSent, classicWire := run(core.TwinConfig{})
	drrSent, drrWire := run(core.TwinConfig{Weights: []int{1, 1, 1, 1}})
	for dom, n := range classicSent {
		if drrSent[dom] != n {
			t.Fatalf("guest %d: default sent %d, unit-weight DRR sent %d", dom, n, drrSent[dom])
		}
	}
	if len(classicWire) != len(drrWire) {
		t.Fatalf("wire counts differ: default %d, DRR %d", len(classicWire), len(drrWire))
	}
	for i := range classicWire {
		if !bytes.Equal(classicWire[i], drrWire[i]) {
			t.Fatalf("wire frame %d differs between default and unit-weight DRR", i)
		}
	}

	// Mixed backlog: guest A stages S0 S1 and posts P0 P1, guest B stages
	// B0 B1. One crossing cut by a budget of 3, then a full drain.
	mixed := func(cfg core.TwinConfig) []string {
		m, tw, err := core.NewTwinMachine(1, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := m.Devs[0]
		var wire []string
		d.NIC.OnTransmit = func(pkt []byte) {
			// schedFrame's source MAC carries (guest, index) in bytes 10–11.
			name := fmt.Sprintf("S%d", pkt[11])
			switch {
			case pkt[10] == 1:
				name = fmt.Sprintf("B%d", pkt[11])
			case pkt[11] >= 100:
				name = fmt.Sprintf("P%d", pkt[11]-100)
			}
			wire = append(wire, name)
		}
		a, b := m.Guests[0], m.Guests[1]
		for gi, dom := range []*xen.Domain{a, b} {
			if _, err := tw.StageTransmitBatch(dom, [][]byte{schedFrame(gi, 0), schedFrame(gi, 1)}); err != nil {
				t.Fatal(err)
			}
		}
		var posts []core.TxPost
		for i := 0; i < 2; i++ {
			f := schedFrame(0, 100+i)
			buf := m.HV.AllocHeap(a, 2048)
			if err := a.AS.WriteBytes(buf, f); err != nil {
				t.Fatal(err)
			}
			posts = append(posts, core.TxPost{Addr: buf, Len: uint32(len(f))})
		}
		if n, err := tw.PostTxDescriptors(a, posts); err != nil || n != 2 {
			t.Fatalf("posted %d: %v", n, err)
		}
		for _, budget := range []int{3, 0} {
			if _, err := tw.ServiceRings(d, budget); err != nil {
				t.Fatal(err)
			}
		}
		return wire
	}
	want := []string{"S0", "B0", "S1", "B1", "P0", "P1"}
	if got := mixed(core.TwinConfig{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("default mixed-backlog wire order %v, want %v", got, want)
	}
	if got := mixed(core.TwinConfig{Weights: []int{1, 1}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("unit-weight mixed-backlog wire order %v, want %v", got, want)
	}
}

// TestSchedSharesPerQueue: on a sharded backend each queue runs its own
// DRR sweep, so weights apply within each queue's shard. Under
// continuous backlog and a per-queue budget, every guest's share of its
// shard's service follows its weight; a final full drain empties every
// ring.
func TestSchedSharesPerQueue(t *testing.T) {
	const guests, queues = 8, 4
	weights := []int{3, 1, 2}
	m, tw, err := core.NewTwinMachineModel(1, guests, mqnic.DriverModel(), core.TwinConfig{
		Queues:  queues,
		Weights: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	for gi, dom := range m.Guests {
		if w := tw.GuestWeight(dom.ID); w != weights[gi%len(weights)] {
			t.Fatalf("guest %d weight = %d", gi, w)
		}
	}
	const crossings, budget = 30, 12
	sent := make(map[mem.Owner]int)
	for c := 0; c < crossings; c++ {
		for gi := range m.Guests {
			topUp(t, m, tw, gi)
		}
		got, err := tw.ServiceRings(d, budget)
		if err != nil {
			t.Fatal(err)
		}
		for id, n := range got {
			sent[id] += n
		}
	}
	shardW := make(map[int]int)
	shardSent := make(map[int]int)
	for _, dom := range m.Guests {
		q := tw.QueueOf(dom.ID)
		shardW[q] += tw.GuestWeight(dom.ID)
		shardSent[q] += sent[dom.ID]
	}
	for q, n := range shardSent {
		if n != crossings*budget {
			t.Fatalf("queue %d served %d descriptors, want %d (budget %d × %d crossings)", q, n, crossings*budget, budget, crossings)
		}
	}
	for gi, dom := range m.Guests {
		q := tw.QueueOf(dom.ID)
		want := float64(shardSent[q]) * float64(tw.GuestWeight(dom.ID)) / float64(shardW[q])
		if got := float64(sent[dom.ID]); got < want*0.95 || got > want*1.05 {
			t.Errorf("guest %d (queue %d, weight %d): served %.0f, want %.0f±5%%", gi, q, tw.GuestWeight(dom.ID), got, want)
		}
	}
	staged := 0
	for _, dom := range m.Guests {
		n, err := tw.StagedTx(dom.ID)
		if err != nil {
			t.Fatal(err)
		}
		staged += n
	}
	drained, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range drained {
		total += n
	}
	if total != staged {
		t.Fatalf("drained %d of %d staged", total, staged)
	}
}
