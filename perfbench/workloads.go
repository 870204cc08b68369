package main

import (
	"math/rand"

	"twindrivers/internal/cost"
)

// kind selects a workload's closed-loop driver.
type kind uint8

const (
	perPacket kind = iota // GuestTransmit; inject + HandleIRQ + DeliverPending per frame
	stream                // StageTransmitBatch + ServiceRings; coalesced receive bursts
	tenants               // many guests, budgeted DRR service, mixed paths
)

// spec describes one workload. Work is fixed in frames offered, so the
// simulated metrics of a seed repeat exactly.
type spec struct {
	name    string
	why     string
	kind    kind
	backend string
	guests  int
	queues  int // service queues (0 = the model's own count)

	sizes       []int // frame sizes ...
	sizeWeights []int // ... drawn with these relative weights
	batch       int   // frames per transmit or receive burst

	postedEven   bool   // even guests use posted TX and RX, odd guests copy
	weights      []int  // DRR weights (nil = classic round-robin)
	vswitch      bool   // inter-guest L2 switch
	localEvery   int    // 1 in localEvery transmit frames go to another guest
	hostileEvery int    // 1 in hostileEvery posted descriptors is hostile
	faultEvery   uint64 // machine cycles between injected driver faults
	budget       int    // descriptors per queue per service crossing (0 = drain)
	rxPerRound   int    // frames from the wire per tenants round

	warmup  int // honest frames offered before measurement
	measure int // honest frames offered in the measured phase
}

var workloads = []*spec{
	{
		name: "small-b1",
		why: "every 60-byte frame pays a full crossing, upcall and interpreted driver call: " +
			"fixed per-frame cost in cpu, cycles, xen and upcall dominates",
		kind: perPacket, backend: "e1000", guests: 1,
		sizes: []int{60}, sizeWeights: []int{1}, batch: 1,
		warmup: 64, measure: 4000,
	},
	{
		name: "stream-mtu",
		why: "the paper's netperf stream: 1500-byte frames in 32-frame bursts, " +
			"per-byte staging, DMA and copy-out dominate while crossings amortize 32x",
		kind: stream, backend: "e1000", guests: 1,
		sizes: []int{cost.MTU}, sizeWeights: []int{1}, batch: 32,
		warmup: 128, measure: 4096,
	},
	{
		name: "tenants-64",
		why: "64 mqnic guests on 4 queues under a DRR budget with the vswitch, posted and copy paths, " +
			"hostile descriptors and injected faults: the only per-guest-state and off-fast-path load",
		kind: tenants, backend: "mqnic", guests: 64, queues: 4,
		sizes: []int{60, 576, 1500}, sizeWeights: []int{7, 4, 1}, batch: 8,
		postedEven: true, weights: []int{4, 2, 1}, vswitch: true,
		localEvery: 8, hostileEvery: 100, faultEvery: 120_000_000,
		budget: 24, rxPerRound: 32,
		warmup: 1024, measure: 16000,
	},
}

func specByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// deck deals values in a seeded order with exact proportions: each full
// pass through the deck yields every value its weight's number of times,
// so the traffic mix does not drift from seed to seed.
type deck struct {
	cards []int
	next  int
}

func newDeck(values, weights []int) *deck {
	d := &deck{}
	for i, v := range values {
		for k := 0; k < weights[i]; k++ {
			d.cards = append(d.cards, v)
		}
	}
	return d
}

func (d *deck) draw(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	v := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return v
}

// size draws a frame size from the workload's mix.
func (r *rig) size() int { return r.sizes.draw(r.rng) }

// drive offers n honest frames through the workload's closed loop.
func (r *rig) drive(n int) {
	switch r.w.kind {
	case perPacket:
		r.drivePerPacket(n)
	case stream:
		r.driveStream(n)
	case tenants:
		r.driveTenants(n)
	}
}

// directions alternates transmit and receive operations (TX:RX 1:1), so
// every frame meets the same machine state whatever the seed; the seed
// sets the frames' bytes.
func directions(ops int) []bool {
	tx := make([]bool, ops)
	for i := 0; i < ops; i += 2 {
		tx[i] = true
	}
	return tx
}

func (r *rig) drivePerPacket(n int) {
	g := r.guests[0]
	for _, tx := range directions(n) {
		if r.fatal != nil {
			return
		}
		if tx {
			r.burst++
			r.guestTransmit(g, r.txFrame(g, wireDst, r.size()))
			continue
		}
		rec := r.rxFrame(g, r.size())
		r.m.HV.Switch(g.dom)
		if acc := r.inject([]*frameRec{rec}); len(acc) > 0 && r.irq(acc) {
			r.deliver(g, 1)
		}
	}
}

func (r *rig) driveStream(n int) {
	g := r.guests[0]
	bs := r.w.batch
	for _, tx := range directions(n / bs) {
		if r.fatal != nil {
			return
		}
		if tx {
			recs := make([]*frameRec, bs)
			for i := range recs {
				recs[i] = r.txFrame(g, wireDst, r.size())
			}
			r.offerTx(g, recs)
			r.service()
			continue
		}
		r.receiveBurst(g, bs)
	}
}

// receiveBurst is one coalesced receive burst for guest g: bs frames
// injected, one interrupt, one batched delivery under one notification.
func (r *rig) receiveBurst(g *guest, bs int) {
	recs := make([]*frameRec, bs)
	for i := range recs {
		recs[i] = r.rxFrame(g, r.size())
	}
	r.m.HV.Switch(g.dom)
	acc := r.inject(recs)
	r.t.Coalescer.Begin()
	if len(acc) > 0 && r.irq(acc) {
		r.deliver(g, bs)
	}
	r.t.Coalescer.End()
}

// takeTx returns up to k transmit frames for guest g: frames to retry
// first, then new ones (1 in localEvery addressed to another guest).
func (r *rig) takeTx(g *guest, k int, fresh bool) []*frameRec {
	var recs []*frameRec
	for len(recs) < k && len(g.retry) > 0 {
		recs = append(recs, g.retry[0])
		g.retry = g.retry[1:]
	}
	for fresh && len(recs) < k {
		dst := wireDst
		if r.w.localEvery > 0 && r.local.draw(r.rng) == 1 {
			dst = (g.idx + 1 + r.rng.Intn(len(r.guests)-1)) % len(r.guests)
		}
		recs = append(recs, r.txFrame(g, dst, r.size()))
	}
	return recs
}

func (r *rig) driveTenants(n int) {
	for offered := r.led.seq; int(r.led.seq-offered) < n; {
		if r.fatal != nil {
			return
		}
		r.tenantsRound(true)
	}
}

// tenantsRound is one round of the many-guest loop: every guest tops up
// its posted receive ring and offers a transmit burst if its ring has
// room; one budgeted crossing services every queue; a burst of frames
// from the wire is injected, drained by one interrupt and delivered to
// every guest holding frames, under one coalescing window.
func (r *rig) tenantsRound(fresh bool) {
	for _, g := range r.guests {
		r.topUpRx(g)
		if k := min(r.w.batch, r.txRoom(g)); k > 0 {
			r.offerTx(g, r.takeTx(g, k, fresh))
		}
	}
	if r.pendingTx() {
		r.service()
	}
	var recs []*frameRec
	if fresh {
		for i := 0; i < r.w.rxPerRound; i++ {
			recs = append(recs, r.rxFrame(r.guests[r.rxTarget.draw(r.rng)], r.size()))
		}
	}
	if len(recs) > 0 {
		r.maybeFault()
		r.burst++
		if !r.irq(r.inject(recs)) {
			return
		}
	}
	r.t.Coalescer.Begin()
	for _, g := range r.guests {
		if len(g.rxWait) > 0 || r.t.PendingRx(g.dom.ID) > 0 {
			r.deliver(g, 0)
		}
	}
	r.t.Coalescer.End()
}

func (r *rig) pendingTx() bool {
	for _, g := range r.guests {
		if len(g.txq) > 0 {
			return true
		}
	}
	return false
}

// drain completes every frame in flight without offering new ones.
func (r *rig) drain() {
	r.draining = true
	defer func() { r.draining = false }()
	for round := 0; len(r.led.inflight) > 0; round++ {
		if r.fatal != nil {
			return
		}
		if round == 200 {
			r.led.failf("drain: %d frames still in flight after %d rounds", len(r.led.inflight), round)
			return
		}
		switch r.w.kind {
		case tenants:
			r.tenantsRound(false)
		case perPacket:
			g := r.guests[0]
			for _, rec := range r.takeTx(g, len(g.retry), false) {
				r.guestTransmit(g, rec)
			}
		case stream:
			g := r.guests[0]
			r.offerTx(g, r.takeTx(g, r.txRoom(g), false))
			r.service()
		}
	}
}
