package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"twindrivers/internal/asm"
	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/recovery"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/svm"
	"twindrivers/internal/xen"

	// Link every NIC backend so spec.backend resolves by name.
	_ "twindrivers/internal/mqnic"
)

// hostile marks a posted descriptor the workload made hostile on purpose.
type hostile uint8

const (
	honest       hostile = iota
	hostileAddr          // buffer address outside the guest
	hostileShort         // zero (transmit) or too-short (receive) length
)

// slotBytes sizes one posted transmit or receive buffer: an MTU frame
// plus headroom, as in netpath.
const slotBytes = 2048

// txEntry is one descriptor on a guest's staging or posted-transmit ring,
// in ring order.
type txEntry struct {
	rec     *frameRec // nil for a hostile descriptor
	slot    uint32    // posted arena slot, 0 for a staged frame
	hostile hostile
	offered uint64 // clock at the start of the offering call
}

// rxEntry is one buffer on a guest's posted-receive ring, in ring order.
type rxEntry struct {
	addr    uint32
	slot    uint32 // arena slot, 0 for a hostile buffer
	hostile hostile
}

// guest is the benchmark's view of one guest domain: what it has on its
// rings, its free posted buffers, and the frames bound for it.
type guest struct {
	idx    int
	dom    *xen.Domain
	mac    [6]byte
	posted bool // posted TX and RX paths; the copy paths otherwise

	txq    []txEntry
	retry  []*frameRec // transmit frames to offer again after an abort
	txFree []uint32    // posted-transmit arena slots with no live descriptor
	rxq    []rxEntry
	rxFree []uint32 // posted-receive arena slots with no live descriptor
	// rxWait holds the frames bound for this guest that are in flight.
	rxWait map[uint32]*frameRec
	// rxProvoked counts frames consumed by hostile posted-receive
	// buffers that have not yet been matched to their records.
	rxProvoked int
	postedLost uint64 // last Twin.PostedTxLost reading
	scratch    uint32 // guest page hostile short descriptors point into
}

// phaseStats accumulates the measured phase.
type phaseStats struct {
	offered, completed, lost uint64
	payloadBits              uint64
	latency                  []uint64 // critical-path cycles per frame
	txWait                   []uint64 // cycles a frame sat on its ring before service
	localDelivered           uint64
	serviceCalls             uint64
	depthSum, depthSamples   float64
	rxPendingMax, pinnedMax  int
	poolFreeMin              int
	served                   map[int]uint64 // service completions per guest index, outside the drain

	recoveries              int
	mttrCycles              uint64
	recoverNs               int64
	lostRx, retriedTx       uint64
	dropGTLB, dropOversize  uint64
	dropRingFull, dropAbort uint64
}

// rig is one brought-up workload: the simulated machine, the twin and
// the benchmark's closed-loop driver state.
type rig struct {
	w   *spec
	rng *rand.Rand
	m   *core.Machine
	t   *core.Twin
	d   *core.NICDev
	sup *recovery.Supervisor
	mm  *cycles.Meter   // the machine meter
	qms []*cycles.Meter // per-queue meters; nil with one service queue

	guests []*guest
	led    *ledger
	tr     *tracer

	calls      [numCalls]uint64
	attempted  uint64
	unexpected uint64
	burst      uint32

	faultArmed bool
	nextFault  uint64
	fatal      error

	measuring bool
	draining  bool
	st        phaseStats

	setupMs [3]float64 // assemble, derive, boot host milliseconds

	// Seeded decks keep the traffic mix exact: the seed orders the draws,
	// every full deck yields each value its weight's number of times.
	sizes, local, hostile, rxTarget *deck
	victimFlip                      bool
}

// call runs one public call, counting it and, when tracing, recording
// its span. fn returns the frames the call moved.
func (r *rig) call(id callID, fn func() (int, error)) (int, error) {
	r.calls[id]++
	r.attempted++
	i := r.tr.begin(id, r.burst)
	n, err := fn()
	r.tr.end(i, n)
	return n, err
}

// clock is the critical-path simulated clock: the machine meter plus the
// slowest service-queue meter, the rule netbench's criticalPath applies.
func (r *rig) clock() uint64 {
	c := r.mm.Lifetime()
	var q uint64
	for _, m := range r.qms {
		if l := m.Lifetime(); l > q {
			q = l
		}
	}
	return c + q
}

// critical is clock restricted to the current measurement epoch.
func (r *rig) critical() uint64 {
	c := r.mm.Total()
	var q uint64
	for _, m := range r.qms {
		if t := m.Total(); t > q {
			q = t
		}
	}
	return c + q
}

func (r *rig) domU(n uint64) { r.mm.AddTo(cycles.CompDomU, n) }

// unexpectedf counts a call outcome the workload did not provoke.
func (r *rig) unexpectedf(format string, a ...any) {
	r.unexpected++
	r.led.note(fmt.Sprintf(format, a...))
}

// bringUp builds a workload from source: assemble, derive, boot, register
// guest MACs, attach the wire and the supervisor, post buffers and warm up.
func bringUp(w *spec, seed int64, tr *tracer) (*rig, error) {
	model, ok := drivermodel.Get(w.backend)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", w.backend)
	}
	r := &rig{w: w, rng: rand.New(rand.NewSource(seed)), tr: tr, led: newLedger(w.guests)}
	r.st.poolFreeMin = -1
	r.sizes = newDeck(w.sizes, w.sizeWeights)
	r.local = newDeck([]int{1, 0}, []int{1, max(w.localEvery-1, 0)})
	// Half the hostile descriptors carry an address outside the guest,
	// half a zero or too-short length: 1 in hostileEvery overall.
	r.hostile = newDeck([]int{int(honest), int(hostileAddr), int(hostileShort)},
		[]int{max(2*w.hostileEvery-2, 0), 1, 1})
	targets := make([]int, w.guests)
	ones := make([]int, w.guests)
	for i := range targets {
		targets[i], ones[i] = i, 1
	}
	r.rxTarget = newDeck(targets, ones)

	equates := make(map[string]int32)
	for k, v := range kernel.Equates() {
		equates[k] = v
	}
	for k, v := range model.Equates {
		equates[k] = v
	}
	var unit *asm.Unit
	var stats *rewrite.Stats
	var err error
	timed := func(i int, id callID, fn func() error) error {
		t0 := time.Now()
		_, err := r.call(id, func() (int, error) { return 0, fn() })
		r.setupMs[i] = float64(time.Since(t0)) / 1e6
		return err
	}
	if err := timed(0, cAssemble, func() error {
		unit, err = asm.AssembleWithEquates(model.Source, equates)
		return err
	}); err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	opts := rewrite.Options{RejectPrivileged: true, STLBEntries: svm.NumEntries}
	if err := timed(1, cDerive, func() error {
		_, stats, err = rewrite.Rewrite(unit, opts)
		return err
	}); err != nil {
		return nil, fmt.Errorf("derive: %w", err)
	}
	cfg := core.TwinConfig{Queues: w.queues, Weights: w.weights, Switch: w.vswitch}
	if err := timed(2, cBoot, func() error {
		r.m, r.t, err = core.NewTwinMachineModel(1, w.guests, model, cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	// The derivation run from outside must match the one the twin made.
	if *stats != *r.t.RewriteStats {
		return nil, fmt.Errorf("derive: outside derivation %v differs from the twin's %v", stats, r.t.RewriteStats)
	}
	r.d = r.m.Devs[0]
	r.mm = r.m.CPU.Meter
	if r.t.QueueCount() > 1 {
		r.qms = r.t.QueueMeters()
	}
	hv := r.m.HV
	for i, dom := range r.m.Guests {
		g := &guest{idx: i, dom: dom, mac: [6]byte{0x02, 0x54, 0x57, 0x49, 0x4E, byte(i)},
			rxWait: make(map[uint32]*frameRec)}
		g.posted = w.postedEven && i%2 == 0
		r.call(cRegister, func() (int, error) { r.t.RegisterGuestMAC(g.mac, dom.ID); return 0, nil })
		if g.posted {
			for k := 0; k < core.TxRingSlots; k++ {
				g.txFree = append(g.txFree, hv.AllocHeap(dom, slotBytes))
			}
			for k := 0; k < core.RxRingSlots; k++ {
				g.rxFree = append(g.rxFree, hv.AllocHeap(dom, slotBytes))
			}
			g.scratch = hv.AllocHeap(dom, mem.PageSize)
		}
		r.guests = append(r.guests, g)
	}
	r.d.Dev.SetOnTransmit(r.onWire)
	r.sup = recovery.New(r.m, r.t, recovery.Policy{})
	if w.faultEvery > 0 {
		r.nextFault = r.mm.Lifetime() + w.faultEvery
	}
	for _, g := range r.guests {
		r.topUpRx(g)
	}
	r.drive(w.warmup)
	r.drain()
	return r, r.fatal
}

// --- frames ------------------------------------------------------------

var wireMAC = [6]byte{0x00, 0x50, 0x56, 0x09, 0x09, 0x01}
var peerMAC = [6]byte{0x00, 0x50, 0x56, 0x01, 0x02, 0x03}

func (r *rig) fill(b []byte) { r.rng.Read(b) }

// txFrame generates a frame guest g transmits, to the wire or (dst >= 0)
// to another guest.
func (r *rig) txFrame(g *guest, dst, size int) *frameRec {
	to := wireMAC
	if dst >= 0 {
		to = r.guests[dst].mac
	}
	rec := r.led.newFrame(g.idx, dst, size, to, g.mac, r.fill)
	if dst >= 0 {
		r.guests[dst].rxWait[rec.seq] = rec
	}
	r.offered(rec)
	return rec
}

// rxFrame generates a frame arriving from the wire for guest g.
func (r *rig) rxFrame(g *guest, size int) *frameRec {
	rec := r.led.newFrame(-1, g.idx, size, g.mac, peerMAC, r.fill)
	g.rxWait[rec.seq] = rec
	r.offered(rec)
	return rec
}

func (r *rig) offered(rec *frameRec) {
	if r.measuring {
		rec.measured = true
		r.st.offered++
	}
}

// finish records a frame reaching the wire or its guest at clock end.
func (r *rig) finish(rec *frameRec, wired bool, end uint64) {
	r.led.complete(rec, wired)
	if rec.dst >= 0 {
		delete(r.guests[rec.dst].rxWait, rec.seq)
	}
	if !r.measuring {
		return
	}
	r.st.completed++
	r.st.payloadBits += uint64(len(rec.data)-14) * 8
	if rec.origin >= 0 && rec.dst >= 0 {
		r.st.localDelivered++
	}
	if rec.measured {
		r.st.latency = append(r.st.latency, end-rec.start)
	}
}

// lose records an honest frame as lost; provoked losses (a hostile buffer
// the workload posted consumed it) are refused, not lost.
func (r *rig) lose(rec *frameRec, provoked bool) {
	if rec.dst >= 0 {
		delete(r.guests[rec.dst].rxWait, rec.seq)
	}
	if provoked {
		r.led.refuse(rec)
		return
	}
	r.led.lose(rec)
	if r.measuring {
		r.st.lost++
	}
}

// onWire is the device's wire callback: every transmitted frame must be
// an in-flight honest frame bound for the wire, byte for byte.
func (r *rig) onWire(pkt []byte) {
	i := r.tr.begin(cWire, r.burst)
	defer r.tr.end(i, 1)
	rec, err := r.led.lookup(pkt)
	if err != nil {
		r.led.failf("wire: %v", err)
		return
	}
	if rec.dst != wireDst || rec.origin < 0 {
		r.led.failf("wire: frame seq %d for guest %d left on the wire", rec.seq, rec.dst)
		return
	}
	r.finish(rec, true, r.clock())
}

// received checks one frame delivered to guest g.
func (r *rig) received(g *guest, pkt []byte, end uint64) {
	rec, err := r.led.lookup(pkt)
	if err != nil {
		r.led.failf("guest %d delivery: %v", g.idx, err)
		return
	}
	if rec.dst != g.idx {
		r.led.failf("frame seq %d for guest %d delivered to guest %d", rec.seq, rec.dst, g.idx)
		return
	}
	r.finish(rec, false, end)
}

// readGuest reads n bytes of guest memory page by page through the frame
// table (reading guest memory charges no simulated cycles).
func (r *rig) readGuest(dom *xen.Domain, addr uint32, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for off := 0; off < n; {
		a := addr + uint32(off)
		f, ok := r.m.HV.FrameOf(dom, a)
		if !ok {
			return nil, fmt.Errorf("guest address %#x unmapped", a)
		}
		page := r.m.HV.Phys.FrameData(f)
		if page == nil {
			return nil, fmt.Errorf("guest frame %#x has no RAM", f)
		}
		o := int(a & mem.PageMask)
		c := mem.PageSize - o
		if c > n-off {
			c = n - off
		}
		out = append(out, page[o:o+c]...)
		off += c
	}
	return out, nil
}

// --- transmit ---------------------------------------------------------

// guestTransmit sends one frame through the per-packet hypercall path.
func (r *rig) guestTransmit(g *guest, rec *frameRec) {
	r.m.HV.Switch(g.dom)
	r.domU(cost.TxKernelFixed + uint64(len(rec.data))*cost.TxKernelPerByte)
	rec.start = r.clock()
	_, err := r.call(cGuestTx, func() (int, error) { return 1, r.t.GuestTransmit(r.d, rec.data) })
	if err != nil {
		if _, live := r.led.inflight[rec.seq]; live {
			g.retry = append(g.retry, rec)
		}
		r.callFailed("guest transmit", err)
		return
	}
	if _, live := r.led.inflight[rec.seq]; live && rec.dst == wireDst {
		r.led.failf("guest transmit of seq %d returned without a wire frame", rec.seq)
		r.lose(rec, false)
	}
}

// txRoom is how many more descriptors guest g's transmit ring takes.
func (r *rig) txRoom(g *guest) int {
	if g.posted {
		free, err := r.t.TxPostedFree(g.dom.ID)
		if err != nil {
			return 0
		}
		if free > len(g.txFree) {
			free = len(g.txFree)
		}
		return free
	}
	staged, err := r.t.StagedTx(g.dom.ID)
	if err != nil {
		return 0
	}
	return core.TxRingSlots - staged
}

// offerTx puts frames on guest g's transmit ring from g's own context:
// the staging copy on the copy path, descriptors over the guest's own
// buffers on the posted path. The guest stack is charged per frame as
// netpath charges it. Frames the ring refuses go back to the retry list.
func (r *rig) offerTx(g *guest, recs []*frameRec) {
	if len(recs) == 0 {
		return
	}
	r.m.HV.Switch(g.dom)
	r.burst++
	if !g.posted {
		frames := make([][]byte, len(recs))
		for i, rec := range recs {
			frames[i] = rec.data
			r.domU(cost.TxKernelFixed + uint64(len(rec.data))*cost.TxKernelPerByte)
		}
		start := r.clock()
		n, err := r.call(cStage, func() (int, error) { return r.t.StageTransmitBatch(g.dom, frames) })
		for i, rec := range recs {
			if i < n {
				if rec.retries == 0 {
					rec.start = start
				}
				g.txq = append(g.txq, txEntry{rec: rec, offered: start})
			} else {
				g.retry = append(g.retry, rec)
			}
		}
		if err != nil {
			r.callFailed("stage", err)
		}
		return
	}
	entries := make([]txEntry, 0, len(recs)+1)
	for _, rec := range recs {
		if h := r.drawHostile(); h != honest {
			// A hostile guest pays only the descriptor post.
			r.domU(cost.TxPostPerDesc)
			entries = append(entries, txEntry{hostile: h})
		}
		slot := g.txFree[len(g.txFree)-1]
		g.txFree = g.txFree[:len(g.txFree)-1]
		if err := g.dom.AS.WriteBytes(slot, rec.data); err != nil {
			r.unexpectedf("guest %d write to its own buffer: %v", g.idx, err)
		}
		r.domU(cost.TxKernelFixed + cost.TxPostPerDesc)
		entries = append(entries, txEntry{rec: rec, slot: slot})
	}
	descs := make([]core.TxPost, len(entries))
	for i, e := range entries {
		if e.rec != nil {
			descs[i] = core.TxPost{Addr: e.slot, Len: uint32(len(e.rec.data))}
		} else {
			descs[i] = r.hostileTxPost(g, e.hostile)
		}
	}
	start := r.clock()
	n, err := r.call(cPostTx, func() (int, error) { return r.t.PostTxDescriptors(g.dom, descs) })
	for i, e := range entries {
		if i < n {
			e.offered = start
			if e.rec != nil && e.rec.retries == 0 {
				e.rec.start = start
			}
			g.txq = append(g.txq, e)
			continue
		}
		if e.rec != nil {
			g.txFree = append(g.txFree, e.slot)
			g.retry = append(g.retry, e.rec)
		}
	}
	if err != nil {
		r.callFailed("post tx", err)
	}
}

// drawHostile says whether the next posted descriptor is hostile, and how.
func (r *rig) drawHostile() hostile {
	if r.w.hostileEvery == 0 {
		return honest
	}
	return hostile(r.hostile.draw(r.rng))
}

// hostileAddrFor is an address outside guest g: alternately hypervisor
// memory and another guest's page.
func (r *rig) hostileAddrFor(g *guest) uint32 {
	r.victimFlip = !r.victimFlip
	if r.victimFlip {
		return 0xF1000040
	}
	victim := r.guests[(g.idx+2)%len(r.guests)]
	if victim.scratch == 0 || victim == g {
		return 0xF1000040
	}
	return victim.scratch
}

func (r *rig) hostileTxPost(g *guest, h hostile) core.TxPost {
	if h == hostileAddr {
		return core.TxPost{Addr: r.hostileAddrFor(g), Len: 256}
	}
	return core.TxPost{Addr: g.scratch, Len: 0}
}

// service crosses the boundary once: ServiceRings drains every guest's
// rings under the workload's per-queue budget. Consumption is read back
// from the rings' depths: each ring is FIFO, so the first descriptors of
// each guest's queue are the ones consumed.
func (r *rig) service() {
	depth := 0
	for _, g := range r.guests {
		depth += len(g.txq)
	}
	start := r.clock()
	var sent map[mem.Owner]int
	_, err := r.call(cService, func() (int, error) {
		var err error
		sent, err = r.t.ServiceRings(r.d, r.w.budget)
		n := 0
		for _, c := range sent {
			n += c
		}
		return n, err
	})
	if r.measuring {
		r.st.serviceCalls++
		r.st.depthSum += float64(depth) / float64(len(r.guests))
		r.st.depthSamples++
		// Shares are taken while every guest keeps offering; the drain
		// serves every backlog to empty whatever the weights.
		for _, g := range r.guests {
			if !r.draining {
				r.st.served[g.idx] += uint64(sent[g.dom.ID])
			}
		}
		r.observe()
	}
	if r.t.Dead {
		r.callFailed("service", err)
		return
	}
	r.consume(start)
	if err != nil {
		r.callFailed("service", err)
	}
}

// consume resolves the descriptors the last service took off each ring.
func (r *rig) consume(start uint64) {
	for _, g := range r.guests {
		if len(g.txq) == 0 {
			continue
		}
		var left int
		var err error
		if g.posted {
			left, err = r.t.PostedTxPending(g.dom.ID)
		} else {
			left, err = r.t.StagedTx(g.dom.ID)
		}
		n := len(g.txq) - left
		if err != nil || n < 0 {
			r.led.failf("guest %d ring depth %d (%v) exceeds the %d descriptors posted", g.idx, left, err, len(g.txq))
			continue
		}
		var refused, lostHonest uint64
		for _, e := range g.txq[:n] {
			if e.slot != 0 {
				g.txFree = append(g.txFree, e.slot)
			}
			if e.hostile != honest {
				refused++
				if r.measuring {
					if e.hostile == hostileAddr {
						r.st.dropGTLB++
					} else {
						r.st.dropOversize++
					}
				}
				continue
			}
			rec := e.rec
			if r.measuring && rec.measured {
				r.st.txWait = append(r.st.txWait, start-e.offered)
			}
			if _, live := r.led.inflight[rec.seq]; !live {
				continue // on the wire
			}
			if rec.dst >= 0 {
				rec.queued = true // switched locally onto the destination's queue
				continue
			}
			lostHonest++
			if r.measuring {
				r.st.dropRingFull++
			}
			r.lose(rec, false)
		}
		g.txq = g.txq[n:]
		if g.posted {
			pl := r.t.PostedTxLost(g.dom.ID)
			if d := pl - g.postedLost; d != refused+lostHonest {
				r.led.failf("guest %d posted-tx lost %d, expected %d refused + %d lost", g.idx, d, refused, lostHonest)
			}
			g.postedLost = pl
		}
	}
}

// --- receive ----------------------------------------------------------

// topUpRx keeps a posted-receive guest's ring full from its own arena,
// with the workload's share of hostile buffers.
func (r *rig) topUpRx(g *guest) {
	if !g.posted {
		return
	}
	free, err := r.t.RxPostedFree(g.dom.ID)
	if err != nil || free == 0 {
		return
	}
	r.m.HV.Switch(g.dom)
	var entries []rxEntry
	for len(entries) < free && len(g.rxFree) > 0 {
		switch r.drawHostile() {
		case hostileAddr:
			entries = append(entries, rxEntry{addr: r.hostileAddrFor(g), hostile: hostileAddr})
			continue
		case hostileShort:
			entries = append(entries, rxEntry{addr: g.scratch, hostile: hostileShort})
			continue
		}
		slot := g.rxFree[len(g.rxFree)-1]
		g.rxFree = g.rxFree[:len(g.rxFree)-1]
		entries = append(entries, rxEntry{addr: slot, slot: slot})
	}
	posts := make([]core.RxPost, len(entries))
	for i, e := range entries {
		posts[i] = core.RxPost{Addr: e.addr, Len: slotBytes}
		if e.hostile == hostileShort {
			posts[i].Len = 16
		}
	}
	n, err := r.call(cPostRx, func() (int, error) { return r.t.PostRxBuffers(g.dom, posts) })
	r.domU(uint64(n) * cost.RxPostPerBuffer)
	for i, e := range entries {
		if i < n {
			g.rxq = append(g.rxq, e)
		} else if e.slot != 0 {
			g.rxFree = append(g.rxFree, e.slot)
		}
	}
	if err != nil {
		r.callFailed("post rx", err)
	}
}

// inject hands frames to the device as if they arrived from the wire.
func (r *rig) inject(recs []*frameRec) (accepted []*frameRec) {
	r.burst++
	for _, rec := range recs {
		rec.start = r.clock()
		n, _ := r.call(cInject, func() (int, error) {
			if r.d.Dev.Inject(rec.data) {
				return 1, nil
			}
			return 0, nil
		})
		if n == 0 {
			if r.measuring {
				r.st.dropRingFull++
			}
			r.lose(rec, false)
			continue
		}
		accepted = append(accepted, rec)
	}
	return accepted
}

// irq runs the hypervisor driver's interrupt handler; on success every
// accepted frame now sits on its guest's receive queue.
func (r *rig) irq(accepted []*frameRec) bool {
	_, err := r.call(cIRQ, func() (int, error) { return len(accepted), r.t.HandleIRQ(r.d) })
	if err != nil {
		r.callFailed("irq", err)
		return false
	}
	for _, rec := range accepted {
		rec.queued = true
	}
	if r.measuring {
		for _, g := range r.guests {
			if p := r.t.PendingRx(g.dom.ID); p > r.st.rxPendingMax {
				r.st.rxPendingMax = p
			}
		}
		r.observe()
	}
	return true
}

// deliver hands guest g its queued frames (at most max, 0 for all) on
// its receive path, checks every frame's bytes and charges the guest
// paravirtual driver and stack as netpath does.
func (r *rig) deliver(g *guest, max int) {
	r.m.HV.Switch(g.dom)
	if !g.posted {
		var pkts [][]byte
		_, err := r.call(cDeliver, func() (int, error) {
			var err error
			if max == 1 {
				pkts, err = r.t.DeliverPending(g.dom)
			} else {
				pkts, err = r.t.DeliverPendingBatch(g.dom, max)
			}
			return len(pkts), err
		})
		end := r.clock()
		for _, pkt := range pkts {
			r.received(g, pkt, end)
			r.domU(cost.PvDriverRx + cost.RxKernelFixed + uint64(len(pkt))*cost.RxKernelPerByte)
		}
		if err != nil {
			r.callFailed("deliver", err)
		}
		r.settleRx(g)
		return
	}
	before := len(g.rxq)
	var del *core.RxDelivery
	_, err := r.call(cDeliver, func() (int, error) {
		var err error
		del, err = r.t.DeliverPendingPosted(g.dom, max)
		if del == nil {
			return 0, err
		}
		return len(del.Frames), err
	})
	end := r.clock()
	if r.t.Dead {
		r.callFailed("deliver posted", err)
		return
	}
	free, ferr := r.t.RxPostedFree(g.dom.ID)
	consumed := before - (core.RxRingSlots - free)
	if ferr != nil || consumed < 0 {
		r.led.failf("guest %d posted-rx ring free %d (%v) with %d posted", g.idx, free, ferr, before)
		consumed = 0
	}
	frames := del.Frames
	unmatched := 0
	for _, e := range g.rxq[:consumed] {
		if len(frames) > 0 && frames[0].Addr == e.addr && e.hostile == honest {
			fr := frames[0]
			frames = frames[1:]
			pkt, rerr := r.readGuest(g.dom, fr.Addr, fr.Len)
			if rerr != nil {
				r.led.failf("guest %d posted buffer %#x: %v", g.idx, fr.Addr, rerr)
			} else {
				r.received(g, pkt, end)
			}
			r.domU(cost.PvDriverRxPosted + cost.RxKernelFixed + uint64(fr.Len)*cost.RxKernelPerByte)
		} else {
			unmatched++
			if e.hostile != honest {
				g.rxProvoked++
				if r.measuring {
					if e.hostile == hostileAddr {
						r.st.dropGTLB++
					} else {
						r.st.dropOversize++
					}
				}
			}
		}
		if e.slot != 0 {
			g.rxFree = append(g.rxFree, e.slot)
		}
	}
	g.rxq = g.rxq[consumed:]
	if len(frames) > 0 {
		r.led.failf("guest %d: %d frames delivered outside the posted buffers (first at %#x)", g.idx, len(frames), frames[0].Addr)
	}
	if unmatched != del.Lost {
		r.led.failf("guest %d: delivery lost %d frames, %d posted buffers went unused", g.idx, del.Lost, unmatched)
	}
	if err != nil {
		r.callFailed("deliver posted", err)
	}
	r.settleRx(g)
}

// settleRx resolves frames bound for g once its receive queue is empty:
// a queued frame that was not delivered is gone. Frames consumed by a
// hostile buffer the guest posted are refused; the rest are lost.
func (r *rig) settleRx(g *guest) {
	if r.t.Dead || r.t.PendingRx(g.dom.ID) > 0 || len(g.rxWait) == 0 {
		return
	}
	for _, rec := range sortedRecs(g.rxWait) {
		if !rec.queued {
			continue
		}
		provoked := g.rxProvoked > 0
		if provoked {
			g.rxProvoked--
		}
		r.lose(rec, provoked)
	}
	if g.rxProvoked != 0 {
		r.led.failf("guest %d: %d hostile buffers consumed with no frame lost", g.idx, g.rxProvoked)
		g.rxProvoked = 0
	}
}

func sortedRecs(m map[uint32]*frameRec) []*frameRec {
	out := make([]*frameRec, 0, len(m))
	for _, rec := range m {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// observe samples pool and pin occupancy.
func (r *rig) observe() {
	if f := r.t.PoolFree(); r.st.poolFreeMin < 0 || f < r.st.poolFreeMin {
		r.st.poolFreeMin = f
	}
	if p := r.t.PinnedTxPages(); p > r.st.pinnedMax {
		r.st.pinnedMax = p
	}
}

// --- faults -----------------------------------------------------------

// maybeFault arms one driver fault once the machine clock passes the
// next fault time. The wild write is the backend-generic injector (the
// other two scribble e1000 adapter layout); it trips on the next
// hypervisor-driver invocation.
func (r *rig) maybeFault() {
	if r.w.faultEvery == 0 || r.faultArmed || r.mm.Lifetime() < r.nextFault {
		return
	}
	inj, _ := recovery.InjectorByName("wild-write")
	if err := inj.Inject(r.m, r.t, r.d); err != nil {
		r.fatal = fmt.Errorf("inject fault: %w", err)
		return
	}
	r.faultArmed = true
	r.nextFault = r.mm.Lifetime() + r.w.faultEvery
}

// callFailed handles an error return: a driver death is recovered (and is
// provoked only when a fault was armed); anything else is unexpected.
func (r *rig) callFailed(what string, err error) {
	if r.t.Dead {
		if !r.faultArmed {
			r.unexpectedf("%s: driver died with no fault injected: %v", what, err)
		}
		r.faultArmed = false
		r.recoverTwin()
		return
	}
	if err != nil {
		if errors.Is(err, core.ErrTxBusy) && r.measuring {
			r.st.dropRingFull++
		}
		r.unexpectedf("%s: %v", what, err)
	}
}

// recoverTwin revives the twin through the supervisor and settles what
// the abort took: transmit frames not yet on the wire are offered again
// (the abort discarded every ring, so none can still leave); frames from
// the wire not yet delivered died with the instance.
func (r *rig) recoverTwin() {
	ab := r.t.LastAbort
	if r.t.PinnedTxPages() != 0 {
		r.led.failf("abort left %d guest pages pinned", r.t.PinnedTxPages())
	}
	var ev *recovery.Event
	t0 := time.Now()
	_, err := r.call(cRecover, func() (int, error) {
		var err error
		ev, err = r.sup.Recover()
		return 0, err
	})
	recoverNs := int64(time.Since(t0))
	if err != nil || ev == nil {
		r.fatal = fmt.Errorf("recover: %v", err)
		return
	}
	if r.measuring {
		r.st.recoveries++
		r.st.mttrCycles += ev.MTTRCycles
		r.st.recoverNs += recoverNs
		r.st.dropAbort += uint64(ab.StagedTxDiscarded + ab.TxPostedDiscarded + ab.RxPendingDropped + ab.RxPostedDiscarded)
	}
	retry := func(rec *frameRec) {
		rec.retries++
		rec.queued = false
		r.guests[rec.origin].retry = append(r.guests[rec.origin].retry, rec)
		if r.measuring {
			r.st.retriedTx++
		}
	}
	for _, g := range r.guests {
		for _, e := range g.txq {
			if e.slot != 0 {
				g.txFree = append(g.txFree, e.slot)
			}
			if e.rec == nil {
				continue
			}
			if _, live := r.led.inflight[e.rec.seq]; live {
				retry(e.rec)
			}
		}
		g.txq = nil
		for _, e := range g.rxq {
			if e.slot != 0 {
				g.rxFree = append(g.rxFree, e.slot)
			}
		}
		g.rxq = nil
		g.postedLost = r.t.PostedTxLost(g.dom.ID)
	}
	for _, g := range r.guests {
		for _, rec := range sortedRecs(g.rxWait) {
			switch {
			case rec.origin >= 0 && rec.queued:
				retry(rec) // switched locally, then dropped with the queue
			case rec.origin < 0:
				provoked := rec.queued && g.rxProvoked > 0
				if provoked {
					g.rxProvoked--
				} else if r.measuring {
					r.st.lostRx++
				}
				r.lose(rec, provoked)
			}
		}
		g.rxProvoked = 0
	}
}
