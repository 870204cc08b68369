// Package telemetry is the runtime observability layer: an
// allocation-free event tracer, a metrics registry, and exporters
// (Chrome trace-event JSON, folded cycle stacks, Prometheus text).
//
// It is distinct from internal/trace, which regenerates the paper's
// Table 1 numbers; telemetry watches the *runtime* — hypercalls, queue
// sweeps, posted-RX deliveries, TLB traffic, faults and recoveries —
// while trace replays the *paper*.
//
// The zero-overhead contract: every hook in the runtime is a method
// call on a possibly-nil *Lane or *Tracer. A nil receiver returns
// before evaluating anything — in particular before reading the cycle
// meter — so a build with tracing disabled executes the same
// instructions, charges the same simulated cycles, and performs the
// same (zero) allocations as one with no telemetry compiled in at all.
// Even when enabled, Record never touches the simulated cycles.Meter,
// so enabling tracing cannot move a cyc/pkt number.
package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"twindrivers/internal/cycles"
)

// EventKind tags one traced runtime event.
type EventKind uint8

const (
	EvHypercall     EventKind = iota // guest issued a transmit hypercall (A = frames in batch)
	EvBatchServiced                  // a batched hypercall drain completed (A = frames sent)
	EvSweepStart                     // queue service sweep began (A = queue)
	EvSweepEnd                       // queue service sweep ended (A = queue, B = descriptors consumed)
	EvPostedRx                       // posted-RX delivery to a guest (A = frames, B = lost)
	EvTLBHit                         // guest-TLB translation hit (A = vpn)
	EvTLBMiss                        // guest-TLB translation miss, page walk taken (A = vpn)
	EvHostile                        // hostile descriptor contained (A = detail: 0 gtlb violation, 1 corrupt ring)
	EvFault                          // CPU fault escaped the driver instance (A = cpu.FaultKind)
	EvAbort                          // driver instance torn down (A = tx+rx discarded, B = skbs reclaimed)
	EvRevive                         // fresh instance installed and live (A = faults so far)
	EvReplay                         // config-log replay completed during revive (A = events replayed)
	EvPostedTx                       // posted-TX frame handed to the device (A = bytes, B = 1 on copy fallback)
	EvVswitch                        // inter-guest switch delivery (A = dst dom, B = bytes)
	EvSpoof                          // switch rejected a forged source MAC (A = bytes)
	numEventKinds
)

var kindNames = [numEventKinds]string{
	"hypercall", "batch-serviced", "sweep-start", "sweep-end",
	"posted-rx", "tlb-hit", "tlb-miss", "hostile",
	"fault", "abort", "revive", "replay",
	"posted-tx", "vswitch", "spoof",
}

// String names the event kind as exporters render it.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence. Guest is the owning domain ID (-1
// when the event has no single guest), Cycle the Meter.Lifetime stamp
// of the meter in scope where the event fired, A and B kind-specific
// scalars (documented per kind above). Events carry only scalars so
// recording never allocates.
type Event struct {
	Kind  EventKind
	Guest int32
	Cycle uint64
	A, B  uint64
}

// DefaultLaneEvents is the per-lane ring capacity when the Tracer is
// built with capacity 0.
const DefaultLaneEvents = 4096

// Lane is a fixed-capacity overwrite ring of events with a single
// writer. The twin runs all simulated work on the one goroutine driving
// it, and each service queue writes only its own lane, so lanes need no
// locking.
//
// A nil *Lane is the disabled tracer: Record returns immediately
// without reading the meter.
type Lane struct {
	name  string
	id    int
	ev    []Event
	next  int
	total uint64
}

// Record appends one event stamped with m.Lifetime(). On a nil lane it
// is a no-op that never dereferences m, so call sites pass the meter
// unconditionally and pay nothing when tracing is off. Recording
// overwrites the oldest event once the ring is full and never
// allocates.
func (l *Lane) Record(m *cycles.Meter, k EventKind, guest int32, a, b uint64) {
	if l == nil {
		return
	}
	var cyc uint64
	if m != nil {
		cyc = m.Lifetime()
	}
	l.ev[l.next] = Event{Kind: k, Guest: guest, Cycle: cyc, A: a, B: b}
	l.next++
	if l.next == len(l.ev) {
		l.next = 0
	}
	l.total++
}

// Name returns the lane's display name ("backend/q3", "backend/ctl").
func (l *Lane) Name() string { return l.name }

// ID returns the lane's stable index within its Tracer.
func (l *Lane) ID() int { return l.id }

// Recorded returns the number of events ever recorded, including any
// that have since been overwritten.
func (l *Lane) Recorded() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Events returns the retained events, oldest first.
func (l *Lane) Events() []Event {
	if l == nil {
		return nil
	}
	if l.total <= uint64(len(l.ev)) {
		out := make([]Event, l.next)
		copy(out, l.ev[:l.next])
		return out
	}
	out := make([]Event, 0, len(l.ev))
	out = append(out, l.ev[l.next:]...)
	out = append(out, l.ev[:l.next]...)
	return out
}

// Tracer owns a set of lanes. Lane creation is mutex-guarded (it
// happens at machine construction, off the hot path); recording is
// per-lane and lock-free.
type Tracer struct {
	mu      sync.Mutex
	perLane int
	lanes   []*Lane
}

// New builds a Tracer whose lanes each retain the most recent perLane
// events (DefaultLaneEvents if perLane <= 0).
func New(perLane int) *Tracer {
	if perLane <= 0 {
		perLane = DefaultLaneEvents
	}
	return &Tracer{perLane: perLane}
}

// NewLane registers a named lane. On a nil Tracer it returns a nil
// Lane, which is the disabled no-op recorder.
func (t *Tracer) NewLane(name string) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{name: name, id: len(t.lanes), ev: make([]Event, t.perLane)}
	t.lanes = append(t.lanes, l)
	return l
}

// Lanes returns the registered lanes in creation order.
func (t *Tracer) Lanes() []*Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Lane, len(t.lanes))
	copy(out, t.lanes)
	return out
}

// Recorded returns the total events recorded across all lanes.
func (t *Tracer) Recorded() uint64 {
	var n uint64
	for _, l := range t.Lanes() {
		n += l.Recorded()
	}
	return n
}

// CountKind returns how many retained events of kind k the tracer
// holds across all lanes.
func (t *Tracer) CountKind(k EventKind) int {
	n := 0
	for _, l := range t.Lanes() {
		for _, e := range l.Events() {
			if e.Kind == k {
				n++
			}
		}
	}
	return n
}

// Digest returns a sha256 hex digest over every retained event in lane
// order — the telemetry analogue of the chaos soak's frame digest: two
// seeded runs with the same configuration must produce the same value.
func (t *Tracer) Digest() string {
	h := sha256.New()
	var buf [29]byte
	for _, l := range t.Lanes() {
		h.Write([]byte(l.Name()))
		h.Write([]byte{0})
		for _, e := range l.Events() {
			buf[0] = byte(e.Kind)
			binary.LittleEndian.PutUint32(buf[1:], uint32(e.Guest))
			binary.LittleEndian.PutUint64(buf[5:], e.Cycle)
			binary.LittleEndian.PutUint64(buf[13:], e.A)
			binary.LittleEndian.PutUint64(buf[21:], e.B)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
