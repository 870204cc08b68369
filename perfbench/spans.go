package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"twindrivers/internal/telemetry"
)

// callID names one public call the benchmark makes into the system. Every
// call is counted; with tracing on, each one is also recorded as a span.
type callID uint8

const (
	cAssemble callID = iota // asm.AssembleWithEquates
	cDerive                 // rewrite.Rewrite
	cBoot                   // core.NewTwinMachineModel
	cRegister               // Twin.RegisterGuestMAC
	cGuestTx                // Twin.GuestTransmit
	cStage                  // Twin.StageTransmitBatch
	cPostTx                 // Twin.PostTxDescriptors
	cService                // Twin.ServiceRings
	cInject                 // Device.Inject
	cIRQ                    // Twin.HandleIRQ
	cPostRx                 // Twin.PostRxBuffers
	cDeliver                // Twin.DeliverPending / DeliverPendingBatch / DeliverPendingPosted
	cRecover                // recovery.Supervisor.Recover
	cWire                   // the device's wire callback (the benchmark's own byte check)
	numCalls
)

// callNames are the span and metric names of the calls.
var callNames = [numCalls]string{
	"asm.assemble", "rewrite.derive", "core.boot", "core.register_mac",
	"core.guest_transmit", "core.stage", "core.post_tx", "core.service",
	"nic.inject", "core.irq", "core.post_rx", "core.deliver",
	"recovery.recover", "nic.wire",
}

// hostCalls are the calls whose host latency distribution is reported as
// host.<x>.p50_us / host.<x>.p99_us, with <x> the short name given here.
var hostCalls = []struct {
	id   callID
	name string
}{
	{cAssemble, "assemble"}, {cDerive, "derive"}, {cBoot, "boot"},
	{cGuestTx, "guest_transmit"}, {cStage, "stage"}, {cPostTx, "post_tx"},
	{cService, "service"}, {cInject, "inject"}, {cIRQ, "irq"},
	{cPostRx, "post_rx"}, {cDeliver, "deliver"}, {cRecover, "recover"},
}

// layerOf groups calls into the layers whose self time the traced run
// reports; time outside every span is the benchmark's own ("bench").
var layerOf = [numCalls]string{
	cAssemble: "asm", cDerive: "rewrite", cBoot: "core_boot", cRegister: "core_boot",
	cGuestTx: "core_tx", cStage: "core_tx", cPostTx: "core_tx", cService: "core_tx",
	cInject: "nic", cWire: "nic",
	cIRQ: "core_rx", cPostRx: "core_rx", cDeliver: "core_rx",
	cRecover: "recovery",
}

var layers = []string{"asm", "rewrite", "core_boot", "core_tx", "core_rx", "nic", "recovery", "bench"}

// span is one recorded call: host nanoseconds since the tracer's base,
// the enclosing span (-1 at top level), the burst the call belongs to (0
// when it serves several bursts) and the frames it moved.
type span struct {
	id     callID
	parent int32
	burst  uint32
	frames int32
	start  int64
	end    int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(id callID, burst uint32) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, burst: burst, start: int64(time.Since(t.base))})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32, frames int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.spans[i].frames = int32(frames)
	t.stack = t.stack[:len(t.stack)-1]
}

// callStats summarises the spans of one call.
type callStats struct {
	frames int64
	total  int64   // host ns inside the call
	self   int64   // host ns inside the call but outside its child spans
	durs   []int64 // per-call host ns
}

// summarize folds spans[from:to] into per-call statistics, adding to st.
// Parent indices refer to the whole slice, so a child's time is taken off
// its parent's self time wherever the window starts.
func summarize(st *[numCalls]callStats, spans []span, from, to int) {
	child := make([]int64, len(spans))
	for i := from; i < to; i++ {
		if p := spans[i].parent; p >= 0 {
			child[p] += spans[i].end - spans[i].start
		}
	}
	for i := from; i < to; i++ {
		s := spans[i]
		d := s.end - s.start
		c := &st[s.id]
		c.frames += int64(s.frames)
		c.total += d
		c.self += d - child[i]
		c.durs = append(c.durs, d)
	}
}

func sortDurations(st *[numCalls]callStats) {
	for i := range st {
		sort.Slice(st[i].durs, func(a, b int) bool { return st[i].durs[a] < st[i].durs[b] })
	}
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// writeChromeTrace writes spans as Chrome trace-event JSON (one lane, "X"
// spans in microseconds) and checks the artifact with the repository's
// own validator: well-formed, and every span nested in its parent.
func writeChromeTrace(path string, spans []span) error {
	evs := []map[string]any{{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]any{"name": "perfbench"},
	}, {
		"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
		"args": map[string]any{"name": "driver"},
	}}
	for i, s := range spans {
		evs = append(evs, map[string]any{
			"name": callNames[s.id], "ph": "X", "pid": 1, "tid": 1,
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]any{"span": i, "parent": s.parent, "burst": s.burst, "frames": s.frames},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		return fmt.Errorf("trace artifact: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
