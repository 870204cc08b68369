// Command perfbench is the repository benchmark: it drives the twin from
// outside, through public calls only, on one of three closed-loop
// workloads, checks every frame's bytes and the per-guest exactly-once
// ledger, and prints end-to-end metrics (or, traced, per-layer metrics)
// as one JSON object on the last line of standard output.
//
//	go run . --workload stream-mtu --seed 1 --seconds 10 --trace 0
//
// Simulated metrics are fixed by the seed: a run's work is a fixed number
// of frames, repeated in passes (each a fresh bring-up) until the time is
// up. Host metrics are medians over those passes, on process CPU time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
)

func main() {
	wname := flag.String("workload", "", "workload name (small-b1, stream-mtu, tenants-64)")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating measured passes")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory for the traced run's Chrome trace")
	flag.Parse()
	w := specByName(*wname)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wname)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, e)
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// result is one run: every metric by name plus the correctness verdict.
type result struct {
	metrics   map[string]float64
	correct   bool
	attempted uint64
	failed    uint64
	errs      []string
}

// pass is one bring-up plus one measured phase.
type pass struct {
	traced bool
	sim    map[string]float64 // fixed by the seed
	host   map[string]float64 // host-clock measurements
	spans  []span             // traced passes: every span
	mark   int                // index of the first measured-phase span
	window int64              // measured-phase host ns
	frames uint64             // honest frames completed in the measured phase
	calls  uint64
	bad    uint64
	errs   []string
}

// run repeats passes until the time is up (at least minPasses; traced
// runs alternate untraced and traced passes so tracing overhead can be
// taken against the same run).
func run(w *spec, seed int64, d time.Duration, traced bool, traceOut string) (*result, error) {
	const minPasses, minSetups = 4, 12
	start := time.Now()
	var passes []*pass
	var setups []float64
	var last *rig
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		p, r, err := measurePass(w, seed, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if !p.traced {
			setups = append(setups, p.host["setup_s"])
		}
		last = r
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d traced=%v setup_s=%.4f host_pps=%.1f\n",
			w.name, i, p.traced, p.host["setup_s"], p.host["host_pps"])
	}
	// Long passes leave few bring-ups; set up alone until there are
	// enough for a steady median.
	for len(setups) < minSetups {
		runtime.GC()
		c0 := cpuNow()
		if _, err := bringUp(w, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	res := &result{metrics: map[string]float64{}}
	for _, p := range passes {
		res.attempted += p.calls
		res.failed += p.bad
		if len(res.errs) < 8 {
			res.errs = append(res.errs, p.errs...)
		}
	}
	// The simulated metrics of every pass must agree exactly.
	for i, p := range passes[1:] {
		for k, v := range passes[0].sim {
			if p.sim[k] != v {
				res.failed++
				res.errs = append(res.errs, fmt.Sprintf("pass %d: simulated %s = %v, pass 0 had %v", i+1, k, p.sim[k], v))
			}
		}
	}
	for k, v := range passes[0].sim {
		res.metrics[k] = v
	}
	var plain, withSpans []*pass
	for _, p := range passes {
		if p.traced {
			withSpans = append(withSpans, p)
		} else {
			plain = append(plain, p)
		}
	}
	res.metrics["setup_s"] = median(setups)
	for _, k := range []string{"host_pps", "host.allocs_per_pkt", "host.alloc_bytes_per_pkt",
		"host.cpu_wall_ratio", "asm.assemble_ms", "rewrite.derive_ms", "core.boot_ms", "recovery.recover_ms"} {
		res.metrics[k] = medianOf(plain, k)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last)
	res.metrics["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	res.metrics["host.gc_cpu_frac"] = ms.GCCPUFraction
	res.metrics["ledger.fail_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	res.metrics["call_ok_frac"] = 1 - res.metrics["ledger.fail_frac"]
	if len(withSpans) > 0 {
		res.metrics["trace.overhead_frac"] = medianOf(plain, "host_pps")/medianOf(withSpans, "host_pps") - 1
		traceMetrics(res.metrics, withSpans)
		lp := withSpans[len(withSpans)-1]
		path := filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
		if err := writeChromeTrace(path, lp.spans); err != nil {
			res.failed++
			res.errs = append(res.errs, err.Error())
		}
	}
	res.correct = res.failed == 0
	return res, nil
}

// traceMetrics derives per-call host costs and per-layer self time from
// the traced passes' spans.
func traceMetrics(m map[string]float64, ps []*pass) {
	var st, su [numCalls]callStats
	var window int64
	var frames uint64
	measured := 0
	for _, p := range ps {
		summarize(&su, p.spans, 0, p.mark)
		summarize(&st, p.spans, p.mark, len(p.spans))
		window += p.window
		frames += p.frames
		measured += len(p.spans) - p.mark
	}
	sortDurations(&st)
	sortDurations(&su)
	for _, id := range []callID{cGuestTx, cStage, cPostTx, cService, cInject, cWire, cIRQ, cPostRx, cDeliver} {
		c := st[id]
		v := 0.0
		if c.frames > 0 {
			v = float64(c.total) / float64(c.frames)
		}
		m[callNames[id]+".ns_per_frame"] = v
	}
	for _, hc := range hostCalls {
		c := st[hc.id]
		if hc.id == cAssemble || hc.id == cDerive || hc.id == cBoot {
			c = su[hc.id]
		}
		m["host."+hc.name+".p50_us"] = float64(quantile(c.durs, 0.50)) / 1e3
		m["host."+hc.name+".p99_us"] = float64(quantile(c.durs, 0.99)) / 1e3
	}
	self := map[string]int64{}
	var inside int64
	for id := callID(0); id < numCalls; id++ {
		self[layerOf[id]] += st[id].self
		inside += st[id].self
	}
	self["bench"] = window - inside
	for _, l := range layers {
		m["trace.self_frac."+l] = float64(self[l]) / float64(max(window, 1))
	}
	m["trace.spans_per_frame"] = float64(measured) / float64(max(frames, 1))
}

func medianOf(ps []*pass, k string) float64 {
	var v []float64
	for _, p := range ps {
		v = append(v, p.host[k])
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuNow is the process's CPU time (user + system), from getrusage.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measurePass brings the workload up and runs its measured phase.
func measurePass(w *spec, seed int64, traced bool) (*pass, *rig, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Each phase starts on a collected heap, so no phase pays for the
	// garbage of the one before.
	runtime.GC()
	c0 := cpuNow()
	r, err := bringUp(w, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	setup := cpuNow() - c0

	r.mm.Reset()
	r.t.ResetQueueMeters()
	r.m.HV.ResetStats()
	upcalls0 := r.t.UpcallsPerformed()
	hits0, miss0, viol0 := r.gtlb()
	spoof0, vswDrop0 := r.vswitchDrops()
	r.st = phaseStats{served: map[int]uint64{}, poolFreeMin: -1}
	r.measuring = true
	p := &pass{traced: traced}
	if tr != nil {
		p.mark = len(tr.spans)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	c1, t1 := cpuNow(), time.Now()
	r.drive(w.measure)
	r.drain()
	c2, t2 := cpuNow(), time.Now()
	runtime.ReadMemStats(&ms1)
	r.measuring = false
	if r.fatal != nil {
		return nil, nil, r.fatal
	}
	r.led.check()

	st := &r.st
	n := float64(max(st.completed, 1))
	crit := r.critical()
	sim := map[string]float64{}
	sim["sim_goodput_mbps"] = float64(st.payloadBits) / (float64(crit) / cost.CPUHz) / 1e6
	lat := sortedU64(st.latency)
	sim["sim_lat_p50_kcyc"] = float64(quantileU64(lat, 0.50)) / 1e3
	sim["sim_lat_p99_kcyc"] = float64(quantileU64(lat, 0.99)) / 1e3
	sim["ledger.lat_samples"] = float64(len(lat))
	sim["ledger.loss_frac"] = float64(st.lost) / float64(max(st.offered, 1))
	sim["delivered_frac"] = 1 - sim["ledger.loss_frac"]

	breakdown := r.mm.Breakdown()
	for _, q := range r.qms {
		for c, v := range q.Breakdown() {
			breakdown[c] += v
		}
	}
	sim["sim.domU_cyc_per_pkt"] = float64(breakdown[cycles.CompDomU]) / n
	sim["sim.xen_cyc_per_pkt"] = float64(breakdown[cycles.CompXen]) / n
	sim["sim.dom0_cyc_per_pkt"] = float64(breakdown[cycles.CompDom0]) / n
	sim["sim.driver_cyc_per_pkt"] = float64(breakdown[cycles.CompDriver]) / n
	sim["sim.critical_cyc_per_pkt"] = float64(crit) / n
	sim["xen.hypercalls_per_pkt"] = float64(r.m.HV.Hypercalls) / n
	sim["xen.switches_per_pkt"] = float64(r.m.HV.Switches) / n
	sim["upcall.upcalls_per_pkt"] = float64(r.t.UpcallsPerformed()-upcalls0) / n

	hits1, miss1, viol1 := r.gtlb()
	if lookups := (hits1 - hits0) + (miss1 - miss0); lookups > 0 {
		sim["svm.gtlb_hit_rate"] = float64(hits1-hits0) / float64(lookups)
	}
	sim["svm.gtlb_misses_per_pkt"] = float64(miss1-miss0) / n
	sim["svm.violations"] = float64(viol1 - viol0)

	spoof1, vswDrop1 := r.vswitchDrops()
	sim["vswitch.local_frac"] = float64(st.localDelivered) / n
	sim["vswitch.spoof_dropped"] = float64(spoof1 - spoof0)
	sim["vswitch.rx_dropped"] = float64(vswDrop1 - vswDrop0)
	sim["sched.share_err_pct"] = r.shareErrPct()

	sim["recovery.recoveries"] = float64(st.recoveries)
	if st.recoveries > 0 {
		sim["recovery.mttr_kcyc"] = float64(st.mttrCycles) / float64(st.recoveries) / 1e3
	}
	sim["recovery.lost_rx"] = float64(st.lostRx)
	sim["recovery.retried_tx"] = float64(st.retriedTx)

	sim["drops.gtlb_violation"] = float64(st.dropGTLB)
	sim["drops.oversize"] = float64(st.dropOversize)
	sim["drops.ring_full"] = float64(st.dropRingFull)
	sim["drops.abort_discard"] = float64(st.dropAbort)
	sim["drops.spoof"] = float64(spoof1 - spoof0)

	sim["core.service.calls"] = float64(st.serviceCalls)
	if st.depthSamples > 0 {
		sim["core.tx_ring_depth_mean"] = st.depthSum / st.depthSamples
	}
	sim["core.tx_wait_kcyc_p99"] = float64(quantileU64(sortedU64(st.txWait), 0.99)) / 1e3
	sim["core.rx_pending_max"] = float64(st.rxPendingMax)
	sim["core.pool_free_min"] = float64(max(st.poolFreeMin, 0))
	sim["core.pinned_pages_max"] = float64(st.pinnedMax)

	cpu := (c2 - c1).Seconds()
	host := map[string]float64{
		"setup_s":                  setup.Seconds(),
		"host_pps":                 float64(st.completed) / cpu,
		"host.allocs_per_pkt":      float64(ms1.Mallocs-ms0.Mallocs) / n,
		"host.alloc_bytes_per_pkt": float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
		"host.cpu_wall_ratio":      cpu / t2.Sub(t1).Seconds(),
		"asm.assemble_ms":          r.setupMs[0],
		"rewrite.derive_ms":        r.setupMs[1],
		"core.boot_ms":             r.setupMs[2],
	}
	if st.recoveries > 0 {
		host["recovery.recover_ms"] = float64(st.recoverNs) / float64(st.recoveries) / 1e6
	}
	p.sim, p.host = sim, host
	p.frames = st.completed
	p.window = int64(t2.Sub(t1))
	p.calls = r.attempted
	p.bad = r.unexpected + uint64(r.led.bad)
	p.errs = r.led.errs
	if tr != nil {
		p.spans = tr.spans
	}
	return p, r, nil
}

// gtlb sums the guest translation caches' counters.
func (r *rig) gtlb() (hits, misses, violations uint64) {
	for _, g := range r.guests {
		h, m := r.t.GuestTLBStats(g.dom.ID)
		hits += h
		misses += m
		violations += r.t.GuestTLBViolations(g.dom.ID)
	}
	return
}

func (r *rig) vswitchDrops() (spoof, rx uint64) {
	for _, g := range r.guests {
		spoof += r.t.VswitchSpoofDropped(g.dom.ID)
		rx += r.t.VswitchRxDropped(g.dom.ID)
	}
	return
}

// shareErrPct is the largest relative deviation, in percent, of a guest's
// share of its service queue's transmit descriptors from its DRR weight
// share within that queue (0 without weights). Each queue runs its own
// deficit round robin over the guests sharded onto it, so the queue is
// the scope its fairness is promised in.
func (r *rig) shareErrPct() float64 {
	if len(r.w.weights) == 0 {
		return 0
	}
	served := map[int]uint64{}
	weight := map[int]int{}
	for _, g := range r.guests {
		q := r.t.QueueOf(g.dom.ID)
		served[q] += r.st.served[g.idx]
		weight[q] += r.t.GuestWeight(g.dom.ID)
	}
	worst := 0.0
	for _, g := range r.guests {
		q := r.t.QueueOf(g.dom.ID)
		if served[q] == 0 {
			continue
		}
		want := float64(r.t.GuestWeight(g.dom.ID)) / float64(weight[q])
		got := float64(r.st.served[g.idx]) / float64(served[q])
		worst = math.Max(worst, 100*math.Abs(got-want)/want)
	}
	return worst
}

func sortedU64(v []uint64) []uint64 {
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func quantileU64(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}
