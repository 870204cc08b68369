package main

import (
	"testing"

	"twindrivers/internal/cost"
)

// calibrate runs one direction of the e1000 stream the way the benchmark
// drives it (1 guest, cost.MTU frames, batch 32, 64 warmup + 512 measured
// frames) and returns the critical-path cycles per frame.
func calibrate(t *testing.T, tx bool) float64 {
	t.Helper()
	w := &spec{name: "calibration", kind: stream, backend: "e1000", guests: 1,
		sizes: []int{cost.MTU}, sizeWeights: []int{1}, batch: 32}
	r, err := bringUp(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := r.guests[0]
	burst := func() {
		if !tx {
			r.receiveBurst(g, w.batch)
			return
		}
		recs := make([]*frameRec, w.batch)
		for i := range recs {
			recs[i] = r.txFrame(g, wireDst, cost.MTU)
		}
		r.offerTx(g, recs)
		r.service()
	}
	for i := 0; i < 64/w.batch; i++ {
		burst()
	}
	r.mm.Reset()
	r.t.ResetQueueMeters()
	r.m.HV.ResetStats()
	for i := 0; i < 512/w.batch; i++ {
		burst()
	}
	r.led.check()
	if r.led.bad > 0 || r.unexpected > 0 {
		t.Fatalf("calibration run failed its checks: %v", r.led.errs)
	}
	return float64(r.critical()) / 512
}

// TestCalibrationMatchesNetbench pins the outside driver to netpath's
// charging: the same phases, measured the benchmark's way, reproduce the
// committed e1000/tx/batch=32 and e1000/rx/batch=32 rows of
// bench/BENCH_batch.json exactly.
func TestCalibrationMatchesNetbench(t *testing.T) {
	for _, c := range []struct {
		name string
		tx   bool
		want float64
	}{
		{"e1000/tx/batch=32", true, 9471.875},
		{"e1000/rx/batch=32", false, 17323.0703125},
	} {
		if got := calibrate(t, c.tx); got != c.want {
			t.Errorf("%s: %v cyc/pkt, bench/BENCH_batch.json has %v", c.name, got, c.want)
		}
	}
}
