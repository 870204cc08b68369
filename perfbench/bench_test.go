package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The determinism seed and the held-out seed (README.md records both).
const (
	determinismSeed = 1
	heldOutSeed     = 20091
)

// TestDeterminism runs every workload twice on one seed and once on a
// held-out seed: the simulated metrics of the two runs agree exactly and
// every run passes its byte and ledger checks.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, _, err := measurePass(w, determinismSeed, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _, err := measurePass(w, determinismSeed, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(a.sim) == 0 {
			t.Fatalf("%s: no simulated metrics", w.name)
		}
		for k, v := range a.sim {
			if b.sim[k] != v {
				t.Errorf("%s: %s is %v then %v on seed %d", w.name, k, v, b.sim[k], determinismSeed)
			}
		}
		h, _, err := measurePass(w, heldOutSeed, false)
		if err != nil {
			t.Fatalf("%s seed %d: %v", w.name, heldOutSeed, err)
		}
		for _, p := range []*pass{a, b, h} {
			if p.bad != 0 {
				t.Errorf("%s: %d failures: %v", w.name, p.bad, p.errs)
			}
		}
	}
}

// TestByteMismatchFails corrupts the expected bytes of one frame: the
// wire check must count it.
func TestByteMismatchFails(t *testing.T) {
	r, err := bringUp(specByName("small-b1"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := r.guests[0]
	rec := r.txFrame(g, wireDst, 60)
	sent := append([]byte(nil), rec.data...)
	rec.data[len(rec.data)-1] ^= 0xFF
	if err := r.t.GuestTransmit(r.d, sent); err != nil {
		t.Fatal(err)
	}
	if r.led.bad != 1 {
		t.Fatalf("a frame whose bytes differ from the generated ones counted %d failures", r.led.bad)
	}
}

// TestTraceArtifact writes a traced pass as Chrome trace JSON (validated
// by telemetry.ValidateChromeTrace on the way out) and derives per-layer
// self time from it.
func TestTraceArtifact(t *testing.T) {
	for _, name := range []string{"small-b1", "stream-mtu"} {
		p, _, err := measurePass(specByName(name), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".trace.json")
		if err := writeChromeTrace(path, p.spans); err != nil {
			t.Fatal(err)
		}
		nested := 0
		for _, s := range p.spans {
			if s.id == cWire {
				if s.parent < 0 {
					t.Fatalf("%s: wire span outside the call that transmitted", name)
				}
				nested++
			}
		}
		if nested == 0 {
			t.Fatalf("%s: no wire spans", name)
		}
		m := map[string]float64{}
		traceMetrics(m, []*pass{p})
		sum := 0.0
		for _, l := range layers {
			sum += m["trace.self_frac."+l]
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: layer self-time shares sum to %v", name, sum)
		}
		if m["trace.self_frac.core_tx"] <= 0 || m["trace.self_frac.core_rx"] <= 0 {
			t.Errorf("%s: no self time in the transmit or receive layers: %v", name, m)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables have %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, table has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, table has %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		e := doc.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: %+v, table has %+v", i, e, d)
		}
	}
}
