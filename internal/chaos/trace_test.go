package chaos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twindrivers/internal/drivermodel"
	"twindrivers/internal/telemetry"
)

// Telemetry under chaos: the seeded soak's event stream must be as
// deterministic as its frame digest, and a traced soak must export a
// valid Chrome trace with per-queue lanes and fault→recovery spans —
// the artifacts cmd/twintrace ships and CI uploads.

// tracedSmoke runs the canonical soak with a fresh tracer
// attached and returns the tracer and report.
func tracedSmoke(t *testing.T, backend string, seed uint64) (*telemetry.Tracer, *Report) {
	t.Helper()
	cfg := smokeConfig(backend)
	cfg.Seed = seed
	cfg.Steps = 120
	cfg.Trace = telemetry.New(0)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Trace, rep
}

// TestSoakTraceDigestDeterministic mirrors TestSoakDeterministic at the
// telemetry layer: same seed and config, fresh tracers, byte-identical
// event-stream digests; a different seed diverges.
func TestSoakTraceDigestDeterministic(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		t.Run(backend, func(t *testing.T) {
			trA, repA := tracedSmoke(t, backend, 0xC4A05EED)
			trB, repB := tracedSmoke(t, backend, 0xC4A05EED)
			if trA.Recorded() == 0 {
				t.Fatal("traced soak recorded no events")
			}
			if repA.TraceDigest == "" || repA.TraceDigest != trA.Digest() {
				t.Fatalf("report trace digest %q does not match tracer %q", repA.TraceDigest, trA.Digest())
			}
			if repA.TraceDigest != repB.TraceDigest {
				t.Fatalf("same seed, different trace digests:\n%s\n%s", repA.TraceDigest, repB.TraceDigest)
			}
			trC, repC := tracedSmoke(t, backend, 0xC4A05EEE)
			if repC.TraceDigest == repA.TraceDigest {
				t.Fatal("different seeds produced identical trace digests")
			}
			_ = trB
			_ = trC
		})
	}
}

// TestSoakTraceArtifact exports a traced soak as Chrome trace JSON and
// asserts what the acceptance criteria name: the artifact validates,
// has a lane per service queue plus the control lane, and contains at
// least one fault→recovery span.
func TestSoakTraceArtifact(t *testing.T) {
	tr, rep := tracedSmoke(t, "e1000", 0xC4A05EED)
	if rep.Recoveries == 0 {
		t.Fatal("soak saw no recoveries; fault→recovery spans untestable")
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("soak trace fails validation: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes, faultSpans, sweepSpans := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			if n, ok := e.Args["name"].(string); ok && strings.Contains(n, "/q") {
				lanes++
			}
		case e.Ph == "X" && e.Name == "fault→recovery":
			faultSpans++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "sweep q"):
			sweepSpans++
		}
	}
	if lanes == 0 {
		t.Error("no per-queue lanes in exported trace")
	}
	if faultSpans == 0 {
		t.Error("no fault→recovery spans in exported trace")
	}
	if sweepSpans == 0 {
		t.Error("no queue sweep spans in exported trace")
	}
}
