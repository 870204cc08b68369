// Command twintrace runs any registered experiment with runtime
// telemetry on and writes the observability artifacts: a Chrome
// trace-event JSON (open it in chrome://tracing or ui.perfetto.dev —
// per-queue lanes, fault→recovery spans), a folded-stacks
// cycle profile (feed it to flamegraph.pl or speedscope), and the
// metrics registry snapshot as JSON and Prometheus text.
//
// Usage:
//
//	twintrace -experiment soak -quick          # traced chaos soak
//	twintrace -experiment mq -out artifacts    # traced mq sweep
//	twintrace -list
//
// Tracing attaches through a process-wide telemetry session, so the
// experiment code runs unmodified; it never charges the simulated
// cycle meters, so every number an experiment prints is identical to
// an untraced run. The exported trace is validated (well-formed,
// nonzero events, spans nest) before twintrace exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"twindrivers"
	"twindrivers/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "soak", "experiment id to run traced (see -list)")
	quick := flag.Bool("quick", false, "fewer packets / steps per measurement")
	list := flag.Bool("list", false, "list experiments and exit")
	out := flag.String("out", "trace-artifacts", "directory to write artifacts into")
	events := flag.Int("events", 0, "per-lane event-ring capacity (0 = default 4096, keeps the most recent)")
	flag.Parse()

	if *list {
		for _, e := range twindrivers.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "twintrace: "+format+"\n", args...)
		os.Exit(1)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("%v", err)
	}
	sess := telemetry.StartSession(telemetry.New(*events))
	defer telemetry.EndSession()

	if err := twindrivers.RunExperiment(os.Stdout, *experiment, *quick); err != nil {
		fail("experiment %s: %v", *experiment, err)
	}
	if sess.Tracer.Recorded() == 0 {
		fail("experiment %s recorded no telemetry events", *experiment)
	}

	write := func(name string, emit func(*os.File) error) string {
		path := filepath.Join(*out, *experiment+name)
		f, err := os.Create(path)
		if err != nil {
			fail("%v", err)
		}
		if err := emit(f); err != nil {
			f.Close()
			fail("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fail("closing %s: %v", path, err)
		}
		return path
	}

	tracePath := write("_trace.json", func(f *os.File) error {
		return telemetry.WriteChromeTrace(f, sess.Tracer)
	})
	// Refuse to ship an artifact the viewer would choke on.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		fail("%v", err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		fail("invalid artifact %s: %v", tracePath, err)
	}
	foldedPath := write("_folded.txt", func(f *os.File) error {
		return sess.Folded.Write(f)
	})
	metricsJSON := write("_metrics.json", func(f *os.File) error {
		return sess.Registry.WriteJSON(f)
	})
	metricsProm := write("_metrics.prom", func(f *os.File) error {
		return sess.Registry.WritePrometheus(f)
	})

	lanes := sess.Tracer.Lanes()
	fmt.Printf("\ntwintrace: %d events across %d lanes, digest %s\n",
		sess.Tracer.Recorded(), len(lanes), sess.Tracer.Digest()[:16])
	for _, path := range []string{tracePath, foldedPath, metricsJSON, metricsProm} {
		fmt.Printf("twintrace: wrote %s\n", path)
	}
}
