package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// CyclesPerMicrosecond converts simulated cycle stamps to the trace
// viewer's microsecond timeline (the simulated machine is a 3 GHz
// part, matching the paper's hardware).
const CyclesPerMicrosecond = 3000.0

func toMicros(cyc uint64) float64 { return float64(cyc) / CyclesPerMicrosecond }

// WriteChromeTrace exports the tracer in Chrome trace-event (catapult)
// JSON: each lane becomes a named thread, queue
// sweeps and fault→recovery windows become complete ("X") spans, and
// everything else becomes instant events, so a soak or mq sweep opens
// directly in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	if t == nil {
		return errors.New("telemetry: no tracer to export")
	}
	var evs []map[string]any
	evs = append(evs, map[string]any{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]any{"name": "twindrivers"},
	})
	for _, l := range t.Lanes() {
		tid := l.ID() + 1
		evs = append(evs, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
			"args": map[string]any{"name": l.Name()},
		})
		evs = append(evs, laneEvents(l, tid)...)
	}
	out := map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// laneEvents renders one lane: sweep start/end pairs and fault→revive
// pairs fold into spans, the rest into instants. Pairs chopped by the
// ring (a start overwritten while its end survived, or a fault on a
// twin that never revived) degrade to instants rather than unbalanced
// spans, so exported spans always nest.
func laneEvents(l *Lane, tid int) []map[string]any {
	var out []map[string]any
	var pendSweep, pendFault *Event
	instant := func(e Event, name string) {
		out = append(out, map[string]any{
			"name": name, "ph": "i", "ts": toMicros(e.Cycle), "pid": 1, "tid": tid, "s": "t",
			"args": map[string]any{"guest": e.Guest, "a": e.A, "b": e.B},
		})
	}
	span := func(start, end Event, name string, args map[string]any) {
		dur := 0.0
		if end.Cycle > start.Cycle {
			dur = toMicros(end.Cycle - start.Cycle)
		}
		out = append(out, map[string]any{
			"name": name, "ph": "X", "ts": toMicros(start.Cycle), "dur": dur,
			"pid": 1, "tid": tid, "args": args,
		})
	}
	for _, e := range l.Events() {
		e := e
		switch e.Kind {
		case EvSweepStart:
			if pendSweep != nil {
				instant(*pendSweep, pendSweep.Kind.String())
			}
			pendSweep = &e
		case EvSweepEnd:
			if pendSweep != nil {
				span(*pendSweep, e, fmt.Sprintf("sweep q%d", e.A),
					map[string]any{"queue": e.A, "consumed": e.B})
				pendSweep = nil
			} else {
				instant(e, e.Kind.String())
			}
		case EvFault:
			if pendFault != nil {
				instant(*pendFault, pendFault.Kind.String())
			}
			pendFault = &e
		case EvRevive:
			if pendFault != nil {
				span(*pendFault, e, "fault→recovery",
					map[string]any{"guest": pendFault.Guest, "fault_kind": pendFault.A, "faults": e.A})
				pendFault = nil
			} else {
				instant(e, e.Kind.String())
			}
		default:
			instant(e, e.Kind.String())
		}
	}
	if pendSweep != nil {
		instant(*pendSweep, pendSweep.Kind.String())
	}
	if pendFault != nil {
		instant(*pendFault, pendFault.Kind.String())
	}
	return out
}

// chromeEvent is the subset of the trace-event schema the validator
// reads back.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// ValidateChromeTrace checks an exported artifact: well-formed JSON in
// the traceEvents envelope, at least one non-metadata event, and every
// "X" span properly nested within its (pid, tid) lane. CI runs this on
// the uploaded artifacts; cmd/twintrace refuses to write an artifact
// that fails it.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("telemetry: malformed chrome trace: %w", err)
	}
	real := 0
	spans := map[[2]int][]chromeEvent{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
		case "X":
			real++
			key := [2]int{e.Pid, e.Tid}
			spans[key] = append(spans[key], e)
		case "i":
			real++
		default:
			return fmt.Errorf("telemetry: unexpected event phase %q", e.Ph)
		}
	}
	if real == 0 {
		return errors.New("telemetry: trace has no events")
	}
	// Timestamps are cycle counts divided by the clock rate, so ts+dur
	// of one span and the ts of the next can differ by a float ulp even
	// when the underlying cycles are exactly adjacent; eps is well under
	// one cycle (1/3000 µs) and absorbs that.
	const eps = 1e-4
	for key, lane := range spans {
		sort.Slice(lane, func(i, j int) bool {
			if lane[i].Ts != lane[j].Ts {
				return lane[i].Ts < lane[j].Ts
			}
			return lane[i].Dur > lane[j].Dur // outermost first at equal start
		})
		var stack []chromeEvent
		for _, s := range lane {
			end := s.Ts + s.Dur
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= s.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if end > top.Ts+top.Dur+eps {
					return fmt.Errorf("telemetry: spans overlap without nesting on tid %d: %q [%g,%g] vs %q [%g,%g]",
						key[1], top.Name, top.Ts, top.Ts+top.Dur, s.Name, s.Ts, end)
				}
			}
			stack = append(stack, s)
		}
	}
	return nil
}
