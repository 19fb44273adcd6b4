package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. parent is
// the index+1 of the enclosing span (0 = top level).
type span struct {
	name       string
	arg        int64 // machine index, or simulated µs reached by a Run slice
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory for the traced run; a nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tr is nil).
func (tr *tracer) begin(name string, arg int64) int {
	if tr == nil {
		return 0
	}
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{name: name, arg: arg, parent: parent, start: time.Since(tr.t0)})
	id := len(tr.spans)
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	tr.spans[id-1].end = time.Since(tr.t0)
	tr.open = tr.open[:len(tr.open)-1]
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (tr *tracer) writeChrome(path string, meta map[string]any) error {
	evs := make([]chromeEvent, 0, len(tr.spans))
	for i, s := range tr.spans {
		evs = append(evs, chromeEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "arg": s.arg},
		})
	}
	out, err := json.Marshal(map[string]any{"traceEvents": evs, "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
