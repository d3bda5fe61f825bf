package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span threads: the timed cloud's scanner calls, the twin's layer calls,
// and the leaf replay.
const (
	tidScanner = 1
	tidTwin    = 2
	tidReplay  = 3
)

// span is one recorded call into a layer: wall interval since the
// recorder started, the process CPU time spent inside it, the span that
// caused it (-1 for a root) and the sweep it belongs to.
type span struct {
	name       string
	tid        int
	parent     int
	sweep      int
	start, end time.Duration
	cpu        time.Duration
}

// recorder keeps spans in memory; they are written out once, at the end of
// the run.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a begun span awaiting its end.
type openSpan struct {
	id   int
	cpu0 time.Duration
}

func (r *recorder) begin(name string, tid, parent, sweep int) openSpan {
	r.spans = append(r.spans, span{name: name, tid: tid, parent: parent, sweep: sweep, start: time.Since(r.t0)})
	return openSpan{id: len(r.spans) - 1, cpu0: cpuNow()}
}

// end closes the span and returns its CPU time.
func (r *recorder) end(o openSpan) time.Duration {
	cpu := cpuNow() - o.cpu0
	s := &r.spans[o.id]
	s.end = time.Since(r.t0)
	s.cpu = cpu
	return cpu
}

// chromeEvent is one Chrome trace-event record, in the shape
// cmd/tracecheck validates and Perfetto loads.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Seq  *uint64           `json:"seq,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome exports the spans as Chrome trace JSON: metadata rows naming
// the process and threads, then one complete ("X") event per span in start
// order. Spans are appended as they begin, so index order is (ts, seq)
// order.
func (r *recorder) writeChrome(path, process string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": process}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: tidScanner, Args: map[string]string{"name": "timed cloud: Scanner.Sweep, WriteJSON"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: tidTwin, Args: map[string]string{"name": "twin cloud: layer calls"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: tidReplay, Args: map[string]string{"name": "leaf replay"}},
	}
	for i, s := range r.spans {
		seq := uint64(i)
		dur := float64(s.end-s.start) / 1e3
		events = append(events, chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: &dur,
			PID: 1, TID: s.tid, Seq: &seq,
			Args: map[string]string{
				"sweep":  strconv.Itoa(s.sweep),
				"parent": strconv.Itoa(s.parent),
				"cpu_us": strconv.FormatFloat(float64(s.cpu)/1e3, 'f', 3, 64),
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ns", events}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace: %w", err)
	}
	return nil
}
