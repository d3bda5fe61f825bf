// Package trace is the reproduction's deterministic tracing layer: a
// span/event model stamped with the *simulated* hypervisor timeline plus a
// per-run sequence number, ring-buffered, and exportable as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// Determinism is the design constraint that shapes everything here. The
// pipeline's results are byte-identical across runs from one seed, and its
// traces must be too, so:
//
//   - Timestamps are never host time. Events are stamped with an explicit
//     simulated timestamp supplied by the caller, and the tracer keeps a
//     *timeline cursor* that instrumentation advances by each stage's
//     modeled elapsed time (the same deterministic list-scheduling model
//     that produces PoolReport.Elapsed) — never by goroutine timing.
//   - Events are only emitted from deterministic single-threaded points
//     (stage coordinators). Code running inside bounded workers — fault
//     injections, lifecycle events fired mid-read — must use Defer instead:
//     deferred events carry no sequence number until Flush sorts them by
//     their content key and folds them in, so host scheduling cannot leak
//     into the export through emission order.
//   - The export sorts by (timestamp, sequence) and renders through
//     encoding/json with fixed field order, so two identical event sets
//     produce identical bytes.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Well-known process IDs of the export: the pipeline's spans live on one
// Perfetto "process", the cloud's fault/lifecycle plane on another.
const (
	PIDPipeline = 1
	PIDCloud    = 2
)

// Event phases (Chrome trace-event "ph" values).
const (
	PhaseComplete = 'X' // a span with a duration
	PhaseInstant  = 'i' // a point event
	PhaseCounter  = 'C' // a counter sample
)

// DefaultCapacity bounds the ring buffer when New is given zero: 64Ki
// events, comfortably a full 15-VM multi-sweep session.
const DefaultCapacity = 1 << 16

// Arg is one key/value annotation on an event. Args are kept as an ordered
// slice (not a map) so the content key used to sort deferred events is
// stable.
type Arg struct {
	Key, Val string
}

// Event is one trace record on the simulated timeline.
type Event struct {
	Seq   uint64
	TS    time.Duration // simulated time
	Dur   time.Duration // span length for PhaseComplete
	Phase byte
	Name  string
	Cat   string
	PID   int
	TID   int
	Args  []Arg
}

// key is the deterministic content ordering used for deferred events, which
// have no meaningful emission order.
func (e *Event) key() string {
	var sb strings.Builder
	sb.WriteString(e.Cat)
	sb.WriteByte(0)
	sb.WriteString(e.Name)
	sb.WriteByte(0)
	for _, a := range e.Args {
		sb.WriteString(a.Key)
		sb.WriteByte(0)
		sb.WriteString(a.Val)
		sb.WriteByte(0)
	}
	return sb.String()
}

// Tracer records events into a fixed-capacity ring buffer. All methods are
// nil-receiver-safe: instrumentation sites hold a possibly-nil *Tracer and
// call it unconditionally, so the disabled path costs one nil check.
type Tracer struct {
	cap int // ring capacity; immutable after construction

	mu      sync.Mutex
	buf     []Event       // guarded by mu; ring, oldest overwritten once full
	next    int           // guarded by mu; ring write index
	full    bool          // guarded by mu
	seq     uint64        // guarded by mu
	dropped uint64        // guarded by mu
	cursor  time.Duration // guarded by mu
	pending []Event       // guarded by mu; deferred events awaiting Flush
}

// New creates a tracer with the given ring capacity (DefaultCapacity when
// n <= 0).
func New(n int) *Tracer {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Tracer{cap: n, buf: make([]Event, 0, n)}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Cursor returns the current position of the simulated timeline cursor.
func (t *Tracer) Cursor() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursor
}

// Advance moves the timeline cursor forward by d (negative d is ignored)
// and returns the new position.
func (t *Tracer) Advance(d time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if d > 0 {
		t.cursor += d
	}
	return t.cursor
}

// AlignTo fast-forwards the cursor to ts if it lags behind it. Sweep
// drivers call this with the simulated clock at a quiesced boundary, so
// multi-sweep traces stay anchored to hypervisor time without ever reading
// the clock from a racing context.
func (t *Tracer) AlignTo(ts time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts > t.cursor {
		t.cursor = ts
	}
}

// record appends one event to the ring. Caller holds mu.
func (t *Tracer) record(e Event) {
	e.Seq = t.seq
	t.seq++
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % t.cap
	t.full = true
	t.dropped++
}

// Emit records one fully specified event. Only call from deterministic
// single-threaded points (stage coordinators); worker-context code must use
// Defer.
func (t *Tracer) Emit(phase byte, name, cat string, pid, tid int, ts, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.record(Event{Phase: phase, Name: name, Cat: cat, PID: pid, TID: tid, TS: ts, Dur: dur, Args: args})
}

// Complete records a span [ts, ts+dur) — the workhorse for pipeline tasks
// and stage envelopes.
func (t *Tracer) Complete(name, cat string, pid, tid int, ts, dur time.Duration, args ...Arg) {
	t.Emit(PhaseComplete, name, cat, pid, tid, ts, dur, args...)
}

// Instant records a point event at ts.
func (t *Tracer) Instant(name, cat string, pid, tid int, ts time.Duration, args ...Arg) {
	t.Emit(PhaseInstant, name, cat, pid, tid, ts, 0, args...)
}

// Span is an open duration event: nothing is recorded until End, which
// renders it as one Complete event from its start timestamp to the cursor.
// A span from a nil tracer is nil and End on it is a no-op, mirroring the
// nil-safety of the Tracer methods.
type Span struct {
	t        *Tracer
	name     string
	cat      string
	pid, tid int
	start    time.Duration
}

// StartSpan opens a span whose eventual Complete event starts at ts.
// Like Emit, only call from deterministic single-threaded points; the
// caller owns the span and must End it exactly once.
//
//modsafe:acquires tracer-span
func (t *Tracer) StartSpan(name, cat string, pid, tid int, ts time.Duration) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, pid: pid, tid: tid, start: ts}
}

// End closes the span, recording it as a Complete event lasting from the
// span's start to the tracer's current cursor.
//
//modsafe:releases tracer-span
func (s *Span) End(args ...Arg) {
	if s == nil || s.t == nil {
		return
	}
	s.t.Complete(s.name, s.cat, s.pid, s.tid, s.start, s.t.Cursor()-s.start, args...)
	s.t = nil
}

// Defer buffers an event from a non-deterministic context (a bounded
// worker, a fault-plan read hook). Deferred events receive no sequence
// number and no timestamp until Flush, which orders them by content — so
// the same set of deferred events yields the same export bytes regardless
// of the host interleaving that produced them.
func (t *Tracer) Defer(name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending = append(t.pending, Event{Phase: PhaseInstant, Name: name, Cat: cat, PID: PIDCloud, Args: args})
}

// Flush stamps every pending deferred event at the current cursor, orders
// them deterministically by content key, and moves them into the ring.
// Sweep drivers flush at sweep boundaries (every in-flight worker has
// joined, so the pending set is interleaving-independent); Export flushes
// once more as a backstop.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
}

func (t *Tracer) flushLocked() {
	if len(t.pending) == 0 {
		return
	}
	sort.SliceStable(t.pending, func(i, j int) bool {
		return t.pending[i].key() < t.pending[j].key()
	})
	for _, e := range t.pending {
		e.TS = t.cursor
		t.record(e)
	}
	t.pending = t.pending[:0]
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Reset discards all recorded and pending events and rewinds the sequence
// counter and cursor — benchmark iterations use it to keep memory flat.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.seq = 0
	t.dropped = 0
	t.cursor = 0
	t.pending = t.pending[:0]
}

// Events returns the ring's events ordered by (timestamp, sequence),
// flushing pending deferred events first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// chromeEvent is the Chrome trace-event JSON shape. Field order is fixed by
// the struct; Args render as a map, which encoding/json marshals with
// sorted keys — everything about the byte stream is deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Seq   uint64            `json:"seq"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeJSON writes the trace in Chrome trace-event format: metadata
// naming the processes and worker lanes, then every event ordered by
// (simulated timestamp, sequence). Two runs from one seed produce
// byte-identical output.
//
//moddet:sink trace export must be byte-identical across runs
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: tracer is nil (tracing not enabled)")
	}
	events := t.Events()

	type lane struct{ pid, tid int }
	lanes := make(map[lane]bool)
	pids := make(map[int]bool)
	for _, e := range events {
		lanes[lane{e.PID, e.TID}] = true
		pids[e.PID] = true
	}
	var meta []chromeEvent
	addMeta := func(name string, pid, tid int, label string) {
		meta = append(meta, chromeEvent{
			Name: name, Cat: "__metadata", Ph: "M", PID: pid, TID: tid,
			Args: map[string]string{"name": label},
		})
	}
	pidName := map[int]string{PIDPipeline: "modchecker pipeline", PIDCloud: "cloud events"}
	for _, pid := range sortedKeys(pids) {
		label := pidName[pid]
		if label == "" {
			label = fmt.Sprintf("pid %d", pid)
		}
		addMeta("process_name", pid, 0, label)
	}
	laneKeys := make([]lane, 0, len(lanes))
	for l := range lanes {
		laneKeys = append(laneKeys, l)
	}
	sort.Slice(laneKeys, func(i, j int) bool {
		if laneKeys[i].pid != laneKeys[j].pid {
			return laneKeys[i].pid < laneKeys[j].pid
		}
		return laneKeys[i].tid < laneKeys[j].tid
	})
	for _, l := range laneKeys {
		label := fmt.Sprintf("worker %d", l.tid)
		if l.tid == 0 {
			label = "coordinator"
		}
		if l.pid == PIDCloud {
			label = "fault plane"
		}
		addMeta("thread_name", l.pid, l.tid, label)
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: meta}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   string(rune(e.Phase)),
			TS:   micros(e.TS),
			PID:  e.PID,
			TID:  e.TID,
			Seq:  e.Seq,
		}
		if e.Phase == PhaseComplete {
			d := micros(e.Dur)
			ce.Dur = &d
		}
		if e.Phase == PhaseInstant {
			ce.Scope = "t"
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]string, len(e.Args))
			for _, a := range e.Args {
				ce.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
