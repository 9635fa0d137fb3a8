package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Flight is the causal flight recorder: a fixed-capacity ring buffer of
// typed per-frame lifecycle records (receive → holdback → delivery →
// detector update → verdict/shed). Aggregate metrics answer "how many
// frames were late"; the flight recorder answers "which frame, where,
// and why" — the per-event causal accounting an online monitor in the
// style of Chauhan et al. (arXiv:1304.4326) is assumed to produce.
//
// The ring is bounded, so recording is O(1) per record with no
// allocation beyond the record copy, and the newest records always win:
// an overloaded server keeps the recent history that explains the
// overload. Like every obs handle, a nil *Flight is a valid no-op —
// instrumented code records unconditionally and pays (almost) nothing
// when the recorder is off.
type Flight struct {
	epoch time.Time
	cap   int
	seq   atomic.Uint64

	mu    sync.Mutex
	buf   []FlightRecord
	next  int // write index once the ring is full
	total uint64
}

// FlightStage names one station of a frame's lifecycle.
type FlightStage string

// The lifecycle stages, in the order a healthy frame visits them.
const (
	// StageRecv: the frame entered the engine (sequence number assigned).
	StageRecv FlightStage = "recv"
	// StageHeld: events of the frame are buffered, not yet causally
	// deliverable.
	StageHeld FlightStage = "held"
	// StageDelivered: events were causally delivered to the detector.
	StageDelivered FlightStage = "delivered"
	// StageUpdate: the detector flushed over the frame's deliveries.
	StageUpdate FlightStage = "update"
	// StageVerdict: the session's verdict latched (or was finalized).
	StageVerdict FlightStage = "verdict"
	// StageShed: the frame was dropped (its session is unknown).
	StageShed FlightStage = "shed"
	// StageDisconnect: the session closed or its transport connection
	// dropped.
	StageDisconnect FlightStage = "disconnect"
)

// FlightRecord is one lifecycle event of one frame.
type FlightRecord struct {
	// Seq is the frame's engine-assigned sequence number (see NextSeq).
	Seq uint64 `json:"seq"`
	// Session is the owning session id ("" for transport-level records).
	Session string `json:"session,omitempty"`
	// Shard is the owning shard index (-1 for transport-level records).
	Shard int `json:"shard"`
	// Proc is the reporting process (-1 when not process-specific).
	Proc int `json:"proc"`
	// Stage is the lifecycle station.
	Stage FlightStage `json:"stage"`
	// TS is monotonic nanoseconds since the recorder was created; filled
	// by Record when zero.
	TS int64 `json:"ts_ns"`
	// Detail is a short human-readable annotation (counts, latencies,
	// drop reasons).
	Detail string `json:"detail,omitempty"`
}

// NewFlight builds a recorder holding the last capacity records
// (default 4096 when capacity <= 0).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Flight{epoch: time.Now(), cap: capacity, buf: make([]FlightRecord, 0, capacity)}
}

// NextSeq issues the next frame sequence number (1-based; 0 on a nil
// recorder, where no records are kept anyway).
func (f *Flight) NextSeq() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Add(1)
}

// Record appends one record, overwriting the oldest once the ring is
// full. A zero TS is stamped with the recorder's monotonic clock.
func (f *Flight) Record(r FlightRecord) {
	if f == nil {
		return
	}
	if r.TS == 0 {
		r.TS = int64(time.Since(f.epoch))
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		//lint:ignore hotalloc the ring is preallocated to capacity in NewFlight and this branch runs only while len < cap, so the append never reallocates
		f.buf = append(f.buf, r)
	} else {
		f.buf[f.next] = r
		f.next = (f.next + 1) % len(f.buf)
	}
	f.total++
	f.mu.Unlock()
}

// Snapshot copies the retained records out in append order (oldest
// first).
func (f *Flight) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, len(f.buf))
	if len(f.buf) == cap(f.buf) {
		out = append(out, f.buf[f.next:]...)
		out = append(out, f.buf[:f.next]...)
	} else {
		out = append(out, f.buf...)
	}
	return out
}

// FlightSnapshot is the JSON dump shape of a recorder.
type FlightSnapshot struct {
	// Capacity is the ring size in records.
	Capacity int `json:"capacity"`
	// Total counts every record ever appended.
	Total uint64 `json:"total"`
	// Dropped counts records overwritten by ring wrap (Total - retained).
	Dropped uint64 `json:"dropped"`
	// Records are the retained records, oldest first.
	Records []FlightRecord `json:"records"`
}

// Dump copies the whole recorder state.
func (f *Flight) Dump() FlightSnapshot {
	snap := FlightSnapshot{Records: f.Snapshot()}
	if f == nil {
		return snap
	}
	f.mu.Lock()
	snap.Capacity = f.cap
	snap.Total = f.total
	snap.Dropped = f.total - uint64(len(f.buf))
	f.mu.Unlock()
	return snap
}

// WriteJSON writes the recorder dump as indented JSON.
func (f *Flight) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Dump())
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func writeChromeJSON(w io.Writer, evs []chromeEvent) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// micros converts a duration to trace-event microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// clampDur keeps complete ("X") slices visible: Perfetto drops
// zero-width slices, and omitempty would drop the field entirely.
func clampDur(us float64) float64 {
	if us < 0.001 {
		return 0.001
	}
	return us
}

// WriteChromeTrace writes the retained records in the Chrome
// trace-event format: one process track per shard (pid = shard+1, pid 0
// is transport-level), one thread track per session, every record an
// instant event named after its stage, and each frame's holdback
// rendered as a duration slice from its held record to its delivered
// record.
func (f *Flight) WriteChromeTrace(w io.Writer) error {
	return writeFlightChrome(w, f.Snapshot())
}

func writeFlightChrome(w io.Writer, recs []FlightRecord) error {
	pidOf := func(shard int) int { return shard + 1 }
	tids := map[string]int{}
	tidOf := func(session string) int {
		t, ok := tids[session]
		if !ok {
			t = len(tids) + 1
			tids[session] = t
		}
		return t
	}

	type frameKey struct {
		session string
		seq     uint64
	}
	heldAt := map[frameKey]FlightRecord{}

	var body []chromeEvent
	pidNames := map[int]string{}
	tidHomes := map[int]int{} // tid -> the pid its thread_name metadata lives on
	for _, r := range recs {
		pid, tid := pidOf(r.Shard), tidOf(r.Session)
		pidNames[pid] = shardName(r.Shard)
		tidHomes[tid] = pid
		args := map[string]any{"seq": r.Seq, "proc": r.Proc}
		if r.Session != "" {
			args["session"] = r.Session
		}
		if r.Detail != "" {
			args["detail"] = r.Detail
		}
		body = append(body, chromeEvent{
			Name: string(r.Stage), Ph: "i", S: "t",
			TS: micros(time.Duration(r.TS)), PID: pid, TID: tid, Args: args,
		})
		k := frameKey{r.Session, r.Seq}
		switch r.Stage {
		case StageHeld:
			if _, seen := heldAt[k]; !seen {
				heldAt[k] = r
			}
		case StageDelivered:
			if h, seen := heldAt[k]; seen {
				delete(heldAt, k)
				body = append(body, chromeEvent{
					Name: "holdback", Ph: "X",
					TS:  micros(time.Duration(h.TS)),
					Dur: clampDur(micros(time.Duration(r.TS - h.TS))),
					PID: pid, TID: tid,
					Args: map[string]any{"seq": r.Seq, "session": r.Session},
				})
			}
		}
	}

	// Emit the metadata events in sorted order so the exported trace is
	// byte-identical run to run.
	var evs []chromeEvent
	pids := make([]int, 0, len(pidNames))
	for pid := range pidNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": pidNames[pid]},
		})
	}
	sessions := make([]string, 0, len(tids))
	for session := range tids {
		sessions = append(sessions, session)
	}
	sort.Strings(sessions)
	for _, session := range sessions {
		tid := tids[session]
		name := session
		if name == "" {
			name = "transport"
		}
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tidHomes[tid], TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	evs = append(evs, body...)
	return writeChromeJSON(w, evs)
}

// shardName labels a shard's process track.
func shardName(shard int) string {
	if shard < 0 {
		return "transport"
	}
	return "shard " + strconv.Itoa(shard)
}

// WriteChromeTrace renders the report's span tree in the Chrome
// trace-event format: every span a complete ("X") slice positioned by
// its recorded start time, so a gpddetect run and a server flight dump
// open in the same Perfetto UI. Still-open spans keep the duration
// measured at Report time and carry open=true in their args.
func (r Report) WriteChromeTrace(w io.Writer) error {
	var t0 time.Time
	for _, s := range r.Spans {
		if !s.Start.IsZero() && (t0.IsZero() || s.Start.Before(t0)) {
			t0 = s.Start
		}
	}
	evs := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "gpd detection run"},
	}}
	for _, s := range r.Spans {
		args := map[string]any{"depth": s.Depth}
		if s.Open {
			args["open"] = true
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  micros(s.Start.Sub(t0)),
			Dur: clampDur(micros(s.Duration)),
			PID: 1, TID: 1, Args: args,
		})
	}
	return writeChromeJSON(w, evs)
}
