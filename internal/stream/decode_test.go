package stream

import (
	"bytes"
	"reflect"
	"testing"
)

// ingestFrame encodes an append frame shaped like the ingest workload's:
// n in-order events round-robin over procs processes, each merging its
// right neighbour's clock every 7th event, val alternating 0/1.
func ingestFrame(t testing.TB, session string, procs, n int) []byte {
	t.Helper()
	vcs := make([][]int64, procs)
	for p := range vcs {
		vcs[p] = make([]int64, procs)
	}
	events := make([]Event, n)
	for i := range events {
		p := i % procs
		vcs[p][p]++
		if i%7 == 0 {
			for q, c := range vcs[(p+1)%procs] {
				vcs[p][q] = max(vcs[p][q], c)
			}
		}
		events[i] = Event{Proc: p, VC: append([]int64(nil), vcs[p]...), Val: int64(i % 2)}
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, Request{V: ProtocolVersion, Type: "append", Session: session, Events: events}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAppendAllocs is the counted gate on the append decode: once a
// connection's decoder is warm, a 64-event, 8-process frame costs its
// event slice, its clock arena and at most its session string.
func TestDecodeAppendAllocs(t *testing.T) {
	frame := ingestFrame(t, "ingest-0", 8, 64)
	var d frameDecoder
	rd := bytes.NewReader(frame)
	decode := func() {
		rd.Reset(frame)
		if req, _, err := d.next(rd); err != nil || len(req.Events) != 64 {
			t.Fatalf("decode: %d events, %v", len(req.Events), err)
		}
	}
	decode() // warm: the frame buffer and the session string
	if allocs := testing.AllocsPerRun(100, decode); allocs > 3 {
		t.Fatalf("a warm append decode allocates %.0f times per frame, want <= 3", allocs)
	}
}

// TestDecodedRequestsOwnTheirMemory decodes two frames of the same size
// through one connection decoder, so the second overwrites the first's
// bytes in the reused buffer: the first request must come through
// unchanged — session, variable names and clocks alike.
func TestDecodedRequestsOwnTheirMemory(t *testing.T) {
	frame := func(session, v string, base int64) Request {
		return Request{V: ProtocolVersion, Type: "append", Session: session, Events: []Event{
			{Proc: 0, VC: []int64{base + 1, base + 2}, Truth: true, Val: base, Var: v + "0"},
			{Proc: 1, VC: []int64{base + 3, base + 4}, Var: v + "1"},
		}}
	}
	a, b := frame("session-a", "xa", 10), frame("session-b", "yb", 90)
	var wire bytes.Buffer
	for _, req := range []Request{a, b} {
		if err := EncodeRequest(&wire, req); err != nil {
			t.Fatal(err)
		}
	}
	var d frameDecoder
	gotA, _, err := d.next(&wire)
	if err != nil {
		t.Fatal(err)
	}
	buf := &d.buf[0]
	gotB, _, err := d.next(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if &d.buf[0] != buf {
		t.Fatal("frame B did not reuse frame A's buffer; the test proves nothing")
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Errorf("frame A after decoding frame B:\n got %+v\nwant %+v", gotA, a)
	}
	if !reflect.DeepEqual(gotB, b) {
		t.Errorf("frame B:\n got %+v\nwant %+v", gotB, b)
	}
}
