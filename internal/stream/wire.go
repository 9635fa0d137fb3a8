package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/distributed-predicates/gpd/internal/mux"
)

// Wire protocol: length-prefixed JSON frames over TCP. Each frame is a
// 4-byte big-endian payload length followed by that many bytes of JSON.
// Requests carry a protocol version so the format can evolve; frames are
// bounded by MaxFrame so a malicious or corrupt length can neither wedge
// a reader nor make it over-allocate.

const (
	// ProtocolVersion is the wire protocol version this package speaks.
	ProtocolVersion = 1
	// MaxFrame is the largest accepted frame payload, in bytes.
	MaxFrame = 1 << 20
	// frameHeaderLen is the length prefix size.
	frameHeaderLen = 4
)

// Frame-level errors.
var (
	ErrFrameTooLarge = errors.New("stream: frame exceeds maximum size")
	ErrEmptyFrame    = errors.New("stream: empty frame")
)

// Request is a client-to-server message.
type Request struct {
	V       int     `json:"v"`
	Type    string  `json:"type"` // "open", "append", "query", "close", "register", "unregister"
	Session string  `json:"session"`
	Spec    *Spec   `json:"spec,omitempty"`   // open
	Events  []Event `json:"events,omitempty"` // append

	// Register carries the predicate to attach to an open multiplexed
	// session (type "register"); Predicate names the one to detach
	// (type "unregister").
	Register  *RegisterSpec `json:"register,omitempty"`
	Predicate string        `json:"predicate,omitempty"`
}

// RegisterSpec is the wire form of a predicate registration on a
// multiplexed session: who owns it, what it detects, and optionally the
// initial per-process values when the registration cut's seeded state
// should be overridden.
type RegisterSpec struct {
	// ID names the predicate within its session; update fan-out and
	// unregister refer to it.
	ID string `json:"id"`
	// Tenant is the owning tenant for accounting and per-tenant limits
	// ("" means "default").
	Tenant string `json:"tenant,omitempty"`
	// Pred is the predicate in the canonical grammar (e.g. "all(x)",
	// "sum(x) >= 5", "inflight == 0"). Any incremental-capable family.
	Pred string `json:"pred"`
	// Involved restricts a conjunctive predicate to these processes; nil
	// means all.
	Involved []int `json:"involved,omitempty"`
	// Init overrides the seeded initial per-process values (sum: the
	// variable; boolean families: 0/1 truth). nil seeds from the last
	// delivered values at the registration cut. all(var) takes its
	// involved processes as false at the start and refuses a nonzero
	// value for one, seeded or given.
	Init []int64 `json:"init,omitempty"`
	// Slice is accepted and ignored: a mux session keeps no slice and no
	// history, and every verdict comes from the registration's own
	// detector. It stays only because bench/ still sends it; ROADMAP's
	// black-box bench/ item deletes it.
	Slice bool `json:"slice,omitempty"`
}

// Response is the server's reply to each request frame.
type Response struct {
	V        int           `json:"v"`
	OK       bool          `json:"ok"`
	Error    string        `json:"error,omitempty"`
	Possibly bool          `json:"possibly,omitempty"` // latched verdict as of the reply
	Verdict  *Verdict      `json:"verdict,omitempty"`  // close
	Stats    *SessionStats `json:"stats,omitempty"`    // query

	// Updates carries the per-predicate verdict updates drained since
	// the previous drain (query and register replies on multiplexed
	// sessions); Predicates is the close-time fan-out: the final state
	// of every still-registered predicate.
	Updates    []mux.Update `json:"updates,omitempty"`
	Predicates []mux.Update `json:"predicates,omitempty"`
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame payload. Oversized or empty
// lengths error before any payload allocation, so a hostile peer cannot
// make the reader allocate more than MaxFrame bytes.
func ReadFrame(r io.Reader) ([]byte, error) {
	var d frameDecoder
	return d.read(r)
}

// EncodeRequest frames a request.
func EncodeRequest(w io.Writer, req Request) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// DecodeRequest reads and decodes one request frame, validating the
// protocol version. It never panics on malformed input: truncated
// headers, hostile lengths and invalid JSON all return errors. It is the
// server's decoder over a fresh buffer; see frameDecoder for what it
// accepts.
func DecodeRequest(r io.Reader) (Request, error) {
	var d frameDecoder
	req, _, err := d.next(r)
	return req, err
}

// EncodeResponse frames a response.
func EncodeResponse(w io.Writer, resp Response) error {
	_, err := encodeResponse(w, resp)
	return err
}

// encodeResponse frames a response and returns the frame's size.
func encodeResponse(w io.Writer, resp Response) (int, error) {
	payload, err := json.Marshal(resp)
	if err != nil {
		return 0, err
	}
	return frameHeaderLen + len(payload), WriteFrame(w, payload)
}

// DecodeResponse reads and decodes one response frame.
func DecodeResponse(r io.Reader) (Response, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return Response{}, err
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return Response{}, fmt.Errorf("stream: bad response frame: %w", err)
	}
	return resp, nil
}
