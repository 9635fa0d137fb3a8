package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{
		V:       ProtocolVersion,
		Type:    "append",
		Session: "s1",
		Events: []Event{
			{Proc: 1, VC: []int64{0, 3, 2}, Truth: true, Val: -7},
		},
	}
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}

	resp := Response{
		V:        ProtocolVersion,
		OK:       true,
		Possibly: true,
		Verdict:  &Verdict{Possibly: true, Definitely: false, DefinitelyKnown: true},
	}
	if err := EncodeResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("response round trip mismatch:\n got %+v\nwant %+v", gotResp, resp)
	}
}

func TestReadFrameHostileLengths(t *testing.T) {
	mk := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"oversized length", mk(MaxFrame+1, nil), ErrFrameTooLarge},
		{"max uint32 length", mk(^uint32(0), nil), ErrFrameTooLarge},
		{"zero length", mk(0, nil), ErrEmptyFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(mk(10, []byte("abc")))); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("write oversized", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
}

func TestDecodeRequestRejectsBadInput(t *testing.T) {
	t.Run("invalid json", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, []byte("{not json")); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(&buf); err == nil {
			t.Fatal("want error for invalid JSON")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, Request{V: 99, Type: "query"}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(&buf); err == nil {
			t.Fatal("want error for unknown protocol version")
		}
	})
}

// legacyKindFrame is an open request as pre-grammar clients spelled it:
// a numeric kind selector and no pred. The field is gone, and
// encoding/json drops unknown fields silently, so validation has to be
// what refuses it.
const legacyKindFrame = `{"v":1,"type":"open","session":"legacy","spec":{"kind":1,"procs":2}}`

// TestLegacyKindFrameRefused: the legacy frame still decodes (it is
// well-formed JSON at the right version), but its spec fails validation
// with an error that names the field to set and shows what to put there.
func TestLegacyKindFrameRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte(legacyKindFrame)); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(&buf)
	if err != nil || req.Spec == nil {
		t.Fatalf("decode: %+v, %v", req, err)
	}
	err = req.Spec.Validate()
	if err == nil {
		t.Fatal("a spec without pred validated")
	}
	for _, want := range []string{`"pred"`, `"all(x)"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if _, err := NewSession(*req.Spec); err == nil {
		t.Error("NewSession opened a spec without pred")
	}
}

// FuzzDecodeFrame holds the request decoder to its contract with
// encoding/json: on every frame both accept or both refuse, and an
// accepted frame decodes to the Request json.Unmarshal produces. The
// decoder's one refusal of its own is a known field repeated within the
// request or one of its events, which repeatedField finds independently.
// Neither may panic, and no length prefix makes either allocate beyond
// MaxFrame.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	EncodeRequest(&seed, Request{V: ProtocolVersion, Type: "open", Session: "s",
		Spec: &Spec{Pred: "all(x)", Procs: 2}})
	f.Add(seed.Bytes())
	seed.Reset()
	EncodeRequest(&seed, Request{V: ProtocolVersion, Type: "append", Session: "s",
		Events: []Event{{Proc: 0, VC: []int64{1, 0}, Truth: true}}})
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, []byte(legacyKindFrame))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, frameErr := ReadFrame(bytes.NewReader(data))
		if frameErr == nil && (len(payload) == 0 || len(payload) > MaxFrame) {
			t.Fatalf("ReadFrame returned %d bytes without error", len(payload))
		}
		got, err := DecodeRequest(bytes.NewReader(data))
		DecodeResponse(bytes.NewReader(data))
		if frameErr != nil {
			if err == nil {
				t.Fatalf("decoded a frame ReadFrame refuses (%v)", frameErr)
			}
			return
		}
		var want Request
		wantErr := json.Unmarshal(payload, &want)
		if wantErr == nil && want.V != ProtocolVersion {
			wantErr = fmt.Errorf("protocol version %d", want.V)
		}
		switch {
		case err == nil && wantErr == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\n decoded       %#v\n encoding/json %#v", payload, got, want)
			}
		case err == nil:
			t.Fatalf("accepted %q, which encoding/json refuses: %v", payload, wantErr)
		case wantErr == nil && !repeatedField(payload):
			t.Fatalf("refused %q, which encoding/json accepts: %v", payload, err)
		}
	})
}

// repeatedField reports whether a payload json.Unmarshal accepts names
// one field of Request twice in the request object, or one field of
// Event twice in one of its events — keys matched as encoding/json
// matches them.
func repeatedField(payload []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(payload))
	delim := func(want json.Delim) bool {
		tok, err := dec.Token()
		return err == nil && tok == want
	}
	skip := func(string) {
		var raw json.RawMessage
		dec.Decode(&raw)
	}
	repeated := false
	// members walks the object whose '{' was just read.
	members := func(names []string, value func(name string)) {
		seen := map[string]bool{}
		for dec.More() {
			tok, err := dec.Token()
			key, ok := tok.(string)
			if err != nil || !ok {
				return
			}
			name := ""
			for _, n := range names {
				if strings.EqualFold(key, n) {
					name = n
				}
			}
			repeated = repeated || name != "" && seen[name]
			seen[name] = true
			value(name)
		}
		dec.Token() // '}'
	}
	if !delim('{') {
		return false
	}
	members(jsonNames(Request{}), func(name string) {
		if name != "events" {
			skip(name)
			return
		}
		if !delim('[') {
			return // null
		}
		for dec.More() {
			if delim('{') {
				members(jsonNames(Event{}), skip)
			}
		}
		dec.Token() // ']'
	})
	return repeated
}

// jsonNames lists the JSON keys of a struct's fields.
func jsonNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return names
}
