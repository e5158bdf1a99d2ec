package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
)

// gobEraFrame is a frame as the replaced gob envelope wrote it (a
// ppc/count message from A to TP, captured from the parent commit).
const gobEraFrame = "W\xff\x81\x03\x01\x01\aMessage\x01\xff\x82\x00\x01\a\x01\x04From\x01\f\x00\x01\x02To\x01\f\x00\x01\x04Kind\x01\f\x00\x01\x04Attr\x01\x04\x00\x01\x05PairJ\x01\f\x00\x01\x05PairK\x01\f\x00\x01\aPayload\x01\n\x00\x00\x00@\xff\x82\x01\x01A\x01\x02TP\x01\tppc/count\x01\x01\x03' \x7f\x03\x01\x01\tcountBody\x01\xff\x80\x00\x01\x01\x01\x05Count\x01\x04\x00\x00\x00\x05\xff\x80\x01\x0e\x00\x00"

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range []Message{
		{},
		{From: "A", To: "TP", Kind: "ppc/local", Attr: 3, Payload: []byte{1, 2, 3}},
		{From: "B", To: "TP#1", Kind: "ppc/numeric-s", Attr: 0, PairJ: "A", PairK: "B", Payload: []byte{}},
		{From: "TP", To: "A", Kind: "ppc/abort", Attr: -1, Payload: []byte("why")},
		{From: strings.Repeat("n", 300), Kind: "k", Attr: 1 << 40},
	} {
		frame := AppendFrame([]byte("prefix"), &m)[len("prefix"):]
		if n := FrameLen(&m); n != len(frame) {
			t.Errorf("%+v: FrameLen says %d bytes, the frame has %d", m, n, len(frame))
		}
		got, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		want := m
		if len(want.Payload) == 0 {
			want.Payload, got.Payload = nil, nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("round trip: got %+v, want %+v", *got, want)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	good := AppendFrame(nil, &Message{From: "A", To: "TP", Kind: "ppc/local", Attr: 1})
	for name, frame := range map[string][]byte{
		"empty":            nil,
		"gob-era envelope": []byte(gobEraFrame),
		"version only":     good[:1],
		"cut in a name":    good[:3],
		"cut before attr":  good[:len(good)-1],
		"length past end":  {FrameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'A'},
		"unending varint":  append([]byte{FrameVersion}, bytes.Repeat([]byte{0x80}, 12)...),
	} {
		if _, err := ParseFrame(frame); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: want ErrMalformed, got %v", name, err)
		}
	}
	if _, err := ParseFrame([]byte(gobEraFrame)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("gob-era frame: error %v does not name the version", err)
	}
	// The same rejection through an endpoint, and a body the control-body
	// decoder cannot read.
	a, b := Pipe()
	a.Send([]byte(gobEraFrame))
	if _, err := NewEndpoint(b).Recv(); !errors.Is(err, ErrMalformed) {
		t.Errorf("endpoint on a gob-era frame: want ErrMalformed, got %v", err)
	}
	var body struct{ N int }
	if err := DecodeBody([]byte{0xde, 0xad}, &body); !errors.Is(err, ErrMalformed) {
		t.Errorf("garbage control body: want ErrMalformed, got %v", err)
	}
}

// fixedBody is a body with a layout of its own, standing in for the
// session's chunk bodies.
type fixedBody struct{ raw []byte }

func (f fixedBody) AppendBody(dst []byte) ([]byte, error) { return append(dst, f.raw...), nil }
func (f *fixedBody) DecodeBody(p []byte) error {
	if len(p) == 0 {
		return errors.New("empty")
	}
	f.raw = p
	return nil
}

// TestBodyCodecSelectedByType: a body that brings its own layout is
// written verbatim after the header and read back through its decoder, on
// the calls that gob every other body (TestMessageEndpointRoundTrip).
func TestBodyCodecSelectedByType(t *testing.T) {
	a, b := Pipe()
	ea, eb := NewEndpoint(a), NewEndpoint(b)
	if err := ea.SendBody(Message{Kind: "fixed"}, fixedBody{raw: []byte("cells")}); err != nil {
		t.Fatal(err)
	}
	frame, _ := b.Recv()
	if m, err := ParseFrame(frame); err != nil || string(m.Payload) != "cells" {
		t.Fatalf("fixed body not verbatim after the header: %+v, %v", m, err)
	}
	a.Send(frame)
	var got fixedBody
	if _, err := eb.Expect("fixed", &got); err != nil || string(got.raw) != "cells" {
		t.Fatalf("fixed body: %q, %v", got.raw, err)
	}
	if err := ea.SendBody(Message{Kind: "fixed"}, fixedBody{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Expect("fixed", &got); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoder's rejection: want ErrMalformed, got %v", err)
	}
}

// TestEndpointRecvOwnsPayload pins the ownership rule of Endpoint.Recv: a
// Message — and whatever a body decoder kept of its payload — stays intact
// across later Recvs even on a conduit that recycles its receive buffer.
func TestEndpointRecvOwnsPayload(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	sender, receiver := NewEndpoint(TCPPooled(ca)), NewEndpoint(TCPPooled(cb))
	go func() {
		sender.SendBody(Message{Kind: "fixed"}, fixedBody{raw: []byte("first frame")})
		sender.SendBody(Message{Kind: "fixed"}, fixedBody{raw: []byte("other bytes")})
	}()
	var first, second fixedBody
	if _, err := receiver.Expect("fixed", &first); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Expect("fixed", &second); err != nil {
		t.Fatal(err)
	}
	if string(first.raw) != "first frame" || string(second.raw) != "other bytes" {
		t.Fatalf("payload rewritten by a later Recv: %q, %q", first.raw, second.raw)
	}
}

// FuzzParseFrame: the header parser never panics, fails only with
// ErrMalformed, allocates nothing but the header's own strings, and
// accepts exactly the frames AppendFrame writes.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte(gobEraFrame))
	f.Add(AppendFrame(nil, &Message{From: "A", To: "TP", Kind: "ppc/count", Attr: -1, Payload: []byte{3, 1, 2}}))
	f.Add(AppendFrame(nil, &Message{From: "B", To: "TP#0", Kind: "ppc/alpha-m", Attr: 2, PairJ: "A", PairK: "B"}))
	f.Add([]byte{FrameVersion})
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := ParseFrame(frame)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if n := len(m.From) + len(m.To) + len(m.Kind) + len(m.PairJ) + len(m.PairK) + len(m.Payload); n >= len(frame) {
			t.Fatalf("parsed %d bytes out of a %d-byte frame", n, len(frame))
		}
		again, err := ParseFrame(AppendFrame(nil, m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded frame parses to %+v (%v), want %+v", again, err, m)
		}
	})
}
