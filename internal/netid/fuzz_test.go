package netid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// captureWrite runs one announce/send function against a net.Pipe and
// returns the exact bytes it put on the wire, so the fuzz corpora are
// seeded from — and the golden vectors compared against — the real writers
// rather than hand-maintained encodings.
func captureWrite(f testing.TB, write func(c net.Conn) error) []byte {
	f.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- write(a) }()
	buf := make([]byte, 4096)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, err := b.Read(buf)
	if err != nil {
		f.Fatalf("capturing seed bytes: %v", err)
	}
	if err := <-done; err != nil {
		f.Fatalf("seed writer: %v", err)
	}
	return buf[:n]
}

// FuzzParseHello exercises the one preamble parser — the bare name label,
// the join, resume and shard-registration hellos, and hellos claiming a
// version the package does not lay out (the retired version 1, the future)
// — against arbitrary byte streams: the parser must never panic, and a hello
// it accepts must satisfy the documented field bounds and version
// classification invariants.
func FuzzParseHello(f *testing.F) {
	for _, form := range goldenForms {
		if form.hello != (Hello{}) {
			f.Add(captureWrite(f, form.write))
		}
	}
	f.Add(captureWrite(f, func(c net.Conn) error { return AnnounceSessionShardWithin(c, "B", "", -1, time.Second) }))
	// The two retired hellos, as their deleted writers laid them out: both
	// must parse (to a Hello no acceptor serves), reading nothing past the
	// session.
	f.Add([]byte("\x07HolderB"))                     // v0: the bare label sent to a session acceptor
	f.Add([]byte("\xff\x01\x07HolderA\x08tenant-7")) // v1: no lane byte
	f.Add([]byte{magicExtended, 5, 1, 'H', 1, 's'})  // claimed-future version
	f.Add([]byte{magicExtended, 0, 1, 'H'})          // invalid version 0
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Name == "" || len(h.Name) > maxName {
			t.Fatalf("accepted name %q outside (0, %d]", h.Name, maxName)
		}
		if len(h.Session) > maxSession {
			t.Fatalf("accepted session of %d bytes", len(h.Session))
		}
		if h.Version == 0 && (h.Session != "" || h.Lane != 0 || h.Epoch != 0 || h.Sent != 0 || h.Recv != 0) {
			t.Fatalf("bare label carries hello fields: %+v", h)
		}
		if (h.Version < VersionSharded || h.Version > VersionShardProc) && h != (Hello{Name: h.Name, Session: h.Session, Version: h.Version}) {
			t.Fatalf("unserved version %d read past the session: %+v", h.Version, h)
		}
		if h.Resume() && h.ShardRegistration() {
			t.Fatalf("hello classifies as both resume and registration: %+v", h)
		}
	})
}

// FuzzParseReject exercises the ppc/reject frame parser: it must never
// panic, and a frame it accepts must decode to a RejectedError within the
// detail bound.
func FuzzParseReject(f *testing.F) {
	for _, seed := range []struct {
		code   RejectCode
		detail string
	}{
		{RejectQueueFull, "3 sessions active, queue of 2 full"},
		{RejectDraining, ""},
		{RejectResume, "watermark behind installed rows"},
	} {
		raw := captureWrite(f, func(c net.Conn) error { return SendReject(c, seed.code, seed.detail) })
		// SendReject's wire form starts with the status byte; parseReject
		// begins after it.
		f.Add(raw[1:])
	}
	f.Add([]byte{byte(RejectVersion), 0xFF, 0xFF}) // oversized detail length
	f.Fuzz(func(t *testing.T, data []byte) {
		err := parseReject(bytes.NewReader(data))
		if err == nil {
			t.Fatal("parseReject returned nil error")
		}
		var re *RejectedError
		if !errors.As(err, &re) {
			return // descriptive parse failure
		}
		if !errors.Is(err, ErrRejected) {
			t.Fatal("typed refusal not classified under ErrRejected")
		}
		if len(re.Detail) > maxRejectDetail {
			t.Fatalf("accepted detail of %d bytes", len(re.Detail))
		}
	})
}

// FuzzParseResumeGrant exercises the grant watermark parser: it must never
// panic, and an accepted body must round-trip through the writer.
func FuzzParseResumeGrant(f *testing.F) {
	raw := captureWrite(f, func(c net.Conn) error { return SendAcceptResume(c, 4321, 17) })
	f.Add(raw[1:]) // strip the status byte, as AwaitResumeGrant does
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sent, recv, err := parseResumeGrant(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], sent)
		binary.BigEndian.PutUint64(buf[8:16], recv)
		if !bytes.Equal(buf[:], data[:16]) {
			t.Fatalf("grant (%d, %d) does not round-trip", sent, recv)
		}
	})
}
