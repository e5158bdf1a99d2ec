package netid

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenForms is everything the preamble can say: each form's writer, the
// file under testdata/ holding the bytes the PR 20 writers emitted for the
// same arguments, and — for the hellos — what ParseHello makes of them.
var goldenForms = []struct {
	file  string
	hello Hello // zero for the three answers
	write func(c net.Conn) error
}{
	{"peer_label", Hello{Name: "HolderA"}, func(c net.Conn) error {
		return AnnounceWithin(c, "HolderA", time.Second)
	}},
	{"join_control", Hello{Name: "HolderA", Session: "tenant-7", Version: VersionSharded}, func(c net.Conn) error {
		return AnnounceSessionShardWithin(c, "HolderA", "tenant-7", -1, time.Second)
	}},
	{"join_shard", Hello{Name: "HolderA", Session: "tenant-7", Version: VersionSharded, Lane: 4}, func(c net.Conn) error {
		return AnnounceSessionShardWithin(c, "HolderA", "tenant-7", 3, time.Second)
	}},
	{"resume", Hello{Name: "HolderB", Session: "tenant-9", Version: VersionResume, Lane: 3, Epoch: 5, Sent: 1234, Recv: 99}, func(c net.Conn) error {
		return AnnounceResumeWithin(c, "HolderB", "tenant-9", 2, 5, 1234, 99, time.Second)
	}},
	{"shard_registration", Hello{Name: "TP", Session: "tenant-3", Version: VersionShardProc, Lane: 3, Epoch: 7, Sent: 41, Recv: 8}, func(c net.Conn) error {
		return AnnounceShardRegistrationWithin(c, "TP", "tenant-3", 2, 7, 41, 8, time.Second)
	}},
	{"accept_routing", Hello{}, func(c net.Conn) error { return SendAcceptRouting(c, 4) }},
	{"resume_grant", Hello{}, func(c net.Conn) error { return SendAcceptResume(c, 4321, 17) }},
	{"reject", Hello{}, func(c net.Conn) error {
		return SendReject(c, RejectQueueFull, "3 sessions active, queue of 2 full")
	}},
}

func goldenBytes(t *testing.T, file string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", file+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return raw
}

// replay serves raw bytes on one end of a net.Pipe and returns the other,
// for the readers that need a net.Conn.
func replay(t *testing.T, raw []byte) net.Conn {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go a.Write(raw)
	return b
}

// TestGoldenPreamble pins the preamble's bytes: every writer emits exactly
// its committed vector, and each form's reader gets back from the vector
// what the writer was given. Editing a vector is a wire-format change.
func TestGoldenPreamble(t *testing.T) {
	for _, form := range goldenForms {
		t.Run(form.file, func(t *testing.T) {
			want := goldenBytes(t, form.file)
			if got := captureWrite(t, form.write); !bytes.Equal(got, want) {
				t.Fatalf("writer emits %x, golden vector is %x", got, want)
			}
			if form.hello == (Hello{}) {
				return
			}
			r := bytes.NewReader(want)
			if h, err := ParseHello(r); err != nil || h != form.hello || r.Len() != 0 {
				t.Fatalf("ParseHello = %+v, %v with %d bytes unread; want %+v", h, err, r.Len(), form.hello)
			}
		})
	}
	if k, err := AwaitAdmissionRouting(replay(t, goldenBytes(t, "accept_routing")), time.Second); err != nil || k != 4 {
		t.Fatalf("routing accept = %d, %v; want 4", k, err)
	}
	if sent, recv, err := AwaitResumeGrant(replay(t, goldenBytes(t, "resume_grant")), time.Second); err != nil || sent != 4321 || recv != 17 {
		t.Fatalf("resume grant = (%d, %d), %v; want (4321, 17)", sent, recv, err)
	}
	_, err := AwaitAdmissionRouting(replay(t, goldenBytes(t, "reject")), time.Second)
	var re *RejectedError
	if !errors.As(err, &re) || re.Code != RejectQueueFull || re.Detail != "3 sessions active, queue of 2 full" {
		t.Fatalf("reject frame read as %v", err)
	}
}
