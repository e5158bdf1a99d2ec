package party

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
	"ppclust/internal/wire"
)

// TestPairChunkedMatchesSerialAcrossVariants extends the streaming
// differential pin to the pairwise protocol payloads across arithmetic
// variants and masking modes: chunked S/M streams (one row per frame and
// a 4 KiB bound) crossed with Parallelism 1 and all cores must publish
// reports bit-identical to the phase-serial reference's monolithic wire
// shape — for the int64 and mod-p variants and for per-pair masking,
// whose third-party keystream is consumed row-sequentially across chunks
// (the alignment-sensitive case). The serial reference is also run over
// the chunked wire, covering the reassembly path.
func TestPairChunkedMatchesSerialAcrossVariants(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	cases := []struct {
		name    string
		variant Variant
		mode    protocol.Mode
	}{
		{"int64-batch", Int64Variant, protocol.Batch},
		{"modp-batch", ModPVariant, protocol.Batch},
		{"float64-perpair", Float64Variant, protocol.PerPair},
		{"int64-perpair", Int64Variant, protocol.PerPair},
		// The mod-p per-pair masks are rejection-sampled per cell
		// (modp.Random), the most alignment-sensitive chunk-boundary case:
		// the TP must consume the keystream strictly sequentially across
		// chunk evaluations to regenerate them.
		{"modp-perpair", ModPVariant, protocol.PerPair},
	}
	for _, tc := range cases {
		base := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: tc.mode,
			Parallelism: 1, LocalChunkBytes: oneFrameBudget}
		want, err := runSerialTP(base, parts, reqs, deterministicRandom(15), nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", tc.name, err)
		}
		for _, chunk := range []int{1, 4 << 10} {
			for _, workers := range []int{1, 0} {
				cfg := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: tc.mode,
					Parallelism: workers, LocalChunkBytes: chunk}
				got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(15))
				if err != nil {
					t.Fatalf("%s chunk=%d workers=%d: %v", tc.name, chunk, workers, err)
				}
				assertSameOutcome(t, fmt.Sprintf("%s chunk=%d workers=%d", tc.name, chunk, workers), want, got)
			}
			// Serial third party over the same chunked wire: the pairwise
			// reassembly reference must agree too.
			cfg := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: tc.mode,
				Parallelism: 1, LocalChunkBytes: chunk}
			got, err := runSerialTP(cfg, parts, reqs, deterministicRandom(15), nil)
			if err != nil {
				t.Fatalf("%s chunk=%d serial: %v", tc.name, chunk, err)
			}
			assertSameOutcome(t, fmt.Sprintf("%s chunk=%d serial", tc.name, chunk), want, got)
		}
	}
}

// kindCappingConduit rejects frames of the given kind larger than cap at
// Send, standing in for a transport with a much smaller MaxFrame — but
// only for the message family under test, so the property "this payload
// was the oversized one" is pinned directly.
type kindCappingConduit struct {
	wire.Conduit
	kind wire.Kind
	cap  int
}

func (c *kindCappingConduit) Send(frame []byte) error {
	if len(frame) > c.cap {
		if m, err := wire.ParseFrame(frame); err == nil && m.Kind == c.kind {
			return fmt.Errorf("party test: %q frame of %d bytes over conduit cap %d: %w",
				m.Kind, len(frame), c.cap, wire.ErrFrameTooLarge)
		}
	}
	return c.Conduit.Send(frame)
}

// pairCapParts builds a two-holder numeric session in which both
// partitions are large enough that the responder's masked S matrix (the
// |B|×|A| comparison payload, 8 bytes a cell) is well past the test cap.
func pairCapParts(t testing.TB, rowsA, rowsB int) []dataset.Partition {
	t.Helper()
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var parts []dataset.Partition
	for pi, spec := range []struct {
		site string
		rows int
	}{{"A", rowsA}, {"B", rowsB}} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < spec.rows; r++ {
			tab.MustAppendRow(float64((r*13+pi)%499) + 0.5)
		}
		parts = append(parts, dataset.Partition{Site: spec.site, Table: tab})
	}
	return parts
}

// TestPairChunkedStreamingLiftsFrameCeiling is the pairwise ceiling-lift
// property at test scale: over conduits that reject responder→TP S frames
// above 8 KiB — a stand-in for a shrunken wire.MaxFrame — a session whose
// monolithic S payload is 60×60 cells, 28 KiB on the wire (both partitions
// large), succeeds when the payload streams as 4 KiB row-range chunks, and fails
// with the descriptive frame-size error when forced monolithic.
func TestPairChunkedStreamingLiftsFrameCeiling(t *testing.T) {
	parts := pairCapParts(t, 60, 60)
	capWrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if peer == TPName {
			return &kindCappingConduit{Conduit: c, kind: kindNumS, cap: 8 << 10}
		}
		return c
	}
	// Plaintext channels so the capping wrapper can classify frames by kind.
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 4 << 10}
	out, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(16), capWrap)
	if err != nil {
		t.Fatalf("chunked session over capped conduit: %v", err)
	}
	uncapped, err := RunInMemory(cfg, parts, nil, deterministicRandom(16))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "capped conduit", uncapped, out)

	cfg.LocalChunkBytes = oneFrameBudget // monolithic: the S-matrix frame must be rejected
	if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(16), capWrap); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("monolithic session over capped conduit: want ErrFrameTooLarge, got %v", err)
	}
}

// tamperConduit rewrites a holder's kindNumS chunk stream at Send to
// simulate a misbehaving responder: mode "duplicate" replaces the second
// chunk frame with a copy of the first, mode "reorder" swaps the first
// two chunk frames, mode "truncate" closes the conduit right after the
// first chunk frame. Requires PlaintextChannels.
type tamperConduit struct {
	wire.Conduit
	mode   string
	seen   int
	stash  []byte
	closed bool
}

func (c *tamperConduit) Send(frame []byte) error {
	if c.closed {
		return wire.ErrClosed
	}
	m, err := wire.ParseFrame(frame)
	if err != nil || m.Kind != kindNumS {
		return c.Conduit.Send(frame)
	}
	c.seen++
	switch c.mode {
	case "duplicate":
		if c.seen == 1 {
			// Send must not retain the caller's frame, so stash a copy.
			c.stash = append([]byte(nil), frame...)
		}
		if c.seen == 2 {
			return c.Conduit.Send(c.stash) // first chunk again
		}
	case "reorder":
		if c.seen == 1 {
			c.stash = append([]byte(nil), frame...)
			return nil // hold the first chunk back
		}
		if c.seen == 2 {
			if err := c.Conduit.Send(frame); err != nil {
				return err
			}
			return c.Conduit.Send(c.stash)
		}
	case "truncate":
		if c.seen == 1 {
			if err := c.Conduit.Send(frame); err != nil {
				return err
			}
			c.closed = true
			c.Conduit.Close()
			return nil
		}
	}
	return c.Conduit.Send(frame)
}

// runTamperedPairStream runs a two-holder numeric session whose S payload
// spans several chunks, with holder B's TP conduit tampered in the given
// mode, and returns the session error.
func runTamperedPairStream(t *testing.T, mode string) error {
	t.Helper()
	parts := pairCapParts(t, 10, 10)
	wrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner == "B" && peer == TPName {
			return &tamperConduit{Conduit: c, mode: mode}
		}
		return c
	}
	// 320-byte chunks over a 10×10 S matrix give a multi-chunk schedule
	// (4 rows per frame).
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	if chunks := cfg.pairChunksRange(dataset.Numeric, 0, 10, 10); len(chunks) < 2 {
		t.Fatalf("test shape yields %d chunks, want several", len(chunks))
	}
	_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(17), wrap)
	return err
}

// TestPairChunkStreamTampering: a responder stream that duplicates a
// chunk, delivers chunks out of schedule order, or truncates mid-payload
// must fail the session with a descriptive error — never install wrong
// rows, hang, or panic. The pipelined third party validates every frame
// against the shared schedule, so each deviation is caught on arrival.
func TestPairChunkStreamTampering(t *testing.T) {
	for _, tc := range []struct {
		mode    string
		wantSub string
	}{
		{"duplicate", "schedule says"},
		{"reorder", "schedule says"},
		{"truncate", "closed"},
	} {
		err := runTamperedPairStream(t, tc.mode)
		if err == nil {
			t.Fatalf("%s: tampered session reported no error", tc.mode)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.mode, err, tc.wantSub)
		}
	}
}

// TestPairChunkScheduleEnforced: an S/M chunk frame beyond the schedule's
// frame count is refused by the third party's lane reader — where the
// schedule wants the next chunk, the repeated one covers the wrong rows —
// so a flooding responder cannot make it install or hold extra frames.
func TestPairChunkScheduleEnforced(t *testing.T) {
	parts := pairCapParts(t, 10, 10)
	extra := func(owner, peer string, c wire.Conduit) wire.Conduit {
		return &extraChunkConduit{Conduit: c, owner: owner, peer: peer}
	}
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(18), extra)
	if err == nil {
		t.Fatal("over-long chunk stream reported no error")
	}
	if !strings.Contains(err.Error(), "schedule") && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("over-long stream error %q does not name the schedule", err)
	}
}

// extraChunkConduit re-sends every kindNumS frame once more, running past
// the schedule the third party derived from the census.
type extraChunkConduit struct {
	wire.Conduit
	owner, peer string
}

func (c *extraChunkConduit) Send(frame []byte) error {
	if err := c.Conduit.Send(frame); err != nil {
		return err
	}
	if c.owner == "B" && c.peer == TPName {
		if m, err := wire.ParseFrame(frame); err == nil && m.Kind == kindNumS {
			return c.Conduit.Send(frame)
		}
	}
	return nil
}

// colsTamperConduit rewrites the first kindNumS chunk frame so its matrix
// self-declares an inflated column count (with a matching Cell slice, so
// Validate alone cannot catch it). Requires PlaintextChannels.
type colsTamperConduit struct {
	wire.Conduit
	done bool
}

func (c *colsTamperConduit) Send(frame []byte) error {
	m, err := wire.ParseFrame(frame)
	if err != nil || m.Kind != kindNumS || c.done {
		return c.Conduit.Send(frame)
	}
	c.done = true
	var body numDisguisedBody // numSBody's layout, decoded into a matrix
	if err := wire.DecodeBody(m.Payload, &body); err != nil || body.Float == nil {
		return c.Conduit.Send(frame)
	}
	body.Float.Cols += 7
	body.Float.Cell = make([]float64, body.Float.Rows*body.Float.Cols)
	payload, err := wire.EncodeBody(body)
	if err != nil {
		return err
	}
	m.Payload = payload
	return c.Conduit.Send(wire.AppendFrame(nil, m))
}

// TestPairChunkRejectsWrongColumns: a chunk whose matrix claims a column
// count other than the census's must fail with a descriptive shape error
// on the session pipeline and on the serial oracle — in the oracle's
// reassembly path (appendNumChunk, which the holders' disguised-matrix
// reassembly shares) BEFORE the reassembled payload is presized, so a
// hostile self-declared width can never amplify into a rows×cols
// allocation.
func TestPairChunkRejectsWrongColumns(t *testing.T) {
	parts := pairCapParts(t, 10, 10)
	wrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner == "B" && peer == TPName {
			return &colsTamperConduit{Conduit: c}
		}
		return c
	}
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	for _, serial := range []bool{false, true} {
		run := RunInMemoryWrapped
		if serial {
			run = runSerialTP
		}
		_, err := run(cfg, parts, nil, deterministicRandom(19), wrap)
		if err == nil {
			t.Fatalf("serial=%v: inflated-columns chunk reported no error", serial)
		}
		if !strings.Contains(err.Error(), "columns") {
			t.Fatalf("serial=%v: error %q does not describe the column mismatch", serial, err)
		}
	}
}
