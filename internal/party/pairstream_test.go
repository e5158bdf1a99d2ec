package party

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
	"ppclust/internal/wire"
)

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
	// Plaintext channels so the capping rule can classify frames by kind.
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 4 << 10}
	capped := newTap(cfg)
	capped.onSend("", TPName, func(f *tapFrame) ([][]byte, error) {
		if len(f.Raw) > 8<<10 && f.Msg.Kind == kindNumS {
			return nil, fmt.Errorf("party test: %q frame of %d bytes over conduit cap %d: %w",
				f.Msg.Kind, len(f.Raw), 8<<10, wire.ErrFrameTooLarge)
		}
		return f.pass()
	})
	out, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(16), capped.wrap)
	if err != nil {
		t.Fatalf("chunked session over capped conduit: %v", err)
	}
	uncapped, err := RunInMemory(cfg, parts, nil, deterministicRandom(16))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "capped conduit", uncapped, out)

	cfg.LocalChunkBytes = oneFrameBudget // monolithic: the S-matrix frame must be rejected
	if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(16), capped.wrap); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("monolithic session over capped conduit: want ErrFrameTooLarge, got %v", err)
	}
}

// runTamperedPairStream runs a two-holder numeric session whose S payload
// spans several chunks, with holder B's kindNumS stream to the third party
// tampered in the given mode — "duplicate" sends the first chunk again in
// place of the second, "reorder" swaps the first two chunks, "truncate"
// severs the conduit at B's first send after the first chunk — and
// returns the session error.
func runTamperedPairStream(t *testing.T, mode string) error {
	t.Helper()
	parts := pairCapParts(t, 10, 10)
	// 320-byte chunks over a 10×10 S matrix give a multi-chunk schedule
	// (4 rows per frame).
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	num, _ := protocol.NewNumeric(cfg.Variant, cfg.Mode)
	if chunks := cfg.pairChunksRange(num, dataset.Numeric, 0, 10, 10); len(chunks) < 2 {
		t.Fatalf("test shape yields %d chunks, want several", len(chunks))
	}
	tp := newTap(cfg)
	var chunks int
	var first []byte
	tp.onSend("B", TPName, func(f *tapFrame) ([][]byte, error) {
		if mode == "truncate" && first != nil {
			return nil, errSever
		}
		if f.Msg.Kind != kindNumS {
			return f.pass()
		}
		chunks++
		switch {
		case chunks == 1:
			first = f.Raw
			if mode == "reorder" {
				return nil, nil // held back
			}
		case chunks == 2 && mode == "duplicate":
			return [][]byte{first}, nil
		case chunks == 2 && mode == "reorder":
			return [][]byte{f.Raw, first}, nil
		}
		return f.pass()
	})
	_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(17), tp.wrap)
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
// schedule wants the next chunk, the repeated one covers the wrong rows,
// and checkPairChunk says so — so a flooding responder cannot make it
// install or hold extra frames.
func TestPairChunkScheduleEnforced(t *testing.T) {
	parts := pairCapParts(t, 10, 10)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	// Holder B sends every kindNumS frame twice, running past the schedule
	// the third party derived from the census.
	extra := newTap(cfg)
	extra.onSend("B", TPName, func(f *tapFrame) ([][]byte, error) {
		if f.Msg.Kind == kindNumS {
			return [][]byte{f.Raw, f.Raw}, nil
		}
		return f.pass()
	})
	_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(18), extra.wrap)
	if err == nil {
		t.Fatal("over-long chunk stream reported no error")
	}
	if !scheduleRefusal(`pair \(A,B\)`).MatchString(err.Error()) {
		t.Fatalf("over-long stream error %q is not the lane reader's schedule refusal", err)
	}
}

// scheduleRefusal matches the lane reader's refusal of a chunk whose rows
// are not the ones the schedule wants next. what names the stream, and
// with it the check: `pair \(J,K\)` for checkPairChunk's, `H local` for
// recvLocalRows'.
func scheduleRefusal(what string) *regexp.Regexp {
	return regexp.MustCompile(what + ` chunk \d+ covers rows \[\d+,\d+\), schedule says \[\d+,\d+\)`)
}

// TestPairChunkRejectsWrongColumns: a chunk whose block claims a column
// count other than the census's must fail with a descriptive shape error,
// on the session pipeline and on the serial oracle. An S chunk fails at
// the third party — in the oracle's reassembly path BEFORE the reassembled
// payload is presized, so a hostile self-declared width can never amplify
// into a rows×cols allocation. A disguised chunk one holder sends the
// other — J's to K, the initiator on the columns, or K's to J, on the
// rows — fails at the receiving holder, which sends no S frame.
func TestPairChunkRejectsWrongColumns(t *testing.T) {
	parts := pairCapParts(t, 10, 10)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 320}
	for _, tc := range []struct {
		from, to string
		kind     wire.Kind
		want     string
	}{
		{"B", TPName, kindNumS, "columns"},
		{"A", "B", kindNumDisg, "disguised chunk 0 is 1x17, census says 1x10"},
		{"B", "A", kindNumDisg, "disguised chunk 0 is"},
	} {
		for _, serial := range []bool{false, true} {
			// The first float64 chunk of the kind self-declares seven more
			// columns, with the cells to match, so the block's own shape
			// check cannot catch it.
			tp := newTap(cfg)
			tp.onSend(tc.from, tc.to, first(tc.kind, func(f *tapFrame) ([][]byte, error) {
				var body numSBody
				if err := wire.DecodeBody(f.Msg.Payload, &body); err != nil {
					return nil, err
				}
				cells, header := body.cells, appendInts(nil, body.Rows, body.Lo, body.Hi)
				cols := cells.Cols + 7
				m := *f.Msg
				payload := appendInts(append(header, m.Payload[len(header)]), cells.Rows, cols) // keeps the variant byte
				m.Payload = append(payload, make([]byte, 8*cells.Rows*cols)...)
				return [][]byte{wire.AppendFrame(nil, &m)}, nil
			}))
			run := RunInMemoryWrapped
			if serial {
				run = runSerialTP
			}
			_, err := run(cfg, parts, nil, deterministicRandom(19), tp.wrap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s %s→%s serial=%v: error %v does not describe the column mismatch", tc.kind, tc.from, tc.to, serial, err)
			}
			if n := len(tp.sent(tc.to, TPName, kindNumS)); n != 0 {
				t.Fatalf("%s %s→%s serial=%v: %s sent %d S frames after refusing the chunk", tc.kind, tc.from, tc.to, serial, tc.to, n)
			}
		}
	}
}
