package party

import (
	"errors"
	"strings"
	"testing"

	"ppclust/internal/leakcheck"
	"ppclust/internal/protocol"
)

func TestEstimateSessionBytesFormula(t *testing.T) {
	cfg := Config{Schema: mixedSchema(), LocalChunkBytes: 1 << 10}
	cfg, _, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	const holders, n = 3, 100
	triangle := int64(8 * n * (n - 1) / 2)
	chunk := int64(1 << 10)
	nAttr := int64(len(cfg.Schema.Attrs))
	want := (nAttr+1)*triangle + readerChunks*holders*chunk
	if got := cfg.EstimateSessionBytes(holders, n); got != want {
		t.Fatalf("EstimateSessionBytes = %d, want %d", got, want)
	}
}

func TestEstimateSessionBytesMonolithicPricesFullTriangle(t *testing.T) {
	chunked := Config{Schema: mixedSchema(), LocalChunkBytes: 1 << 10}
	mono := Config{Schema: mixedSchema(), LocalChunkBytes: oneFrameBudget}
	if c, m := chunked.EstimateSessionBytes(3, 500), mono.EstimateSessionBytes(3, 500); m <= c {
		t.Fatalf("monolithic estimate %d not above chunked %d", m, c)
	}
	// The chunk price never exceeds the triangle itself: a tiny session
	// under a huge chunk budget is priced by its actual payload.
	small := Config{Schema: mixedSchema(), LocalChunkBytes: 64 << 20}
	tiny := small.EstimateSessionBytes(2, 4)
	if limit := int64(10 * 8 * 6 * 4); tiny > limit { // generous shape bound
		t.Fatalf("tiny session estimate %d grew with the chunk budget", tiny)
	}
}

// TestEstimateSessionBytesSharded pins the shard-aware pricing: a K-way
// session must not be priced K× the single-TP session — each shard's
// streaming state covers only its row slice, so the reservation grows far
// slower than linearly — and TPShards below 2 must price exactly like the
// legacy single-TP formula.
func TestEstimateSessionBytesSharded(t *testing.T) {
	cfg := Config{Schema: mixedSchema(), LocalChunkBytes: 4 << 10}
	single := cfg.EstimateSessionBytes(3, 2000)
	for _, k := range []int{0, -3} {
		cfg.TPShards = k
		if got := cfg.EstimateSessionBytes(3, 2000); got != single {
			t.Fatalf("shards=%d estimate %d differs from single-TP %d", k, got, single)
		}
	}
	for _, k := range []int{2, 4, 8} {
		cfg.TPShards = k
		got := cfg.EstimateSessionBytes(3, 2000)
		if got < single {
			t.Fatalf("shards=%d estimate %d below single-TP %d", k, got, single)
		}
		if limit := int64(k) * single; got >= limit {
			t.Fatalf("shards=%d estimate %d not below %d× single-TP %d", k, got, k, limit)
		}
	}
}

func TestEstimateSessionBytesMonotone(t *testing.T) {
	cfg := Config{Schema: mixedSchema()}
	prev := int64(-1)
	for _, n := range []int{2, 10, 100, 1000} {
		got := cfg.EstimateSessionBytes(3, n)
		if got <= prev {
			t.Fatalf("estimate not monotone in n: %d objects -> %d, previous %d", n, got, prev)
		}
		prev = got
	}
	if a, b := cfg.EstimateSessionBytes(2, 100), cfg.EstimateSessionBytes(5, 100); b <= a {
		t.Fatalf("estimate not monotone in holders: %d vs %d", a, b)
	}
}

func TestValidateHolders(t *testing.T) {
	if err := ValidateHolders([]string{"A", "B"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"A"},
		{"B", "A"},
		{"A", "A"},
		{"A", TPName},
		{"", "A"},
	} {
		if err := ValidateHolders(bad); err == nil {
			t.Fatalf("ValidateHolders(%v) accepted", bad)
		}
	}
}

// TestOnCensusRefusalAbortsSession pins the census event's contract: an
// Events that refuses the census ends the session before any payload
// moves, the third party reports the refusal's reason, holders observe a
// classified abort, and nothing leaks.
func TestOnCensusRefusalAbortsSession(t *testing.T) {
	defer leakcheck.Check(t)
	refusal := errors.New("session exceeds the object budget")
	var gotCounts []int
	cfg := Config{Variant: Float64Variant, Mode: protocol.Batch, Schema: mixedSchema(),
		Events: func(e Event) error {
			if e.Kind != EventCensus {
				return nil
			}
			gotCounts = append([]int(nil), e.Counts...)
			return refusal
		}}
	_, err := RunInMemory(cfg, mixedPartitions(t), nil, deterministicRandom(31))
	if err == nil {
		t.Fatal("refused session completed")
	}
	if !strings.Contains(err.Error(), "exceeds the object budget") {
		t.Fatalf("refusal reason lost: %v", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("holders not classified aborted: %v", err)
	}
	want := []int{3, 2, 3} // A, B, C partition sizes
	if len(gotCounts) != len(want) {
		t.Fatalf("the census event carried counts %v, want %v", gotCounts, want)
	}
	for i := range want {
		if gotCounts[i] != want[i] {
			t.Fatalf("the census event carried counts %v, want %v", gotCounts, want)
		}
	}
}

// TestOnCensusAcceptingSessionCompletes: an Events accepting the census
// observes it once and changes nothing about the session.
func TestOnCensusAcceptingSessionCompletes(t *testing.T) {
	calls := 0
	cfg := Config{Variant: Float64Variant, Mode: protocol.Batch,
		Events: func(e Event) error {
			if e.Kind == EventCensus {
				calls++
			}
			return nil
		}}
	out := runMixedSession(t, cfg)
	if len(out.Results) != 3 {
		t.Fatalf("results: %d", len(out.Results))
	}
	if calls != 1 {
		t.Fatalf("census reported %d times", calls)
	}
}
