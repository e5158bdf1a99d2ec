package proctest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// TestMain builds the real ppc-shard binary exactly once; every test
// spawns subprocesses from it.
func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "ppc-shard-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shardBin = filepath.Join(tmp, "ppc-shard")
	build := exec.Command("go", "build", "-o", shardBin, "ppclust/cmd/ppc-shard")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "proctest: building ppc-shard: %v\n", err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// schema mirrors schemaSpec exactly (the registration fingerprint must
// match the workers').
func schema() dataset.Schema {
	return dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "age", Type: dataset.Numeric},
		{Name: "income", Type: dataset.Numeric},
		{Name: "dna", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
		{Name: "city", Type: dataset.Categorical},
	}}
}

// parts builds three deterministic partitions (same construction as the
// party package's pipeline fixtures).
func parts(t *testing.T, rows int) []dataset.Partition {
	t.Helper()
	s := rng.NewXoshiro(rng.SeedFromUint64(777))
	cities := []string{"ankara", "istanbul", "izmir"}
	bases := "ACGT"
	var out []dataset.Partition
	for pi, site := range []string{"A", "B", "C"} {
		tab := dataset.MustNewTable(schema())
		for r := 0; r < rows+pi; r++ {
			dna := make([]byte, 5+rng.Symbol(s, 4))
			for i := range dna {
				dna[i] = bases[rng.Symbol(s, 4)]
			}
			tab.MustAppendRow(
				float64(rng.Symbol(s, 80)),
				float64(rng.Symbol(s, 5000)),
				string(dna),
				cities[rng.Symbol(s, len(cities))],
			)
		}
		out = append(out, dataset.Partition{Site: site, Table: tab})
	}
	return out
}

func reqs() map[string]party.ClusterRequest {
	return map[string]party.ClusterRequest{
		"A": {Linkage: hcluster.Average, K: 2},
		"B": {Linkage: hcluster.Single, K: 3},
		"C": {Method: party.MethodPAM, K: 2},
	}
}

func random(salt uint64) party.RandomSource {
	return func(p string) io.Reader {
		seed := rng.SeedFromBytes([]byte(p))
		mixed := rng.SeedFromBytes(append(seed[:], byte(salt), byte(salt>>8)))
		return keys.StreamReader(rng.NewAESCTR(mixed))
	}
}

// assertSame requires bit-identical reports and results.
func assertSame(t *testing.T, label string, want, got *party.SessionOutcome) {
	t.Helper()
	if want.Report == nil || got.Report == nil {
		t.Fatalf("%s: missing TP report", label)
	}
	if !reflect.DeepEqual(want.Report.ObjectIDs, got.Report.ObjectIDs) {
		t.Fatalf("%s: object orderings differ", label)
	}
	if !reflect.DeepEqual(want.Report.Scales, got.Report.Scales) {
		t.Fatalf("%s: scales differ: %v vs %v", label, want.Report.Scales, got.Report.Scales)
	}
	if len(want.Report.AttributeMatrices) != len(got.Report.AttributeMatrices) {
		t.Fatalf("%s: matrix counts differ", label)
	}
	for i, wm := range want.Report.AttributeMatrices {
		if !wm.EqualWithin(got.Report.AttributeMatrices[i], 0) {
			t.Fatalf("%s: attribute %d matrices not bit-identical", label, i)
		}
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatalf("%s: published results differ", label)
	}
}

// dialerFor builds the coordinator's ShardDialFunc over a worker address
// list: TCP dial, v4 registration hello, watermark grant. addr is read
// per dial so a respawned worker on the same address is reached
// transparently.
func dialerFor(session string, addrs []string) party.ShardDialFunc {
	return func(ctx context.Context, shard int, state party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addrs[shard])
		if err != nil {
			return nil, party.ResumeGrant{}, err
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, party.TPName, session, shard,
			state.Epoch, state.Sent, state.Recv, 5*time.Second); err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, 5*time.Second)
		if err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		return wire.TCPPooled(conn), party.ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// baseline runs the reference session: one range, assembled by the third
// party itself (internal/party pins that pipeline to its serial oracle).
func baseline(t *testing.T, rows int, salt uint64) *party.SessionOutcome {
	t.Helper()
	cfg := party.Config{Schema: schema(), Variant: party.Float64Variant, Parallelism: 1}
	want, err := party.RunInMemory(cfg, parts(t, rows), reqs(), random(salt))
	if err != nil {
		t.Fatalf("single-TP baseline: %v", err)
	}
	return want
}

// spawn is startWorker with test plumbing: fatal on error, killed on
// cleanup.
func spawn(t *testing.T, listen string, crashAfter int) *worker {
	t.Helper()
	w, err := startWorker(listen, crashAfter)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.kill)
	return w
}

// TestMultiProcessDifferential is the conformance grid: sessions whose
// shards' pair chunks are evaluated by real ppc-shard subprocesses must
// publish reports bit-identical to the single-TP reference at every K ×
// Parallelism configuration.
func TestMultiProcessDifferential(t *testing.T) {
	want := baseline(t, 10, 61)
	workers := make([]*worker, 4)
	addrs := make([]string, 4)
	for i := range workers {
		workers[i] = spawn(t, "127.0.0.1:0", 0)
		addrs[i] = workers[i].addr
	}
	for _, k := range []int{2, 4} {
		for _, par := range []int{1, 0} {
			label := fmt.Sprintf("k=%d parallelism=%d", k, par)
			cfg := party.Config{Schema: schema(), Variant: party.Float64Variant, Parallelism: par, TPShards: k}
			cfg.ShardDial = dialerFor(fmt.Sprintf("diff-%d-%d", k, par), addrs[:k])
			got, err := party.RunInMemory(cfg, parts(t, 10), reqs(), random(61))
			if err != nil {
				t.Fatalf("%s multi-process: %v", label, err)
			}
			assertSame(t, label+" (worker subprocesses)", want, got)
		}
	}
	for _, w := range workers {
		if w.exited() {
			t.Fatal("a worker subprocess died during the differential grid")
		}
	}
}

// TestMultiProcessKillRestartResumes scripts a worker-process crash at
// exact protocol points: shard 1's worker exits hard after relaying N
// frames, the harness respawns a fresh process on the same address, and
// the coordinator's redial re-registers there inside the reconnect
// window. Every kill point must still end bit-identical to the
// single-TP reference.
func TestMultiProcessKillRestartResumes(t *testing.T) {
	want := baseline(t, 9, 62)
	for _, kill := range []int{1, 4, 9} {
		t.Run(fmt.Sprintf("frames=%d", kill), func(t *testing.T) {
			w0 := spawn(t, "127.0.0.1:0", 0)
			doomed, err := startWorker("127.0.0.1:0", kill)
			if err != nil {
				t.Fatal(err)
			}
			respawnErr := make(chan error, 1)
			stop := respawnOnExit(doomed, func(err error) { respawnErr <- err })
			t.Cleanup(stop)

			var mu sync.Mutex
			var restarts []uint32 // epochs of shard 1's worker link coming up again
			cfg := party.Config{Schema: schema(), Variant: party.Float64Variant, TPShards: 2,
				ResumeWindow: 20 * time.Second,
				Events: func(e party.Event) error {
					if e.Kind == party.EventLinkUp && e.Link == (party.Link{Lane: 1, Worker: true}) && e.Epoch > 0 {
						mu.Lock()
						restarts = append(restarts, e.Epoch)
						mu.Unlock()
					}
					return nil
				}}
			cfg.ShardDial = dialerFor(fmt.Sprintf("kill-%d", kill), []string{w0.addr, doomed.addr})
			got, err := party.RunInMemory(cfg, parts(t, 9), reqs(), random(62))
			select {
			case rerr := <-respawnErr:
				t.Fatalf("worker respawn failed: %v", rerr)
			default:
			}
			if err != nil {
				t.Fatalf("session across the kill: %v", err)
			}
			assertSame(t, fmt.Sprintf("kill at %d frames", kill), want, got)
			if w0.exited() {
				t.Fatal("the surviving worker died")
			}
			mu.Lock()
			defer mu.Unlock()
			if len(restarts) == 0 {
				t.Fatal("no up event at epoch ≥ 1 for the killed worker's link")
			}
		})
	}
}

// TestMultiProcessKillOutsideWindow: with no reconnect window a worker
// crash fails the session promptly and classified, the coordinator leaks
// no goroutines, and the surviving worker process stays healthy enough to
// serve a follow-up session next to a fresh replacement.
func TestMultiProcessKillOutsideWindow(t *testing.T) {
	leakcheck.Check(t)
	w0 := spawn(t, "127.0.0.1:0", 0)
	doomed := spawn(t, "127.0.0.1:0", 3) // crashes after 3 relayed frames, never respawned

	cfg := party.Config{Schema: schema(), Variant: party.Float64Variant, TPShards: 2}
	cfg.ShardDial = dialerFor("kill-hard", []string{w0.addr, doomed.addr})
	_, err := party.RunInMemory(cfg, parts(t, 9), reqs(), random(63))
	if err == nil {
		t.Fatal("session across an unrecoverable worker crash succeeded")
	}
	if !errors.Is(err, party.ErrDisconnected) && !errors.Is(err, party.ErrAborted) &&
		!errors.Is(err, party.ErrSessionTimeout) {
		t.Fatalf("worker crash produced an unclassified error: %v", err)
	}
	if w0.exited() {
		t.Fatal("the surviving worker died with the session")
	}

	// The surviving process serves the next session untouched.
	w1 := spawn(t, "127.0.0.1:0", 0)
	want := baseline(t, 9, 63)
	cfg2 := party.Config{Schema: schema(), Variant: party.Float64Variant, TPShards: 2}
	cfg2.ShardDial = dialerFor("follow-up", []string{w0.addr, w1.addr})
	got, err := party.RunInMemory(cfg2, parts(t, 9), reqs(), random(63))
	if err != nil {
		t.Fatalf("follow-up session on the surviving worker: %v", err)
	}
	assertSame(t, "follow-up after hard kill", want, got)
}

// TestMultiProcessWorkerDrain: SIGTERM to a worker drains it — registered
// runs are aborted with a typed reason, the process exits on its own, and
// a session dialing the gone worker fails classified rather than hanging.
func TestMultiProcessWorkerDrain(t *testing.T) {
	w := spawn(t, "127.0.0.1:0", 0)
	if err := w.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after SIGINT")
	}
	w0 := spawn(t, "127.0.0.1:0", 0)
	cfg := party.Config{Schema: schema(), Variant: party.Float64Variant, TPShards: 2}
	cfg.ShardDial = dialerFor("drained", []string{w0.addr, w.addr})
	if _, err := party.RunInMemory(cfg, parts(t, 9), reqs(), random(64)); err == nil {
		t.Fatal("session against a drained worker succeeded")
	}
}
