package server

import (
	"net"
	"strings"
	"testing"

	"ppclust/internal/leakcheck"
	"ppclust/internal/party"
)

// startShardWorkers boots n party.ShardServer workers on their own
// localhost listeners and returns their addresses, torn down with the
// test.
func startShardWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		srv, err := party.NewShardServer(party.ShardServerConfig{Schema: testSchema(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[s] = ln.Addr().String()
	}
	return addrs
}

// runShardedSession serves one tenant session named id on a K=k server
// whose shards' pair chunks are evaluated by ShardServer workers over
// localhost TCP, checks that every lane is admitted with the routing
// accept and that the session completes with the single-TP report, and
// returns the server's metrics snapshot after completion.
func runShardedSession(t *testing.T, id string, k int) map[string]int64 {
	t.Helper()
	done := newCompletions()
	m, err := New(Config{
		Holders:    roster,
		Session:    shardedSession(k),
		ShardAddrs: startShardWorkers(t, k),
		Random:     tpRandom,
		OnComplete: done.hook,
		Logf:       t.Logf,

		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	st := newShardedTenant(t, id, k)
	st.submitAllSharded(m)
	holders := st.runHoldersSharded(shardedSession(k))
	for _, h := range roster {
		expectAccept(t, st.resp[h])
		for s := 0; s < k; s++ {
			expectAccept(t, st.shardResp[party.ShardConduitKey(h, s)])
		}
	}
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("holders failed: %v", err)
	}
	out := done.next(t)
	if out.err != nil {
		t.Fatalf("session failed: %v", out.err)
	}
	if out.id != id || len(out.report.ObjectIDs) != 5 {
		t.Fatalf("completion %q with %d objects", out.id, len(out.report.ObjectIDs))
	}
	return m.Metrics().Snapshot()
}

// TestShardProcSessionCompletes runs a full tenant session against a K=2
// server with worker processes: the worker links are metered and the
// shard_procs_active gauge settles back to zero with no restarts.
func TestShardProcSessionCompletes(t *testing.T) {
	defer leakcheck.Check(t)
	snap := runShardedSession(t, "shardproc-1", 2)
	if got := snap["shard_procs_active"]; got != 0 {
		t.Fatalf("shard_procs_active = %d after completion, want 0", got)
	}
	if got := snap["shard_restarts"]; got != 0 {
		t.Fatalf("shard_restarts = %d on a fault-free session, want 0", got)
	}
	if snap["wire_sent_bytes_workers"] == 0 || snap["wire_recv_bytes_workers"] == 0 {
		t.Fatalf("worker links not metered: sent=%d recv=%d",
			snap["wire_sent_bytes_workers"], snap["wire_recv_bytes_workers"])
	}
}

// TestShardProcConfigValidation pins the worker-pool admission rules: a
// pool without sharding, a pool sized unlike the shard count, and a
// sharded session with no pool at all are configuration errors.
func TestShardProcConfigValidation(t *testing.T) {
	if _, err := New(Config{Holders: roster, Session: testSession(),
		ShardAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("ShardAddrs without TPShards > 1 accepted")
	}
	if _, err := New(Config{Holders: roster, Session: shardedSession(2),
		ShardAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("1 worker address for 2 shards accepted")
	}
	_, err := New(Config{Holders: roster, Session: shardedSession(2)})
	if err == nil || !strings.Contains(err.Error(), "0 shard worker addresses for 2 shards") {
		t.Fatalf("2 shards without workers: %v, want the missing workers named", err)
	}
}
