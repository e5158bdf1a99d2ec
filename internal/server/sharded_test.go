package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// shardedSession is testSession with the third party split into k
// row-range shards.
func shardedSession(k int) party.Config {
	cfg := testSession()
	cfg.TPShards = k
	return cfg
}

// shardedTenant extends the pipe-backed tenant with k shard lanes per
// holder: the server side keyed by party.ShardConduitKey, the holder side
// keyed by party.ShardName.
type shardedTenant struct {
	*tenant
	k           int
	shardServer map[string]wire.Conduit // ShardConduitKey(holder, s) -> server end
	shardHolder map[string]map[string]wire.Conduit
	shardResp   map[string]*pipeResponder
}

func newShardedTenant(t *testing.T, id string, k int) *shardedTenant {
	st := &shardedTenant{
		tenant:      newTenant(t, id),
		k:           k,
		shardServer: map[string]wire.Conduit{},
		shardHolder: map[string]map[string]wire.Conduit{"A": {}, "B": {}},
		shardResp:   map[string]*pipeResponder{},
	}
	for _, h := range roster {
		for s := 0; s < k; s++ {
			hc, sc := wire.Pipe()
			key := party.ShardConduitKey(h, s)
			st.shardServer[key] = sc
			st.shardHolder[h][party.ShardName(s)] = hc
			st.shardResp[key] = newPipeResponder()
			t.Cleanup(func() { hc.Close() })
		}
	}
	return st
}

// submitAllSharded submits every holder's control and shard lanes with
// version-2 hellos.
func (st *shardedTenant) submitAllSharded(m *Manager) {
	for _, h := range roster {
		hello := st.hello(h)
		m.Submit(hello, st.server[h], st.resp[h])
		for s := 0; s < st.k; s++ {
			sh := hello
			sh.Lane = s + 1
			m.Submit(sh, st.shardServer[party.ShardConduitKey(h, s)], st.shardResp[party.ShardConduitKey(h, s)])
		}
	}
}

// runHoldersSharded drives both holders with their shard conduits wired in.
func (st *shardedTenant) runHoldersSharded(cfg party.Config) <-chan error {
	tables := testTables()
	random := sessionRandom(st.id)
	errs := make(chan error, 2)
	run := func(name string, conduits map[string]wire.Conduit) {
		h, err := party.NewHolder(name, tables[name], roster, cfg, party.ClusterRequest{K: 2}, conduits, random(name))
		if err != nil {
			errs <- err
			return
		}
		_, err = h.Run()
		errs <- err
	}
	condA := map[string]wire.Conduit{party.TPName: st.holder["A"], "B": st.ab}
	condB := map[string]wire.Conduit{party.TPName: st.holder["B"], "A": st.ba}
	for name, c := range st.shardHolder["A"] {
		condA[name] = c
	}
	for name, c := range st.shardHolder["B"] {
		condB[name] = c
	}
	go run("A", condA)
	go run("B", condB)
	out := make(chan error, 1)
	go func() { out <- errors.Join(<-errs, <-errs) }()
	return out
}

// TestShardedSessionCompletes runs a full tenant session against a K=2
// sharded server: every lane is admitted with the routing accept, the
// session completes with the single-TP report, and the per-shard wire
// counters land where documented, each below the summed counter.
func TestShardedSessionCompletes(t *testing.T) {
	defer leakcheck.Check(t)
	const k = 2
	snap := runShardedSession(t, "sharded-1", k)
	for s := 0; s < k; s++ {
		for _, dir := range []string{"sent", "recv"} {
			bytesKey := fmt.Sprintf("wire_%s_bytes_shard%d", dir, s)
			framesKey := fmt.Sprintf("wire_%s_frames_shard%d", dir, s)
			if snap[bytesKey] == 0 || snap[framesKey] == 0 {
				t.Fatalf("shard lane %d not metered: %s=%d %s=%d (snapshot %v)",
					s, bytesKey, snap[bytesKey], framesKey, snap[framesKey], snap)
			}
		}
	}
	if snap["wire_sent_bytes"] <= snap["wire_sent_bytes_shard0"] {
		t.Fatalf("summed wire counter %d not above shard 0's %d",
			snap["wire_sent_bytes"], snap["wire_sent_bytes_shard0"])
	}
}

// TestShardedServerRefusesPreShardHellos: a holder that predates the
// routing admission could never learn the shard count, so its version-1
// hello gets the typed version refusal, and a shard lane outside the
// configured range gets the session refusal.
func TestShardedServerRefusesPreShardHellos(t *testing.T) {
	defer leakcheck.Check(t)
	m, err := New(Config{Holders: roster, Session: shardedSession(2), ShardAddrs: startShardWorkers(t, 2),
		Random: tpRandom, Logf: t.Logf, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	te := newTenant(t, "old")
	old := te.hello("A")
	old.Version = 1
	m.Submit(old, te.server["A"], te.resp["A"])
	rej := expectReject(t, te.resp["A"], netid.RejectVersion)
	if want := "server speaks 2 to 3"; !strings.Contains(rej.Detail, want) {
		t.Fatalf("version refusal detail %q does not mention %q", rej.Detail, want)
	}

	c, s := wire.Pipe()
	defer c.Close()
	r := newPipeResponder()
	m.Submit(netid.Hello{Name: "A", Session: "old", Version: netid.VersionSharded, Lane: 3}, s, r)
	expectReject(t, r, netid.RejectSession)
}

// TestShardedGatherSendsEarlyAccepts: in a sharded gather the server must
// answer each control connection as it joins — the routing accept is what
// tells a holder to dial its shard lanes — rather than deferring every
// accept to the completed roster.
func TestShardedGatherSendsEarlyAccepts(t *testing.T) {
	defer leakcheck.Check(t)
	const k = 2
	done := newCompletions()
	m, err := New(Config{
		Holders: roster, Session: shardedSession(k), ShardAddrs: startShardWorkers(t, k), Random: tpRandom,
		OnComplete: done.hook, Logf: t.Logf, MaxSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	st := newShardedTenant(t, "early", k)
	// Only holder A's control lane joins: with the roster incomplete, the
	// accept must still arrive so A can dial its shard lanes.
	helloA := st.hello("A")
	m.Submit(helloA, st.server["A"], st.resp["A"])
	expectAccept(t, st.resp["A"])
	if active := m.Metrics().Active(); active != 1 {
		t.Fatalf("active = %d, want 1 (gathering)", active)
	}
	// The remaining lanes complete the roster; the session runs.
	for s := 0; s < k; s++ {
		sh := helloA
		sh.Lane = s + 1
		m.Submit(sh, st.shardServer[party.ShardConduitKey("A", s)], st.shardResp[party.ShardConduitKey("A", s)])
	}
	helloB := st.hello("B")
	m.Submit(helloB, st.server["B"], st.resp["B"])
	for s := 0; s < k; s++ {
		sh := helloB
		sh.Lane = s + 1
		m.Submit(sh, st.shardServer[party.ShardConduitKey("B", s)], st.shardResp[party.ShardConduitKey("B", s)])
	}
	holders := st.runHoldersSharded(shardedSession(k))
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("holders failed: %v", err)
	}
	if out := done.next(t); out.err != nil || out.id != "early" {
		t.Fatalf("completion %q err=%v", out.id, out.err)
	}
}
