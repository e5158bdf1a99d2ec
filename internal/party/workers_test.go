package party

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/wire"
)

// A third party of TPShards > 1 runs its shards' pair chunks on worker
// processes, so every sharded session a test runs needs workers. The
// pool below runs them in the test process, each a real ShardServer
// behind its own localhost TCP listener (internal/proctest runs them as
// real processes).

// shardWorkerPool runs N ShardServers over real localhost TCP — the
// worker half of the cross-process protocol without the subprocess spawn.
// The address registry is mutable so tests can retarget a shard's dials
// mid-session (worker restart) and conduit hooks can inject link faults
// on the coordinator's side of a dial.
type shardWorkerPool struct {
	t       testing.TB
	mu      sync.Mutex
	addrs   map[int]string
	servers []*ShardServer
}

func newShardWorkerPool(t testing.TB, shards int, cfg ShardServerConfig) *shardWorkerPool {
	t.Helper()
	p := &shardWorkerPool{t: t, addrs: make(map[int]string)}
	for s := 0; s < shards; s++ {
		p.setAddr(s, p.startWorker(cfg))
	}
	t.Cleanup(p.close)
	return p
}

// startWorker boots one ShardServer on its own listener and returns its
// address. The server is torn down with the pool.
func (p *shardWorkerPool) startWorker(cfg ShardServerConfig) string {
	p.t.Helper()
	srv, err := NewShardServer(cfg)
	if err != nil {
		p.t.Fatalf("shard server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.t.Fatalf("shard listener: %v", err)
	}
	go srv.Serve(ln)
	p.mu.Lock()
	p.servers = append(p.servers, srv)
	p.mu.Unlock()
	return ln.Addr().String()
}

func (p *shardWorkerPool) setAddr(shard int, addr string) {
	p.mu.Lock()
	p.addrs[shard] = addr
	p.mu.Unlock()
}

func (p *shardWorkerPool) close() {
	p.mu.Lock()
	servers := p.servers
	p.servers = nil
	p.mu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
}

// dialer builds the ShardDialFunc a deployment's coordinator would use:
// TCP dial, v4 shard-registration hello with the resume state, watermark
// grant, pooled conduit. wrap, when non-nil, decorates each returned
// conduit (keyed by shard and the per-shard dial ordinal) — the hook tests
// use to flap or cut a worker link.
func (p *shardWorkerPool) dialer(session string, wrap func(shard, dial int, c wire.Conduit) wire.Conduit) ShardDialFunc {
	dials := make(map[int]int)
	var mu sync.Mutex
	return func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		p.mu.Lock()
		addr := p.addrs[shard]
		p.mu.Unlock()
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, ResumeGrant{}, err
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, TPName, session, shard,
			state.Epoch, state.Sent, state.Recv, 5*time.Second); err != nil {
			conn.Close()
			return nil, ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, 5*time.Second)
		if err != nil {
			conn.Close()
			return nil, ResumeGrant{}, err
		}
		c := wire.Conduit(wire.TCPPooled(conn))
		if wrap != nil {
			mu.Lock()
			n := dials[shard]
			dials[shard] = n + 1
			mu.Unlock()
			c = wrap(shard, n, c)
		}
		return c, ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// withWorkers returns cfg as its third party runs: at TPShards > 1 with a
// ShardDial into the pool, worker s serving shard s of the session named
// session, which must be unique among the sessions the pool serves at
// once. A one-range cfg comes back as it is.
func (p *shardWorkerPool) withWorkers(cfg Config, session string) Config {
	if cfg.shardCount() > 1 {
		cfg.ShardDial = p.dialer(session, nil)
	}
	return cfg
}
