package party

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/keys"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// shardWorkerPool runs N in-process ShardServers over real localhost TCP —
// the worker half of the cross-process protocol without the subprocess
// spawn (internal/proctest covers real processes). The address registry is
// mutable so tests can retarget a shard's dials mid-session (worker
// restart) and conduit hooks can inject link faults on the coordinator's
// side of a dial.
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

// TestShardProcMatchesInProcess is the cross-process differential pin: at
// K=2 and K=4, with the shard pipelines in ShardServer workers on the far
// side of real TCP links, the session must publish reports bit-identical
// to the in-process sharded path and the phase-serial single-TP reference.
func TestShardProcMatchesInProcess(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(41), nil)
	if err != nil {
		t.Fatalf("single-TP baseline: %v", err)
	}
	for _, k := range []int{2, 4} {
		for _, workers := range []int{1, 0} {
			inproc := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers, TPShards: k}
			oracle, err := RunInMemory(inproc, parts, reqs, deterministicRandom(41))
			if err != nil {
				t.Fatalf("shards=%d workers=%d in-process oracle: %v", k, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("in-process shards=%d workers=%d", k, workers), want, oracle)

			pool := newShardWorkerPool(t, k, ShardServerConfig{Schema: pipelineSchema()})
			cfg := inproc
			cfg.ShardDial = pool.dialer(fmt.Sprintf("proc-%d-%d", k, workers), nil)
			got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(41))
			if err != nil {
				t.Fatalf("shards=%d workers=%d cross-process: %v", k, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("cross-process shards=%d workers=%d", k, workers), want, got)
			pool.close()
		}
	}
}

// TestShardProcMoreShardsThanRows: with more shard workers than triangle
// rows only the active ranges are dialed — the surplus workers see no
// registration at all — and the report stays bit-identical.
func TestShardProcMoreShardsThanRows(t *testing.T) {
	parts := pipelineParts(t, 1) // holders of 1, 2 and 3 rows: 6 triangle rows
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(42), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool := newShardWorkerPool(t, 8, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 8}
	cfg.ShardDial = pool.dialer("proc-degenerate", nil)
	got, err := RunInMemory(cfg, parts, nil, deterministicRandom(42))
	if err != nil {
		t.Fatalf("shards=8 over 6 rows: %v", err)
	}
	assertSameOutcome(t, "shards=8 over 6 rows", want, got)
}

// TestChaosShardProcLinkFlapResumes pins worker-link self-healing: the
// coordinator's link to one worker flaps mid-relay, the redial re-registers
// (superseding the worker's half-fed run), the Reconn replays the entire
// stream from frame one, and the fresh run recomputes — the report stays
// bit-identical to the fault-free cross-process session. Frame 2 on the
// worker link is the slice offer; later ordinals land mid relay.
func TestChaosShardProcLinkFlapResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(43), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, frame := range []int{2, 5, 9} {
		pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
			ResumeWindow: 10 * time.Second}
		cfg.ShardDial = pool.dialer(fmt.Sprintf("proc-flap-%d", frame),
			func(shard, dial int, c wire.Conduit) wire.Conduit {
				if shard == 1 && dial == 0 {
					return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: frame})
				}
				return c
			})
		got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(43))
		if err != nil {
			t.Fatalf("flap at frame %d: %v", frame, err)
		}
		assertSameOutcome(t, fmt.Sprintf("worker link flap at frame %d", frame), want, got)
		pool.close()
	}
}

// TestChaosShardProcWorkerRestartResumes is the process-death shape at the
// package level: shard 0's worker link is severed abruptly mid-relay (a
// crash sends no abort frame — unlike a graceful drain), the address
// registry is retargeted to a freshly booted worker, and the coordinator's
// redial loop re-registers there. The replacement recomputes the slice
// from the replayed stream and the report stays bit-identical.
func TestChaosShardProcWorkerRestartResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(44), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second}
	cfg.ShardDial = pool.dialer("proc-restart",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				// Stand the replacement up before the cut lands so the
				// redial dials the new process, exactly as a pool manager
				// restarting a crashed worker.
				pool.setAddr(0, pool.startWorker(ShardServerConfig{Schema: pipelineSchema()}))
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 6})
			}
			return c
		})
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(44))
	if err != nil {
		t.Fatalf("restarted-worker session: %v", err)
	}
	assertSameOutcome(t, "worker restart", want, got)
}

// TestChaosShardProcCutMidSlice is the worker restart at the worst point
// of the slice hand-off: shard 0's link is cut after the coordinator has
// installed two chunks of its first slice and before the third arrives.
// The redial lands on a freshly booted worker, which recomputes from the
// replayed stream and resends every chunk; the coordinator drops the two
// it already installed and installs the rest, and the report stays
// bit-identical to the serial oracle.
func TestChaosShardProcCutMidSlice(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(45), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		LocalChunkBytes: 256, ResumeWindow: 10 * time.Second}
	// The worker links are secured whatever the holder channels are, so
	// the tap in their middle parses what it relays.
	tp := newTap(Config{PlaintextChannels: true})
	var mu sync.Mutex
	slicesFrom0, cut := 0, false
	links := tp.workerLinks(pool.servers[0].fp, func(f *tapFrame) error {
		if f.From != ShardName(0) || f.Msg.Kind != kindShardSlice {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if slicesFrom0++; slicesFrom0 == 3 && !cut {
			cut = true
			return errSever
		}
		return nil
	})
	cfg.ShardDial = pool.dialer("proc-cut-mid-slice", func(shard, dial int, c wire.Conduit) wire.Conduit {
		if shard == 0 && dial == 0 {
			// The replacement stands by before the cut, as a pool manager
			// restarting a crashed worker would have it.
			pool.setAddr(0, pool.startWorker(ShardServerConfig{Schema: pipelineSchema()}))
		}
		return links(shard, dial, c)
	})
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(45))
	if err != nil {
		t.Fatalf("session cut mid-slice: %v", err)
	}
	assertSameOutcome(t, "worker cut mid-slice", want, got)

	// The first worker sent three chunks, the third undelivered; its
	// replacement sent every chunk of each of the three comparison
	// attributes.
	normal, _, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	r := dissim.ShardRanges(8+9+10, 2)[0] // pipelineParts(t, 8) holds 8, 9 and 10 rows
	perSlice := len(normal.localChunksRange(r[0], r[1]))
	if perSlice < 3 {
		t.Fatalf("shard 0's slices have %d chunks, the cut needs 3+", perSlice)
	}
	if sent, want := len(tp.sent(ShardName(0), TPName, kindShardSlice)), 3+3*perSlice; !cut || sent != want {
		t.Fatalf("shard 0 sent %d slice chunks (cut: %v), want 3 before the cut and %d after", sent, cut, want-3)
	}
}

// TestShardProcWorkerFramesBounded: a worker returns its slices in frames
// no larger than the chunk budget plus fixed framing, whatever the
// session's size. A whole slice in one frame would carry 4·n(n−1)/K bytes
// — at K = 2 past wire.MaxFrame, and so refused with ErrFrameTooLarge,
// from about 11 600 objects — so the frame ceiling does not limit a
// sharded session.
func TestShardProcWorkerFramesBounded(t *testing.T) {
	const budget = 4 << 10
	const framing = 64 // the envelope and the chunk's row range
	cfg, parts, reqs := pairCPUParts(200)
	cfg.Variant, cfg.TPShards, cfg.LocalChunkBytes = Float64Variant, 2, budget
	want, err := RunInMemory(cfg, parts, reqs, deterministicRandom(48))
	if err != nil {
		t.Fatalf("in-process shards: %v", err)
	}
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: cfg.Schema})
	tp := newTap(Config{PlaintextChannels: true})
	cfg.ShardDial = pool.dialer("bounded-frames", tp.workerLinks(pool.servers[0].fp, nil))
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(48))
	if err != nil {
		t.Fatalf("worker session: %v", err)
	}
	assertSameOutcome(t, "worker session at a 4 KiB chunk budget", want, got)
	chunks, largest := 0, 0
	for _, f := range tp.sent("", TPName) {
		largest = max(largest, len(f.Raw))
		if f.Msg.Kind == kindShardSlice {
			chunks++
		}
	}
	if largest > budget+framing {
		t.Errorf("a worker sent a %d-byte frame, the chunk budget is %d", largest, budget)
	}
	// 400 objects: two slices of about 40 000 cells, 512 cells a chunk.
	if chunks < 150 {
		t.Errorf("the workers returned their slices in %d frames", chunks)
	}
	t.Logf("%d slice chunks, the largest worker frame %d bytes", chunks, largest)
}

// TestChaosShardProcKillOutsideWindow: without a reconnect window a severed
// worker link fails the session promptly and classified — ErrDisconnected
// (or the peers' ErrAborted view), never a hang — and leaves no goroutine
// behind in the coordinator.
func TestChaosShardProcKillOutsideWindow(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := chaosConfig()
	cfg.TPShards = 2
	cfg.ShardDial = pool.dialer("proc-kill",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 1 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 4})
			}
			return c
		})
	out, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(), deterministicRandom(45), nil)
	if err == nil {
		t.Fatalf("cut worker link: session succeeded, outcome %v", out)
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("cut worker link: unclassified error: %v", err)
	}
}

// TestChaosShardProcRedialRefusedFatal: a redial answered with a typed
// fatal refusal (ErrResumeAborted from the control plane) must end the
// degraded session classified ErrDisconnected, with the refusal kept in the
// chain, without burning the window.
func TestChaosShardProcRedialRefusedFatal(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	inner := pool.dialer("proc-refuse",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 3})
			}
			return c
		})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second, SessionTimeout: time.Minute}
	cfg.ShardDial = func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		if state.Epoch > 0 {
			return nil, ResumeGrant{}, fmt.Errorf("pool: %w", ErrResumeAborted)
		}
		return inner(ctx, shard, state)
	}
	start := time.Now()
	_, err := RunInMemory(cfg, parts, pipelineReqs(), deterministicRandom(46))
	if err == nil {
		t.Fatal("refused redial: session succeeded")
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) {
		t.Fatalf("refused redial: unclassified error: %v", err)
	}
	if !errors.Is(err, ErrResumeAborted) {
		t.Fatalf("refused redial: refusal class lost from the chain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("refused redial burned the window: took %v", elapsed)
	}
}

// TestChaosShardProcWindowExpiry is TestChaosReconnectWindowExpiry on a
// worker link: when no replacement worker can be dialed inside the window,
// the session fails classified ErrSessionTimeout with
// wire.ErrReconnectExpired kept in the chain, as a holder lane's does.
func TestChaosShardProcWindowExpiry(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	inner := pool.dialer("proc-expiry",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 3})
			}
			return c
		})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 200 * time.Millisecond, SessionTimeout: time.Minute}
	cfg.ShardDial = func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		if state.Epoch > 0 {
			return nil, ResumeGrant{}, errors.New("pool: worker unreachable")
		}
		return inner(ctx, shard, state)
	}
	_, err := RunInMemory(cfg, pipelineParts(t, 8), pipelineReqs(), deterministicRandom(48))
	if !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout after the worker link's window expired, got %v", err)
	}
	if !errors.Is(err, wire.ErrReconnectExpired) {
		t.Fatalf("wire.ErrReconnectExpired lost from the chain: %v", err)
	}
}

// eagerWorker stands in for a shard worker that answers the slice offer
// with (all-zero) slices at once, without waiting for a single relayed
// frame, and then drains its link — so the coordinator's slice collectors
// finish while its relay pumps are still mid-stream.
func eagerWorker(t *testing.T, schema dataset.Schema) ShardDialFunc {
	return func(_ context.Context, shard int, _ ResumeState) (wire.Conduit, ResumeGrant, error) {
		near, far := wire.Pipe()
		go func() {
			defer far.Close()
			id, err := keys.NewIdentity(ShardName(shard), rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			secured, _, err := handshake(far, ShardName(shard), TPName, id, schemaFingerprint(schema), false)
			if err != nil {
				return
			}
			ep := wire.NewEndpoint(secured)
			var offer shardOfferBody
			if _, err := ep.Expect(kindShardOffer, &offer); err != nil {
				return
			}
			zeros := make([]float64, offer.Hi*(offer.Hi-1)/2-offer.Lo*(offer.Lo-1)/2)
			cells := make([][]float64, len(schema.Attrs))
			for attr := range cells {
				cells[attr] = zeros
			}
			err = sendSlices(Config{Schema: schema, LocalChunkBytes: offer.LocalChunkBytes}, [2]int{offer.Lo, offer.Hi}, cells,
				func(b shardSliceBody) error {
					return ep.SendBody(wire.Message{From: ShardName(shard), To: TPName, Kind: kindShardSlice, Attr: b.Attr}, b)
				})
			if err != nil {
				return
			}
			for {
				if _, err := ep.Recv(); err != nil {
					return
				}
			}
		}()
		return near, ResumeGrant{}, nil
	}
}

// TestChaosShardProcPumpFailsAfterSlices is the -race regression for the
// coordinator's error hand-off: relay pumps outlive the slice collectors,
// so a pump whose holder lane dies after every slice is in reports its
// failure while the session body is deciding whether it succeeded. The
// decision must read that failure under the lock and the session must end
// with the relay error, not publish.
func TestChaosShardProcPumpFailsAfterSlices(t *testing.T) {
	leakcheck.Check(t)
	cfg, _, err := chaosConfig().normalized() // the fingerprint covers defaulted weights
	if err != nil {
		t.Fatal(err)
	}
	cfg.TPShards = 2
	cfg.ShardDial = eagerWorker(t, cfg.Schema)
	// C is the holder whose rows reach shard 1; its lane there dies on the
	// coordinator's side after the hello and two chunk frames.
	tp := newTap(cfg)
	tp.onRecv(ShardName(1), "C", func(f *tapFrame) ([][]byte, error) {
		if f.N > 3 {
			return nil, errSever
		}
		return f.pass()
	})
	_, err = RunInMemoryWrapped(cfg, pipelineParts(t, 8), pipelineReqs(), deterministicRandom(47), tp.wrap)
	if err == nil {
		t.Fatal("session with a dead relay lane published")
	}
	if !strings.Contains(err.Error(), "relaying C frames to shard worker 1") {
		t.Fatalf("session error does not name the failed relay: %v", err)
	}
}

// TestShardProcRegistrationOrderedByEpoch pins the supersede fence on the
// worker: registrations are handled concurrently, so the hello of a link
// the coordinator already replaced can finish its handshake after its
// successor's. The higher epoch must win in either arrival order, and the
// loser must die silently — an abort frame on a replaced link either has
// no reader or one that takes it for the session's.
func TestShardProcRegistrationOrderedByEpoch(t *testing.T) {
	leakcheck.Check(t)
	for _, order := range [][2]uint32{{1, 0}, {0, 1}} {
		t.Run(fmt.Sprintf("epoch-%d-then-%d", order[0], order[1]), func(t *testing.T) {
			events := make(chan string, 16) // a handful of lifecycle lines per registration
			pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema(),
				Logf: func(format string, args ...any) { events <- fmt.Sprintf(format, args...) }})
			defer pool.close()
			dial := pool.dialer("epoch-order", nil)
			cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			tp := &ThirdParty{cfg: cfg, guard: newGuard(TPName, cfg)}
			defer tp.guard.release()
			if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
				t.Fatal(err)
			}
			// register completes one registration and returns once the
			// worker has decided what to do with it.
			register := func(epoch uint32) *wire.Endpoint {
				raw, _, err := dial(context.Background(), 0, ResumeState{Epoch: epoch})
				if err != nil {
					t.Fatalf("dial epoch %d: %v", epoch, err)
				}
				secured, err := tp.shardSecure(0, raw)
				if err != nil {
					t.Fatalf("handshake epoch %d: %v", epoch, err)
				}
				t.Cleanup(func() { secured.Close() })
				for {
					select {
					case ev := <-events:
						if strings.HasPrefix(ev, "event=shard-register") {
							return wire.NewEndpoint(secured)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("worker never logged the epoch %d registration", epoch)
					}
				}
			}
			eps := map[uint32]*wire.Endpoint{}
			eps[order[0]] = register(order[0])
			eps[order[1]] = register(order[1])

			// The loser's link just closes: no abort frame.
			if m, err := eps[0].Recv(); !errors.Is(err, wire.ErrClosed) {
				t.Fatalf("epoch 0 link: want a silent close, got message %+v, err %v", m, err)
			}
			// The winner's run is alive: it answers a bad offer itself.
			offer := shardOfferBody{Fingerprint: "bogus"}
			if err := eps[1].SendBody(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
				t.Fatalf("offer on the epoch 1 link: %v", err)
			}
			m, err := eps[1].Recv()
			if err != nil || m.Kind != kindAbort || !strings.Contains(peerAbortError(m).Error(), "fingerprint") {
				t.Fatalf("epoch 1 link: want the run's own fingerprint abort, got %+v, err %v", m, err)
			}
		})
	}
}

// TestShardProcDrainingWorkerRejects: a draining worker answers
// registrations with a typed netid rejection, so a session dialing it
// fails instead of hanging.
func TestShardProcDrainingWorkerRejects(t *testing.T) {
	srv, err := NewShardServer(ShardServerConfig{Schema: pipelineSchema()})
	if err != nil {
		t.Fatalf("shard server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listener: %v", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	addr := ln.Addr().String()

	// A live worker rejects a non-registration hello by version.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := netid.AnnounceResumeWithin(conn, TPName, "s", 0, 1, 0, 0, 5*time.Second); err != nil {
		t.Fatalf("announce: %v", err)
	}
	_, _, err = netid.AwaitResumeGrant(conn, 5*time.Second)
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
		t.Fatalf("v3 hello to a shard worker: want RejectVersion, got %v", err)
	}
	conn.Close()

	srv.Close()
	<-serveDone

	// Close unblocked Serve; the listener is gone, so a draining worker is
	// simply unreachable (the pre-close drain rejection is raced by the
	// listener teardown and not separately observable here).
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}

// TestShardProcRefusesRetiredHellos: the bare name label and the version-1
// hello reach a shard worker's listener as they reach any other — both are
// refused by version and the connection closed, leaving no run and no
// goroutine behind, and a real session registered on the same listeners
// afterwards is bit-identical to the single-TP reference.
func TestShardProcRefusesRetiredHellos(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	for _, raw := range []string{"\x02TP", "\xff\x01\x02TP\x00"} {
		conn, err := net.Dial("tcp", pool.addrs[0])
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		_, _, err = netid.AwaitResumeGrant(conn, 5*time.Second)
		var rej *netid.RejectedError
		if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
			t.Fatalf("hello %q to a shard worker: want RejectVersion, got %v", raw, err)
		}
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("hello %q: connection not closed after the refusal: %v", raw, err)
		}
	}

	parts := pipelineParts(t, 1)
	want, err := runSerialTP(Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1},
		parts, nil, deterministicRandom(43), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2}
	cfg.ShardDial = pool.dialer("after-refusals", nil)
	got, err := RunInMemory(cfg, parts, nil, deterministicRandom(43))
	if err != nil {
		t.Fatalf("session after the refusals: %v", err)
	}
	assertSameOutcome(t, "session after the refusals", want, got)
}

// sliceHarness runs worker 0's slice collector for rows [3, 9) of a
// pipelineSchema session at an 8-cell chunk budget — five chunks per
// attribute — installing into matrices; peer is the worker's end of the
// link.
type sliceHarness struct {
	cfg      Config
	r        [2]int
	chunks   [][2]int
	comp     []int // the comparison attributes
	matrices []*dissim.Matrix
	maxes    []float64
	peer     *wire.Endpoint
	done     chan error
}

func newSliceHarness(t *testing.T) *sliceHarness {
	t.Helper()
	cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 64}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	h := &sliceHarness{cfg: cfg, r: [2]int{3, 9}, done: make(chan error, 1)}
	h.chunks = cfg.localChunksRange(h.r[0], h.r[1])
	h.matrices = make([]*dissim.Matrix, len(cfg.Schema.Attrs))
	h.maxes = make([]float64, len(cfg.Schema.Attrs))
	for attr, a := range cfg.Schema.Attrs {
		if !tagBased(a.Type) {
			h.comp = append(h.comp, attr)
			h.matrices[attr] = dissim.New(h.r[1])
		}
	}
	if len(h.chunks) < 3 || len(h.comp) < 2 {
		t.Fatalf("%d chunks of %d comparison attributes, need 3 of 2+", len(h.chunks), len(h.comp))
	}
	tp := &ThirdParty{cfg: cfg, guard: newGuard(TPName, cfg)}
	a, b := wire.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
		tp.guard.release()
	})
	h.peer = wire.NewEndpoint(b)
	link := &shardLink{s: 0, ep: wire.NewEndpoint(a)}
	go func() { h.done <- tp.collectShardSlices(0, link, h.r, h.matrices, h.maxes) }()
	return h
}

// cells is a generation of slices: by comparison attribute, the packed
// cells of the harness's rows, from v up.
func (h *sliceHarness) cells(v float64) [][]float64 {
	out := make([][]float64, len(h.matrices))
	n := h.r[1]*(h.r[1]-1)/2 - h.r[0]*(h.r[0]-1)/2
	for _, attr := range h.comp {
		out[attr] = make([]float64, n)
		for i := range out[attr] {
			out[attr][i] = v + float64(attr*n+i)
		}
	}
	return out
}

// send sends body as a slice chunk in an envelope of attribute attr.
func (h *sliceHarness) send(attr int, body wire.BodyAppender) error {
	return h.peer.SendBody(wire.Message{From: ShardName(0), To: TPName, Kind: kindShardSlice, Attr: attr}, body)
}

// installed is what the collector installed of attr's rows.
func (h *sliceHarness) installed(attr int) []float64 {
	return h.matrices[attr].PackedRowsView(h.r[0], h.r[1])
}

// TestShardSliceDedup drives the collector's duplicate-chunk guard
// directly: the first generation installs two of the first attribute's
// chunks, then a restarted worker resends every chunk after the replay,
// with different bytes. The installed cells must not change — the first
// install wins — and the rest install from the second generation, each
// counted once.
func TestShardSliceDedup(t *testing.T) {
	h := newSliceHarness(t)
	first, second := h.cells(1), h.cells(1000)
	errStop := errors.New("the first generation's link dies")
	go func() {
		h.peer.SendBody(wire.Message{From: ShardName(0), To: TPName, Kind: kindShardBeat, Attr: -1}, shardBeatBody{})
		sent := 0
		sendSlices(h.cfg, h.r, first, func(b shardSliceBody) error {
			if sent == 2 {
				return errStop
			}
			sent++
			return h.send(b.Attr, b)
		})
		sendSlices(h.cfg, h.r, second, func(b shardSliceBody) error { return h.send(b.Attr, b) })
	}()
	if err := <-h.done; err != nil {
		t.Fatalf("collect: %v", err)
	}
	kept := h.chunks[2][0]*(h.chunks[2][0]-1)/2 - h.r[0]*(h.r[0]-1)/2 // cells of the first two chunks
	for _, attr := range h.comp {
		want := second[attr]
		if attr == h.comp[0] {
			want = slices.Concat(first[attr][:kept], second[attr][kept:])
		}
		if got := h.installed(attr); !slices.Equal(got, want) {
			t.Errorf("attribute %d: installed %v, want %v", attr, got, want)
		}
		if h.maxes[attr] != slices.Max(want) {
			t.Errorf("attribute %d: max %v, want %v", attr, h.maxes[attr], slices.Max(want))
		}
	}
}

// TestShardSliceChunksRefused: a slice chunk off the schedule, in an
// envelope of another attribute, with a cell that is no dissimilarity,
// with bytes past its last cell, or a whole slice in one frame of the
// retired layout (Attr | float64 Max | cells) — or of this one — is
// refused, and installs nothing.
func TestShardSliceChunksRefused(t *testing.T) {
	withCell := func(v float64) func(h *sliceHarness) error {
		return func(h *sliceHarness) error {
			cells := h.cells(1)[h.comp[0]]
			cells[1] = v
			ch := h.chunks[0]
			return h.send(h.comp[0], shardSliceBody{Attr: h.comp[0], Lo: ch[0], Hi: ch[1], Cells: cells[:ch[1]*(ch[1]-1)/2-ch[0]*(ch[0]-1)/2]})
		}
	}
	raw := func(payload func(h *sliceHarness) []byte) func(h *sliceHarness) error {
		return func(h *sliceHarness) error {
			return h.send(h.comp[0], shardFrameBody{Frame: payload(h)}) // the bytes as they are
		}
	}
	firstChunk := func(h *sliceHarness) shardSliceBody {
		var body shardSliceBody
		sendSlices(h.cfg, h.r, h.cells(1), func(b shardSliceBody) error { body = b; return io.EOF })
		return body
	}
	for _, tc := range []struct {
		name string
		send func(h *sliceHarness) error
		want string
	}{
		{"off schedule", func(h *sliceHarness) error {
			ch := h.chunks[1]
			return h.send(h.comp[0], shardSliceBody{Attr: h.comp[0], Lo: ch[0], Hi: ch[1], Cells: make([]float64, ch[1]*(ch[1]-1)/2-ch[0]*(ch[0]-1)/2)})
		}, "covers rows [5,6), schedule says [3,5)"},
		{"envelope attribute", func(h *sliceHarness) error { return h.send(h.comp[1], firstChunk(h)) }, "in an envelope of attribute"},
		{"NaN cell", withCell(math.NaN()), "invalid packed entry NaN"},
		{"negative cell", withCell(-1), "invalid packed entry -1"},
		{"+Inf cell", withCell(math.Inf(1)), "invalid packed entry +Inf"},
		{"trailing bytes", raw(func(h *sliceHarness) []byte {
			enc, _ := wire.EncodeBody(firstChunk(h))
			return append(enc, 0)
		}), "trailing bytes"},
		{"one-frame slice", raw(func(h *sliceHarness) []byte {
			cells := h.cells(1)[h.comp[0]]
			return appendFloat64s(appendFloat64(appendInt(nil, h.comp[0]), slices.Max(cells)), cells)
		}), "malformed"},
		{"one-frame slice without its max", func(h *sliceHarness) error {
			return h.send(h.comp[0], shardSliceBody{Attr: h.comp[0], Lo: h.r[0], Hi: h.r[1], Cells: h.cells(1)[h.comp[0]]})
		}, "covers rows [3,9), schedule says [3,5)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newSliceHarness(t)
			if err := tc.send(h); err != nil {
				t.Fatal(err)
			}
			err := <-h.done
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error saying %q", err, tc.want)
			}
			for _, attr := range h.comp {
				if slices.Max(h.installed(attr)) != 0 {
					t.Errorf("attribute %d: a refused chunk was installed: %v", attr, h.installed(attr))
				}
			}
		})
	}
}

// TestShardOfferValidation exercises the worker's offer hygiene: a
// mismatched schema fingerprint, a shard index disagreeing with the
// registration, and a range outside the census must all be refused as
// aborts on the coordinator's link, not computed.
func TestShardOfferValidation(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	dial := pool.dialer("offer-validation", nil)

	for _, tc := range []struct {
		name   string
		mutate func(*shardOfferBody)
	}{
		{"fingerprint", func(o *shardOfferBody) { o.Fingerprint = "bogus" }},
		{"shard-index", func(o *shardOfferBody) { o.Shard = 3 }},
		{"range", func(o *shardOfferBody) { o.Hi = 1 << 30 }},
		{"seed-shape", func(o *shardOfferBody) { o.Seeds = o.Seeds[:1] }},
		{"row-seed-shape", func(o *shardOfferBody) { o.RowSeeds = o.RowSeeds[:1] }},
		{"row-seed-pairs", func(o *shardOfferBody) { o.RowSeeds[1] = nil }},
		{"row-seeds-missing", func(o *shardOfferBody) { o.RowSeeds = nil }},
		{"count-shape", func(o *shardOfferBody) { o.Counts = o.Counts[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
				guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
			tp.cfg.ShardDial = dial
			var idErr error
			tp.identity, idErr = keys.NewIdentity(TPName, rand.Reader)
			if idErr != nil {
				t.Fatal(idErr)
			}
			defer tp.guard.release()
			link, err := tp.dialShard(0)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer link.close()
			seeds, rowSeeds := tp.seedTables()
			offer := shardOfferBody{
				Shard: 0, Lo: 0, Hi: 3,
				Holders:     tp.holders,
				Counts:      tp.counts,
				Fingerprint: schemaFingerprint(cfg.Schema),
				Variant:     cfg.Variant,
				RNG:         cfg.RNG,
				Seeds:       seeds,
				RowSeeds:    rowSeeds,
			}
			tc.mutate(&offer)
			if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
				t.Fatalf("send offer: %v", err)
			}
			m, err := link.ep.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if m.Kind != kindAbort {
				t.Fatalf("want an abort for a %s-mutated offer, got %q", tc.name, m.Kind)
			}
		})
	}
}

// TestShardProcOfferParamsCannotCrashWorker: the offer once carried the
// coordinator's integer mask bounds and parallelism, and a worker trusted
// them — an offer with MaskRange 0 for an int64 per-pair session over a
// range that starts mid-holder made the keystream positioning panic in a
// stage goroutine, killing every session of the process, and a crafted
// parallelism sized the worker's compute. That gob-era offer is now
// refused as malformed with a typed abort; an offer in the fixed layout
// over such a range must leave the worker answering with a heartbeat,
// slice or abort, its core sized from the worker's own cores; and the same
// ShardServer must then complete a normal session.
func TestShardProcOfferParamsCannotCrashWorker(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	cfg, _, err := Config{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair, Parallelism: 1}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
		guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
	defer tp.guard.release()
	if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// An offer whose masking mode or generator kind is unknown is refused
	// outright: the worker's first answer is a typed abort, not a beat or a
	// slice.
	for _, bad := range []struct {
		name  string
		offer shardOfferBody
	}{{"masking mode", shardOfferBody{Mode: protocol.Mode(2)}}, {"generator kind", shardOfferBody{RNG: rng.Kind(9)}}} {
		tp.cfg.ShardDial = pool.dialer("crafted-"+bad.name, nil)
		link, err := tp.dialShard(0)
		if err != nil {
			t.Fatalf("%s: dial: %v", bad.name, err)
		}
		offer := bad.offer
		offer.Lo, offer.Hi, offer.Holders, offer.Counts = 0, 4, tp.holders, tp.counts
		offer.Fingerprint = schemaFingerprint(cfg.Schema)
		offer.Seeds, offer.RowSeeds = tp.seedTables()
		if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
			t.Fatalf("%s: send offer: %v", bad.name, err)
		}
		m, err := link.ep.Recv()
		if err != nil {
			t.Fatalf("%s: the worker link ended without an abort: %v", bad.name, err)
		}
		var body abortBody
		if m.Kind != kindAbort || wire.DecodeBody(m.Payload, &body) != nil || !strings.Contains(body.Reason, bad.name) {
			t.Fatalf("%s: the worker answered with %q %q, want an abort naming it", bad.name, m.Kind, body.Reason)
		}
		link.close()
	}
	// The offer layout that still carried the mask bounds and the
	// coordinator's parallelism, as gob wrote it: a crafted width sized the
	// compute-token channel and, on an alphanumeric attribute, grew each
	// engine's edit-distance scratches to that many.
	type boundedOffer struct {
		Shard           int
		Lo, Hi          int
		Holders         []string
		Counts          []int
		Fingerprint     string
		Mode            protocol.Mode
		Variant         Variant
		RNG             rng.Kind
		IntParams       protocol.IntParams
		FloatParams     protocol.FloatParams
		LocalChunkBytes int
		Parallelism     int
		Seeds           [][]rng.Seed
		RowSeeds        [][]rng.Seed
	}
	wide := boundedOffer{
		Lo: 0, Hi: 4, Holders: tp.holders, Counts: tp.counts,
		Fingerprint: schemaFingerprint(cfg.Schema),
		Mode:        protocol.PerPair, Variant: Int64Variant, RNG: cfg.RNG,
		IntParams:   protocol.IntParams{MaskRange: 0, MaxMagnitude: 1},
		Parallelism: 1 << 40,
	}
	wide.Seeds, wide.RowSeeds = tp.seedTables()
	tp.cfg.ShardDial = pool.dialer("gob-era-offer", nil)
	link, err := tp.dialShard(0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	gobOffer := wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1, Payload: gobEncode(t, wide)}
	if err := link.ep.Send(&gobOffer); err != nil {
		t.Fatalf("send the gob-era offer: %v", err)
	}
	m, err := link.ep.Recv()
	if err != nil {
		t.Fatalf("the worker link ended without an abort for the gob-era offer: %v", err)
	}
	if err := peerAbortError(m); m.Kind != kindAbort || !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), wire.ErrMalformed.Error()) {
		t.Fatalf("the worker answered the gob-era offer with %q (%v), want an abort naming it malformed", m.Kind, err)
	}
	link.close()

	// The fixed layout has no parallelism to craft: a decoded offer gets a
	// core sized from the worker's own cores. Only the sizing is checked:
	// nothing is evaluated here.
	offer := shardOfferBody{
		Shard: 0, Lo: 3, Hi: 4, // B's second row: the range starts mid-holder
		Holders: tp.holders, Counts: tp.counts,
		Fingerprint: schemaFingerprint(cfg.Schema),
		Mode:        protocol.PerPair, Variant: Int64Variant, RNG: cfg.RNG,
	}
	offer.Seeds, offer.RowSeeds = tp.seedTables()
	payload, err := wire.EncodeBody(offer)
	if err != nil {
		t.Fatal(err)
	}
	var decoded shardOfferBody
	if err := wire.DecodeBody(payload, &decoded); err != nil {
		t.Fatalf("the fixed-layout offer does not decode: %v", err)
	}
	core, err := pool.servers[0].offerCore(0, decoded)
	if err != nil {
		t.Fatalf("fixed-layout offer: %v", err)
	}
	if own := parallel.Workers(0); core.workers != own || cap(core.compute) != own || core.engines.Workers() != own {
		t.Fatalf("a fixed-layout offer sized the worker's core %d wide (%d compute tokens, %d-wide engines), want its own %d",
			core.workers, cap(core.compute), core.engines.Workers(), own)
	}

	tp.cfg.ShardDial = pool.dialer("crafted-offer", nil)
	if link, err = tp.dialShard(0); err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.close()
	if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
		t.Fatalf("send offer: %v", err)
	}
	// B's one local chunk of the range, attribute 0 (numeric), encoded as
	// B's shard lane carries it: once it is installed the stage positions
	// the pair's keystream at B's row 1.
	near, far := wire.Pipe()
	chunk := localBody{N: 2, Lo: 1, Hi: 2, Cells: []float64{1}}
	if err := wire.NewEndpoint(near).SendBody(wire.Message{From: "B", To: ShardName(0), Kind: kindLocal, Attr: 0}, chunk); err != nil {
		t.Fatal(err)
	}
	frame, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardFrame, Attr: 1}, shardFrameBody{Frame: frame}); err != nil {
		t.Fatalf("relay B's chunk: %v", err)
	}
	if m, err = link.ep.Recv(); err != nil {
		t.Fatalf("worker link after the crafted offer: %v", err)
	}
	if m.Kind != kindShardBeat && m.Kind != kindShardSlice && m.Kind != kindAbort {
		t.Fatalf("worker answered the crafted offer with %q", m.Kind)
	}
	link.close()

	parts := pipelineParts(t, 1)
	base := Config{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair, Parallelism: 1}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(49), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool.setAddr(1, pool.addrs[0]) // both ranges on the one worker
	session := base
	session.TPShards = 2
	session.ShardDial = pool.dialer("after-crafted-offer", nil)
	got, err := RunInMemory(session, parts, nil, deterministicRandom(49))
	if err != nil {
		t.Fatalf("session after the crafted offer: %v", err)
	}
	assertSameOutcome(t, "session after the crafted offer", want, got)
}

// benchShardProcSession runs one full session whose K shard pipelines
// live behind the cross-process control protocol — real localhost TCP,
// v4 registration, AES-GCM worker links — against in-process
// ShardServers (the protocol cost without subprocess spawn noise).
func benchShardProcSession(b *testing.B, k int) {
	parts := pairCapParts(b, 400, 400)
	pool := newShardWorkerPool(b, k, ShardServerConfig{Schema: parts[0].Table.Schema()})
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: k}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := cfg
		run.ShardDial = pool.dialer(fmt.Sprintf("bench-%d", i), nil)
		if _, err := RunInMemory(run, parts, nil, deterministicRandom(28)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionShardProc is the session-shardproc family's in-tree
// smoke variant (CI runs it at -benchtime=1x): the sharded session with
// its shard pipelines behind worker processes' wire protocol at K 2 and
// 4, against the in-process K = 2 sharded path as the overhead baseline.
func BenchmarkSessionShardProc(b *testing.B) {
	b.Run("inproc-2", func(b *testing.B) {
		parts := pairCapParts(b, 400, 400)
		cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: 2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunInMemory(cfg, parts, nil, deterministicRandom(28)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{2, 4} {
		k := k
		b.Run(fmt.Sprintf("workers-%d", k), func(b *testing.B) { benchShardProcSession(b, k) })
	}
}
