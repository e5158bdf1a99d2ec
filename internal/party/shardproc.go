package party

// The sharded third party (TPShards > 1): the coordinator side.
//
// A sharded session differs from the single-TP one only in where
// comparison rows come from. The session body (ThirdParty.assemble) is
// shared: the control conduit carries handshake, census, the tag-based
// attributes, clustering requests and results in every session, and at
// K ≤ 1 the comparison traffic too. At K > 1 each row range of
// dissim.ShardRanges(total, K) has its own holder conduits, and its pair
// chunks are evaluated by a ppc-shard worker process (shardserver.go)
// that the coordinator reaches through Config.ShardDial. This file is the
// coordinator's half of the coordinator↔shard control protocol:
// remoteShard, the shardSource of one range, and mergeShardSlices, which
// folds the sources' maxima into each attribute's matrix and normalizes.
//
//	coordinator                                 worker
//	    │  netid v4 shard-registration hello       │
//	    │──────────────────────────────────────────▶
//	    ◀──────────────────────────────────────────│  grant (0, 0)
//	    │  hello (X25519) ⇄ hello, then AES-GCM    │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-offer (range+census+seeds+    │
//	    │  PhaseTimeout)                           │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-frame (relayed pair chunks)   │
//	    │──────────────────────────────────────────▶
//	    ◀──────────────────────────────────────────│  ppc/shard-rows × pair chunks
//	    │  ppc/shard-done                          │
//	    │──────────────────────────────────────────▶
//	    ◀──────────────────────────────────────────│  ppc/abort, on the worker's
//	                                                  first failure
//
// A shard lane carries two kinds of frame, and each goes where it is
// needed. The coordinator keeps the secured holder→shard conduits from
// the handshake and reads them with lane readers (shardCore.readLanes
// over the range's rows of each attribute's matrix): a holder's
// local-matrix chunks are checked against their schedule and installed
// here, as at K ≤ 1, and its pair chunks — the only frames that need the
// third party's unmasking step — are checked against theirs and relayed,
// byte for byte, to the worker. The worker feeds them to the pair readers
// the single-TP session runs on its control lanes, which evaluate them —
// bit-identity across deployments is code identity, not re-derivation —
// and returns each chunk's rows as one ppc/shard-rows frame, so no frame
// on the link outgrows the chunk budget, whatever the session's size. The
// collector here installs each returned chunk into the matrix; the
// attribute is done once the local rows are in and every pair share's
// rows have come back.
//
// Each comparison attribute's matrix is allocated once, before the
// sources start, and every row is installed where it lies: the range's
// local chunks through a slice assembler over the matrix's row view
// (dissim.NewSliceAssemblerInto over PackedRowsView), a worker's rows
// decoded straight into it. No slice is held beside the matrix — by the
// coordinator or by a worker — and nothing is copied to merge.
//
// The split partitions rows, wire lanes and pair-chunk evaluation, not
// trust. Bit-identity with the one-range session holds for every K:
// chunk evaluation is sequence-identical (pinned by the protocol row
// tests), slice assembly writes each cell exactly once with the same
// value (pinned by the dissim slice tests), and max is associative, so
// the matrix, its normalization scale and every downstream clustering
// result match byte for byte.
//
// Failure and healing: worker links are plain conduits when ResumeWindow
// is 0 (a severed worker fails the session, classified under
// ErrDisconnected) and Reconn-wrapped otherwise. A worker is always a
// fresh process for a given registration — it grants watermarks (0, 0)
// and the coordinator rebinds with peerRecv 0, so the Reconn's replay
// cursor never advances and a rebind replays the offer and every relayed
// pair chunk from the beginning. The replacement worker re-evaluates them
// and resends the rows of every chunk from the first; the coordinator
// drops each chunk it already installed (first install wins — the
// generations are bit-identical) and installs the rest where they lie in
// the attribute's matrix. This trades replay-cache memory (the
// coordinator retains the offer and every relayed pair chunk for the
// session's lifetime when ResumeWindow > 0) for healing that covers both
// process crashes and link flaps with one mechanism. Aborts propagate in
// both directions as kindAbort, exactly as on holder lanes: a worker runs
// each registration under a guard of its own, armed with the offer's
// PhaseTimeout, and its first failure is one abort and the link's close.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"ppclust/internal/dissim"
	"ppclust/internal/wire"
)

// ShardDialFunc establishes the coordinator's transport to shard worker s.
// It performs the shard registration (netid.AnnounceShardRegistrationWithin
// with the given resume state; epoch 0 on first contact) and returns the raw
// conduit plus the worker's watermark grant, which is always (0, 0) — a
// worker is always fresh. Errors wrapping ErrResumeStale, ErrResumeAborted
// or ErrResumeUnknown (for example a mapped netid rejection) are fatal to
// the session; any other error is retried with capped backoff until the
// reconnect window expires.
type ShardDialFunc func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error)

// shardDoneGrace bounds the courtesy ppc/shard-done send at session end: a
// worker that died after delivering its slices would park the send in the
// Reconn, and the session must not wait on a corpse to publish results.
const shardDoneGrace = 250 * time.Millisecond

// shardLink is the coordinator's control link to one worker process.
type shardLink struct {
	s  int
	ep *wire.Endpoint

	// mu serializes senders — the offer, the lane readers' relayed pair
	// chunks and the done frame share one conduit, whose Send is not
	// concurrency-safe.
	mu sync.Mutex
}

func (l *shardLink) send(m wire.Message, body any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ep.SendBody(m, body)
}

// close severs the link. On a resumable link it closes the Reconn, which
// is terminal: parked senders and receivers unpark with ErrClosed and the
// redial loop, if running, exits.
func (l *shardLink) close() { l.ep.Close() }

// shutdown ends a worker's run cleanly: a best-effort done frame bounded
// by shardDoneGrace, then the link closes.
func (l *shardLink) shutdown() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = l.send(wire.Message{From: TPName, To: ShardName(l.s), Kind: kindShardDone, Attr: -1}, shardDoneBody{})
	}()
	select {
	case <-done:
	case <-time.After(shardDoneGrace):
	}
	l.close()
}

// shardSecure runs the coordinator side of the worker-link handshake over
// a fresh raw transport: lifecycle binding, then the key agreement. The
// worker generates a fresh identity per connection, so every (re)dial
// derives a fresh key and nonce sequence. Worker links are always
// encrypted — Config.PlaintextChannels governs only the holder conduits,
// whose protection the parties agree on before any payload moves; a worker
// link's configuration rides the link itself, so it never starts plain.
func (tp *ThirdParty) shardSecure(s int, raw wire.Conduit) (wire.Conduit, error) {
	secured, _, err := handshake(tp.guard.bind(raw), TPName, ShardName(s), tp.identity,
		schemaFingerprint(tp.cfg.Schema), true)
	return secured, err
}

// shardConnect dials worker s for a transport epoch (0 on first contact)
// and runs the link handshake over the fresh transport. A worker is always
// fresh, so any grant but (0, 0) — a process with retained watermarks,
// which a full replay cannot reconcile — is refused as stale.
func (tp *ThirdParty) shardConnect(s int, epoch uint32) (wire.Conduit, error) {
	raw, grant, err := tp.cfg.ShardDial(tp.guard.ctx, s, ResumeState{Epoch: epoch})
	if err != nil {
		return nil, err
	}
	if grant != (ResumeGrant{}) {
		raw.Close()
		return nil, fmt.Errorf("%w: shard worker %d granted watermarks (%d, %d), want (0, 0)",
			ErrResumeStale, s, grant.Sent, grant.Recv)
	}
	secured, err := tp.shardSecure(s, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return secured, nil
}

// dialShard establishes the control link to worker s and, when the session
// is resumable, arms it like a holder lane. A severed link redials through
// shardConnect (the pool restarts dead workers; a surviving worker
// discards its old run on re-registration) and rebinds with peerRecv 0, so
// the full cached stream replays into the fresh worker.
func (tp *ThirdParty) dialShard(s int) (*shardLink, error) {
	secured, err := tp.shardConnect(s, 0)
	if err != nil {
		return nil, fmt.Errorf("party: dialing shard worker %d: %w", s, err)
	}
	link := Link{Lane: s, Worker: true}
	if tp.cfg.ResumeWindow > 0 {
		secured = tp.guard.arm(secured, link, func(epoch uint32, _, _ uint64) (wire.Conduit, uint64, error) {
			secured, err := tp.shardConnect(s, epoch)
			return secured, 0, err
		})
	}
	tp.guard.events(Event{Kind: EventLinkUp, Link: link})
	return &shardLink{s: s, ep: wire.NewEndpoint(secured)}, nil
}

// shardSource is where one row range's rows come from. It blocks until
// every comparison attribute's rows of the range are installed where they
// lie in the attribute's matrix, and the largest entry it installed is in
// maxes (indexed by attribute), or until the source failed; the end of ctx
// stops it from outside. A source writes only its own rows and its own
// maxes, so sources run concurrently.
type shardSource func(ctx context.Context, maxes []float64) error

// shardGroup is the coordinator's lane group of global rows r over the
// holder lanes eps, named name: each comparison attribute's rows of r
// assembled in place into its matrix, its pair blocks split. The caller
// sets relay, which takes every pair chunk.
func (c *shardCore) shardGroup(name string, eps []*wire.Endpoint, r [2]int, matrices []*dissim.Matrix) (*laneGroup, error) {
	g := &laneGroup{name: name, eps: eps, rows: r, asms: make([]*dissim.SliceAssembler, len(matrices))}
	for attr, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		sa, err := dissim.NewSliceAssemblerInto(matrices[attr].PackedRowsView(r[0], r[1]), c.counts, r[0], r[1], c.workers)
		if err != nil {
			return nil, err
		}
		if err := c.splitBlocks(sa, attr); err != nil {
			return nil, err
		}
		g.attrs, g.asms[attr] = append(g.attrs, attr), sa
	}
	return g, nil
}

// remoteShard is the source of shard s: it dials the shard's worker and
// hands it the offer; the source then reads the holders' shard lanes,
// installing their local chunks into the range's rows of each comparison
// attribute's matrix and relaying their pair chunks to the worker, and
// installs the evaluated rows the worker returns.
func (tp *ThirdParty) remoteShard(core *shardCore, s int, r [2]int, matrices []*dissim.Matrix) (shardSource, error) {
	eps := make([]*wire.Endpoint, len(tp.holders))
	for hi, h := range tp.holders {
		eps[hi] = wire.NewEndpoint(tp.shardLanes[s][h])
	}
	g, err := core.shardGroup(fmt.Sprintf("shard worker %d", s), eps, r, matrices)
	if err != nil {
		return nil, err
	}
	link, err := tp.dialShard(s)
	if err != nil {
		return nil, err
	}
	offer := shardOfferBody{
		Shard: s, Lo: r[0], Hi: r[1],
		Holders:     tp.holders,
		Counts:      tp.counts,
		Fingerprint: schemaFingerprint(tp.cfg.Schema),
		Mode:        tp.cfg.Mode, Variant: tp.cfg.Variant, RNG: tp.cfg.RNG,
		LocalChunkBytes: tp.cfg.LocalChunkBytes,
		PhaseTimeout:    tp.cfg.PhaseTimeout,
		Seeds:           core.seeds,
		RowSeeds:        core.rowSeeds,
	}
	if err := link.send(wire.Message{From: TPName, To: ShardName(s), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
		link.close()
		return nil, fmt.Errorf("party: offering slice to shard worker %d: %w", s, err)
	}
	g.relay = func(hi int, m *wire.Message) error {
		err := link.send(wire.Message{From: TPName, To: ShardName(s), Kind: kindShardFrame, Attr: hi}, relayedFrame{m})
		if errors.Is(err, wire.ErrClosed) {
			return fmt.Errorf("%w: %w", errWorkerGone, err)
		}
		return err
	}
	return func(ctx context.Context, maxes []float64) error {
		// The end of ctx unparks the rows collector and relay sends, and so
		// does a failed source: the lane readers and the collector each
		// report, nil or their first error, and the first error is the
		// source's at once, even after every row is in. Readers parked in a
		// holder Recv then unwind at guard teardown, the collector when the
		// link closes.
		defer context.AfterFunc(ctx, link.close)()
		relayed, collected := make(chan error, 1), make(chan error, 1)
		go func() { relayed <- core.readLanes(ctx, g) }()
		go func() { collected <- core.collectShardRows(ctx, s, link, g) }()
		var err error
		select {
		case err = <-relayed:
			switch {
			case err == nil:
				err = <-collected
			case errors.Is(err, errWorkerGone):
				// The worker's abort, when it sent one, is on the link ahead
				// of its end, and the collector reads it.
				err = cmp.Or(<-collected, err)
			}
		case err = <-collected:
			if err == nil {
				err = <-relayed
			}
		}
		if err != nil {
			link.close()
			return err
		}
		for _, attr := range g.attrs {
			if _, maxes[attr], err = g.asms[attr].Done(); err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
		}
		// Clean hand-off: end the worker's run and drop the link before
		// publishing — a worker is not a session peer and holds no results.
		link.shutdown()
		return nil
	}, nil
}

// errWorkerGone marks a relay that found the worker link ended. Why it
// ended is the rows collector's to tell: it reads the same link.
var errWorkerGone = errors.New("party: the worker link ended")

// relayedFrame is a holder frame inside its ppc/shard-frame body: the
// received envelope and payload framed again as the holder framed them.
type relayedFrame struct{ m *wire.Message }

func (f relayedFrame) AppendBody(dst []byte) ([]byte, error) { return wire.AppendFrame(dst, f.m), nil }
func (f relayedFrame) BodySize() int                         { return wire.FrameLen(f.m) }

// collectShardRows drains worker s's control stream until every pair chunk
// the lane group g relays to it has come back evaluated and is installed
// in g's assemblers. A returned chunk must be the next of its share's
// pairChunksRange schedule; it is validated — its cell count against the
// census, each cell by the assembler — and installed straight into the
// rows it covers. A restarted worker re-evaluates and resends every chunk
// from the first after the replay, so a chunk this collector already
// installed is dropped on arrival: the generations are bit-identical and
// the first install wins. Any other range is refused.
func (c *shardCore) collectShardRows(ctx context.Context, s int, link *shardLink, g *laneGroup) error {
	attrs := c.cfg.Schema.Attrs
	// shares[attr][share], a share keyed by its pair and whether its rows
	// are the initiator's, is the share's schedule and the index of its
	// next chunk to install.
	type cursor struct {
		chunks [][2]int
		next   int
	}
	type shareKey struct {
		p           int
		byInitiator bool
	}
	shares := make([]map[shareKey]*cursor, len(attrs))
	need := 0
	for _, attr := range g.attrs {
		shares[attr] = map[shareKey]*cursor{}
		t := attrs[attr].Type
		for hi := range c.holders {
			for _, sh := range c.shares(hi, t, c.partyRows(g.rows)) {
				chunks := c.cfg.pairChunksRange(c.num, t, sh.lo, sh.hi, c.counts[sh.j])
				shares[attr][shareKey{sh.p, sh.byInitiator}] = &cursor{chunks: chunks}
				need += len(chunks)
			}
		}
	}
	for need > 0 {
		m, err := link.ep.Recv()
		if err != nil {
			return fmt.Errorf("party: shard worker %d: %w", s, err)
		}
		switch m.Kind {
		case kindAbort:
			return peerAbortError(m)
		case kindShardRows:
			var body shardRowsBody
			if err := wire.DecodeBody(m.Payload, &body); err != nil {
				return fmt.Errorf("party: rows from shard worker %d: %w", s, err)
			}
			attr := body.Attr
			if m.Attr != attr {
				return fmt.Errorf("party: shard worker %d sent rows of attribute %d in an envelope of attribute %d", s, attr, m.Attr)
			}
			if attr < 0 || attr >= len(attrs) || shares[attr] == nil {
				return fmt.Errorf("party: shard worker %d sent rows of attribute %d", s, attr)
			}
			p := slices.Index(c.pairs, [2]int{body.J, body.K})
			var cur *cursor
			if p >= 0 {
				cur = shares[attr][shareKey{p, body.Lo >= c.splitAt(attrs[attr].Type, p)}]
			}
			if cur == nil {
				return fmt.Errorf("party: shard worker %d sent attribute %q rows of pair (%d,%d), which has no share [%d,%d) in the range",
					s, attrs[attr].Name, body.J, body.K, body.Lo, body.Hi)
			}
			rows, ci := [2]int{body.Lo, body.Hi}, cur.next
			switch {
			case ci < len(cur.chunks) && rows == cur.chunks[ci]:
				if err := c.computing(ctx, func() error { return c.installRows(g.asms[attr], body) }); err != nil {
					return fmt.Errorf("party: shard worker %d attribute %q pair (%s,%s) chunk %d: %w",
						s, attrs[attr].Name, c.holders[body.J], c.holders[body.K], ci, err)
				}
				cur.next++
				need--
				link.ep.Release(m)
			case installed(cur.chunks[:ci], rows):
				// A restarted worker's copy of a chunk already in place.
			case ci < len(cur.chunks):
				want := cur.chunks[ci]
				return fmt.Errorf("party: shard worker %d attribute %q pair (%s,%s) chunk %d covers rows [%d,%d), schedule says [%d,%d)",
					s, attrs[attr].Name, c.holders[body.J], c.holders[body.K], ci, body.Lo, body.Hi, want[0], want[1])
			default:
				return fmt.Errorf("party: shard worker %d attribute %q pair (%s,%s) rows [%d,%d) are no chunk of the share's schedule",
					s, attrs[attr].Name, c.holders[body.J], c.holders[body.K], body.Lo, body.Hi)
			}
		default:
			return fmt.Errorf("party: unexpected %q from shard worker %d", m.Kind, s)
		}
	}
	return nil
}

// installRows installs one returned chunk of evaluated rows, its cells
// decoded straight into the attribute's matrix.
func (c *shardCore) installRows(asm *dissim.SliceAssembler, body shardRowsBody) error {
	cols := c.counts[body.J]
	if len(body.wire) != 8*(body.Hi-body.Lo)*cols {
		return fmt.Errorf("%d bytes for %d rows of %d cells", len(body.wire), body.Hi-body.Lo, cols)
	}
	return asm.SetCrossRowsInto(body.J, body.K, body.Lo, body.Hi, func(r int, dst []float64) error {
		for c := range dst {
			dst[c] = math.Float64frombits(binary.LittleEndian.Uint64(body.wire[8*(r*cols+c):]))
		}
		return nil
	})
}

// installed reports whether rows are one of the chunks of an ascending
// schedule.
func installed(chunks [][2]int, rows [2]int) bool {
	i, ok := slices.BinarySearchFunc(chunks, rows[0], func(ch [2]int, lo int) int { return cmp.Compare(ch[0], lo) })
	return ok && chunks[i] == rows
}

// mergeShardSlices folds the sources' maxima (maxes[s], by attribute) into
// each comparison attribute's matrix, whose rows the sources installed
// where they lie, and normalizes. The ranges partition the triangle and
// max is associative — so the scale, and with element-wise division every
// cell, is bit-identical to the one-range assembly.
func (tp *ThirdParty) mergeShardSlices(maxes [][]float64, matrices []*dissim.Matrix, scales []float64) {
	for attr, a := range tp.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		for _, m := range maxes {
			matrices[attr].FoldMax(m[attr])
		}
		scales[attr] = matrices[attr].NormalizePar(tp.workers)
	}
}
