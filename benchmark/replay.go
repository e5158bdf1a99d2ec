package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/detenc"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/netid"
	"ppclust/internal/pam"
	"ppclust/internal/parallel"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// The replayed half of the per-layer metrics: the benchmark calls each
// layer's exported functions itself, on the workload's own tables and in
// the session's shapes (same object counts, same chunk schedule, same
// requests), and charges each layer the CPU time the calls took. One
// "call" below is one session's worth of that layer's work.

// Mirrors of the session's chunk bodies (internal/party keeps its own
// unexported): same fields, same gob shape.
type (
	localBody struct {
		N, Lo, Hi int
		Cells     []float64
	}
	numSBody struct {
		Rows, Lo, Hi int
		Float        *protocol.Float64Matrix
	}
	alphaMBody struct {
		Rows, Lo, Hi int
		M            [][]*protocol.SymbolMatrix
	}
)

const (
	kindLocal  wire.Kind = "ppc/local"
	kindNumS   wire.Kind = "ppc/numeric-s"
	kindAlphaM wire.Kind = "ppc/alpha-m"
)

// tape is a conduit with no peer: Send drops the frame (or keeps a copy),
// Recv hands the kept frames back in order.
type tape struct {
	keep   bool
	frames [][]byte
	next   int
}

func (t *tape) Send(f []byte) error {
	if t.keep {
		t.frames = append(t.frames, append([]byte(nil), f...))
	}
	return nil
}

func (t *tape) Recv() ([]byte, error) {
	if t.next == len(t.frames) {
		return nil, wire.ErrClosed
	}
	t.next++
	return t.frames[t.next-1], nil
}

func (t *tape) Close() error { return nil }

type replay struct {
	e       *env
	budget  time.Duration // wall time to spend on one layer before moving on
	workers int
	eng     *protocol.Engine
	counts  []int
	offsets []int
	ranges  [][2]int           // global row range per TP shard; one range when unsharded
	ms      map[string]float64 // CPU ms per session, by metric
	extra   float64            // CPU ms per session that no ms metric carries (TCP frames, preambles)
	err     error
}

// cpu charges the named metric (none when name is empty) what one call of
// fn costs in CPU milliseconds, and returns that cost: the mean over calls
// repeated until the budget is spent, at least one, so that the GC work the
// calls cause is shared out over them.
func (rp *replay) cpu(name string, fn func()) float64 {
	runtime.GC()
	reps, c0, t0 := 0, cpuNow(), time.Now()
	for {
		fn()
		reps++
		if time.Since(t0) >= rp.budget {
			break
		}
	}
	ms := float64(cpuNow()-c0) / 1e6 / float64(reps)
	if name != "" {
		rp.ms[name] += ms
	}
	return ms
}

func (rp *replay) check(err error) {
	if err != nil && rp.err == nil {
		rp.err = err
	}
}

// stream is a fresh generator for a (purpose, attribute, pair) the way the
// session derives one per pair from its key agreement.
func (rp *replay) stream(purpose string, attr, j, k int) rng.Stream {
	return rng.New(rp.e.cfg.RNG, rng.SeedFromBytes([]byte(fmt.Sprintf("replay/%s/%d/%d/%d", purpose, attr, j, k))))
}

// rowsIn intersects global rows r with the rows of holder h.
func (rp *replay) rowsIn(r [2]int, h int) (int, int) {
	lo, hi := r[0]-rp.offsets[h], r[1]-rp.offsets[h]
	if lo < 0 {
		lo = 0
	}
	if hi > rp.counts[h] {
		hi = rp.counts[h]
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// chunk is one payload frame of the session: rows [lo, hi) of holder p's
// local triangle (j < 0) or of the pair block responder p sends about
// initiator j.
type chunk struct {
	p, j   int
	lo, hi int
}

// schedule lists an attribute's payload frames: per holder the local
// triangle, per pair the S/M block, each cut per shard range and then by
// the default chunk budget exactly as holder and third party cut them.
func (rp *replay) schedule(t dataset.AttrType) []chunk {
	budget := party.DefaultLocalChunkBytes
	cell := 8
	if t == dataset.Alphanumeric {
		cell = 256 // party's nominal bytes per alphanumeric pair
	}
	var out []chunk
	for h := range rp.counts {
		for _, r := range rp.ranges {
			lo, hi := rp.rowsIn(r, h)
			if lo < hi {
				for _, c := range dissim.RowChunksRange(lo, hi, budget/8) {
					out = append(out, chunk{h, -1, c[0], c[1]})
				}
			}
		}
	}
	for k := range rp.counts {
		for j := 0; j < k; j++ {
			for _, r := range rp.ranges {
				lo, hi := rp.rowsIn(r, k)
				if lo < hi {
					for _, c := range dissim.RectChunksRange(lo, hi, rp.counts[j], budget/cell) {
						out = append(out, chunk{k, j, c[0], c[1]})
					}
				}
			}
		}
	}
	return out
}

// replayLayers runs every replay and returns CPU ms per session by metric,
// with their sum (nested figures counted once) under layers.attributed_ms.
// sizes and tcpSizes are one traced session's frame sizes.
func replayLayers(e *env, budget time.Duration, sizes, tcpSizes []int) (map[string]float64, error) {
	rp := &replay{e: e, budget: budget, workers: parallel.Workers(e.cfg.Parallelism), ms: map[string]float64{}}
	rp.eng = protocol.NewEngine(e.cfg.Parallelism)
	total := 0
	for _, p := range e.parts {
		rp.offsets = append(rp.offsets, total)
		rp.counts = append(rp.counts, p.Table.Len())
		total += p.Table.Len()
	}
	rp.ranges = [][2]int{{0, total}}
	if e.w.Shards > 1 {
		rp.ranges = dissim.ShardRanges(total, e.w.Shards)
	}

	matrices := make([]*dissim.Matrix, len(e.cfg.Schema.Attrs))
	for attr, a := range e.cfg.Schema.Attrs {
		switch a.Type {
		case dataset.Categorical:
			matrices[attr] = rp.categorical(attr, a)
		default:
			matrices[attr] = rp.comparison(attr, a)
		}
		if rp.err != nil {
			return nil, rp.err
		}
		m := matrices[attr]
		rp.cpu("dissim.normalize_ms", func() { m.NormalizePar(rp.workers) })
	}
	rp.cluster(matrices)
	rp.channels(sizes)
	rp.handshakes()
	if len(tcpSizes) > 0 {
		rp.tcp(tcpSizes)
	}
	if e.w.Tenants {
		rp.preamble()
	}
	sum := rp.extra
	for _, name := range attributed {
		sum += rp.ms[name]
	}
	rp.ms["layers.attributed_ms"] = sum
	return rp.ms, rp.err
}

// comparison replays one numeric or alphanumeric attribute through every
// layer it crosses — local build, the pairwise protocol's three roles, gob
// on both sides, assembly — and returns the assembled matrix.
func (rp *replay) comparison(attr int, a dataset.Attribute) *dissim.Matrix {
	h := len(rp.counts)
	alpha := a.Type == dataset.Alphanumeric
	params, mode := protocol.DefaultFloatParams, rp.e.cfg.Mode

	num := make([][]float64, h)
	str := make([][]protocol.SymbolString, h)
	sym := make([][][]alphabet.Symbol, h)
	for i, p := range rp.e.parts {
		var err error
		if alpha {
			sym[i], err = p.Table.SymbolCol(attr)
			for _, s := range sym[i] {
				str[i] = append(str[i], protocol.SymbolString(s))
			}
		} else {
			num[i], err = p.Table.NumericCol(attr)
		}
		rp.check(err)
	}
	if rp.err != nil {
		return nil
	}

	locals := make([]*dissim.Matrix, h)
	rp.cpu("dissim.local_build_ms", func() {
		for i := range locals {
			i := i
			locals[i] = dissim.FromLocalPar(rp.counts[i], rp.workers, func(int) func(x, y int) float64 {
				if alpha {
					sc := editdist.MustUnitScratch()
					return func(x, y int) float64 { return float64(sc.Distance(sym[i][x], sym[i][y])) }
				}
				return func(x, y int) float64 {
					d := num[i][x] - num[i][y]
					if d < 0 {
						d = -d
					}
					return d
				}
			})
		}
	})

	// The holders' protocol roles, pair by pair. s[k][j] is what responder
	// k streams to the third party about initiator j.
	s := make([][]*protocol.Float64Matrix, h)
	m := make([][][][]*protocol.SymbolMatrix, h)
	for k := range s {
		s[k] = make([]*protocol.Float64Matrix, h)
		m[k] = make([][][]*protocol.SymbolMatrix, h)
	}
	pairs := func(fn func(j, k int)) {
		for k := 0; k < h; k++ {
			for j := 0; j < k; j++ {
				fn(j, k)
			}
		}
	}
	if alpha {
		disg := map[[2]int][]protocol.SymbolString{}
		pairs(func(j, k int) {
			disg[[2]int{j, k}] = rp.eng.AlphaInitiator(str[j], a.Alphabet, rp.stream("jt", attr, j, k))
		})
		rp.cpu("protocol.alpha_responder_ms", func() {
			pairs(func(j, k int) { m[k][j] = rp.eng.AlphaResponder(str[k], disg[[2]int{j, k}], a.Alphabet) })
		})
	} else {
		disg := map[[2]int]*protocol.Float64Matrix{}
		rp.cpu("protocol.num_initiator_ms", func() {
			pairs(func(j, k int) {
				d, err := rp.eng.NumericInitiatorFloat(num[j], rp.stream("jk", attr, j, k), rp.stream("jt", attr, j, k), params, mode, rp.counts[k])
				rp.check(err)
				disg[[2]int{j, k}] = d
			})
		})
		if rp.err != nil {
			return nil
		}
		rp.cpu("protocol.num_responder_ms", func() {
			pairs(func(j, k int) {
				var err error
				s[k][j], err = rp.eng.NumericResponderFloat(disg[[2]int{j, k}], num[k], rp.stream("jk", attr, j, k), params, mode)
				rp.check(err)
			})
		})
	}
	if rp.err != nil {
		return nil
	}

	// gob: every payload frame of the attribute through Endpoint.SendBody,
	// then back through Endpoint.Expect.
	sched := rp.schedule(a.Type)
	kindOf := func(c chunk) wire.Kind {
		switch {
		case c.j < 0:
			return kindLocal
		case alpha:
			return kindAlphaM
		}
		return kindNumS
	}
	encode := func(t *tape) {
		ep := wire.NewEndpoint(t)
		for _, c := range sched {
			msg := wire.Message{From: rp.e.holders[c.p], To: party.TPName, Kind: kindOf(c), Attr: attr}
			var body any
			switch {
			case c.j < 0:
				body = localBody{N: rp.counts[c.p], Lo: c.lo, Hi: c.hi, Cells: locals[c.p].PackedRowsView(c.lo, c.hi)}
			case alpha:
				body = alphaMBody{Rows: rp.counts[c.p], Lo: c.lo, Hi: c.hi, M: m[c.p][c.j][c.lo:c.hi]}
			default:
				full := s[c.p][c.j]
				body = numSBody{Rows: rp.counts[c.p], Lo: c.lo, Hi: c.hi, Float: &protocol.Float64Matrix{
					Rows: c.hi - c.lo, Cols: full.Cols, Cell: full.Cell[c.lo*full.Cols : c.hi*full.Cols]}}
			}
			rp.check(ep.SendBody(msg, body))
		}
	}
	rp.cpu("wire.gob_encode_ms", func() { encode(&tape{}) })
	kept := &tape{keep: true}
	encode(kept)

	decoded := make([]any, len(sched))
	rp.cpu("wire.gob_decode_ms", func() {
		ep := wire.NewEndpoint(&tape{frames: kept.frames})
		for i, c := range sched {
			var body any
			switch kindOf(c) {
			case kindLocal:
				body = &localBody{}
			case kindAlphaM:
				body = &alphaMBody{}
			default:
				body = &numSBody{}
			}
			_, err := ep.Expect(kindOf(c), body)
			rp.check(err)
			decoded[i] = body
		}
	})
	if rp.err != nil {
		return nil
	}

	// The third party's role: strip the masks chunk by chunk on one jt
	// stream per pair, as recvPairRows does.
	blocks := make([]func(r, c int) float64, len(sched))
	tpMetric := "protocol.num_thirdparty_ms"
	if alpha {
		tpMetric = "protocol.alpha_thirdparty_ms"
	}
	rp.cpu(tpMetric, func() {
		var jt rng.Stream
		for i, c := range sched {
			if c.j < 0 {
				continue
			}
			if i == 0 || sched[i-1].p != c.p || sched[i-1].j != c.j {
				jt = rp.stream("jt", attr, c.j, c.p)
			}
			if alpha {
				d, err := rp.eng.AlphaThirdPartyRows(decoded[i].(*alphaMBody).M, c.lo, c.hi, a.Alphabet, jt)
				rp.check(err)
				if err == nil {
					blocks[i] = func(r, c int) float64 { return float64(d.At(r, c)) }
				}
			} else {
				d, err := rp.eng.NumericThirdPartyFloatRows(decoded[i].(*numSBody).Float, c.lo, c.hi, jt, params, mode)
				rp.check(err)
				if err == nil {
					blocks[i] = d.At
				}
			}
		}
	})
	if rp.err != nil {
		return nil
	}

	if alpha {
		// Nested in alpha_thirdparty_ms above: the CCM edit-distance DP
		// alone, on CCMs of the session's string lengths.
		ccm := editdist.BuildCCM(sym[0][0], sym[h-1][0])
		sc := editdist.MustUnitScratch()
		n := 0
		pairs(func(j, k int) { n += rp.counts[j] * rp.counts[k] })
		rp.cpu("editdist.ccm_ms", func() {
			for i := 0; i < n; i++ {
				sc.FromCCM(ccm)
			}
		})
	}

	var global *dissim.Matrix
	rp.cpu("dissim.assemble_ms", func() {
		asm, err := dissim.NewAssemblerPar(rp.counts, rp.workers)
		rp.check(err)
		if err != nil {
			return
		}
		for i, c := range sched {
			if c.j < 0 {
				rp.check(asm.SetLocalRows(c.p, c.lo, c.hi, decoded[i].(*localBody).Cells))
			} else {
				rp.check(asm.SetCrossRows(c.j, c.p, c.lo, c.hi, blocks[i]))
			}
		}
		global, err = asm.Done()
		rp.check(err)
	})
	rp.fills(alpha, sched)
	return global
}

// fills replays the keystream draws of one comparison attribute in batch
// mode: the initiator's mask and sign rows, the responder's sign row, and
// the third party's mask row per chunk. The work is already inside the
// protocol.* figures; rng.fill_ms shows how much of them it is.
func (rp *replay) fills(alpha bool, sched []chunk) {
	src := rp.stream("fill", 0, 0, 0)
	rp.cpu("rng.fill_ms", func() {
		for k := range rp.counts {
			for j := 0; j < k; j++ {
				n := rp.counts[j]
				if alpha {
					rng.FillIntn(src, make([]int, rp.e.w.DNALen), 4)
					continue
				}
				rng.FillFloat64(src, make([]float64, n))
				rng.FillUint64(src, make([]uint64, n))
				rng.FillUint64(src, make([]uint64, n))
			}
		}
		for _, c := range sched {
			switch {
			case c.j < 0:
			case alpha:
				rng.FillIntn(src, make([]int, rp.e.w.DNALen), 4)
			default:
				rng.FillFloat64(src, make([]float64, rp.counts[c.j]))
			}
		}
	})
}

// categorical replays a tag-based attribute: every holder's deterministic
// encryption of its column, then the third party's equality matrix over
// the merged tags.
func (rp *replay) categorical(attr int, a dataset.Attribute) *dissim.Matrix {
	cols := make([][]string, len(rp.e.parts))
	for i, p := range rp.e.parts {
		var err error
		cols[i], err = p.Table.StringCol(attr)
		rp.check(err)
	}
	if rp.err != nil {
		return nil
	}
	var all []detenc.Tag
	rp.cpu("detenc.encrypt_ms", func() {
		all = all[:0]
		for _, col := range cols {
			enc := detenc.NewEncryptor(detenc.KeyFromBytes([]byte("replay group key")), a.Name)
			all = append(all, protocol.CategoricalEncryptColumn(col, enc)...)
		}
	})
	var m *dissim.Matrix
	rp.cpu("catdist.matrix_ms", func() {
		dist := func(i, j int) float64 { return detenc.Distance(all[i], all[j]) }
		m = dissim.FromLocalPar(len(all), rp.workers, func(int) func(i, j int) float64 { return dist })
	})
	return m
}

// cluster replays what the third party does per holder request: merge
// under the request's weights, cluster, and score the partition.
func (rp *replay) cluster(matrices []*dissim.Matrix) {
	weights := rp.e.cfg.Schema.Weights()
	for i := range weights {
		if weights[i] == 0 {
			weights[i] = 1
		}
	}
	for _, hname := range rp.e.holders {
		req := rp.e.reqs[hname]
		var merged *dissim.Matrix
		rp.cpu("dissim.merge_ms", func() {
			var err error
			merged, err = dissim.WeightedMergePar(matrices, weights, rp.workers)
			rp.check(err)
		})
		if rp.err != nil {
			return
		}
		var clusters [][]int
		var labels []int
		if req.Method == party.MethodPAM {
			rp.cpu("pam.cluster_ms", func() {
				seed := rng.SeedFromBytes([]byte(fmt.Sprintf("ppc/pam/%d/%d", merged.N(), req.K)))
				res, err := pam.Cluster(merged, req.K, rng.NewXoshiro(seed), pam.Config{Workers: rp.workers})
				rp.check(err)
				if err == nil {
					clusters, labels = res.Clusters(), res.Labels
				}
			})
		} else {
			rp.cpu("hcluster.cluster_ms", func() {
				dg, err := hcluster.ClusterPar(merged, req.Linkage, rp.workers)
				rp.check(err)
				if err == nil {
					clusters, err = dg.CutK(req.K)
					rp.check(err)
					labels, err = dg.Labels(req.K)
					rp.check(err)
				}
			})
		}
		if rp.err != nil {
			return
		}
		rp.cpu("hcluster.quality_ms", func() {
			_, err := hcluster.QualityPar(merged, clusters, rp.workers)
			rp.check(err)
			_, err = hcluster.SilhouettePar(merged, labels, rp.workers)
			rp.check(err)
		})
	}
}

// channels replays AES-GCM over the session's frames: every frame is
// sealed once by its sender and opened once by its receiver.
func (rp *replay) channels(sizes []int) {
	max := 0
	for i, n := range sizes {
		if n -= 16; n < 0 { // observed sizes include the GCM tag
			n = 0
		}
		sizes[i] = n
		if n > max {
			max = n
		}
	}
	key, buf := [32]byte{1}, make([]byte, max)
	seal := func(t *tape) {
		c, err := wire.Secure(t, key, true)
		rp.check(err)
		for _, n := range sizes {
			rp.check(c.Send(buf[:n]))
		}
	}
	rp.cpu("wire.seal_ms", func() { seal(&tape{}) })
	kept := &tape{keep: true}
	seal(kept)
	rp.cpu("wire.open_ms", func() {
		c, err := wire.Secure(&tape{frames: kept.frames}, key, false)
		rp.check(err)
		for range sizes {
			_, err := c.Recv()
			rp.check(err)
		}
	})
}

// handshakes replays the key agreement: one X25519 identity per party, one
// ECDH and one channel-key derivation per conduit end.
func (rp *replay) handshakes() {
	h := len(rp.counts)
	lanes := 1
	if rp.e.w.Shards > 1 {
		lanes += rp.e.w.Shards
	}
	parties := h + 1
	links := h*(h-1)/2 + h*lanes
	if rp.e.w.Shards > 1 {
		parties += rp.e.w.Shards // the workers
		links += rp.e.w.Shards
	}
	rp.cpu("keys.handshake_ms", func() {
		var ids []*keys.Identity
		for i := 0; i < parties; i++ {
			id, err := keys.NewIdentity("p", detRandom(fmt.Sprint("replay", i)))
			rp.check(err)
			ids = append(ids, id)
		}
		if rp.err != nil {
			return
		}
		peer := ids[0].PublicBytes()
		for i := 0; i < 2*links; i++ {
			master, err := ids[1].Master(peer)
			rp.check(err)
			keys.DeriveKey(master, keys.PurposeChannel, "a", "b")
		}
	})
}

// tcp replays the session's loopback TCP frames through wire.TCPPooled
// and reports the CPU one frame costs, sender and receiver together.
func (rp *replay) tcp(sizes []int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if rp.check(err); err != nil {
		return
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if rp.check(err); err != nil {
		return
	}
	defer a.Close()
	b := <-accepted
	if b == nil {
		rp.check(fmt.Errorf("loopback accept failed"))
		return
	}
	defer b.Close()
	max := 0
	for _, n := range sizes {
		if n > max {
			max = n
		}
	}
	send, recv, buf := wire.TCPPooled(a), wire.TCPPooled(b), make([]byte, max)
	ms := rp.cpu("", func() {
		done := make(chan error, 1)
		go func() {
			for range sizes {
				if _, err := recv.Recv(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for _, n := range sizes {
			rp.check(send.Send(buf[:n]))
		}
		rp.check(<-done)
	})
	rp.ms["wire.tcp_frame_us"] = ms * 1000 / float64(len(sizes))
	rp.extra += ms
}

// preamble replays one connection's netid exchange: the version-2 session
// hello and the routing admission that answers it.
func (rp *replay) preamble() {
	ms := rp.cpu("", func() {
		c, s := net.Pipe()
		defer c.Close()
		defer s.Close()
		done := make(chan error, 1)
		go func() {
			_, err := netid.AcceptHelloWithin(s, handshakeTimeout)
			if err == nil {
				err = netid.SendAcceptRouting(s, 1)
			}
			done <- err
		}()
		rp.check(netid.AnnounceSessionShardWithin(c, "A", "replay", -1, handshakeTimeout))
		_, err := netid.AwaitAdmissionRouting(c, handshakeTimeout)
		rp.check(err)
		rp.check(<-done)
	})
	rp.ms["netid.preamble_us"] = ms * 1000
	rp.extra += ms * float64(len(rp.counts)) // one per holder and session
}
