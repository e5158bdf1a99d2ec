package party

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"

	"ppclust/internal/alphabet"
	"ppclust/internal/catdist"
	"ppclust/internal/dataset"
	"ppclust/internal/detenc"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// Holder runs one data holder's side of the session.
type Holder struct {
	name    string
	index   int
	holders []string
	table   *dataset.Table
	cfg     Config
	req     ClusterRequest
	random  io.Reader
	workers int
	eng     *protocol.Engine

	identity *keys.Identity
	tp       *wire.Endpoint
	peers    map[string]*wire.Endpoint
	masters  map[string][]byte // pairwise master secrets by peer name
	counts   map[string]int
	groupKey detenc.Key
	guard    *guard

	// rangeLanes are the third-party conduits comparison traffic rides,
	// one per row range of dissim.ShardRanges(total, K): the control
	// conduit alone at K ≤ 1, the K shard conduits otherwise. lanes,
	// derived from the census (see exchangeCensus), lists the ones this
	// holder's rows reach.
	rangeLanes []compLane
	lanes      []compLane
}

// compLane is one destination of a holder's comparison traffic: the
// conduit toward the owner of a global row range, and — once the census
// is known — the holder-local rows [lo, hi) that fall in that range.
type compLane struct {
	ep     *wire.Endpoint
	to     string
	lo, hi int
}

// NewHolder prepares a data holder named name holding table, with direct
// conduits to every other holder and to the third party in conduits
// (keyed by peer name). random sources identity and group-key material;
// nil uses crypto/rand.
func NewHolder(name string, table *dataset.Table, holders []string, cfg Config, req ClusterRequest, conduits map[string]wire.Conduit, random io.Reader) (*Holder, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if err := validHolderNames(holders); err != nil {
		return nil, err
	}
	idx, err := holderIndex(holders, name)
	if err != nil {
		return nil, err
	}
	if schemaFingerprint(table.Schema()) != schemaFingerprint(cfg.Schema) {
		return nil, fmt.Errorf("party: holder %s table schema does not match session schema", name)
	}
	if random == nil {
		random = rand.Reader
	}
	for _, h := range holders {
		if h != name {
			if conduits[h] == nil {
				return nil, fmt.Errorf("party: holder %s missing conduit to %s", name, h)
			}
		}
	}
	if conduits[TPName] == nil {
		return nil, fmt.Errorf("party: holder %s missing conduit to %s", name, TPName)
	}
	if k := cfg.shardCount(); k > 1 {
		for s := 0; s < k; s++ {
			if conduits[ShardName(s)] == nil {
				return nil, fmt.Errorf("party: holder %s missing conduit to %s", name, ShardName(s))
			}
		}
	}
	h := &Holder{
		name:    name,
		index:   idx,
		holders: holders,
		table:   table,
		cfg:     cfg,
		req:     req,
		random:  random,
		workers: parallel.Workers(cfg.Parallelism),
		eng:     protocol.NewEngine(cfg.Parallelism),
		peers:   make(map[string]*wire.Endpoint),
		masters: make(map[string][]byte),
		counts:  make(map[string]int),
	}
	// The guard arms before the handshake so the session deadline and phase
	// watchdog bound construction too: a peer that never answers hello
	// becomes a classified timeout, not a hang.
	h.guard = newGuard(name, cfg)
	if err := h.handshakeAll(conduits); err != nil {
		err = h.guard.abort(err)
		h.guard.release()
		return nil, err
	}
	return h, nil
}

// handshakeAll exchanges public keys on every conduit, derives the pairwise
// masters and wraps the conduits in AES-GCM channels.
func (h *Holder) handshakeAll(conduits map[string]wire.Conduit) error {
	var err error
	h.identity, err = keys.NewIdentity(h.name, h.random)
	if err != nil {
		return err
	}
	fp := schemaFingerprint(h.cfg.Schema)
	// secure handshakes one conduit. bind sits directly on the raw conduit
	// — below the AES-GCM layer — so a lifecycle cancel closes the real
	// transport and unparks any blocked read, and every frame either way
	// feeds the watchdog.
	secure := func(peer string, initiator bool) (wire.Conduit, []byte, error) {
		bound := h.guard.bind(conduits[peer])
		secured, master, err := handshake(bound, h.name, peer, h.identity, fp, initiator)
		if err == nil && h.cfg.PlaintextChannels {
			secured = bound
		}
		return secured, master, err
	}
	for _, peer := range append(append([]string{}, h.holders...), TPName) {
		if peer == h.name {
			continue
		}
		// Initiator: the lexicographically smaller holder name, or the
		// holder on a holder-TP link.
		secured, master, err := secure(peer, peer == TPName || h.name < peer)
		if err != nil {
			return err
		}
		h.masters[peer] = master
		if peer != TPName {
			h.peers[peer] = wire.NewEndpoint(secured)
			continue
		}
		// The TP control lane (not holder↔holder conduits) is resumable:
		// the Reconn sits above the channel so a sever parks the lane and
		// the redial loop replaces the transport underneath the endpoint.
		if h.resumable() {
			secured = h.armResume(secured, peer, 0)
		}
		h.tp = wire.NewEndpoint(secured)
	}
	h.rangeLanes = []compLane{{ep: h.tp, to: TPName}}
	// Shard conduits, ascending, right after the TP control conduit — the
	// same order the third party handshakes them in. The shards present the
	// TP identity (the master must match the control conduit's), but each
	// conduit derives its own channel key salted by the shard name.
	if k := h.cfg.shardCount(); k > 1 {
		h.rangeLanes = make([]compLane, k)
		for s := range h.rangeLanes {
			name := ShardName(s)
			secured, master, err := secure(name, true)
			if err != nil {
				return err
			}
			if string(master) != string(h.masters[TPName]) {
				return fmt.Errorf("party: %s presented a different identity than %s", name, TPName)
			}
			if h.resumable() {
				secured = h.armResume(secured, name, s+1)
			}
			h.rangeLanes[s] = compLane{ep: wire.NewEndpoint(secured), to: name}
		}
	}
	// With every channel established the holder can explain a failure to
	// its peers: abort frames go to the third party and every other holder.
	h.guard.setNotify(func(reason string) {
		eps := make(map[string]*wire.Endpoint, len(h.peers)+1)
		for name, ep := range h.peers {
			eps[name] = ep
		}
		eps[TPName] = h.tp
		sendAbortAll(h.name, eps, reason)
	})
	return nil
}

// Run executes the holder's side of the session and returns the clustering
// result published by the third party.
//
// Attributes stream independently: each attribute's local matrix is sent
// immediately before that attribute's protocol round, so the holder's
// stream to the third party is a contiguous per-attribute run — the
// ordering the third party's pipelined assembly engine overlaps with its
// protocol compute. (Holder-to-holder message order is unchanged: attr
// order, then pair order within the attribute.)
func (h *Holder) Run() (*Result, error) { return h.RunContext(context.Background()) }

// RunContext is Run bounded by a caller context: cancelling ctx aborts the
// session (classified under ErrAborted, peers notified with the cause) and
// unwinds promptly even when the holder is parked in a blocking transport
// call. Config.SessionTimeout and Config.PhaseTimeout bound the session
// independently of ctx. On a clean return conduit ownership stays with the
// caller, exactly as with Run.
func (h *Holder) RunContext(ctx context.Context) (*Result, error) {
	defer h.guard.release()
	stop := h.guard.watchCaller(ctx)
	defer stop()
	res, err := h.run()
	if err != nil {
		return nil, h.guard.abort(err)
	}
	return res, nil
}

func (h *Holder) run() (*Result, error) {
	h.guard.setPhase("census")
	if err := h.exchangeCensus(); err != nil {
		return nil, err
	}
	h.guard.setPhase("group-key")
	if err := h.exchangeGroupKey(); err != nil {
		return nil, err
	}
	for attr := range h.cfg.Schema.Attrs {
		h.guard.setPhase(fmt.Sprintf("attr %d", attr))
		if err := h.sendLocalMatrix(attr); err != nil {
			return nil, err
		}
		if err := h.runAttribute(attr); err != nil {
			return nil, err
		}
	}
	h.guard.setPhase("cluster-request")
	if err := h.sendRequest(); err != nil {
		return nil, err
	}
	h.guard.setPhase("await-result")
	return h.recvResult()
}

func (h *Holder) exchangeCensus() error {
	err := h.tp.SendBody(wire.Message{From: h.name, To: TPName, Kind: kindCount, Attr: -1},
		countBody{Count: h.table.Len()})
	if err != nil {
		return err
	}
	var census censusBody
	if _, err := expectMsg(h.tp, kindCensus, &census); err != nil {
		return err
	}
	if len(census.Holders) != len(h.holders) {
		return fmt.Errorf("party: census names %v do not match session holders", census.Holders)
	}
	for i, name := range census.Holders {
		if name != h.holders[i] {
			return fmt.Errorf("party: census names %v do not match session holders", census.Holders)
		}
		h.counts[name] = census.Counts[i]
	}
	if h.counts[h.name] != h.table.Len() {
		return fmt.Errorf("party: census miscounts %s", h.name)
	}
	// The census fixes the global row layout, so the row-range partition —
	// identical to the third party's — is known from here on: each lane
	// whose range this holder's rows reach receives exactly those rows,
	// the others nothing.
	total, offset := 0, 0
	for i, c := range census.Counts {
		if i < h.index {
			offset += c
		}
		total += c
	}
	for s, r := range dissim.ShardRanges(total, h.cfg.shardCount()) {
		ln := h.rangeLanes[s]
		if ln.lo, ln.hi = shardRowsOf(r[0], r[1], offset, h.table.Len()); ln.lo < ln.hi {
			h.lanes = append(h.lanes, ln)
		}
	}
	return nil
}

// exchangeGroupKey has the first holder generate the categorical key and
// distribute it to its peers, wrapped under pairwise keys (the third party
// never sees it; paper Section 4.3).
func (h *Holder) exchangeGroupKey() error {
	leader := h.holders[0]
	if h.name == leader {
		var raw [32]byte
		if _, err := io.ReadFull(h.random, raw[:]); err != nil {
			return fmt.Errorf("party: generating group key: %w", err)
		}
		h.groupKey = detenc.KeyFromBytes(raw[:])
		for _, peer := range h.holders[1:] {
			wrapKey := keys.DeriveKey(h.masters[peer], keys.PurposeGroupWrap, h.name, peer)
			box, err := keys.Wrap(wrapKey, h.groupKey[:], h.random)
			if err != nil {
				return err
			}
			msg := wire.Message{From: h.name, To: peer, Kind: kindGroupKey, Attr: -1}
			if err := h.peers[peer].SendBody(msg, groupKeyBody{Box: box}); err != nil {
				return err
			}
		}
		return nil
	}
	var body groupKeyBody
	if _, err := expectMsg(h.peers[leader], kindGroupKey, &body); err != nil {
		return err
	}
	wrapKey := keys.DeriveKey(h.masters[leader], keys.PurposeGroupWrap, leader, h.name)
	raw, err := keys.Unwrap(wrapKey, body.Box)
	if err != nil {
		return fmt.Errorf("party: unwrapping group key: %w", err)
	}
	if len(raw) != 32 {
		return fmt.Errorf("party: group key has %d bytes", len(raw))
	}
	copy(h.groupKey[:], raw)
	return nil
}

// numericValues returns the float column the numeric protocol runs on for
// attribute attr: raw values for numeric attributes, public-order ranks for
// ordered ones.
func (h *Holder) numericValues(attr int) ([]float64, error) {
	if h.cfg.Schema.Attrs[attr].Type == dataset.Ordered {
		return h.table.RanksCol(attr)
	}
	return h.table.NumericCol(attr)
}

// localDistance returns a per-worker factory of plaintext distance
// functions for attribute attr, used for the parallel Figure 12 local
// matrix construction. Numeric distances are stateless and shared;
// alphanumeric ones get a private edit-distance scratch per worker so the
// DP never allocates.
func (h *Holder) localDistance(attr int) (func(worker int) func(i, j int) float64, error) {
	a := h.cfg.Schema.Attrs[attr]
	switch a.Type {
	case dataset.Numeric, dataset.Ordered:
		col, err := h.numericValues(attr)
		if err != nil {
			return nil, err
		}
		dist := func(i, j int) float64 {
			d := col[i] - col[j]
			if d < 0 {
				d = -d
			}
			return d
		}
		return func(int) func(i, j int) float64 { return dist }, nil
	case dataset.Alphanumeric:
		col, err := h.table.SymbolCol(attr)
		if err != nil {
			return nil, err
		}
		return func(int) func(i, j int) float64 {
			sc := editdist.MustUnitScratch()
			return func(i, j int) float64 {
				return float64(sc.Distance(col[i], col[j]))
			}
		}, nil
	default:
		return nil, fmt.Errorf("party: no local distance for %v", a.Type)
	}
}

// tagBased reports whether an attribute's global matrix is built by the
// third party from encrypted submissions (no local matrices, no pairwise
// protocol).
func tagBased(t dataset.AttrType) bool {
	return t == dataset.Categorical || t == dataset.Hierarchical
}

// sendLocalMatrix implements the holder side of Figure 11 step 1 for one
// numeric, ordered or alphanumeric attribute; tag-based attributes are a
// no-op: their global matrices are built by the third party from
// encrypted columns.
//
// The triangle streams as a sequence of bounded row-range frames in the
// localChunksRange schedule instead of one monolithic body, each lane
// receiving exactly the rows its range owns: the third party
// installs each range on arrival — so assembly of this attribute starts
// while most of the triangle is still on the wire — and no single frame
// approaches wire.MaxFrame no matter how large the partition is.
// Rows [lo, hi) of the triangle are computed into one reused buffer just
// before their frame is written from it (localBody.AppendBody), so the
// holder holds one chunk of its triangle, not the triangle, and the first
// frame leaves after one chunk's compute.
func (h *Holder) sendLocalMatrix(attr int) error {
	if tagBased(h.cfg.Schema.Attrs[attr].Type) {
		return nil
	}
	distFn, err := h.localDistance(attr)
	if err != nil {
		return err
	}
	var cells []float64
	for _, ln := range h.lanes {
		msg := wire.Message{From: h.name, To: ln.to, Kind: kindLocal, Attr: attr}
		for _, ch := range h.cfg.localChunksRange(ln.lo, ln.hi) {
			cells = dissim.FromLocalRowsPar(cells, ch[0], ch[1], h.workers, distFn)
			body := localBody{N: h.table.Len(), Lo: ch[0], Hi: ch[1], Cells: cells}
			if err := ln.ep.SendBody(msg, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// seedJK returns the generator seed shared by holders j and k for attr.
func (h *Holder) seedJK(peer string, attr int) rng.Seed {
	base := keys.DeriveSeed(h.masters[peer], keys.PurposePairRNG, h.name, peer)
	return ctxSeed(base, fmt.Sprintf("attr/%d", attr))
}

// seedJT returns the generator seed shared by initiator j and the third
// party for (attr, pair). Deriving per pair (rather than the paper's single
// rJT) prevents two responders from jointly cancelling the masks.
func (h *Holder) seedJT(attr int, j, k string) rng.Seed {
	base := keys.DeriveSeed(h.masters[TPName], keys.PurposeMaskRNG, h.name, TPName)
	return ctxSeed(base, fmt.Sprintf("attr/%d/pair/%s/%s", attr, j, k))
}

func ctxSeed(base rng.Seed, ctx string) rng.Seed {
	buf := make([]byte, 0, len(base)+len(ctx))
	buf = append(buf, base[:]...)
	buf = append(buf, ctx...)
	return rng.SeedFromBytes(buf)
}

// runAttribute performs this holder's part of the comparison protocol for
// one attribute.
func (h *Holder) runAttribute(attr int) error {
	a := h.cfg.Schema.Attrs[attr]
	if a.Type == dataset.Categorical {
		col, err := h.table.StringCol(attr)
		if err != nil {
			return err
		}
		enc := detenc.NewEncryptor(h.groupKey, a.Name)
		tags := protocol.CategoricalEncryptColumn(col, enc)
		raw := make([][32]byte, len(tags))
		for i, t := range tags {
			raw[i] = t
		}
		msg := wire.Message{From: h.name, To: TPName, Kind: kindCatTags, Attr: attr}
		return h.tp.SendBody(msg, catTagsBody{Tags: raw})
	}
	if a.Type == dataset.Hierarchical {
		col, err := h.table.StringCol(attr)
		if err != nil {
			return err
		}
		enc := detenc.NewEncryptor(h.groupKey, a.Name)
		paths := make([][][32]byte, len(col))
		for i, v := range col {
			tags, err := catdist.PathTags(a.Taxonomy, enc, v)
			if err != nil {
				return err
			}
			raw := make([][32]byte, len(tags))
			for j, t := range tags {
				raw[j] = t
			}
			paths[i] = raw
		}
		msg := wire.Message{From: h.name, To: TPName, Kind: kindPathTags, Attr: attr}
		return h.tp.SendBody(msg, pathTagsBody{Paths: paths})
	}

	for _, pair := range sortedPairs(h.holders) {
		j, k := h.holders[pair[0]], h.holders[pair[1]]
		switch h.name {
		case j:
			if err := h.initiate(attr, j, k); err != nil {
				return fmt.Errorf("party: %s initiating (%s,%s) attr %d: %w", h.name, j, k, attr, err)
			}
		case k:
			if err := h.respond(attr, j, k); err != nil {
				return fmt.Errorf("party: %s responding (%s,%s) attr %d: %w", h.name, j, k, attr, err)
			}
		}
	}
	return nil
}

// initiate is the DHJ role for one (attribute, pair).
func (h *Holder) initiate(attr int, j, k string) error {
	a := h.cfg.Schema.Attrs[attr]
	jk := rng.New(h.cfg.RNG, h.seedJK(k, attr))
	jt := rng.New(h.cfg.RNG, h.seedJT(attr, j, k))
	msg := wire.Message{From: j, To: k, Kind: kindNumDisg, Attr: attr, PairJ: j, PairK: k}

	if a.Type == dataset.Alphanumeric {
		col, err := h.table.SymbolCol(attr)
		if err != nil {
			return err
		}
		strs := make([]protocol.SymbolString, len(col))
		for i, s := range col {
			strs[i] = protocol.SymbolString(s)
		}
		disguised := h.eng.AlphaInitiator(strs, a.Alphabet, jt)
		msg.Kind = kindAlphaDisg
		return h.peers[k].SendBody(msg, alphaDisguisedBody{Strings: disguised})
	}

	col, err := h.numericValues(attr)
	if err != nil {
		return err
	}
	responderRows := h.counts[k]
	var full numSBody // numDisguisedBody's layout; chunked by the shared numSView
	switch h.cfg.Variant {
	case Float64Variant:
		full.Float, err = h.eng.NumericInitiatorFloat(col, jk, jt, protocol.DefaultFloatParams, h.cfg.Mode, responderRows)
	case Int64Variant:
		ints, cerr := toInts(col)
		if cerr != nil {
			return cerr
		}
		full.Int, err = h.eng.NumericInitiatorInt(ints, jk, jt, protocol.DefaultIntParams, h.cfg.Mode, responderRows)
	case ModPVariant:
		ints, cerr := toIntsUnbounded(col)
		if cerr != nil {
			return cerr
		}
		full.ModP, err = h.eng.NumericInitiatorModP(ints, jk, jt, h.cfg.Mode, responderRows)
	}
	if err != nil {
		return err
	}
	// The disguised matrix streams as bounded row-range chunks in the
	// shared pairChunksRange schedule — it is responderRows×cols in per-pair
	// mode, the session's last partition-quadratic payload to be chunked,
	// so a monolithic frame would re-impose the wire.MaxFrame ceiling the
	// rest of the session has shed. Batch mode disguises a single masked
	// row and travels as one frame under any budget. The chunk bodies are
	// zero-copy sub-matrix views of a payload dropped right after the
	// final chunk.
	disgRows := disguisedRows(h.cfg.Mode, responderRows)
	for _, ch := range h.cfg.pairChunksRange(a.Type, 0, disgRows, len(col)) {
		if err := h.peers[k].SendBody(msg, numDisguisedBody(numSView(&full, disgRows, ch))); err != nil {
			return err
		}
	}
	return nil
}

// disguisedRows is the row count of one pair's disguised matrix — the
// shape both ends derive independently (the responder needs it to compute
// the chunk schedule before the first frame): the responder's census count
// in per-pair mode, one masked row in batch mode.
func disguisedRows(mode protocol.Mode, responderRows int) int {
	if mode == protocol.PerPair {
		return responderRows
	}
	return 1
}

// respond is the DHK role for one (attribute, pair): combine the
// initiator's disguised payload with the own column, then stream the
// masked S/M comparison matrix to the third party.
//
// Like the local triangles, the payload travels as a sequence of bounded
// row-range frames in the shared pairChunksRange schedule instead of one
// monolithic body, each lane receiving the responder rows its range owns:
// the third party evaluates and installs each range on
// arrival, and no frame grows with either partition — the masked matrix is
// rows×cols over BOTH parties' object counts, so it was the session's last
// wire.MaxFrame-bound message when both partitions are large. Both kinds of
// chunk are built a chunk at a time, in storage the next chunk reuses
// (Conduit.Send may not retain frames), so the responder never holds more
// of the rows×cols block than the chunk in flight.
func (h *Holder) respond(attr int, j, k string) error {
	a := h.cfg.Schema.Attrs[attr]
	rows, cols := h.table.Len(), h.counts[j]
	msg := wire.Message{From: k, To: TPName, Kind: kindNumS, Attr: attr, PairJ: j, PairK: k}

	if a.Type == dataset.Alphanumeric {
		var disg alphaDisguisedBody
		if _, err := expectMsg(h.peers[j], kindAlphaDisg, &disg); err != nil {
			return err
		}
		col, err := h.table.SymbolCol(attr)
		if err != nil {
			return err
		}
		own := make([]protocol.SymbolString, len(col))
		for i, s := range col {
			own[i] = protocol.SymbolString(s)
		}
		for i, s := range disg.Strings {
			if err := alphabet.InRange(a.Alphabet, s); err != nil {
				return fmt.Errorf("party: disguised string %d: %w", i, err)
			}
		}
		// One slab, filled for a chunk's rows just before its frame is
		// built from it and refilled for the next: the holder never holds
		// more of the rows×cols block than the chunk in flight.
		var chunk protocol.AlphaChunk
		msg.Kind = kindAlphaM
		for _, ln := range h.lanes {
			msg.To = ln.to
			for _, ch := range h.cfg.pairChunksRange(a.Type, ln.lo, ln.hi, cols) {
				h.eng.AlphaResponderChunk(&chunk, own[ch[0]:ch[1]], disg.Strings, a.Alphabet)
				body := alphaMBody{Rows: rows, Lo: ch[0], Hi: ch[1], M: chunk}
				if err := ln.ep.SendBody(msg, body); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The disguised matrix arrives as the chunk stream initiate produces:
	// both ends derive the identical schedule (disguisedRows × the
	// initiator's census count), so the responder validates each frame's
	// claimed range against its own schedule and reassembles before the
	// combine — framing only, the combined payload is bit-identical to the
	// former monolithic message at every chunk budget.
	disgRows := disguisedRows(h.cfg.Mode, rows)
	var disg numSBody
	for ci, sched := range h.cfg.pairChunksRange(a.Type, 0, disgRows, cols) {
		var chunk numDisguisedBody
		if _, err := expectMsg(h.peers[j], kindNumDisg, &chunk); err != nil {
			return err
		}
		if chunk.Rows != disgRows {
			return fmt.Errorf("party: %s disguised payload for pair (%s,%s) claims %d rows, expected %d",
				j, j, k, chunk.Rows, disgRows)
		}
		if chunk.Lo != sched[0] || chunk.Hi != sched[1] {
			return fmt.Errorf("party: %s pair (%s,%s) disguised chunk %d covers rows [%d,%d), schedule says [%d,%d)",
				j, j, k, ci, chunk.Lo, chunk.Hi, sched[0], sched[1])
		}
		if err := appendNumChunk(&disg, (*numSBody)(&chunk), sched, disgRows, cols); err != nil {
			return fmt.Errorf("party: %s pair (%s,%s) disguised chunk %d %w", j, j, k, ci, err)
		}
	}
	jk := rng.New(h.cfg.RNG, h.seedJK(j, attr))
	col, err := h.numericValues(attr)
	if err != nil {
		return err
	}
	// The chunk's matrix — the one variant pointer the session uses — is
	// refilled for every chunk's rows [lo, hi) just before its frame.
	s := numSBody{Rows: rows}
	var fill func(lo, hi int) error
	switch h.cfg.Variant {
	case Float64Variant:
		if disg.Float == nil {
			return fmt.Errorf("party: missing float payload from %s", j)
		}
		s.Float = &protocol.Float64Matrix{}
		fill = func(lo, hi int) error {
			return h.eng.NumericResponderFloatRows(s.Float, disg.Float, col[lo:hi], lo, jk, protocol.DefaultFloatParams, h.cfg.Mode)
		}
	case Int64Variant:
		if disg.Int == nil {
			return fmt.Errorf("party: missing int payload from %s", j)
		}
		ints, err := toInts(col)
		if err != nil {
			return err
		}
		s.Int = &protocol.Int64Matrix{}
		fill = func(lo, hi int) error {
			return h.eng.NumericResponderIntRows(s.Int, disg.Int, ints[lo:hi], lo, jk, protocol.DefaultIntParams, h.cfg.Mode)
		}
	case ModPVariant:
		if disg.ModP == nil {
			return fmt.Errorf("party: missing modp payload from %s", j)
		}
		ints, err := toIntsUnbounded(col)
		if err != nil {
			return err
		}
		s.ModP = &protocol.ElementMatrix{}
		fill = func(lo, hi int) error {
			return h.eng.NumericResponderModPRows(s.ModP, disg.ModP, ints[lo:hi], lo, jk, h.cfg.Mode)
		}
	}
	for _, ln := range h.lanes {
		msg.To = ln.to
		for _, ch := range h.cfg.pairChunksRange(a.Type, ln.lo, ln.hi, cols) {
			s.Lo, s.Hi = ch[0], ch[1]
			if err := fill(s.Lo, s.Hi); err != nil {
				return err
			}
			if err := ln.ep.SendBody(msg, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// numSView is the zero-copy row-range chunk [ch[0], ch[1]) of a numeric
// pairwise payload — the masked S/M matrix, or (by conversion, the bodies
// share one layout) the disguised matrix.
func numSView(s *numSBody, rows int, ch [2]int) numSBody {
	body := numSBody{Rows: rows, Lo: ch[0], Hi: ch[1]}
	switch {
	case s.Float != nil:
		body.Float = &protocol.Float64Matrix{Rows: ch[1] - ch[0], Cols: s.Float.Cols,
			Cell: s.Float.Cell[ch[0]*s.Float.Cols : ch[1]*s.Float.Cols]}
	case s.Int != nil:
		body.Int = &protocol.Int64Matrix{Rows: ch[1] - ch[0], Cols: s.Int.Cols,
			Cell: s.Int.Cell[ch[0]*s.Int.Cols : ch[1]*s.Int.Cols]}
	case s.ModP != nil:
		body.ModP = &protocol.ElementMatrix{Rows: ch[1] - ch[0], Cols: s.ModP.Cols,
			Cell: s.ModP.Cell[ch[0]*s.ModP.Cols : ch[1]*s.ModP.Cols]}
	}
	return body
}

// appendNumChunk concatenates one numeric chunk's sub-matrix onto the
// reassembled monolithic payload, enforcing a consistent variant and the
// census column count across the chunks of one pair. totalRows and
// censusCols (both census-derived) presize the reassembled cell storage
// on the first chunk, so the multi-append reassembly copies each cell
// once instead of re-growing a multi-megabyte payload log-many times; the
// column check runs before the presize, so a hostile chunk's
// self-declared Cols can only produce the shape error — never a
// rows-amplified allocation.
func appendNumChunk(mono, chunk *numSBody, ch [2]int, totalRows, censusCols int) error {
	if (chunk.Float == nil && mono.Float != nil) || (chunk.Int == nil && mono.Int != nil) || (chunk.ModP == nil && mono.ModP != nil) {
		return fmt.Errorf("mixes numeric variants across chunks")
	}
	wantRows := ch[1] - ch[0]
	switch {
	case chunk.Float != nil:
		if mono.Float == nil {
			mono.Float = &protocol.Float64Matrix{}
		}
		m, c := mono.Float, chunk.Float
		return appendRows(&m.Rows, &m.Cols, &m.Cell, c.Validate(), c.Rows, c.Cols, c.Cell, wantRows, totalRows, censusCols)
	case chunk.Int != nil:
		if mono.Int == nil {
			mono.Int = &protocol.Int64Matrix{}
		}
		m, c := mono.Int, chunk.Int
		return appendRows(&m.Rows, &m.Cols, &m.Cell, c.Validate(), c.Rows, c.Cols, c.Cell, wantRows, totalRows, censusCols)
	case chunk.ModP != nil:
		if mono.ModP == nil {
			mono.ModP = &protocol.ElementMatrix{}
		}
		m, c := mono.ModP, chunk.ModP
		return appendRows(&m.Rows, &m.Cols, &m.Cell, c.Validate(), c.Rows, c.Cols, c.Cell, wantRows, totalRows, censusCols)
	}
	return fmt.Errorf("carries no payload")
}

// appendRows is appendNumChunk for one variant's cell type: the chunk
// (cRows×cCols, its Validate result in invalid) onto the reassembled matrix.
func appendRows[T any](rows, cols *int, cell *[]T, invalid error, cRows, cCols int, cCell []T, wantRows, totalRows, censusCols int) error {
	if invalid != nil {
		return invalid
	}
	if cRows != wantRows {
		return fmt.Errorf("carries %d rows, want %d", cRows, wantRows)
	}
	// A zero-row chunk (empty responder) carries no usable column count,
	// matching the monolithic path's census-check exemption.
	if cRows > 0 && cCols != censusCols {
		return fmt.Errorf("has %d columns, census says %d", cCols, censusCols)
	}
	if *cell == nil {
		*cell = make([]T, 0, totalRows*cCols)
	}
	*rows, *cols, *cell = *rows+cRows, cCols, append(*cell, cCell...)
	return nil
}

func (h *Holder) sendRequest() error {
	weights := h.req.Weights
	if weights == nil {
		weights = h.cfg.Schema.Weights()
	}
	if len(weights) != len(h.cfg.Schema.Attrs) {
		return fmt.Errorf("party: %d weights for %d attributes", len(weights), len(h.cfg.Schema.Attrs))
	}
	k := h.req.K
	if k <= 0 {
		k = 2
	}
	msg := wire.Message{From: h.name, To: TPName, Kind: kindRequest, Attr: -1}
	return h.tp.SendBody(msg, requestBody{
		Weights: weights, Method: int(h.req.Method), Linkage: int(h.req.Linkage), K: k,
	})
}

func (h *Holder) recvResult() (*Result, error) {
	var body resultBody
	if _, err := expectMsg(h.tp, kindResult, &body); err != nil {
		return nil, err
	}
	res := &Result{
		Quality:    body.Quality,
		Silhouette: body.Silhouette,
		Method:     Method(body.Method),
		Linkage:    hcluster.Linkage(body.Linkage),
		K:          body.K,
	}
	for c := range body.ClusterSites {
		if len(body.ClusterSites[c]) != len(body.ClusterIndices[c]) {
			return nil, fmt.Errorf("party: ragged result cluster %d", c)
		}
		var members []dataset.ObjectID
		for i := range body.ClusterSites[c] {
			members = append(members, dataset.ObjectID{
				Site:  body.ClusterSites[c][i],
				Index: body.ClusterIndices[c][i],
			})
		}
		res.Clusters = append(res.Clusters, members)
	}
	return res, nil
}

// toInts converts a numeric column for the integer variant, requiring
// integral values within the magnitude bound.
func toInts(col []float64) ([]int64, error) {
	bound := protocol.DefaultIntParams.MaxMagnitude
	out := make([]int64, len(col))
	for i, v := range col {
		iv := int64(v)
		if float64(iv) != v {
			return nil, fmt.Errorf("party: value %v at row %d is not integral (required by the int64/modp variants)", v, i)
		}
		if iv > bound || iv < -bound {
			return nil, fmt.Errorf("party: value %v at row %d exceeds magnitude bound", v, i)
		}
		out[i] = iv
	}
	return out, nil
}

// toIntsUnbounded converts for the mod-p variant, which has no magnitude
// bound beyond int64 itself.
func toIntsUnbounded(col []float64) ([]int64, error) {
	out := make([]int64, len(col))
	for i, v := range col {
		iv := int64(v)
		if float64(iv) != v {
			return nil, fmt.Errorf("party: value %v at row %d is not integral (required by the int64/modp variants)", v, i)
		}
		out[i] = iv
	}
	return out, nil
}
