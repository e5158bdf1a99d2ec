package party

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"

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
	groupKey detenc.Key
	guard    *guard

	// pairBases (by peer holder) and maskBase are the bases every parity
	// and mask stream seed of the session is derived from.
	pairBases map[string]rng.Seed
	maskBase  rng.Seed

	// rangeLanes are the third-party conduits comparison traffic rides,
	// one per row range of dissim.ShardRanges(total, K): the control
	// conduit alone at K ≤ 1, the K shard conduits otherwise. census and
	// ranges, known from the census exchange on, say which rows ride which.
	rangeLanes []compLane
	census     *census
	ranges     [][2]int

	// num is the session's numeric protocol. A disguise or S chunk is
	// computed straight into the frame that carries it, and a local chunk
	// into slab just before its frame is written from it: whichever roles
	// it plays, a holder holds one chunk.
	num  protocol.Numeric
	slab []float64
}

// compLane is one destination of a holder's comparison traffic: the
// conduit toward the owner of a global row range, and the holder-local
// rows [lo, hi) of one stream that fall in that range.
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
	cfg, num, err := cfg.normalized()
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
		name:      name,
		index:     idx,
		holders:   holders,
		table:     table,
		cfg:       cfg,
		req:       req,
		random:    random,
		workers:   parallel.Workers(cfg.Parallelism),
		eng:       protocol.NewEngine(cfg.Parallelism),
		num:       num,
		peers:     make(map[string]*wire.Endpoint),
		masters:   make(map[string][]byte),
		pairBases: make(map[string]rng.Seed),
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
// masters and wraps the conduits in AES-GCM channels. Every hello goes out
// before any is read, and the replies are read at once (recvAll), so
// construction costs one round trip, not one per link.
func (h *Holder) handshakeAll(conduits map[string]wire.Conduit) error {
	var err error
	h.identity, err = keys.NewIdentity(h.name, h.random)
	if err != nil {
		return err
	}
	fp := schemaFingerprint(h.cfg.Schema)
	// Every link: the other holders (lane −1; initiator: the
	// lexicographically smaller name), the TP control conduit (lane 0), then
	// the shard conduits ascending (lane s+1; the holder initiates both).
	// The shards present the TP identity (the master must match the control
	// conduit's), but each conduit derives its own channel key salted by the
	// shard name.
	type link struct {
		peer      string
		lane      int
		initiator bool
	}
	var links []link
	for _, peer := range h.holders {
		if peer != h.name {
			links = append(links, link{peer: peer, lane: -1, initiator: h.name < peer})
		}
	}
	links = append(links, link{peer: TPName, initiator: true})
	k := h.cfg.shardCount()
	if k > 1 {
		for s := 0; s < k; s++ {
			links = append(links, link{peer: ShardName(s), lane: s + 1, initiator: true})
		}
	}
	// bind sits directly on the raw conduit — below the AES-GCM layer — so a
	// lifecycle cancel closes the real transport and unparks any blocked
	// read, and every frame either way feeds the watchdog.
	bound := make([]wire.Conduit, len(links))
	for i, l := range links {
		bound[i] = h.guard.bind(conduits[l.peer])
	}
	for i, l := range links {
		if err := sendHello(bound[i], h.name, l.peer, h.identity, fp); err != nil {
			return err
		}
	}
	hellos, failed, err := recvAll(bound)
	if err != nil {
		return fmt.Errorf("party: %s hello from %s: %w", h.name, links[failed].peer, err)
	}
	h.rangeLanes = make([]compLane, k)
	for i, l := range links {
		secured, master, err := answerHello(bound[i], hellos[i], h.name, l.peer, h.identity, fp, l.initiator)
		if err != nil {
			return err
		}
		if h.cfg.PlaintextChannels {
			secured = bound[i]
		}
		if l.lane < 0 {
			h.masters[l.peer] = master
			h.pairBases[l.peer] = keys.DeriveSeed(master, keys.PurposePairRNG, h.name, l.peer)
			h.peers[l.peer] = wire.NewEndpoint(secured)
			continue
		}
		if l.lane == 0 {
			h.masters[TPName] = master
			h.maskBase = maskBase(master, h.name)
		} else if string(master) != string(h.masters[TPName]) {
			return fmt.Errorf("party: %s presented a different identity than %s", l.peer, TPName)
		}
		// The TP lanes (not holder↔holder conduits) are resumable, given
		// both the window and a way to dial replacements: the Reconn sits
		// above the channel so a sever parks the lane and the redial loop
		// replaces the transport underneath the endpoint.
		if h.cfg.ResumeWindow > 0 && h.cfg.Redial != nil {
			secured = h.armResume(secured, l.peer, l.lane)
		}
		ep := wire.NewEndpoint(secured)
		switch {
		case l.lane == 0:
			h.tp = ep
			if k == 1 {
				h.rangeLanes[0] = compLane{ep: ep, to: TPName} // one range, on the control conduit
			}
		default:
			h.rangeLanes[l.lane-1] = compLane{ep: ep, to: l.peer}
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
	var body censusBody
	if _, err := expectMsg(h.tp, kindCensus, &body); err != nil {
		return err
	}
	if len(body.Holders) != len(h.holders) || len(body.Counts) != len(h.holders) {
		return fmt.Errorf("party: census of %d names and %d counts does not match the %d session holders",
			len(body.Holders), len(body.Counts), len(h.holders))
	}
	for i, name := range body.Holders {
		if name != h.holders[i] {
			return fmt.Errorf("party: census names %v do not match session holders", body.Holders)
		}
		if body.Counts[i] < 0 {
			return fmt.Errorf("party: census holds a negative count %d for %s", body.Counts[i], name)
		}
	}
	if body.Counts[h.index] != h.table.Len() {
		return fmt.Errorf("party: census miscounts %s", h.name)
	}
	// The census fixes the global row layout, so the row-range partition
	// and every pair block's split — identical to the third party's — are
	// known from here on.
	h.census = newCensus(body.Counts)
	h.ranges = dissim.ShardRanges(h.census.total, h.cfg.shardCount())
	return nil
}

// eachLane calls send with every lane whose range holder p's rows [lo, hi)
// reach, carrying the rows that fall in it, in ascending range order — so a
// stream over those rows reads on from one lane to the next. A lane with
// none of the rows gets nothing.
func (h *Holder) eachLane(p, lo, hi int, send func(ln compLane) error) error {
	for s, r := range h.ranges {
		ln := h.rangeLanes[s]
		ln.lo, ln.hi = shardRowsOf(r[0], r[1], h.census.offsets[p], h.census.counts[p])
		if ln.lo, ln.hi = max(ln.lo, lo), min(ln.hi, hi); ln.lo < ln.hi {
			if err := send(ln); err != nil {
				return err
			}
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

// numericColumn is attr's column as the numeric protocol takes it,
// checked once for the session's arithmetic.
func (h *Holder) numericColumn(attr int) (protocol.Column, error) {
	values, err := h.numericValues(attr)
	if err != nil {
		return protocol.Column{}, err
	}
	return h.num.Column(values)
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
	msg := wire.Message{From: h.name, Kind: kindLocal, Attr: attr}
	return h.eachLane(h.index, 0, h.table.Len(), func(ln compLane) error {
		msg.To = ln.to
		for _, ch := range h.cfg.localChunksRange(ln.lo, ln.hi) {
			h.slab = dissim.FromLocalRowsPar(h.slab, ch[0], ch[1], h.workers, distFn)
			body := localBody{N: h.table.Len(), Lo: ch[0], Hi: ch[1], Cells: h.slab}
			if err := ln.ep.SendBody(msg, body); err != nil {
				return err
			}
		}
		return nil
	})
}

// seedJK returns the parity-stream seed this holder shares with peer for
// one share of their pair's block of attr: the rows the responder produces,
// or — rows — those the initiator produces.
func (h *Holder) seedJK(peer string, attr int, rows bool) rng.Seed {
	ctx := fmt.Sprintf("attr/%d", attr)
	if rows {
		ctx += "/rows"
	}
	return ctxSeed(h.pairBases[peer], ctx)
}

// maskBase is the base of every mask stream holder shares with the third
// party, derived from their pairwise master.
func maskBase(master []byte, holder string) rng.Seed {
	return keys.DeriveSeed(master, keys.PurposeMaskRNG, holder, TPName)
}

// maskSeed is the seed of the mask stream a holder shares with the third
// party (under its maskBase) for one share of pair (j, k)'s block of attr:
// the rows k produces, the holder being j, or — rows — the rows j produces,
// the holder being k. Deriving per pair (rather than the paper's single
// rJT) prevents two responders from jointly cancelling the masks.
func maskSeed(base rng.Seed, attr int, j, k string, rows bool) rng.Seed {
	ctx := fmt.Sprintf("attr/%d/pair/%s/%s", attr, j, k)
	if rows {
		ctx += "/rows"
	}
	return ctxSeed(base, ctx)
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

	for p, pr := range h.census.pairs {
		j, k := h.holders[pr[0]], h.holders[pr[1]]
		switch h.index {
		case pr[0]:
			if err := h.initiate(attr, p); err != nil {
				return fmt.Errorf("party: %s initiating (%s,%s) attr %d: %w", h.name, j, k, attr, err)
			}
		case pr[1]:
			if err := h.respond(attr, p); err != nil {
				return fmt.Errorf("party: %s responding (%s,%s) attr %d: %w", h.name, j, k, attr, err)
			}
		}
	}
	return nil
}

// initiate is the initiator J's part of pair p's block of attr. Per the
// paper (Figure 4) it disguises its own values for the rows [0, h) the
// responder K produces; then, for the rows [h, n_k) it produces itself, it
// receives K's disguise of them and combines it with its values (Figure 5
// with the roles swapped), streaming the rows to the lanes that own them.
// An alphanumeric block is not split: J only disguises.
func (h *Holder) initiate(attr, p int) error {
	a := h.cfg.Schema.Attrs[attr]
	kIdx := h.census.pairs[p][1]
	j, k := h.name, h.holders[kIdx]
	jt := rng.New(h.cfg.RNG, maskSeed(h.maskBase, attr, j, k, false))
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
		return h.peers[k].SendBody(msg, alphaDisguisedBody{S: protocol.PackAlphaStrings(disguised, protocol.AlphaCellBits(a.Alphabet))})
	}

	col, err := h.numericColumn(attr)
	if err != nil {
		return err
	}
	split, nk := h.census.splitAt(a.Type, p), h.census.counts[kIdx]
	if split > 0 {
		jk := rng.New(h.cfg.RNG, h.seedJK(k, attr, false))
		rows := disguisedRows(h.cfg.Mode, split)
		err := h.sendDisguise(k, msg, a.Type, rows, 0, rows, h.table.Len(), func(dst []byte, lo, hi int) ([]byte, error) {
			return h.num.Disguise(h.eng, dst, col, lo, hi, split, jk, jt, protocol.InitiatorCols)
		})
		if err != nil {
			return err
		}
	}
	if split == nk {
		return nil
	}
	width := protocol.RowWidth(h.table.Len(), h.cfg.Mode)
	disg, err := h.recvDisguise(k, a.Type, j, k, nk, split, nk, width)
	if err != nil {
		return err
	}
	jk := rng.New(h.cfg.RNG, h.seedJK(k, attr, true))
	return h.streamShare(attr, p, split, nk, func(dst []byte, lo, hi int) ([]byte, error) {
		return h.num.Combine(h.eng, dst, disg, col, lo-split, hi-split, jk, protocol.InitiatorRows)
	})
}

// disguisedRows is the row count of J's disguised matrix for the split
// responder rows of a block — the shape both ends derive independently
// (the responder needs it to compute the chunk schedule before the first
// frame): split rows in per-pair mode, one masked row in batch mode.
func disguisedRows(mode protocol.Mode, split int) int {
	if mode == protocol.PerPair {
		return split
	}
	return 1
}

// respond is the responder K's part of pair p's block of attr. Per the
// paper (Figure 5) it combines J's disguise with its own values for the
// rows [0, h) it produces and streams them to the lanes that own them; in
// between it disguises its own values for the rows [h, n_k) J produces
// (Figure 4 with the initiator on the row axis) and sends them to J — after
// J's disguise is in, so the pair's holder-link traffic runs one way at a
// time.
//
// Like the local triangles, the rows travel as bounded row-range frames in
// the shared pairChunksRange schedule, each lane receiving the rows its
// range owns: the third party evaluates and installs each range on arrival,
// and no frame grows with either partition. Every chunk is built just
// before its frame — a numeric one straight into it, an alphanumeric one
// in storage the next chunk reuses (Conduit.Send may not retain frames) —
// so the responder never holds more of a block than the chunk in flight.
func (h *Holder) respond(attr, p int) error {
	a := h.cfg.Schema.Attrs[attr]
	jIdx := h.census.pairs[p][0]
	j, k := h.holders[jIdx], h.name
	rows, cols := h.table.Len(), h.census.counts[jIdx]

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
		if err := disg.S.InAlphabet(a.Alphabet); err != nil {
			return fmt.Errorf("party: %s responding (%s,%s) attr %d: %w", k, j, k, attr, err)
		}
		// One slab, filled for a chunk's rows just before its frame is
		// built from it and refilled for the next: the holder never holds
		// more of the rows×cols block than the chunk in flight.
		var chunk protocol.AlphaChunk
		msg := wire.Message{From: k, Kind: kindAlphaM, Attr: attr, PairJ: j, PairK: k}
		return h.eachLane(h.index, 0, rows, func(ln compLane) error {
			msg.To = ln.to
			for _, ch := range h.cfg.pairChunksRange(h.num, a.Type, ln.lo, ln.hi, cols) {
				h.eng.AlphaResponderChunk(&chunk, own[ch[0]:ch[1]], &disg.S, a.Alphabet)
				body := alphaMBody{Rows: rows, Lo: ch[0], Hi: ch[1], M: chunk}
				if err := ln.ep.SendBody(msg, body); err != nil {
					return err
				}
			}
			return nil
		})
	}

	col, err := h.numericColumn(attr)
	if err != nil {
		return err
	}
	split := h.census.splitAt(a.Type, p)
	var disg []protocol.NumericChunk
	if split > 0 {
		dRows := disguisedRows(h.cfg.Mode, split)
		if disg, err = h.recvDisguise(j, a.Type, j, k, dRows, 0, dRows, cols); err != nil {
			return err
		}
	}
	if split < rows {
		jk := rng.New(h.cfg.RNG, h.seedJK(j, attr, true))
		kt := rng.New(h.cfg.RNG, maskSeed(h.maskBase, attr, j, k, true))
		msg := wire.Message{From: k, To: j, Kind: kindNumDisg, Attr: attr, PairJ: j, PairK: k}
		err := h.sendDisguise(j, msg, a.Type, rows, split, rows, protocol.RowWidth(cols, h.cfg.Mode), func(dst []byte, lo, hi int) ([]byte, error) {
			return h.num.Disguise(h.eng, dst, col, lo, hi, cols, jk, kt, protocol.InitiatorRows)
		})
		if err != nil {
			return err
		}
	}
	if split == 0 {
		return nil
	}
	jk := rng.New(h.cfg.RNG, h.seedJK(j, attr, false))
	return h.streamShare(attr, p, 0, split, func(dst []byte, lo, hi int) ([]byte, error) {
		return h.num.Combine(h.eng, dst, disg, col, lo, hi, jk, protocol.InitiatorCols)
	})
}

// chunkFill computes rows [lo, hi) of a numeric payload into the frame
// being built: a disguise (protocol.Numeric.Disguise) or a share of S
// (Combine).
type chunkFill func(dst []byte, lo, hi int) ([]byte, error)

// sendDisguise streams a disguise of the rows [lo, hi) of a rows-row
// payload of width cells a row to peer as bounded row-range chunks in the
// shared pairChunksRange schedule, each computed by fill into its frame: a
// per-pair disguise grows with both partitions, so a monolithic frame
// would re-impose the wire.MaxFrame ceiling the rest of the session has
// shed (in batch mode a disguise is O(n) and travels as one frame under
// the default budget).
func (h *Holder) sendDisguise(peer string, msg wire.Message, t dataset.AttrType, rows, lo, hi, width int, fill chunkFill) error {
	for _, ch := range h.cfg.pairChunksRange(h.num, t, lo, hi, width) {
		if err := h.peers[peer].SendBody(msg, chunkBody(rows, ch, fill)); err != nil {
			return err
		}
	}
	return nil
}

// chunkBody is the body of chunk ch of a rows-row numeric payload, its
// cells computed by fill as the frame is built.
func chunkBody(rows int, ch [2]int, fill chunkFill) numSBody {
	return numSBody{Rows: rows, Lo: ch[0], Hi: ch[1], fill: func(dst []byte) ([]byte, error) { return fill(dst, ch[0], ch[1]) }}
}

// recvDisguise receives a peer's disguise of the rows [lo, hi) of a
// rows-row payload of width cells a row, streamed in the shared
// pairChunksRange schedule, as the chunks it arrived in: both ends derive
// the schedule from the census, so the receiver validates each frame's
// claimed range and shape against its own before the combine reads it
// where it lies.
func (h *Holder) recvDisguise(peer string, t dataset.AttrType, j, k string, rows, lo, hi, width int) ([]protocol.NumericChunk, error) {
	var disg []protocol.NumericChunk
	for ci, sched := range h.cfg.pairChunksRange(h.num, t, lo, hi, width) {
		var chunk numSBody
		if _, err := expectMsg(h.peers[peer], kindNumDisg, &chunk); err != nil {
			return nil, err
		}
		if chunk.Rows != rows {
			return nil, fmt.Errorf("party: %s disguised payload for pair (%s,%s) claims %d rows, expected %d",
				peer, j, k, chunk.Rows, rows)
		}
		if chunk.Lo != sched[0] || chunk.Hi != sched[1] {
			return nil, fmt.Errorf("party: %s pair (%s,%s) disguised chunk %d covers rows [%d,%d), schedule says [%d,%d)",
				peer, j, k, ci, chunk.Lo, chunk.Hi, sched[0], sched[1])
		}
		// A chunk without rows (an empty responder) carries no usable
		// column count.
		if c := chunk.cells; c.Rows != sched[1]-sched[0] || (c.Rows > 0 && c.Cols != width) {
			return nil, fmt.Errorf("party: %s pair (%s,%s) disguised chunk %d is %dx%d, census says %dx%d",
				peer, j, k, ci, c.Rows, c.Cols, sched[1]-sched[0], width)
		}
		disg = append(disg, chunk.cells)
	}
	return disg, nil
}

// streamShare streams rows [lo, hi) of pair p's block — the responder's
// objects — to the lanes that own them, a chunk at a time: fill computes a
// chunk's rows into the frame that carries it.
func (h *Holder) streamShare(attr, p, lo, hi int, fill chunkFill) error {
	pr := h.census.pairs[p]
	msg := wire.Message{From: h.name, Kind: kindNumS, Attr: attr, PairJ: h.holders[pr[0]], PairK: h.holders[pr[1]]}
	return h.eachLane(pr[1], lo, hi, func(ln compLane) error {
		msg.To = ln.to
		for _, ch := range h.cfg.pairChunksRange(h.num, h.cfg.Schema.Attrs[attr].Type, ln.lo, ln.hi, h.census.counts[pr[0]]) {
			if err := ln.ep.SendBody(msg, chunkBody(h.census.counts[pr[1]], ch, fill)); err != nil {
				return err
			}
		}
		return nil
	})
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
	if len(body.ClusterSites) != len(body.ClusterIndices) {
		return nil, fmt.Errorf("party: result of %d site lists and %d index lists", len(body.ClusterSites), len(body.ClusterIndices))
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
