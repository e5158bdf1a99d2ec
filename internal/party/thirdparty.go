package party

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"slices"

	"ppclust/internal/catdist"
	"ppclust/internal/dataset"
	"ppclust/internal/detenc"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/pam"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// ThirdParty runs the TP side of the session: it "does not have any data
// but serves as a means of computation power and storage space" (paper
// Section 3), governing communication, assembling the dissimilarity
// matrices and publishing clustering results.
type ThirdParty struct {
	holders []string
	cfg     Config
	num     protocol.Numeric
	random  io.Reader
	workers int
	engines *protocol.EnginePool

	identity *keys.Identity
	eps      map[string]*wire.Endpoint
	masters  map[string][]byte
	counts   []int
	guard    *guard

	// shardLanes[s][holder] is the secured holder→shard-s conduit of a
	// TPShards > 1 session; nil otherwise. The coordinator reads it with a
	// lane reader, installing local chunks and relaying each pair chunk,
	// byte for byte, to the owning worker.
	shardLanes []map[string]wire.Conduit

	// resumeLanes registers each Reconn-armed holder lane for Resume;
	// nil unless Config.ResumeWindow is positive. Written only during the
	// handshake, read-only after — Resume may be called concurrently.
	resumeLanes map[laneKey]*resumeLane
}

// TPReport is the third party's session outcome. AttributeMatrices and
// Scales expose the assembled (normalized) per-attribute matrices for
// experiments and tests; in a deployment they remain TP-internal state —
// the paper requires that only Results leave the third party.
type TPReport struct {
	// ObjectIDs is the global object ordering.
	ObjectIDs []dataset.ObjectID
	// AttributeMatrices holds the normalized global matrix per attribute.
	AttributeMatrices []*dissim.Matrix
	// Scales holds each attribute matrix's normalization divisor.
	Scales []float64
	// Results maps holder name to the result published to that holder.
	Results map[string]*Result
}

// NewThirdParty prepares the third party with conduits keyed by holder
// name. random sources the TP identity; nil uses crypto/rand.
func NewThirdParty(holders []string, cfg Config, conduits map[string]wire.Conduit, random io.Reader) (*ThirdParty, error) {
	cfg, num, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if err := validHolderNames(holders); err != nil {
		return nil, err
	}
	if random == nil {
		random = rand.Reader
	}
	for _, h := range holders {
		if conduits[h] == nil {
			return nil, fmt.Errorf("party: third party missing conduit to %s", h)
		}
	}
	if k := cfg.shardCount(); k > 1 {
		if cfg.ShardDial == nil {
			return nil, fmt.Errorf("party: third party of %d shards has no ShardDial to reach their workers", k)
		}
		for _, h := range holders {
			for s := 0; s < k; s++ {
				if conduits[ShardConduitKey(h, s)] == nil {
					return nil, fmt.Errorf("party: third party missing shard conduit %q", ShardConduitKey(h, s))
				}
			}
		}
	}
	tp := &ThirdParty{
		holders: holders,
		cfg:     cfg,
		num:     num,
		random:  random,
		workers: parallel.Workers(cfg.Parallelism),
		engines: protocol.NewEnginePool(cfg.Parallelism),
		eps:     make(map[string]*wire.Endpoint),
		masters: make(map[string][]byte),
	}
	// The guard arms before the handshake so the session deadline and phase
	// watchdog bound construction too: a holder that never answers hello
	// becomes a classified timeout, not a hang.
	tp.guard = newGuard(TPName, cfg)
	if err := tp.handshakeAll(conduits); err != nil {
		err = tp.guard.abort(err)
		tp.guard.release()
		return nil, err
	}
	return tp, nil
}

// handshakeAll runs the key agreement with every holder on its control
// conduit and, at TPShards > 1, its shard conduits. Every hello goes out
// before any is read, and the replies are read at once (recvAll), so
// construction costs one round trip, not one per lane.
func (tp *ThirdParty) handshakeAll(conduits map[string]wire.Conduit) error {
	var err error
	tp.identity, err = keys.NewIdentity(TPName, tp.random)
	if err != nil {
		return err
	}
	fp := schemaFingerprint(tp.cfg.Schema)
	lanes := 1 // per holder: the control conduit, then its shard conduits
	if k := tp.cfg.shardCount(); k > 1 {
		lanes += k
		tp.shardLanes = make([]map[string]wire.Conduit, k)
		for s := range tp.shardLanes {
			tp.shardLanes[s] = make(map[string]wire.Conduit)
		}
	}
	// Lane 0 of a holder is its control conduit, lane s+1 its conduit to
	// shard s — the holder handshakes them too. The shards reuse the TP
	// identity (one X25519 agreement per holder, so the master is
	// unchanged), but each conduit derives its own channel key salted by the
	// shard name — control and shard channels never share AES-GCM keys. A
	// shard lane ends here, at the coordinator, so a holder never sees the
	// worker that evaluates its pair chunks.
	type link struct {
		holder string
		lane   int
	}
	var links []link
	var bound []wire.Conduit
	for _, h := range tp.holders {
		for lane := 0; lane < lanes; lane++ {
			key := h
			if lane > 0 {
				key = ShardConduitKey(h, lane-1)
			}
			links = append(links, link{holder: h, lane: lane})
			// bind sits directly on the raw conduit — below the AES-GCM
			// layer — so a lifecycle cancel closes the real transport and
			// unparks any blocked read, and every frame either way feeds the
			// watchdog.
			bound = append(bound, tp.guard.bind(conduits[key]))
		}
	}
	for i, l := range links {
		if err := sendHello(bound[i], laneConduitName(l.lane), l.holder, tp.identity, fp); err != nil {
			return err
		}
	}
	hellos, failed, err := recvAll(bound)
	if err != nil {
		return fmt.Errorf("party: %s hello from %s: %w", laneConduitName(links[failed].lane), links[failed].holder, err)
	}
	for i, l := range links {
		secured, master, err := answerHello(bound[i], hellos[i], laneConduitName(l.lane), l.holder, tp.identity, fp, false)
		if err != nil {
			return err
		}
		if tp.cfg.PlaintextChannels {
			secured = bound[i]
		}
		if l.lane == 0 {
			tp.masters[l.holder] = master
		} else if string(master) != string(tp.masters[l.holder]) {
			return fmt.Errorf("party: %s presented a different identity on shard conduit %s", l.holder, laneConduitName(l.lane))
		}
		// Resumable sessions park a severed holder lane in the Reconn and
		// wait for the acceptor to deliver a replacement via Resume.
		if tp.cfg.ResumeWindow > 0 {
			secured = tp.armResume(secured, l.holder, l.lane)
		}
		if l.lane == 0 {
			tp.eps[l.holder] = wire.NewEndpoint(secured)
		} else {
			tp.shardLanes[l.lane-1][l.holder] = secured
		}
	}
	// With every channel established the third party can explain a failure
	// to its peers: abort frames go to every holder.
	tp.guard.setNotify(func(reason string) {
		sendAbortAll(TPName, tp.eps, reason)
	})
	return nil
}

// seedTables derives the mask-stream seeds of the session's pair blocks, by
// attribute and pair of sortedPairs order: the seeds the initiator j shares
// with the third party (the rows k produces) and those the responder k
// shares with it (the rows j produces). Streams no block reads — any of a
// tag attribute, the responder's of an alphanumeric block, which is never
// split — keep the zero seed.
func (tp *ThirdParty) seedTables() (seeds, rowSeeds [][]rng.Seed) {
	bases := make([]rng.Seed, len(tp.holders))
	for i, h := range tp.holders {
		bases[i] = maskBase(tp.masters[h], h)
	}
	pairs := sortedPairs(len(tp.holders))
	seeds = make([][]rng.Seed, len(tp.cfg.Schema.Attrs))
	rowSeeds = make([][]rng.Seed, len(seeds))
	for attr, a := range tp.cfg.Schema.Attrs {
		seeds[attr] = make([]rng.Seed, len(pairs))
		rowSeeds[attr] = make([]rng.Seed, len(pairs))
		for p, pr := range pairs {
			j, k := tp.holders[pr[0]], tp.holders[pr[1]]
			if !tagBased(a.Type) {
				seeds[attr][p] = maskSeed(bases[pr[0]], attr, j, k, false)
			}
			if !tagBased(a.Type) && a.Type != dataset.Alphanumeric {
				rowSeeds[attr][p] = maskSeed(bases[pr[1]], attr, j, k, true)
			}
		}
	}
	return seeds, rowSeeds
}

// core builds the third party's own view of the assembly pipeline.
func (tp *ThirdParty) core() *shardCore {
	seeds, rowSeeds := tp.seedTables()
	return newShardCore(tp.cfg, tp.num, tp.holders, tp.counts, tp.workers, tp.engines, seeds, rowSeeds)
}

// Run executes the third party's side and returns the session report.
//
// Every holder lane has one reader goroutine, which walks the holder's send
// order — attributes in schema order, each a contiguous run of the lane —
// and installs each frame as it reads it, so attribute i's matrix is being
// assembled while attribute i+1 is still streaming in; the last reader
// through an attribute finishes and normalizes it, and once the last
// matrix lands the clustering tail (clusterAll) runs. Every cell is written
// once, by the one reader of the lane that carries it, and compute tokens
// bound how many readers compute at once, so the report is bit-identical
// at any worker count, frame arrival order and shard count.
func (tp *ThirdParty) Run() (*TPReport, error) { return tp.RunContext(context.Background()) }

// RunContext is Run bounded by a caller context: cancelling ctx aborts the
// session (classified under ErrAborted, holders notified with the cause)
// and unwinds promptly — lane readers and blocked transport calls all
// exit — even mid-stream. Config.SessionTimeout and
// Config.PhaseTimeout bound the session independently of ctx. On a clean
// return conduit ownership stays with the caller, exactly as with Run.
func (tp *ThirdParty) RunContext(ctx context.Context) (*TPReport, error) {
	return tp.runGuarded(ctx, tp.assemble)
}

// runGuarded runs the census and then body — everything after it — under
// the session guard.
func (tp *ThirdParty) runGuarded(ctx context.Context, body func() (*TPReport, error)) (*TPReport, error) {
	defer tp.guard.release()
	stop := tp.guard.watchCaller(ctx)
	defer stop()
	tp.guard.setPhase("census")
	err := tp.census()
	var rep *TPReport
	if err == nil {
		tp.guard.setPhase("assemble")
		rep, err = body()
	}
	if err != nil {
		return nil, tp.guard.abort(err)
	}
	return rep, nil
}

// assemble is the third party's one post-census session body. The census
// total is cut into dissim.ShardRanges(total, TPShards) row ranges, and
// the holder lanes into groups (shardCore.readLanes):
//
//   - the control group, on the per-holder control conduits: the tag-based
//     attributes always, and at TPShards ≤ 1 — one range, the whole
//     triangle, which holders stream on the control conduit — every
//     attribute in schema order, then each holder's clustering request;
//   - at TPShards > 1 one group per range carrying the comparison
//     attributes, whose rows come from a shardSource (remoteShard): local
//     chunks installed here, pair chunks evaluated by a worker process
//     behind a relay link (Config.ShardDial), every row installed where it
//     lies in matrices allocated before any source starts.
//
// The first error of any group ends the session at once; otherwise the
// shard sources' maxima (if any) fold into their matrices and the
// clustering requests are served.
func (tp *ThirdParty) assemble() (*TPReport, error) {
	attrs := tp.cfg.Schema.Attrs
	core := tp.core()
	sharded := len(tp.shardLanes) > 0
	matrices := make([]*dissim.Matrix, len(attrs))
	scales := make([]float64, len(attrs))

	ctl := &laneGroup{
		eps:  make([]*wire.Endpoint, len(tp.holders)),
		rows: [2]int{0, core.total},
		asms: make([]*dissim.SliceAssembler, len(attrs)),
		tags: make([][]*wire.Message, len(attrs)),
		reqs: make([]requestBody, len(tp.holders)),
	}
	ctl.install = func(attr int, sh pairShare, lo, hi int, row protocol.RowFunc) error {
		return ctl.asms[attr].SetCrossRowsInto(sh.j, sh.k, lo, hi, row)
	}
	for hi, h := range tp.holders {
		ctl.eps[hi] = tp.eps[h]
	}
	whole := make([]*dissim.Assembler, len(attrs))
	for attr, a := range attrs {
		switch {
		case tagBased(a.Type):
			ctl.tags[attr] = make([]*wire.Message, len(tp.holders))
		case sharded:
			// Every source installs its rows of the triangle in place.
			matrices[attr] = dissim.New(core.total)
			continue
		default:
			asm, err := dissim.NewAssemblerPar(tp.counts, tp.workers)
			if err != nil {
				return nil, err
			}
			if err := core.splitBlocks(asm.SliceAssembler, attr); err != nil {
				return nil, err
			}
			whole[attr], ctl.asms[attr] = asm, asm.SliceAssembler
		}
		ctl.attrs = append(ctl.attrs, attr)
	}
	// A comparison attribute reaches the control group only on a one-range
	// session, where the range is the whole triangle and the finished
	// assembly is adopted as the matrix — no second triangle.
	ctl.finish = func(attr int) error {
		var m *dissim.Matrix
		var err error
		switch attrs[attr].Type {
		case dataset.Categorical:
			m, err = tp.assembleCategorical(ctl.tags[attr])
		case dataset.Hierarchical:
			m, err = tp.assembleHierarchical(ctl.tags[attr])
		default:
			m, err = whole[attr].Done()
		}
		if err != nil {
			return err
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
		return nil
	}

	// ShardRanges never emits an empty range, so fewer than K shards are
	// active when the session has fewer rows than shards; the surplus
	// conduits stay idle (both sides derive the same partition from the
	// census, so holders send nothing on them either) and no surplus
	// worker is dialed.
	var sources []shardSource
	if sharded {
		for s, r := range dissim.ShardRanges(core.total, len(tp.shardLanes)) {
			src, err := tp.remoteShard(core, s, r, matrices)
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
		}
	}

	ctx, cancel := context.WithCancel(tp.guard.ctx)
	defer cancel()
	errs := make(chan error, 1+len(sources))
	maxes := make([][]float64, len(sources))
	for s, src := range sources {
		maxes[s] = make([]float64, len(attrs))
		go func() { errs <- src(ctx, maxes[s]) }()
	}
	go func() { errs <- core.readLanes(ctx, ctl) }()
	for range cap(errs) {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	if sharded {
		tp.mergeShardSlices(maxes, matrices, scales)
	}
	return tp.finish(matrices, scales, func(hi int) (requestBody, error) { return ctl.reqs[hi], nil })
}

// finish answers the holders' clustering requests (nextReq returns one, in
// holder order) through clusterAll and publishes the results.
func (tp *ThirdParty) finish(matrices []*dissim.Matrix, scales []float64, nextReq func(hi int) (requestBody, error)) (*TPReport, error) {
	tp.guard.setPhase("cluster-publish")
	report := &TPReport{
		ObjectIDs:         tp.objectIDs(),
		AttributeMatrices: matrices,
		Scales:            scales,
	}
	var err error
	if report.Results, err = tp.clusterAll(matrices, report.ObjectIDs, nextReq); err != nil {
		return nil, err
	}
	for _, h := range tp.holders {
		res := report.Results[h]
		body := resultBody{Quality: res.Quality, Silhouette: res.Silhouette,
			Method: int(res.Method), Linkage: int(res.Linkage), K: res.K}
		for _, members := range res.Clusters {
			sites := make([]string, len(members))
			idxs := make([]int, len(members))
			for i, m := range members {
				sites[i] = m.Site
				idxs[i] = m.Index
			}
			body.ClusterSites = append(body.ClusterSites, sites)
			body.ClusterIndices = append(body.ClusterIndices, idxs)
		}
		msg := wire.Message{From: TPName, To: h, Kind: kindResult, Attr: -1}
		if err := tp.eps[h].SendBody(msg, body); err != nil {
			return nil, err
		}
	}
	return report, nil
}

func (tp *ThirdParty) census() error {
	tp.counts = make([]int, len(tp.holders))
	for i, h := range tp.holders {
		var c countBody
		if _, err := expectMsg(tp.eps[h], kindCount, &c); err != nil {
			return err
		}
		if c.Count < 0 {
			return fmt.Errorf("party: negative count from %s", h)
		}
		tp.counts[i] = c.Count
	}
	// The census event sits between gathering and broadcast: the true
	// session size is known, no partition-sized payload has moved, and a
	// refusal aborts the session with its reason (classified, holders
	// notified) instead of letting it start over budget.
	if err := tp.guard.events(Event{Kind: EventCensus, Counts: slices.Clone(tp.counts)}); err != nil {
		return fmt.Errorf("party: census refused: %w", err)
	}
	census := censusBody{Holders: tp.holders, Counts: tp.counts}
	for _, h := range tp.holders {
		msg := wire.Message{From: TPName, To: h, Kind: kindCensus, Attr: -1}
		if err := tp.eps[h].SendBody(msg, census); err != nil {
			return err
		}
	}
	return nil
}

// assembleCategorical merges the holders' encrypted columns — frames[hi]
// is holder hi's — and runs the Figure 12 construction over the combined
// tags (paper Section 5: "Construction algorithm for categorical data is
// much simpler").
func (tp *ThirdParty) assembleCategorical(frames []*wire.Message) (*dissim.Matrix, error) {
	var all []detenc.Tag
	for hi, h := range tp.holders {
		var body catTagsBody
		if err := wire.DecodeBody(frames[hi].Payload, &body); err != nil {
			return nil, err
		}
		if len(body.Tags) != tp.counts[hi] {
			return nil, fmt.Errorf("party: %s sent %d tags, census says %d", h, len(body.Tags), tp.counts[hi])
		}
		for _, t := range body.Tags {
			all = append(all, detenc.Tag(t))
		}
	}
	dist := func(i, j int) float64 {
		return detenc.Distance(all[i], all[j])
	}
	return dissim.FromLocalPar(len(all), tp.workers, func(int) func(i, j int) float64 { return dist }), nil
}

// assembleHierarchical merges the holders' encrypted path columns —
// frames[hi] is holder hi's — and evaluates the taxonomy distance on tag
// sequences: the future-work extension of Section 4.3 realized with the
// same trust structure as categorical attributes.
func (tp *ThirdParty) assembleHierarchical(frames []*wire.Message) (*dissim.Matrix, error) {
	var all [][]detenc.Tag
	for hi, h := range tp.holders {
		var body pathTagsBody
		if err := wire.DecodeBody(frames[hi].Payload, &body); err != nil {
			return nil, err
		}
		if len(body.Paths) != tp.counts[hi] {
			return nil, fmt.Errorf("party: %s sent %d paths, census says %d", h, len(body.Paths), tp.counts[hi])
		}
		for _, raw := range body.Paths {
			if len(raw) == 0 {
				return nil, fmt.Errorf("party: %s sent an empty taxonomy path", h)
			}
			path := make([]detenc.Tag, len(raw))
			for j, t := range raw {
				path[j] = detenc.Tag(t)
			}
			all = append(all, path)
		}
	}
	dist := func(i, j int) float64 {
		return catdist.TagDistance(all[i], all[j])
	}
	return dissim.FromLocalPar(len(all), tp.workers, func(int) func(i, j int) float64 { return dist }), nil
}

func (tp *ThirdParty) objectIDs() []dataset.ObjectID {
	var out []dataset.ObjectID
	for hi, h := range tp.holders {
		for i := 0; i < tp.counts[hi]; i++ {
			out = append(out, dataset.ObjectID{Site: h, Index: i})
		}
	}
	return out
}

// clusterAll is the clustering tail over the global object ordering ids.
// Every request is read and validated before any is served, so a bad one —
// reported for the first holder in holder order that sent it — costs no
// clustering; then each distinct request is served once (see tail) and
// every holder gets, under its name, its own copy of the Result it asked for.
func (tp *ThirdParty) clusterAll(matrices []*dissim.Matrix, ids []dataset.ObjectID, nextReq func(hi int) (requestBody, error)) (map[string]*Result, error) {
	t := &tail{
		workers: tp.workers, matrices: matrices, ids: ids,
		merged:  make(map[string]*dissim.Matrix),
		trees:   make(map[tailKey]*hcluster.Dendrogram),
		results: make(map[tailKey]*Result),
	}
	reqs := make([]requestBody, len(tp.holders))
	keys := make([]tailKey, len(tp.holders))
	for hi, h := range tp.holders {
		var err error
		if reqs[hi], err = nextReq(hi); err != nil {
			return nil, err
		}
		if keys[hi], err = t.keyOf(reqs[hi]); err != nil {
			return nil, fmt.Errorf("party: clustering for %s: %w", h, err)
		}
	}
	out := make(map[string]*Result, len(tp.holders))
	for hi, h := range tp.holders {
		res, err := t.serve(keys[hi], reqs[hi].Weights)
		if err != nil {
			return nil, fmt.Errorf("party: clustering for %s: %w", h, err)
		}
		out[h] = res.clone()
	}
	return out, nil
}

// tail is what one session's requests share, each level computed by the
// first request that needs it and gone when clusterAll returns: normalised
// weights → merged matrix; (weights, method, linkage) → dendrogram; the
// whole key → the Result, from one cut and one scoring pass. Nothing here
// writes a matrix: merged may BE one of TPReport.AttributeMatrices.
type tail struct {
	workers  int
	matrices []*dissim.Matrix
	ids      []dataset.ObjectID
	merged   map[string]*dissim.Matrix
	trees    map[tailKey]*hcluster.Dendrogram // keyed with k = 0
	results  map[tailKey]*Result
}

// tailKey names a distinct request. weights spells the normalised vector's
// exact bits, so scalar multiples of one vector share; k is clamped into
// [1, n] — 0 for a census of zero objects, which publishes an empty result
// whatever the method.
type tailKey struct {
	weights string
	method  Method
	linkage hcluster.Linkage
	k       int
}

// keyOf names one request after checking everything in it that serve
// would otherwise reject only once a merge is paid for.
func (t *tail) keyOf(req requestBody) (tailKey, error) {
	norm, err := dissim.NormalizeWeights(req.Weights, len(t.matrices))
	if err != nil {
		return tailKey{}, err
	}
	key := tailKey{weights: fmt.Sprintf("%x", norm), method: Method(req.Method),
		linkage: hcluster.Linkage(req.Linkage), k: min(max(req.K, 1), len(t.ids))}
	switch {
	case key.k == 0 || key.method == MethodDiana || key.method == MethodPAM: // reads no linkage
	case key.method == MethodAgglomerative:
		err = key.linkage.Validate()
	default:
		err = fmt.Errorf("party: unknown clustering method %d", req.Method)
	}
	return key, err
}

// serve returns the one Result of a distinct request; weights is any raw
// vector that normalises to key.weights.
func (t *tail) serve(key tailKey, weights []float64) (*Result, error) {
	if res := t.results[key]; res != nil {
		return res, nil
	}
	res := &Result{Method: key.method, Linkage: key.linkage, K: key.k}
	if key.k == 0 {
		return res, nil
	}
	merged := t.merged[key.weights]
	if merged == nil {
		// A single non-zero weight normalises to 1.0 and every other term is
		// 0·x = 0, so the merge — 0 + 1.0·x, bit for bit x — is that
		// attribute's matrix itself: no pass, no triangle.
		nonzero, last := 0, 0
		for i, w := range weights {
			if w != 0 {
				nonzero, last = nonzero+1, i
			}
		}
		merged = t.matrices[last]
		if nonzero > 1 {
			var err error
			if merged, err = dissim.WeightedMergePar(t.matrices, weights, t.workers); err != nil {
				return nil, err
			}
		}
		t.merged[key.weights] = merged
	}
	clusters, err := t.partition(merged, key)
	if err != nil {
		return nil, err
	}
	// Below two clusters the silhouette is undefined and published as 0.
	if res.Quality, res.Silhouette, err = hcluster.ScorePartition(merged, clusters); err != nil {
		return nil, err
	}
	for _, members := range clusters {
		objs := make([]dataset.ObjectID, len(members))
		for i, m := range members {
			objs[i] = t.ids[m]
		}
		res.Clusters = append(res.Clusters, objs)
	}
	t.results[key] = res
	return res, nil
}

// partition cuts merged into key.k clusters: a PAM run, or one cut of the
// dendrogram every k of the same (weights, method, linkage) shares.
func (t *tail) partition(merged *dissim.Matrix, key tailKey) ([][]int, error) {
	if key.method == MethodPAM {
		// PAM's tie-breaking stream is derived deterministically from the
		// problem shape so results reproduce across runs and deployments.
		seed := rng.SeedFromBytes([]byte(fmt.Sprintf("ppc/pam/%d/%d", merged.N(), key.k)))
		res, err := pam.Cluster(merged, key.k, rng.NewXoshiro(seed), pam.Config{Workers: t.workers})
		if err != nil {
			return nil, err
		}
		return res.Clusters(), nil
	}
	tree := key
	tree.k = 0
	dg := t.trees[tree]
	if dg == nil {
		var err error
		if key.method == MethodDiana {
			dg, err = hcluster.DianaPar(merged, t.workers)
		} else {
			dg, err = hcluster.ClusterPar(merged, key.linkage, t.workers)
		}
		if err != nil {
			return nil, err
		}
		t.trees[tree] = dg
	}
	return dg.CutK(key.k)
}

// clone is a Result sharing no memory with r: what one holder does to its
// result is invisible to the others that asked for the same one.
func (r *Result) clone() *Result {
	c := *r
	c.Quality = slices.Clone(r.Quality)
	c.Clusters = slices.Clone(r.Clusters)
	for i, members := range c.Clusters {
		c.Clusters[i] = slices.Clone(members)
	}
	return &c
}
