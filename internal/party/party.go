// Package party orchestrates the full İnan et al. session: k data holders
// and a third party jointly construct per-attribute global dissimilarity
// matrices with the internal/protocol comparison protocols, after which the
// third party normalizes, merges, clusters and publishes results
// (paper Sections 3 and 5).
//
// The message flow is strictly deterministic, which keeps the protocol
// deadlock-free over both in-memory and TCP transports:
//
//  1. handshake on every conduit (X25519 key agreement, then AES-GCM),
//     every hello sent before any is read;
//  2. every holder reports its object count to the third party, which
//     broadcasts the full census;
//  3. the first holder distributes the group categorical key to its peers;
//  4. per attribute in schema order, each holder streams that attribute's
//     complete traffic before touching the next: its local dissimilarity
//     matrix (numeric and alphanumeric attributes, Figure 12), then the
//     attribute's protocol messages — categorical columns go to the third
//     party encrypted; for other types every holder pair (J, K), J < K,
//     runs the comparison protocol (J disguises → K combines → TP decodes),
//     a numeric block's rows split between the two holders (split.go): K
//     also disguises its own values for the rows J produces, which J
//     combines;
//  5. every holder submits its weight vector and clustering request;
//  6. the third party answers each holder with its clustering result
//     (Figure 13 format plus quality parameters).
//
// Interleaving the local matrices per attribute (rather than sending them
// all up front) makes every attribute's traffic a contiguous run of each
// holder's stream, which is what lets the third party's session pipeline
// (ThirdParty.Run) finish assembling attribute i while attribute i+1 is
// still on the wire.
//
// The third party has one session pipeline. The census total is cut into
// K = Config.TPShards row ranges (one range, the whole triangle, when K ≤
// 1); each holder streams every comparison attribute's chunk frames to
// the lane that owns the rows — its control conduit at K ≤ 1, the shard
// conduits otherwise — and the third party reads every lane with a reader
// of its own, in the holder's send order (shardCore.readLanes). At K > 1
// the third party installs each range's local chunks itself and relays
// its pair chunks to the ppc-shard worker process that evaluates them
// (Config.ShardDial); the worker's rows come back to be installed where
// they lie.
//
// Holder-to-holder conduits carry a pair's two disguises in a fixed order —
// J sends, K receives and then sends, J receives — and every holder walks
// the pairs in the same order; the third party never sends until all
// protocol traffic is received, and reads every holder lane as its frames
// arrive. So no cycle of blocking sends can form.
package party

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// TPName is the third party's protocol name. Holder names must differ from
// it.
const TPName = "TP"

// MaxTPShards bounds Config.TPShards: the admission routing preamble
// carries the shard count in one byte, with 0 reserved for the control
// lane.
const MaxTPShards = 254

// ShardName is the conduit name of third-party shard i as a holder sees
// it: holders key their shard conduits by it, and it salts the per-conduit
// channel key derivation so control and shard channels never share AES-GCM
// keys. Holder names must not collide with it (enforced alongside the
// TPName collision check).
func ShardName(i int) string { return TPName + "#" + strconv.Itoa(i) }

// ShardConduitKey is the conduit-map key under which the third party
// receives holder `holder`'s conduit to shard i (the TP side of the same
// link a holder keys by ShardName(i)).
func ShardConduitKey(holder string, i int) string { return holder + "#" + strconv.Itoa(i) }

// Variant selects the arithmetic of the numeric comparison protocol
// (protocol.Variant: float64, int64 or mod-p).
type Variant = protocol.Variant

// The numeric arithmetics; see protocol.Variant.
const (
	Float64Variant = protocol.Float64Variant
	Int64Variant   = protocol.Int64Variant
	ModPVariant    = protocol.ModPVariant
)

// Config is the session agreement all parties share out of band (paper
// Section 3: parties "have previously agreed on the list of attributes").
type Config struct {
	// Schema is the agreed attribute list.
	Schema dataset.Schema
	// Mode is the numeric protocol's masking mode (batch or per-pair).
	Mode protocol.Mode
	// Variant selects the numeric protocol arithmetic. Integer and float
	// masks are always bounded by protocol.Int64MaskRange and
	// protocol.DefaultFloatParams.
	Variant Variant
	// RNG selects the shared generator implementation. The zero value is
	// rng.KindXoshiro, and normalized does not replace it; the ppclust
	// facade pins rng.KindAESCTR, matching the paper's "high quality,
	// unpredictable" requirement.
	RNG rng.Kind
	// PlaintextChannels disables AES-GCM channel protection. Only the
	// eavesdropping experiments set this; the paper requires secured
	// channels.
	PlaintextChannels bool
	// Parallelism is the worker count every party uses for its O(n²)
	// hot paths (local matrix construction, protocol disguise/strip
	// steps, CCM edit-distance evaluation, assembly, merge and
	// normalization). 0 selects all cores (GOMAXPROCS); 1 runs serially.
	// It is also the number of compute tokens the third party's lane
	// readers share, so the session never evaluates more chunks at once
	// than this budget (readers waiting for frames hold none). Results
	// are bit-identical for every setting.
	Parallelism int
	// TPShards splits the third party into that many row-range shards
	// plus a merge coordinator (0 and 1 both mean one range: the whole
	// triangle, streamed on the control conduit and assembled by the third
	// party itself). Each shard owns a contiguous range of global triangle
	// rows (dissim.ShardRanges over the census total): holders fan each
	// comparison attribute's local and pairwise chunk frames to the owning
	// shard's conduit, the coordinator installs the local chunks, a worker
	// process (ShardDial) evaluates the pair chunks, and the coordinator
	// installs the worker's rows and normalizes — bit-identical to the
	// single-TP session for every K. A third party with K > 1 needs
	// ShardDial. It is part of the session agreement: holder and third
	// party must agree (the server's admission routing preamble carries
	// the count to holders), and every holder needs conduits named
	// ShardName(0..K−1) next to the TPName control conduit. Tag-based
	// attributes, census, clustering requests and results stay on the
	// control conduit. At most MaxTPShards.
	TPShards int
	// LocalChunkBytes bounds the frames the session's partition-sized
	// payloads stream in: each local dissimilarity triangle (holder→TP)
	// and each pairwise-protocol S/M comparison matrix (holder→TP) is
	// cut into row ranges of at most this many payload bytes (at least
	// one row per frame), and the third party installs or evaluates each
	// range the moment it arrives. It is part of the session agreement —
	// both sides derive the identical chunk schedules (localChunksRange,
	// pairChunksRange) from it — and tunes only framing: reports are
	// bit-identical at every setting. 0 selects DefaultLocalChunkBytes;
	// negative is refused. A budget at least as large as a payload sends
	// it as one frame per lane, which re-imposes the wire.MaxFrame ceiling
	// on session size.
	LocalChunkBytes int
	// SessionTimeout bounds a whole session, handshake through result.
	// When it elapses the party fails with ErrSessionTimeout, notifies
	// its peers with an abort frame and tears its pipelines down. 0
	// disables the bound. It is a local safety net, not part of the
	// session agreement: parties may configure different values.
	SessionTimeout time.Duration
	// PhaseTimeout bounds inactivity: a watchdog fails the session with
	// ErrSessionTimeout naming the current phase when no frame moves in
	// either direction for this long — the classified replacement for
	// hanging forever on a peer that stopped sending chunks. The
	// effective bound is between one and two PhaseTimeouts after the
	// last frame. 0 disables the watchdog. Local, like SessionTimeout.
	PhaseTimeout time.Duration
	// ResumeWindow, when positive, makes a mid-session sever of a
	// holder↔TP conduit recoverable instead of fatal: the lane parks in a
	// degraded state for up to this long while a replacement transport is
	// negotiated, and the session resumes bit-identical to a fault-free
	// run once the lane rebinds (frames the peer never installed are
	// replayed exactly once, duplicates dropped). The third party arms
	// every holder lane with just the window; a holder additionally needs
	// Redial to re-establish transports. When the window runs out the
	// session fails with ErrSessionTimeout naming the degraded phase. 0
	// keeps the pre-resume behavior: the first sever aborts the session,
	// classified under ErrDisconnected. Holder↔holder conduits are never
	// resumable — severing one always aborts.
	ResumeWindow time.Duration
	// Redial, set on a holder alongside ResumeWindow, re-establishes a
	// severed TP lane: it dials a replacement transport, delivers the
	// holder's resume state (epoch proposal and frame watermarks) to the
	// third party, and returns the raw replacement conduit plus the third
	// party's grant. The holder layers its own channel protection over
	// the returned conduit — Redial hands back a bare transport, exactly
	// what a dialer produces. Returning an error wrapping ErrResumeStale,
	// ErrResumeAborted or ErrResumeUnknown is fatal; any other error is
	// retried with capped backoff until the window expires.
	Redial RedialFunc
	// ShardDial reaches the shards' worker processes, and the third party
	// of a TPShards > 1 session requires it: the coordinator dials one
	// ppc-shard worker per active range through this hook, hands each its
	// slice offer and relays the holders' pair chunks to it. The hook performs the shard
	// registration (netid v4 hello carrying state) and returns the raw
	// replacement transport plus the worker's grant; the coordinator
	// layers key agreement and AES-GCM on top — worker links are always
	// encrypted, Config.PlaintextChannels notwithstanding. With
	// ResumeWindow > 0 a severed worker link (crashed process, dropped
	// connection) redials through the same hook and the replacement
	// worker recomputes the slice from a full replay; the session heals
	// bit-identically. Holders ignore this field.
	ShardDial ShardDialFunc
	// Events, when set, observes the session from this party's side: the
	// third party's census and every resumable link going down and coming
	// up. A census event returning an error refuses the session. Local
	// policy and observation, not part of the session agreement.
	Events Events
}

// DefaultLocalChunkBytes is the local-matrix streaming chunk size when
// Config.LocalChunkBytes is 0: large enough that framing overhead
// disappears, small enough that the third party starts installing a big
// triangle while almost all of it is still on the wire.
const DefaultLocalChunkBytes = 256 << 10

// chunkBudgetBytes resolves the LocalChunkBytes knob's defaulting in one
// place for every chunk schedule: 0 selects DefaultLocalChunkBytes.
// Holder and third party must derive identical schedules, so this is the
// only ladder.
func (c Config) chunkBudgetBytes() int {
	if c.LocalChunkBytes == 0 {
		return DefaultLocalChunkBytes
	}
	return c.LocalChunkBytes
}

// alphaPairCellBytes is the nominal wire weight of one alphanumeric S/M
// "cell" — a whole per-(responder string, initiator string) symbol matrix —
// in the pairwise chunk schedule. String lengths are private, so the
// schedule cannot consult the true matrix sizes: both sides must derive it
// from public shape alone. 256 bytes corresponds to a 16×16-character
// pair, a comfortable overestimate for typical short attribute values;
// either way a chunk bounds the number of pairs per frame, and no frame
// grows with the partition.
const alphaPairCellBytes = 256

// pairCellBytes is the nominal wire bytes per cell of a holder→TP S/M
// payload, used to derive the shared pairwise chunk schedule: the session's
// numeric cell size (protocol.Numeric.CellBytes) for numeric and ordered
// attributes, alphaPairCellBytes for alphanumeric ones.
func pairCellBytes(num protocol.Numeric, t dataset.AttrType) int {
	if t == dataset.Alphanumeric {
		return alphaPairCellBytes
	}
	return num.CellBytes()
}

// shardCount resolves TPShards: anything below 2 is one range.
func (c Config) shardCount() int {
	if c.TPShards < 1 {
		return 1
	}
	return c.TPShards
}

// localChunksRange is the chunk schedule of one holder's local-matrix
// stream over its triangle rows [lo, hi) — the rows one lane's range owns,
// the whole triangle [0, n) on a single-range session: row ranges bounded
// by the configured chunk bytes (8 bytes per packed float64 cell). Holder
// and third party compute it independently from the shared Config and the
// census, so the receiver knows every chunk's row range — and the lane's
// frame count — before the first frame.
func (c Config) localChunksRange(lo, hi int) [][2]int {
	return dissim.RowChunksRange(lo, hi, c.chunkBudgetBytes()/8)
}

// pairChunksRange is the chunk schedule of rows [lo, hi) of one pairwise
// payload for an attribute of type t — a share of the holder→TP S/M matrix
// (rows = the responder's objects a lane's range owns, cols = the
// initiator's count) or a disguised matrix one holder sends the other: row
// ranges bounded by the configured chunk bytes in cells of the session's
// numeric protocol num, driven by the same Config.LocalChunkBytes knob as
// localChunksRange and shared between sender and receiver the same way.
func (c Config) pairChunksRange(num protocol.Numeric, t dataset.AttrType, lo, hi, cols int) [][2]int {
	return dissim.RectChunksRange(lo, hi, cols, c.chunkBudgetBytes()/pairCellBytes(num, t))
}

// pairChunkCountRange is len(pairChunksRange(num, t, lo, hi, cols))
// without materializing the schedule, for the lane frame counts.
func (c Config) pairChunkCountRange(num protocol.Numeric, t dataset.AttrType, lo, hi, cols int) int {
	return dissim.RectChunkCountRange(lo, hi, cols, c.chunkBudgetBytes()/pairCellBytes(num, t))
}

// shardRowsOf intersects global triangle rows [lo, hi) with the rows a
// holder of global offset off and object count n contributes, returning
// the holder-local row range (empty ranges come back as [x, x)). Holder
// and third party derive the identical intersection from the census, so
// both know every frame's row range — and the lane frame counts — before
// the first frame moves. A holder with no rows in a range sends nothing
// toward it.
func shardRowsOf(lo, hi, off, n int) (int, int) {
	rlo, rhi := lo-off, hi-off
	if rlo < 0 {
		rlo = 0
	}
	if rhi > n {
		rhi = n
	}
	if rhi < rlo {
		rhi = rlo
	}
	return rlo, rhi
}

// EstimateSessionBytes is the third party's worst-case resident memory
// for one session of numHolders holders and totalObjects global objects
// under this config, at its TPShards (≤1 = single TP) — the
// admission-control number the multi-tenant server reserves against its
// global budget before letting a session start. It is a deliberate
// overestimate of what the session holds:
//
//   - the resident triangles, each a condensed float64 triangle of
//     totalObjects·(totalObjects−1)/2 cells: nAttr attribute matrices,
//     assembled in place as their chunks arrive and normalized where they
//     lie, plus one — the merged matrix, or, when a single non-zero weight
//     makes the merge the attribute matrix itself, the linkage engine's
//     working copy;
//   - the lane readers: one per holder lane, each holding the frame it is
//     consuming (the payload is read where it lies) and one engine's mask
//     scratch — priced at readerChunks chunks per lane, and at least two
//     lanes.
//
// Sharding adds nothing to the matrix term: the K shards of one attribute
// install their rows where they lie in its one matrix — the coordinator
// assembles a range's local chunks into the matrix's rows and decodes a
// worker's evaluated rows into them — so no slice is held beside it. What
// scales with K is the per-shard plumbing: each shard runs its own lane
// readers, whose frames are bounded by the per-shard slice, not the full
// chunk. Pricing the session at K× the single-TP estimate would
// over-reserve by roughly the matrix term times K−1.
//
// A chunk budget larger than the triangle prices each "chunk" at the full
// triangle, which is exactly the pre-streaming resident shape. The
// estimate is a pure function of public shape (schema, census, chunking,
// shard count) — it never consults private data.
func (c Config) EstimateSessionBytes(numHolders, totalObjects int) int64 {
	if numHolders < 0 {
		numHolders = 0
	}
	n := int64(totalObjects)
	if n < 0 {
		n = 0
	}
	triangle := 8 * n * (n - 1) / 2
	chunk := min(int64(c.chunkBudgetBytes()), triangle)
	nAttr := int64(len(c.Schema.Attrs))
	matrices := (nAttr + 1) * triangle
	lanes := int64(max(numHolders, 2))
	readers := readerChunks * lanes * chunk
	if shards := c.shardCount(); shards > 1 {
		// Per-shard lane readers. A shard never holds more than its own
		// slice, so its chunk price is capped at the slice size.
		shardChunk := chunk
		if slice := triangle / int64(shards); shardChunk > slice {
			shardChunk = slice
		}
		readers += int64(shards) * readerChunks * lanes * shardChunk
	}
	return matrices + readers
}

// readerChunks is what EstimateSessionBytes prices one lane reader at, in
// chunks. A reader holds one frame and one engine's mask scratch at a
// time, but the collector frees what it is done with only later: priced at
// two chunks, the estimate of a 600 + 600 session falls below its measured
// peak.
const readerChunks = 8

// normalized validates the config and fills defaults, and builds the
// session's numeric protocol from its variant and masking mode.
func (c Config) normalized() (Config, protocol.Numeric, error) {
	var err error
	if c.Schema, err = c.Schema.Normalized(); err != nil {
		return c, protocol.Numeric{}, err
	}
	num, err := protocol.NewNumeric(c.Variant, c.Mode)
	if err != nil {
		return c, num, fmt.Errorf("party: %w", err)
	}
	if c.RNG != rng.KindXoshiro && c.RNG != rng.KindAESCTR {
		return c, num, fmt.Errorf("party: unknown generator kind %d", c.RNG)
	}
	if c.LocalChunkBytes < 0 {
		return c, num, fmt.Errorf("party: negative LocalChunkBytes %d", c.LocalChunkBytes)
	}
	if c.TPShards > MaxTPShards {
		return c, num, fmt.Errorf("party: TPShards %d exceeds the maximum of %d", c.TPShards, MaxTPShards)
	}
	return c, num, nil
}

// Method selects the clustering algorithm the third party runs for a
// holder. All methods consume only the dissimilarity matrix, which is the
// paper's generality argument.
type Method int

const (
	// MethodAgglomerative is bottom-up hierarchical clustering under the
	// request's Linkage (the paper's primary focus).
	MethodAgglomerative Method = iota
	// MethodDiana is top-down divisive hierarchical clustering.
	MethodDiana
	// MethodPAM is partitioning around medoids — a partitioning algorithm
	// that, unlike k-means, works on dissimilarities and hence on every
	// attribute type.
	MethodPAM
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodAgglomerative:
		return "agglomerative"
	case MethodDiana:
		return "diana"
	case MethodPAM:
		return "pam"
	default:
		return "unknown"
	}
}

// ClusterRequest is one holder's choice of weights and algorithm (paper
// Section 5: "Every data holder can impose a different weight vector and
// clustering algorithm of his own choice").
type ClusterRequest struct {
	// Weights is the per-attribute weight vector; nil uses the schema's
	// weights.
	Weights []float64
	// Method selects the clustering algorithm (agglomerative by default).
	Method Method
	// Linkage selects the hierarchical rule for MethodAgglomerative.
	Linkage hcluster.Linkage
	// K is the number of clusters to report.
	K int
}

// Result is what the third party publishes to a holder: cluster
// memberships by global object id plus aggregate quality — never the
// dissimilarity matrix itself (paper Section 5: "Dissimilarity matrices
// must be kept secret by the third party").
type Result struct {
	// Clusters lists the members of each cluster (Figure 13).
	Clusters [][]dataset.ObjectID
	// Quality carries the per-cluster statistics the paper allows the
	// third party to convey ("average of square distance between
	// members").
	Quality []hcluster.ClusterQuality
	// Silhouette is the mean silhouette coefficient of the published
	// partition — another aggregate quality parameter in the paper's
	// sense. Zero when undefined (fewer than two clusters).
	Silhouette float64
	// Method, Linkage and K echo the request.
	Method  Method
	Linkage hcluster.Linkage
	K       int
}

// Format renders the result in the paper's Figure 13 layout.
func (r *Result) Format() string {
	out := ""
	for i, members := range r.Clusters {
		out += fmt.Sprintf("Cluster%d\t", i+1)
		for j, m := range members {
			if j > 0 {
				out += ", "
			}
			out += m.String()
		}
		out += "\n"
	}
	return out
}

// Message kinds of the session protocol.
const (
	kindHello     wire.Kind = "ppc/hello"
	kindCount     wire.Kind = "ppc/count"
	kindCensus    wire.Kind = "ppc/census"
	kindGroupKey  wire.Kind = "ppc/groupkey"
	kindLocal     wire.Kind = "ppc/local"
	kindNumDisg   wire.Kind = "ppc/numeric-disguised"
	kindNumS      wire.Kind = "ppc/numeric-s"
	kindAlphaDisg wire.Kind = "ppc/alpha-disguised"
	kindAlphaM    wire.Kind = "ppc/alpha-m"
	kindCatTags   wire.Kind = "ppc/categorical-tags"
	kindPathTags  wire.Kind = "ppc/taxonomy-tags"
	kindRequest   wire.Kind = "ppc/cluster-request"
	kindResult    wire.Kind = "ppc/result"
	kindAbort     wire.Kind = "ppc/abort"

	// Coordinator↔shard-worker control protocol (shardproc.go /
	// shardserver.go). Aborts reuse kindAbort in both directions.
	kindShardOffer wire.Kind = "ppc/shard-offer"
	kindShardFrame wire.Kind = "ppc/shard-frame"
	kindShardRows  wire.Kind = "ppc/shard-rows"
	kindShardDone  wire.Kind = "ppc/shard-done"
)

// helloBody carries a party's public key and schema fingerprint.
type helloBody struct {
	Public      []byte
	Fingerprint string
}

// handshake runs the key agreement every link of a session starts with —
// holder↔holder, holder↔TP (control and shard lanes) and coordinator↔
// worker: sendHello, read the peer's, answerHello. It returns the secured
// conduit and the master: a session agreed on PlaintextChannels keeps using
// c, and a link that must present an identity already known (a shard lane)
// has its master compared by the caller.
func handshake(c wire.Conduit, self, peer string, id *keys.Identity, fp string, initiator bool) (wire.Conduit, []byte, error) {
	if err := sendHello(c, self, peer, id, fp); err != nil {
		return nil, nil, err
	}
	m, err := wire.NewEndpoint(c).Recv()
	if err != nil {
		return nil, nil, fmt.Errorf("party: %s hello from %s: %w", self, peer, err)
	}
	return answerHello(c, m, self, peer, id, fp, initiator)
}

// sendHello sends the own public key and schema fingerprint to peer. A
// hello never waits for a read, so a party with many links sends every
// hello before it reads any (recvAll): no ordering of the parties'
// conduits can deadlock, and the round trips of all its links overlap —
// constructing a party costs one round trip, not one per link.
func sendHello(c wire.Conduit, self, peer string, id *keys.Identity, fp string) error {
	hello := helloBody{Public: id.PublicBytes(), Fingerprint: fp}
	if err := wire.NewEndpoint(c).SendBody(wire.Message{From: self, To: peer, Kind: kindHello, Attr: -1}, hello); err != nil {
		return fmt.Errorf("party: %s hello to %s: %w", self, peer, err)
	}
	return nil
}

// recvAll receives the next message on every conduit at once and returns
// them in conduit order. The first failure closes every conduit — the
// session cannot start, and no receive is left waiting on a peer — and is
// returned with its conduit's index.
func recvAll(conduits []wire.Conduit) ([]*wire.Message, int, error) {
	msgs := make([]*wire.Message, len(conduits))
	var (
		first  error
		failed int
		once   sync.Once
		wg     sync.WaitGroup
	)
	for i, c := range conduits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if msgs[i], err = wire.NewEndpoint(c).Recv(); err != nil {
				once.Do(func() {
					first, failed = err, i
					for _, c := range conduits {
						c.Close()
					}
				})
			}
		}()
	}
	wg.Wait()
	return msgs, failed, first
}

// answerHello completes a handshake with the peer's reply m: refuse
// anything but a hello in the same schema, derive the pairwise master and
// wrap c in AES-GCM under the channel key of the unordered (self, peer)
// name pair. Exactly one end passes initiator.
func answerHello(c wire.Conduit, m *wire.Message, self, peer string, id *keys.Identity, fp string, initiator bool) (wire.Conduit, []byte, error) {
	var theirs helloBody
	if err := expectBody(m, kindHello, &theirs); err != nil {
		return nil, nil, fmt.Errorf("party: %s hello from %s: %w", self, peer, err)
	}
	if theirs.Fingerprint != fp {
		return nil, nil, fmt.Errorf("party: %s and %s disagree on the schema", self, peer)
	}
	master, err := id.Master(theirs.Public)
	if err != nil {
		return nil, nil, fmt.Errorf("party: %s master with %s: %w", self, peer, err)
	}
	secured, err := wire.Secure(c, keys.DeriveKey(master, keys.PurposeChannel, self, peer), initiator)
	if err != nil {
		return nil, nil, err
	}
	return secured, master, nil
}

// countBody reports a holder's object count.
type countBody struct {
	Count int
}

// censusBody broadcasts all holders' counts, in holder order.
type censusBody struct {
	Holders []string
	Counts  []int
}

// groupKeyBody carries the wrapped categorical group key.
type groupKeyBody struct {
	Box []byte
}

// localBody is one chunk of an attribute's local dissimilarity matrix:
// the packed cells of triangle rows [Lo, Hi), streamed in the shared
// localChunksRange schedule (a single chunk per lane when the budget
// exceeds the payload). N is the full object count, repeated per chunk so every
// frame validates against the census on its own. A holder's fill
// computes the cells straight into the frame (dissim.AppendLocalRowsLE); a
// decoded chunk keeps its cell block where it arrived (wire, 8
// little-endian bytes a cell, aliasing the payload) for the assembler to
// read straight into the triangle.
type localBody struct {
	N      int
	Lo, Hi int
	fill   func(dst []byte) []byte
	wire   []byte
}

// numSBody is one chunk of a numeric pairwise payload, streamed in the
// shared pairChunksRange schedule (a single chunk per lane when the budget
// exceeds the payload): rows [Lo, Hi) of the masked comparison matrix S of
// one pair, from the responder's share of the rows or the initiator's
// (split.go), toward the third party — or, under kind
// ppc/numeric-disguised, rows [Lo, Hi) of a disguise one holder of a pair
// sends the other. Rows is the payload's full row count, repeated per
// chunk so every frame validates against the census on its own: the
// responder's object count for S and for the responder's disguise of the
// rows the initiator produces, the initiator's disguise's own row count
// (the split row in per-pair mode, 1 in batch mode) for it.
//
// The cells are the numeric protocol's, as the frame carries them: a
// sender's fill appends the block straight into the frame being built
// (protocol.Numeric's Disguise or Combine), and a received chunk keeps it
// where it arrived.
type numSBody struct {
	Rows   int
	Lo, Hi int
	cells  protocol.NumericChunk
	fill   func(dst []byte) ([]byte, error)
	size   int // the bytes fill appends
}

// alphaDisguisedBody is the initiator→responder alphanumeric message: the
// disguised strings packed at the alphabet's cell width, the words the
// responder's Figure 9 kernel reads.
type alphaDisguisedBody struct {
	S protocol.AlphaStrings
}

// alphaMBody is one chunk of the responder→TP alphanumeric message: rows
// [Lo, Hi) of the intermediary-matrix block (one row of per-initiator
// symbol matrices per responder string) in one cell slab packed at the
// alphabet's cell width, streamed in the shared pairChunksRange schedule.
// Rows is the responder's full object count, repeated per chunk.
type alphaMBody struct {
	Rows   int
	Lo, Hi int
	M      protocol.AlphaChunk
}

// catTagsBody is a holder's encrypted categorical column.
type catTagsBody struct {
	Tags [][32]byte
}

// pathTagsBody is a holder's encrypted hierarchical column: one root-path
// tag sequence per object.
type pathTagsBody struct {
	Paths [][][32]byte
}

// requestBody is a holder's weights and clustering choice.
type requestBody struct {
	Weights []float64
	Method  int
	Linkage int
	K       int
}

// resultBody is the published clustering result.
type resultBody struct {
	ClusterSites   [][]string
	ClusterIndices [][]int
	Quality        []hcluster.ClusterQuality
	Silhouette     float64
	Method         int
	Linkage        int
	K              int
}

// shardOfferBody is the coordinator→worker slice hand-off: everything a
// fresh worker process needs to run one shard of the session — the shard's
// global row range, the census, the session agreement knobs, and the
// per-(attribute, pair) mask-stream seeds (the workers have no key
// agreement with the holders, so the coordinator, which derived the
// masters during the handshake, forwards exactly the seeds the slice
// needs; the masters themselves never leave the coordinator). The schema
// is not carried: worker and coordinator each hold their own copy and the
// offer's fingerprint pins the agreement. Neither is the parallelism: a
// worker sizes its compute from its own cores, and results are
// bit-identical at any width.
type shardOfferBody struct {
	Shard       int
	Lo, Hi      int
	Holders     []string
	Counts      []int
	Fingerprint string

	Mode            protocol.Mode
	Variant         Variant
	RNG             rng.Kind
	LocalChunkBytes int
	// PhaseTimeout is the session's Config.PhaseTimeout, which the worker
	// arms its own watchdog with; 0 leaves the run without one.
	PhaseTimeout time.Duration

	// Seeds[attr][p] is the mask-stream seed of attribute attr and the
	// p-th pair in sortedPairs order, for the rows its responder produces;
	// RowSeeds[attr][p] is the seed for the rows its initiator produces.
	Seeds, RowSeeds [][]rng.Seed
}

// shardFrameBody relays one holder frame, byte for byte, to the worker.
// Message.Attr carries the holder's census index; the worker feeds the
// bytes into that holder's pipe, reproducing the holder's pair chunks of
// the range in the order the holder sent them.
type shardFrameBody struct {
	Frame []byte
}

// shardRowsBody is one pair chunk a worker evaluated, returned to the
// coordinator: rows [Lo, Hi) of the block of pair (J, K) — census
// indices, J < K — of comparison attribute Attr, in responder K's
// holder-local rows, one float64 distance per object of J a row. The
// rows are a chunk of the share's pairChunksRange schedule: exactly the
// chunk the worker was relayed. A worker stages each row into the frame
// as row evaluates it (cols cells a row, split across workers); a decoded
// chunk keeps its cell block where it arrived (wire, 8 little-endian
// bytes a cell, aliasing the payload) for the coordinator to install
// straight into the attribute's matrix.
type shardRowsBody struct {
	Attr, J, K int
	Lo, Hi     int
	cols       int
	row        protocol.RowFunc
	workers    int
	wire       []byte
}

// shardDoneBody ends a worker's run cleanly after the coordinator has
// installed every pair chunk the worker returned.
type shardDoneBody struct{}

// abortBody carries a failing party's reason to its peers. An abort frame
// (kindAbort, Attr −1) may arrive on any conduit at any point after the
// handshake; receivers classify it under ErrAborted and unwind (see
// lifecycle.go).
type abortBody struct {
	Reason string
}

// schemaFingerprint summarizes the schema for the agreement check in the
// handshake; a mismatch aborts the session before any data moves. Public
// category structures (orders, taxonomies) are part of the agreement, so
// they are folded in.
func schemaFingerprint(s dataset.Schema) string {
	fp := ""
	for _, a := range s.Attrs {
		fp += a.Name + "/" + a.Type.String()
		if a.Alphabet != nil {
			fp += "/" + a.Alphabet.Name()
		}
		if a.Order != nil {
			fp += "/" + a.Order.Fingerprint()
		}
		if a.Taxonomy != nil {
			fp += "/" + a.Taxonomy.Fingerprint()
		}
		fp += fmt.Sprintf("/%g;", a.Weight)
	}
	return fp
}

// attrSeed derives the per-attribute stream seed from a pairwise base seed,
// so masks never repeat across attributes.
func attrSeed(base rng.Seed, attr int) rng.Seed {
	buf := make([]byte, 0, len(base)+16)
	buf = append(buf, base[:]...)
	buf = append(buf, []byte(fmt.Sprintf("/attr/%d", attr))...)
	return rng.SeedFromBytes(buf)
}

// sortedPairs enumerates the pairs (J, K), J < K, of n holders in holder
// order.
func sortedPairs(n int) [][2]int {
	var out [][2]int
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			out = append(out, [2]int{j, k})
		}
	}
	return out
}

// holderIndex locates name within holders.
func holderIndex(holders []string, name string) (int, error) {
	for i, h := range holders {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("party: holder %q not in session", name)
}

// ValidateHolders checks a holder name list the way every party
// constructor does — at least two holders, sorted, unique, no empty name
// and none colliding with TPName — so admission layers can refuse a
// malformed roster descriptively before spending a session slot on it.
func ValidateHolders(holders []string) error { return validHolderNames(holders) }

// validHolderNames checks the holder name list for ordering and collisions.
func validHolderNames(holders []string) error {
	if len(holders) < 2 {
		return fmt.Errorf("party: need at least 2 data holders, have %d", len(holders))
	}
	if !sort.StringsAreSorted(holders) {
		return fmt.Errorf("party: holder names must be sorted: %v", holders)
	}
	seen := map[string]bool{}
	for _, h := range holders {
		if h == "" || h == TPName {
			return fmt.Errorf("party: invalid holder name %q", h)
		}
		if strings.Contains(h, "#") {
			// "#" is reserved for the shard conduit namespace: ShardName
			// on the holder side, ShardConduitKey on the third party's.
			return fmt.Errorf("party: holder name %q may not contain '#'", h)
		}
		if seen[h] {
			return fmt.Errorf("party: duplicate holder name %q", h)
		}
		seen[h] = true
	}
	return nil
}
