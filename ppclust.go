package ppclust

import (
	"context"
	"fmt"
	"io"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/catdist"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/linkage"
	"ppclust/internal/netid"
	"ppclust/internal/outlier"
	"ppclust/internal/pam"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// Data-model types, re-exported from the internal packages so that the
// whole public surface lives in one import.
type (
	// Schema is the attribute list all parties agree on.
	Schema = dataset.Schema
	// Attribute describes one column: name, type, alphabet, weight.
	Attribute = dataset.Attribute
	// AttrType classifies an attribute.
	AttrType = dataset.AttrType
	// Table is one site's horizontal partition.
	Table = dataset.Table
	// Partition couples a site name with its table.
	Partition = dataset.Partition
	// ObjectID globally names an object as (site, index).
	ObjectID = dataset.ObjectID
	// Alphabet is a finite symbol set for alphanumeric attributes.
	Alphabet = alphabet.Alphabet
	// Ordering is a public total order for Ordered attributes.
	Ordering = catdist.Ordering
	// Taxonomy is a public category tree for Hierarchical attributes.
	Taxonomy = catdist.Taxonomy

	// ClusterRequest is a holder's weights and algorithm choice.
	ClusterRequest = party.ClusterRequest
	// Method selects the clustering algorithm the third party runs.
	Method = party.Method
	// Result is the published clustering outcome.
	Result = party.Result
	// SessionOutcome bundles results, the third-party report and traffic.
	SessionOutcome = party.SessionOutcome
	// TPReport is the third party's assembled state.
	TPReport = party.TPReport
	// Traffic maps directed links to byte counters.
	Traffic = party.Traffic

	// DissimilarityMatrix is the symmetric object-by-object structure at
	// the core of the protocol.
	DissimilarityMatrix = dissim.Matrix
	// Dendrogram is a hierarchical clustering merge history.
	Dendrogram = hcluster.Dendrogram
	// Linkage selects the hierarchical method.
	Linkage = hcluster.Linkage
	// ClusterQuality is the per-cluster statistic the third party may
	// publish.
	ClusterQuality = hcluster.ClusterQuality

	// Match is a record-linkage candidate pair.
	Match = linkage.Match
	// LinkOptions tunes record linkage.
	LinkOptions = linkage.Options
	// OutlierScore is one object's k-NN outlier statistic.
	OutlierScore = outlier.Score
)

// Attribute types.
const (
	// Numeric attributes compare by |x−y|.
	Numeric = dataset.Numeric
	// Categorical attributes compare by equality.
	Categorical = dataset.Categorical
	// Alphanumeric attributes compare by edit distance.
	Alphanumeric = dataset.Alphanumeric
	// Ordered attributes compare by rank distance over a public total
	// order (extension of the paper's future work).
	Ordered = dataset.Ordered
	// Hierarchical attributes compare by tree distance over a public
	// taxonomy (extension of the paper's future work).
	Hierarchical = dataset.Hierarchical
)

// NewOrdering builds the public total order of an Ordered attribute.
func NewOrdering(values ...string) (*Ordering, error) { return catdist.NewOrdering(values) }

// MustNewOrdering is NewOrdering panicking on error.
func MustNewOrdering(values ...string) *Ordering { return catdist.MustNewOrdering(values...) }

// NewTaxonomy builds the public category tree of a Hierarchical attribute;
// grow it with Add/MustAdd.
func NewTaxonomy(root string) (*Taxonomy, error) { return catdist.NewTaxonomy(root) }

// MustNewTaxonomy is NewTaxonomy panicking on error.
func MustNewTaxonomy(root string) *Taxonomy { return catdist.MustNewTaxonomy(root) }

// Hierarchical linkages.
const (
	Single   = hcluster.Single
	Complete = hcluster.Complete
	Average  = hcluster.Average
	Weighted = hcluster.Weighted
	Centroid = hcluster.Centroid
	Median   = hcluster.Median
	Ward     = hcluster.Ward
)

// Clustering methods a holder may request.
const (
	// MethodAgglomerative is bottom-up hierarchical clustering (default).
	MethodAgglomerative = party.MethodAgglomerative
	// MethodDiana is top-down divisive hierarchical clustering.
	MethodDiana = party.MethodDiana
	// MethodPAM is k-medoids: a partitioning method that, unlike k-means,
	// consumes dissimilarities and so handles every attribute type.
	MethodPAM = party.MethodPAM
)

// HClusterDiana builds a divisive (DIANA) dendrogram of a dissimilarity
// matrix.
func HClusterDiana(m *DissimilarityMatrix) (*Dendrogram, error) {
	return hcluster.Diana(m)
}

// PAMResult is a k-medoids outcome.
type PAMResult = pam.Result

// PAM clusters a dissimilarity matrix around k medoids; seed breaks build
// ties deterministically.
func PAM(m *DissimilarityMatrix, k int, seed uint64) (*PAMResult, error) {
	return pam.Cluster(m, k, rng.NewXoshiro(rng.SeedFromUint64(seed)), pam.Config{})
}

// Predefined alphabets.
var (
	// DNA is the four-letter nucleotide alphabet.
	DNA = alphabet.DNA
	// Protein is the 20-letter amino-acid alphabet.
	Protein = alphabet.Protein
	// Lower is the lowercase Latin alphabet.
	Lower = alphabet.Lower
	// Digits is the decimal digit alphabet.
	Digits = alphabet.Digits
	// AlphaNum is lowercase letters, digits and space.
	AlphaNum = alphabet.AlphaNum
)

// NewAlphabet builds a custom alphabet over the given runes.
func NewAlphabet(name string, runes []rune) (*Alphabet, error) {
	return alphabet.New(name, runes)
}

// AlphabetByName resolves a predefined alphabet ("dna", "protein", "lower",
// "digits", "alphanum").
func AlphabetByName(name string) (*Alphabet, error) { return alphabet.ByName(name) }

// NewTable returns an empty table over the schema.
func NewTable(schema Schema) (*Table, error) { return dataset.NewTable(schema) }

// MustNewTable is NewTable panicking on error.
func MustNewTable(schema Schema) *Table { return dataset.MustNewTable(schema) }

// ReadCSV parses headerless CSV into a table over the schema.
func ReadCSV(schema Schema, r io.Reader) (*Table, error) { return dataset.ReadCSV(schema, r) }

// WriteCSV emits a table as headerless CSV.
func WriteCSV(t *Table, w io.Writer) error { return dataset.WriteCSV(t, w) }

// GlobalIndex returns the global object ordering of a partition list.
func GlobalIndex(parts []Partition) []ObjectID { return dataset.GlobalIndex(parts) }

// ParseLinkage resolves a linkage name ("single", "complete", "average",
// "weighted", "centroid", "median", "ward").
func ParseLinkage(name string) (Linkage, error) { return hcluster.ParseLinkage(name) }

// MaskingMode selects how the numeric protocol consumes its shared
// random streams.
type MaskingMode int

const (
	// BatchMasking is the paper's default: O(n) initiator traffic, but
	// mask reuse admits a frequency-analysis attack when the attribute
	// domain is small (paper Section 4.1).
	BatchMasking MaskingMode = iota
	// PerPairMasking uses unique masks per object pair, the paper's
	// countermeasure, at O(m·n) initiator traffic.
	PerPairMasking
)

// NumericVariant selects the numeric protocol arithmetic.
type NumericVariant int

const (
	// Float64Arithmetic recovers distances to ≈1e-9 at unit scale.
	Float64Arithmetic NumericVariant = iota
	// Int64Arithmetic is exact; values must be integral and at most 2^40
	// in magnitude.
	Int64Arithmetic
	// ModPArithmetic is exact with perfectly hiding masks; values must be
	// integral and below 2^62 in magnitude, so that every distance is
	// below 2^63. A holder refuses any other value, naming its row, before
	// any of the attribute's masked values leave it.
	ModPArithmetic
)

// ParseVariant resolves a numeric arithmetic name ("float64", "int64",
// "modp").
func ParseVariant(name string) (NumericVariant, error) {
	switch name {
	case "float64":
		return Float64Arithmetic, nil
	case "int64":
		return Int64Arithmetic, nil
	case "modp":
		return ModPArithmetic, nil
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// Options tunes a session. The zero value is the recommended
// configuration: float64 arithmetic, batch masking, AES-CTR generators and
// AES-GCM channels.
type Options struct {
	// Masking selects batch or per-pair numeric masking.
	Masking MaskingMode
	// Variant selects the numeric arithmetic.
	Variant NumericVariant
	// Parallelism sets the worker count every party uses for its O(n²)
	// hot paths: local dissimilarity construction, the protocol's
	// disguise and mask-stripping steps, the third party's CCM
	// edit-distance evaluation, global assembly, weighted merging,
	// normalization, and the clustering stage itself (agglomerative
	// Lance–Williams row updates, DIANA's splinter scans, PAM's BUILD
	// and swap scoring, published quality and silhouette statistics).
	// 0 (the default) uses all cores (GOMAXPROCS); 1 runs serially.
	// Every setting produces bit-identical results — the engine only
	// changes how the work is scheduled, never what is computed.
	Parallelism int
	// StreamChunkBytes bounds the frames the session's partition-sized
	// payloads stream in: each local dissimilarity triangle (holder →
	// third party) and each pairwise-protocol masked comparison matrix
	// (responder → third party — the payload that grows with BOTH
	// partitions) is cut into row ranges of at most this many payload
	// bytes (never less than one row per frame), and the third party
	// installs or unmasks each range as it arrives. Assembly of an
	// attribute thus overlaps that attribute's own wire time, and no
	// session message grows with the partition — session size is
	// memory-bound rather than capped by the transport's frame limit.
	// 0 (the default) uses 256 KiB; negative is refused. A budget at
	// least as large as a payload sends it as one frame. Like
	// Parallelism, the knob is pure scheduling: chunking changes framing
	// only, never values, so results are bit-identical at every setting.
	// See docs/WIRE.md for the chunk-frame schemas.
	StreamChunkBytes int
	// TPShards splits the third party into this many row-range shards
	// with a coordinator: each shard owns a contiguous range of the
	// session's global rows, and holders fan their comparison-attribute
	// chunk streams to the owning shard's conduit. The coordinator
	// allocates every comparison attribute's full matrix before the
	// shards start and installs each range's local chunks there; each
	// shard's pair chunks are evaluated by a worker process
	// (TPShardWorker), whose rows the coordinator decodes into the matrix
	// chunk by chunk before it normalizes the matrices and clusters. A
	// worker holds no rows beyond the chunk it is evaluating. Results are
	// bit-identical to the single-TP session at every setting. 0 and 1
	// both select the single-TP path. K > 1 needs a worker per shard, so
	// it runs only on a TPServer with TPServerOptions.ShardAddrs (and on
	// the holders of its sessions); Cluster, BuildDissimilarity and
	// NewThirdPartySession refuse it. The count is part of the session
	// agreement: every party must run the same value, and holders need
	// one extra conduit per shard (TPShardConduitName) next to the
	// control conduit. See docs/ARCHITECTURE.md ("Sharded third party").
	TPShards int
	// Random supplies per-party randomness (nil = crypto/rand), used by
	// tests and reproducible experiments.
	Random func(partyName string) io.Reader
	// SessionTimeout bounds each party's whole session, handshake through
	// result; exceeding it fails that party with ErrSessionTimeout, its
	// peers are notified with an abort frame, and every pipeline unwinds.
	// 0 (the default) disables the bound.
	SessionTimeout time.Duration
	// PhaseTimeout bounds inactivity: a per-party watchdog fails the
	// session with ErrSessionTimeout naming the stalled phase when no
	// frame moves in either direction for this long — a wedged peer
	// becomes a descriptive error instead of a hang. 0 (the default)
	// disables the watchdog.
	PhaseTimeout time.Duration
	// ReconnectWindow arms mid-session reconnect: when positive, a
	// severed holder↔third-party conduit parks the session in a degraded
	// state for this grace period instead of aborting it. The third party
	// accepts a version-3 resume hello for the severed lane within the
	// window (the multi-tenant server routes these automatically), replays
	// exactly the frames past the peer's installed watermark, and the
	// session continues bit-identically to a fault-free run. A holder
	// additionally needs a redial path: NewResumableHolderSession for TCP
	// deployments (cmd/ppc-holder wires it from -connect-retries /
	// -connect-backoff). If the window expires with the lane still down,
	// the session fails under ErrSessionTimeout naming the degraded phase;
	// a sever with no window (the 0 default) fails immediately under
	// ErrDisconnected. The window is part of the session agreement: run
	// the same value on every party. See docs/ARCHITECTURE.md
	// ("Degraded sessions & resume").
	ReconnectWindow time.Duration
}

func (o Options) toConfig(schema Schema) party.Config {
	cfg := party.Config{
		Schema:          schema,
		Variant:         party.Variant(o.Variant),
		Parallelism:     o.Parallelism,
		LocalChunkBytes: o.StreamChunkBytes,
		TPShards:        o.TPShards,
		SessionTimeout:  o.SessionTimeout,
		PhaseTimeout:    o.PhaseTimeout,
		ResumeWindow:    o.ReconnectWindow,
		RNG:             rng.KindAESCTR,
	}
	if o.Masking == PerPairMasking {
		cfg.Mode = protocol.PerPair
	}
	return cfg
}

// Session failure classification. Every abnormal session end is wrapped
// under one of these sentinels; test with errors.Is.
var (
	// ErrSessionTimeout classifies watchdog failures: a party exceeded
	// Options.SessionTimeout, or no traffic moved for Options.PhaseTimeout.
	ErrSessionTimeout = party.ErrSessionTimeout
	// ErrAborted classifies deliberate terminations: a peer failed and
	// sent an abort frame naming its reason, or the caller cancelled the
	// context passed to ClusterContext.
	ErrAborted = party.ErrAborted
	// ErrSessionRefused classifies typed admission refusals from the
	// multi-tenant third-party server: the hello was answered with a
	// ppc/reject frame (capacity, queue-full, budget, draining, version
	// skew, …) instead of an accept. Holders see it from the admission
	// wait; the reject frame's reason survives in the error text.
	ErrSessionRefused = netid.ErrRejected
	// ErrDisconnected classifies unrecoverable mid-session transport
	// severs: a conduit died after the handshake with no reconnect window
	// armed (Options.ReconnectWindow zero), or the resume path refused
	// terminally (stale watermarks, duplicate holder, session already
	// aborted). A window that expires with the lane still down is
	// classified ErrSessionTimeout instead, naming the degraded phase.
	ErrDisconnected = party.ErrDisconnected
)

// Cluster runs the complete multi-party session in-process: key agreement,
// the three comparison protocols, dissimilarity assembly, hierarchical
// clustering and result publication. parts must be in ascending site-name
// order; reqs maps holder names to their clustering requests (missing
// entries default to average linkage with k=2).
func Cluster(schema Schema, parts []Partition, reqs map[string]ClusterRequest, opts Options) (*SessionOutcome, error) {
	return ClusterContext(context.Background(), schema, parts, reqs, opts)
}

// ClusterContext is Cluster bounded by a caller context: cancelling ctx
// aborts every party's session (classified under ErrAborted) and unwinds
// promptly even mid-stream.
func ClusterContext(ctx context.Context, schema Schema, parts []Partition, reqs map[string]ClusterRequest, opts Options) (*SessionOutcome, error) {
	if opts.TPShards > 1 {
		return nil, fmt.Errorf("ppclust: TPShards %d needs shard worker processes, which an in-process session has none of; serve it with NewTPServer and TPServerOptions.ShardAddrs", opts.TPShards)
	}
	var random party.RandomSource
	if opts.Random != nil {
		random = opts.Random
	}
	return party.RunInMemoryContext(ctx, opts.toConfig(schema), parts, reqs, random)
}

// BuildDissimilarity runs the session's construction phase and returns the
// third party's normalized per-attribute matrices together with the global
// object index — the substrate for record linkage, outlier detection or a
// caller-supplied clustering algorithm. One clustering request is still
// exchanged to complete the protocol; its result is discarded.
func BuildDissimilarity(schema Schema, parts []Partition, opts Options) ([]*DissimilarityMatrix, []ObjectID, error) {
	out, err := Cluster(schema, parts, nil, opts)
	if err != nil {
		return nil, nil, err
	}
	return out.Report.AttributeMatrices, out.Report.ObjectIDs, nil
}

// MergeMatrices combines per-attribute matrices under a weight vector, as
// the third party does before clustering.
func MergeMatrices(ms []*DissimilarityMatrix, weights []float64) (*DissimilarityMatrix, error) {
	return dissim.WeightedMerge(ms, weights)
}

// HCluster builds the dendrogram of a dissimilarity matrix.
func HCluster(m *DissimilarityMatrix, link Linkage) (*Dendrogram, error) {
	return hcluster.Cluster(m, link)
}

// Quality computes the per-cluster statistics the third party publishes.
func Quality(m *DissimilarityMatrix, clusters [][]int) ([]ClusterQuality, error) {
	return hcluster.Quality(m, clusters)
}

// Silhouette scores a labeling over a dissimilarity matrix.
func Silhouette(m *DissimilarityMatrix, labels []int) (float64, error) {
	return hcluster.Silhouette(m, labels)
}

// Link performs threshold record linkage over a dissimilarity matrix.
func Link(m *DissimilarityMatrix, ids []ObjectID, opts LinkOptions) ([]Match, error) {
	return linkage.Link(m, ids, opts)
}

// OutlierScores computes k-NN outlier statistics over a dissimilarity
// matrix.
func OutlierScores(m *DissimilarityMatrix, k int) ([]OutlierScore, error) {
	return outlier.KNNScores(m, k)
}

// TopOutliers returns the n most anomalous objects.
func TopOutliers(scores []OutlierScore, n int) []OutlierScore {
	return outlier.TopN(scores, n)
}

// CentralizedBaseline computes the per-attribute matrices a single trusted
// site would build from the pooled plaintext — the non-private reference
// the paper's "no loss of accuracy" claim is measured against.
func CentralizedBaseline(schema Schema, parts []Partition) ([]*DissimilarityMatrix, error) {
	ms, _, err := party.CentralizedMatrices(schema, parts)
	return ms, err
}
