// Package ppclust is a from-scratch, stdlib-only implementation of
// privacy-preserving clustering over horizontally partitioned data, after
// İnan, Saygın, Savaş, Hintoğlu and Levi, "Privacy Preserving Clustering on
// Horizontally Partitioned Data" (ICDE Workshops, 2006).
//
// Several data holders, each owning a horizontal partition of a data
// matrix, and a semi-trusted third party jointly construct the global
// dissimilarity matrix of all objects without revealing any attribute
// values: numeric attributes through additively blinded comparison,
// alphanumeric attributes through masked character-comparison matrices and
// edit distance, and categorical attributes through deterministic
// encryption. The third party then runs hierarchical clustering locally and
// publishes only cluster memberships and aggregate quality statistics.
//
// # Quick start
//
//	schema := ppclust.Schema{Attrs: []ppclust.Attribute{
//	    {Name: "age", Type: ppclust.Numeric},
//	    {Name: "diagnosis", Type: ppclust.Categorical},
//	    {Name: "dna", Type: ppclust.Alphanumeric, Alphabet: ppclust.DNA},
//	}}
//	// Each site builds its private partition...
//	a := ppclust.MustNewTable(schema)
//	a.MustAppendRow(23.0, "flu", "ACCGT")
//	// ...and the session runs the full multi-party protocol:
//	out, err := ppclust.Cluster(schema,
//	    []ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}},
//	    map[string]ppclust.ClusterRequest{"A": {Linkage: ppclust.Average, K: 2}},
//	    ppclust.Options{})
//
// # Parallelism
//
// Every O(n²) stage — local dissimilarity construction, the protocols'
// disguise and mask-stripping steps, the third party's CCM edit-distance
// evaluation, global assembly, weighted merging, normalization, and the
// clustering stage itself (agglomerative row updates, DIANA's splinter
// scans, PAM's BUILD and swap scoring, quality and silhouette
// statistics) — runs on an internal chunked worker engine.
// Options.Parallelism sets the worker count per party: 0 (the default)
// uses all cores, 1 runs serially. The engine guarantees determinism:
// chunk placement is a pure function of the input size, all randomness is
// drawn sequentially before the fan-out, every worker writes only its own
// output range, and cross-chunk reductions replay fixed per-item partials
// serially in index order, so results are bit-identical at any setting.
// Independently of the worker count, batch-mode mask streams are
// generated once per protocol step rather than once per row (the values
// the paper's per-row re-initialization prescribes are unchanged), which
// alone makes the n=256 numeric comparison ≈5× faster than the naive
// per-row evaluation with ≈20× fewer allocations.
//
// # Clustering backend
//
// The third party's agglomerative stage is backed by three exact engines
// (internal/hcluster): Prim's minimum-spanning-tree pass for single
// linkage (O(n²) time, O(n) extra space, no working copy at all), the
// nearest-neighbor-chain algorithm for the other reducible linkages —
// complete, average, weighted, Ward — over a condensed packed working
// copy (guaranteed O(n²) time, half the memory of a dense matrix), and a
// retained nearest-neighbor-cached reference loop for the non-reducible
// centroid and median linkages (near-O(n²) typical, O(n³) worst case).
// The MST and NN-chain engines emit merges in non-decreasing height
// order (centroid/median keep the generic engine's discovery order and
// may show the classical inversions); exact distance ties resolve in
// engine discovery order, which may legitimately differ between engines
// while inducing the same partitions at every distinct height. At n=500 the single-linkage path is ≈12× faster than the
// reference engine. PAM uses FastPAM1-style swap evaluation (cached
// nearest/second-nearest medoid distances score every swap in O(n²) per
// round instead of O(kn²)): ≈17-24× faster at n=512, k=8.
//
// # Pipelined third-party session engine
//
// The third party "serves as a means of computation power and storage
// space" (paper Section 3); on real links its session work is dominated
// by waiting for holder traffic. Its session engine therefore reads every
// holder lane as it arrives. Each holder streams its attributes one after
// another — for every attribute, in schema order: the local dissimilarity
// matrix, then that attribute's protocol messages — and at the third party
// one reader goroutine per holder lane walks that same order, installing
// each frame as it reads it:
//
//	holder A ──recv──▶ reader A ─┐
//	holder B ──recv──▶ reader B ─┼─▶ install each frame ─▶ last reader through attr i ─▶ normalize ─▶ matrix i
//	holder C ──recv──▶ reader C ─┘   as it is read          finishes it
//
// No lane waits for another, compute tokens (one per unit of Parallelism)
// bound how many readers evaluate at once, and the last reader through an
// attribute finishes it, so attribute i's matrix completes while attribute
// i+1 is still on the wire, and clustering starts the moment the last
// matrix lands.
//
// Overlap also exists within an attribute: every partition-sized payload
// streams as a sequence of bounded row-range chunk frames
// (Options.StreamChunkBytes, 256 KiB by default) rather than one
// monolithic body, and the lane's reader consumes every row range the
// moment it arrives,
//
//	local triangle ──▶ chunk [rows 0,512) ─▶ … ─▶ masked S matrix ─▶ chunk [0,256) ─▶ …
//	                        │                          (same lane, in order) │
//	                        ▼                                                ▼
//	                   install rows  ─▶ … ─▶                unmask rows + install cross rows ─▶ normalize
//
// This covers both quadratic message families: each holder's local
// dissimilarity triangles, and the pairwise comparison protocol's
// responder→TP masked S/M matrices — the payload that grows with BOTH
// partitions. Triangle installation proceeds while that attribute's
// remaining chunks and protocol rounds are still on the wire, each
// protocol chunk is unmasked and placed on arrival (mask keystreams stay
// aligned across chunks, so unmasked values are exactly the monolithic
// ones), the sender's encoding of chunk i+1 overlaps the transfer of
// chunk i, and — because no session message grows with the partition —
// session size is bounded by memory instead of the transport's 256 MiB
// frame limit. Both sides derive the identical chunk schedules from the
// shared configuration, so the receiver checks every frame's kind,
// attribute and row range against the schedule as it reads it. Ordering
// guarantees are unchanged: every lane is read in its holder's send order,
// pairs in the fixed (J, K) enumeration, every cell is written once by the
// reader of the lane that carries it, and all protocol randomness is seeded
// per (attribute, pair) — so the published report is bit-identical to the
// phase-serial reference path (and to the centralized baseline) at any
// worker count, chunk size or arrival order; tie-breaks never depend on
// arrival timing. Overlap pays off whenever link time per attribute is comparable
// to assembly compute — WAN links, many attributes, or large payloads; on
// loss-free in-memory conduits it is simply neutral. The phase-serial
// path survives as internal/party's test oracle (it reassembles the chunk
// streams into the monolithic installs, pinning that chunking is pure
// framing).
//
// The wire layer keeps the chunked stream allocation-lean: message encode
// buffers are pooled across sends, the AES-GCM layer reuses its seal
// buffer, and the TCP transport recycles its receive buffer, so
// framing a triangle as hundreds of chunks does not multiply allocations.
//
// # Session lifecycle
//
// A session either publishes a report on every party or fails on every
// party with a classified, descriptive error — never a hang, never a
// goroutine leak. Sessions are cancellable (ClusterContext, the session
// types' RunContext) and bounded: Options.SessionTimeout caps the whole
// session, Options.PhaseTimeout arms an inactivity watchdog that
// converts a peer silently going quiet into an ErrSessionTimeout naming
// the starved phase. A failing party broadcasts an abort frame carrying
// its reason before tearing down, so peers report ErrAborted with the
// cause instead of an opaque closed-conduit error. The failure model —
// lifecycle states, the error taxonomy, the deterministic
// fault-injection harness that pins it all under the race detector — is
// specified in docs/ARCHITECTURE.md.
//
// Severed transports need not be fatal: with Options.ReconnectWindow
// armed, a holder↔third-party conduit that dies mid-session parks the
// session in a degraded state instead of failing it, the holder redials
// (NewResumableHolderSession over TCP), and a watermarked handshake
// replays exactly the frames the other side never installed — the
// resumed session completes bit-identically to a fault-free run. Severs
// beyond recovery classify under ErrDisconnected. See
// docs/ARCHITECTURE.md ("Degraded sessions & resume").
//
// # Documentation map
//
// The systems-level architecture — session pipeline, determinism
// guarantees, where every knob bites — is documented in
// docs/ARCHITECTURE.md, and the wire protocol — frame layout, MaxFrame
// semantics, the no-retain Conduit.Send contract, AES-GCM sealing, lane
// order and frame counts, and the chunk-frame schemas — in docs/WIRE.md. The
// examples/quickstart and examples/tcp READMEs walk through the
// streaming knobs with expected output.
//
// Runnable scenarios live under examples/, command-line tools (including a
// real TCP deployment of the three-role protocol) under cmd/, and the
// experiment harness regenerating every figure and analysis of the paper is
// cmd/ppc-bench: `go test ./cmd/ppc-bench` checks every verdict it
// prints, and `ppc-bench -list` indexes the experiments by id and paper
// section. What a session costs — end to end and layer by layer — is
// measured by the separate module under benchmark/ (bash benchmark/run.sh;
// workloads pair-cpu, pair-wan, mixed-cpu, shard-workers and tenants-small
// are described in benchmark/README.md).
package ppclust
