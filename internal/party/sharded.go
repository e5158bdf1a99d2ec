package party

// A sharded third party (TPShards > 1) differs from the single one only in
// where comparison rows are assembled. The session body (ThirdParty.assemble)
// is shared: the control conduit carries handshake, census, the tag-based
// attributes, clustering requests and results in every session, and at K ≤ 1
// the comparison traffic too. At K > 1 each row range of
// dissim.ShardRanges(total, K) has its own holder conduits, and this file is
// what the extra lanes need:
//
//   - shardSource, where one range's rows come from: lane readers over the
//     range's conduits in this process (localShard, below), which install
//     local chunks and evaluate pair chunks, or the same readers installing
//     local chunks and relaying pair chunks to a ppc-shard worker, whose
//     evaluated rows come back to be installed (remoteShard, shardproc.go);
//   - mergeShardSlices, which folds the sources' maxima into each
//     attribute's matrix and normalizes.
//
// Each comparison attribute's matrix is allocated once, before the sources
// start, and every source installs its range's rows where they lie: both
// kinds assemble into the matrix's row view (dissim.NewSliceAssemblerInto
// over PackedRowsView), a worker's rows decoded straight into it. No slice
// is held beside the matrix — by the coordinator or by a worker — and
// nothing is copied to merge.
//
// The split partitions rows and wire lanes (on a worker, the pair-chunk
// evaluation), not trust. Bit-identity with the one-range session holds
// for every K: chunk evaluation is sequence-identical (pinned by the
// protocol row tests), slice assembly writes each cell exactly once with
// the same value (pinned by the dissim slice tests), and max is
// associative, so the matrix, its normalization scale and every downstream
// clustering result match byte for byte.

import (
	"context"
	"fmt"

	"ppclust/internal/dissim"
	"ppclust/internal/wire"
)

// shardSource is where one row range's rows come from. It blocks until
// every comparison attribute's rows of the range are installed where they
// lie in the attribute's matrix, and the largest entry it installed is in
// maxes (indexed by attribute), or until the source failed; the end of ctx
// stops it from outside. A source writes only its own rows and its own
// maxes, so sources run concurrently.
type shardSource func(ctx context.Context, maxes []float64) error

// sliceGroup is the lane group of global rows r over the holder lanes
// eps: every comparison attribute's rows of r assembled into dst[attr] —
// the packed cells of those rows in the attribute's matrix — with its pair
// blocks split.
func (c *shardCore) sliceGroup(eps []*wire.Endpoint, r [2]int, dst [][]float64) (*laneGroup, error) {
	g := &laneGroup{eps: eps, rows: r, asms: make([]*dissim.SliceAssembler, len(dst))}
	g.install = crossInto(g.asms)
	for attr, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		sa, err := dissim.NewSliceAssemblerInto(dst[attr], c.counts, r[0], r[1], c.workers)
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

// shardGroup is the lane group of shard s, named name: its holder
// conduits, carrying rows r, assembled in place into each comparison
// attribute's matrix.
func (tp *ThirdParty) shardGroup(core *shardCore, name string, s int, r [2]int, matrices []*dissim.Matrix) (*laneGroup, error) {
	eps := make([]*wire.Endpoint, len(tp.holders))
	for hi, h := range tp.holders {
		eps[hi] = wire.NewEndpoint(tp.shardLanes[s][h])
	}
	rows := make([][]float64, len(matrices))
	for attr, a := range tp.cfg.Schema.Attrs {
		if !tagBased(a.Type) {
			rows[attr] = matrices[attr].PackedRowsView(r[0], r[1])
		}
	}
	g, err := core.sliceGroup(eps, r, rows)
	if err != nil {
		return nil, err
	}
	g.name = name
	return g, nil
}

// localShard is the in-process source of shard s: lane readers over the
// shard's conduits, each holder's restricted to its row intersection with
// the range (a holder with no rows there sends nothing, and its reader
// never touches the conduit), assembling straight into the range's rows of
// each comparison attribute's matrix.
func (tp *ThirdParty) localShard(core *shardCore, s int, r [2]int, matrices []*dissim.Matrix) (shardSource, error) {
	g, err := tp.shardGroup(core, fmt.Sprintf("shard %d", s), s, r, matrices)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, maxes []float64) error {
		g.finish = func(attr int) (err error) {
			_, maxes[attr], err = g.asms[attr].Done()
			return err
		}
		return core.readLanes(ctx, g)
	}, nil
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
