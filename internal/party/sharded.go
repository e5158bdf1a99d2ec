package party

// A sharded third party (TPShards > 1) differs from the single one only in
// where comparison rows are assembled. The session body (ThirdParty.assemble)
// is shared: the control conduit carries handshake, census, the tag-based
// attributes, clustering requests and results in every session, and at K ≤ 1
// the comparison traffic too. At K > 1 each row range of
// dissim.ShardRanges(total, K) has its own holder conduits, and this file is
// what the extra lanes need:
//
//   - shardSource, where one range's slices come from: lane readers over the
//     range's conduits in this process (localShard, below), or a ppc-shard
//     worker behind a relay link (remoteShard, shardproc.go);
//   - mergeShardSlices, which concatenates the slices into each attribute's
//     condensed matrix (SetPackedRows) and normalizes.
//
// The split partitions rows, wire lanes and resident memory (each shard
// holds ~1/K of every attribute triangle), not trust. Bit-identity with the
// one-range session holds for every K: chunk evaluation is sequence-identical
// (pinned by the protocol row tests), slice assembly writes each cell exactly
// once with the same value (pinned by the dissim slice tests), and max is
// associative, so the merged matrix, its normalization scale and every
// downstream clustering result match byte for byte.

import (
	"context"
	"fmt"

	"ppclust/internal/dissim"
	"ppclust/internal/wire"
)

// attrSlice is one shard's assembled slice of one comparison attribute:
// the packed cells of the shard's global row range plus their maximum.
type attrSlice struct {
	cells []float64
	max   float64
}

// shardSource is where one row range's slices come from. It blocks until
// every comparison attribute's slice has landed in out (indexed by
// attribute) or the source failed; the end of ctx stops it from outside.
type shardSource func(ctx context.Context, out []attrSlice) error

// readSlices assembles every comparison attribute's slice of global rows r
// from the holder lanes eps, into out. The assemblers live only for the
// call, so nothing but out keeps a slice reachable once it returns.
func (c *shardCore) readSlices(ctx context.Context, eps []*wire.Endpoint, r [2]int, out []attrSlice) error {
	g := &laneGroup{eps: eps, asms: make([]*dissim.SliceAssembler, len(out))}
	for attr, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		sa, err := dissim.NewSliceAssembler(c.counts, r[0], r[1], c.workers)
		if err != nil {
			return err
		}
		if err := c.splitBlocks(sa, attr); err != nil {
			return err
		}
		g.attrs, g.asms[attr] = append(g.attrs, attr), sa
	}
	g.finish = func(attr int) (err error) {
		out[attr].cells, out[attr].max, err = g.asms[attr].Done()
		return err
	}
	return c.readLanes(ctx, g)
}

// localShard is the in-process source of shard s: lane readers over the
// shard's conduits, each holder's restricted to its row intersection with
// the range (a holder with no rows there sends nothing, and its reader
// never touches the conduit).
func (tp *ThirdParty) localShard(core *shardCore, s int, r [2]int) (shardSource, error) {
	return func(ctx context.Context, out []attrSlice) error {
		eps := make([]*wire.Endpoint, len(tp.holders))
		for hi, h := range tp.holders {
			eps[hi] = wire.NewEndpoint(tp.shardLanes[s][h])
		}
		if err := core.readSlices(ctx, eps, r, out); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		return nil
	}, nil
}

// mergeShardSlices concatenates each comparison attribute's shard slices
// into the condensed matrix and normalizes. The slices partition the
// triangle, SetPackedRows validates each and folds its maximum into the
// matrix's max cache, and max is associative — so the scale, and with
// element-wise division every cell, is bit-identical to the one-range
// assembly.
func (tp *ThirdParty) mergeShardSlices(total int, ranges [][2]int, slices [][]attrSlice, matrices []*dissim.Matrix, scales []float64) error {
	for attr, a := range tp.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		m := dissim.New(total)
		for s, r := range ranges {
			if err := m.SetPackedRows(r[0], r[1], slices[s][attr].cells); err != nil {
				return fmt.Errorf("party: merging attribute %q slice of shard %d: %w", a.Name, s, err)
			}
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
	}
	return nil
}
