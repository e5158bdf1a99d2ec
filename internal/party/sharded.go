package party

// A sharded third party (TPShards > 1) differs from the single one only in
// where comparison rows are assembled. The session body (ThirdParty.assemble)
// is shared: the control conduit carries handshake, census, the tag-based
// attributes, clustering requests and results in every session, and at K ≤ 1
// the comparison traffic too. At K > 1 each row range of
// dissim.ShardRanges(total, K) has its own holder conduits, and this file is
// what the extra lanes need:
//
//   - shardSource, where one range's slices come from: a stage pool over the
//     range's demuxes in this process (localShard, below), or a ppc-shard
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

// shardSource is where one row range's slices come from. run blocks until
// every comparison attribute's slice has landed in out (indexed by
// attribute) or the source failed; stop unblocks it from outside and
// releases what it holds — safe to call more than once and after run
// returned.
type shardSource struct {
	run  func(out []attrSlice) error
	stop func()
}

// laneClassifier routes a session's demux traffic: aborts fail the lane,
// clustering requests land past the attribute lanes, everything else routes
// by attribute. The third party's control and shard demuxes and a worker's
// demuxes use the same routing (shard and worker demuxes have no request
// lane: reqLane < 0).
func laneClassifier(nAttr, reqLane int) func(m *wire.Message) (int, error) {
	return func(m *wire.Message) (int, error) {
		// A peer's abort terminates the whole stream: the classify error
		// becomes the demux's terminal error, every lane closes, and the
		// stages observe the classified reason instead of a routing error.
		if m.Kind == kindAbort {
			return 0, peerAbortError(m)
		}
		if m.Kind == kindRequest && reqLane >= 0 {
			return reqLane, nil
		}
		if m.Attr < 0 || m.Attr >= nAttr {
			return 0, fmt.Errorf("party: message %q for attribute %d outside schema", m.Kind, m.Attr)
		}
		return m.Attr, nil
	}
}

// assembleSlice builds one comparison attribute's slice of global rows r
// from the range's demuxes.
func (c *shardCore) assembleSlice(r [2]int, demux []*wire.Demux, attr int, fail func(error)) (attrSlice, error) {
	sa, err := dissim.NewSliceAssembler(c.counts, r[0], r[1], c.workers)
	if err != nil {
		return attrSlice{}, err
	}
	if err := c.assembleRows(sa, demuxSource{ds: demux, lane: attr}, attr, fail); err != nil {
		return attrSlice{}, err
	}
	cells, max, err := sa.Done()
	return attrSlice{cells: cells, max: max}, err
}

// localShard is the in-process source of shard s: one demux per holder over
// the shard's conduits, lane quotas restricted to each holder's row
// intersection with the range (a holder with no rows there sends nothing:
// every quota is zero, the lanes close immediately and the reader never
// touches the conduit), and a stage pool of its own — a pool shared between
// shards and narrower than K could deadlock against holders blocked on a
// lane nobody is draining.
func (tp *ThirdParty) localShard(core *shardCore, s int, r [2]int, fail func(error)) (shardSource, error) {
	demux := make([]*wire.Demux, len(tp.holders))
	classify := laneClassifier(len(tp.cfg.Schema.Attrs), -1)
	for hi, h := range tp.holders {
		demux[hi] = wire.NewDemux(wire.NewEndpoint(tp.shardLanes[s][h]), core.laneQuotas(hi, r), laneBuffer, classify)
	}
	return shardSource{
		run: func(out []attrSlice) error {
			core.runStages(core.comparisonAttrs(), func(attr int, fail func(error)) error {
				sl, err := core.assembleSlice(r, demux, attr, func(err error) { fail(fmt.Errorf("shard %d: %w", s, err)) })
				if err != nil {
					return fmt.Errorf("shard %d: %w", s, err)
				}
				out[attr] = sl
				return nil
			}, fail)
			return nil
		},
		stop: func() {
			for _, d := range demux {
				d.Stop()
			}
		},
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
