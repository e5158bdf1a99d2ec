package party

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/keys"
	"ppclust/internal/wire"
)

// tap is the party tests' one view of a session's wire. Installed through
// the ConduitWrap seam (tap.wrap, one wrapped conduit per party end), it
// records every frame each directed link carries, in order, once as sent
// and once as received, and hands each frame an end sends or receives to
// the rule a test set for that end. On a plaintext session each record
// holds the parsed envelope; on a secured one only the raw frame.
type tap struct {
	plain bool
	rules map[tapEnd]tapRule // set before the session starts

	mu  sync.Mutex
	log []*tapFrame
	n   map[tapEnd]int
}

// tapEnd is one side of a party's end of a link: owner's end toward peer,
// sending or receiving.
type tapEnd struct {
	owner, peer string
	recv        bool
}

// tapFrame is one recorded frame.
type tapFrame struct {
	From, To string // the directed link
	Recv     bool   // recorded at To's end as received, else at From's as sent
	N        int    // 1-based ordinal on the link and side
	Raw      []byte // the tap's own copy of the frame
	// Msg is the parsed envelope, its payload aliasing Raw; nil on a
	// secured session.
	Msg *wire.Message
	// Lo and Hi are the row range of a ppc/local, ppc/numeric-disguised,
	// ppc/numeric-s, ppc/alpha-m or ppc/shard-rows chunk.
	Lo, Hi int
}

// tapRule decides what becomes of one frame: the frames to deliver in its
// place, in order (f.Raw alone passes it, none drops it, two copies
// duplicate it, a frame kept from an earlier call delivers that one late),
// then the error the call returns. errSever closes the conduit and returns
// wire.ErrClosed. A send rule's frames go out before its error; a receive
// rule's error wins over its frames. A rule may block, parking the call. A
// rule set for one end sees that end's frames one at a time; one set for
// several ends must be safe for concurrent use.
type tapRule func(f *tapFrame) ([][]byte, error)

var errSever = errors.New("tap: sever the conduit")

// pass delivers f unchanged.
func (f *tapFrame) pass() ([][]byte, error) { return [][]byte{f.Raw}, nil }

// first is the rule that hands the first frame of kind to fn and passes
// every other frame.
func first(kind wire.Kind, fn tapRule) tapRule {
	seen := false
	return func(f *tapFrame) ([][]byte, error) {
		if f.Msg.Kind != kind || seen {
			return f.pass()
		}
		seen = true
		return fn(f)
	}
}

// newTap returns a tap for a session under cfg, parsing envelopes when
// its channels are plaintext.
func newTap(cfg Config) *tap {
	return &tap{plain: cfg.PlaintextChannels, rules: map[tapEnd]tapRule{}, n: map[tapEnd]int{}}
}

// onSend sets the rule for what owner sends toward peer; an empty name
// stands for every party.
func (t *tap) onSend(owner, peer string, r tapRule) { t.rules[tapEnd{owner, peer, false}] = r }

// onRecv sets the rule for what owner receives from peer.
func (t *tap) onRecv(owner, peer string, r tapRule) { t.rules[tapEnd{owner, peer, true}] = r }

func (t *tap) rule(e tapEnd) tapRule {
	for _, k := range []tapEnd{e, {e.owner, "", e.recv}, {"", e.peer, e.recv}} {
		if r := t.rules[k]; r != nil {
			return r
		}
	}
	return nil
}

// wrap is the tap's ConduitWrap.
func (t *tap) wrap(owner, peer string, c wire.Conduit) wire.Conduit {
	return &tapConduit{tap: t, inner: c, owner: owner, peer: peer,
		send: t.rule(tapEnd{owner, peer, false}), recv: t.rule(tapEnd{owner, peer, true})}
}

func (t *tap) record(e tapEnd, frame []byte) *tapFrame {
	f := &tapFrame{From: e.owner, To: e.peer, Recv: e.recv, Raw: bytes.Clone(frame)}
	if e.recv {
		f.From, f.To = e.peer, e.owner
	}
	if t.plain {
		f.Msg, _ = wire.ParseFrame(f.Raw)
	}
	if m := f.Msg; m != nil {
		switch m.Kind {
		case kindLocal, kindNumDisg, kindNumS, kindAlphaM, kindShardRows:
			r := bodyReader{p: m.Payload}
			r.int()
			if m.Kind == kindShardRows {
				r.int() // J
				r.int() // K
			}
			f.Lo, f.Hi = r.int(), r.int()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n[e]++
	f.N = t.n[e]
	t.log = append(t.log, f)
	return f
}

type tapConduit struct {
	tap         *tap
	inner       wire.Conduit
	owner, peer string
	send, recv  tapRule

	sendMu  sync.Mutex
	pending [][]byte // frames the receive rule delivered, not yet returned
}

func (c *tapConduit) Send(frame []byte) error {
	e := tapEnd{c.owner, c.peer, false}
	if c.send == nil {
		c.tap.record(e, frame)
		return c.inner.Send(frame)
	}
	c.sendMu.Lock()
	out, err := c.send(c.tap.record(e, frame))
	c.sendMu.Unlock()
	for _, f := range out {
		if err := c.inner.Send(f); err != nil {
			return err
		}
	}
	return c.fail(err)
}

func (c *tapConduit) Recv() ([]byte, error) {
	for len(c.pending) == 0 {
		frame, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		f := c.tap.record(tapEnd{c.owner, c.peer, true}, frame)
		if c.recv == nil {
			return frame, nil
		}
		if c.pending, err = c.recv(f); err != nil {
			return nil, c.fail(err)
		}
	}
	frame := c.pending[0]
	c.pending = c.pending[1:]
	return frame, nil
}

func (c *tapConduit) fail(err error) error {
	if errors.Is(err, errSever) {
		c.inner.Close()
		return wire.ErrClosed
	}
	return err
}

func (c *tapConduit) Close() error { return c.inner.Close() }

// workerLinks returns the wrap of a shard dialer (shardWorkerPool.dialer)
// that records each coordinator↔worker link in the tap. Worker links are
// always secured, so the recorder stands in the middle: it runs the
// worker's side of the handshake toward the coordinator and the
// coordinator's side toward the worker, under schema fingerprint fp, and
// relays every frame across, recorded once as sent. rule, when set, sees
// each frame of either direction before it goes on and may delay it, or
// sever the link, the frame undelivered, by returning an error; the two
// directions call it concurrently.
func (t *tap) workerLinks(fp string, rule func(f *tapFrame) error) func(shard, dial int, c wire.Conduit) wire.Conduit {
	return func(shard, _ int, worker wire.Conduit) wire.Conduit {
		coordinator, far := wire.Pipe()
		go func() {
			name := ShardName(shard)
			toCoordinator, err := relayHandshake(far, name, TPName, fp, false)
			if err != nil {
				worker.Close()
				return
			}
			toWorker, err := relayHandshake(worker, TPName, name, fp, true)
			if err != nil {
				toCoordinator.Close()
				return
			}
			go t.relay(toCoordinator, toWorker, TPName, name, rule)
			t.relay(toWorker, toCoordinator, name, TPName, rule)
		}()
		return coordinator
	}
}

// relayHandshake is one side of a worker link's handshake under a fresh
// identity; a failure closes c.
func relayHandshake(c wire.Conduit, self, peer, fp string, initiator bool) (wire.Conduit, error) {
	id, err := keys.NewIdentity(self, rand.Reader)
	var secured wire.Conduit
	if err == nil {
		secured, _, err = handshake(c, self, peer, id, fp, initiator)
	}
	if err != nil {
		c.Close()
	}
	return secured, err
}

// relay copies frames from src to dst, recording each as sent from → to,
// until either end fails or rule severs the link, and then closes both.
func (t *tap) relay(src, dst wire.Conduit, from, to string, rule func(f *tapFrame) error) {
	defer src.Close()
	defer dst.Close()
	for {
		frame, err := src.Recv()
		if err != nil {
			return
		}
		f := t.record(tapEnd{from, to, false}, frame)
		if rule != nil && rule(f) != nil {
			return
		}
		if dst.Send(frame) != nil {
			return
		}
	}
}

// sent returns the recorded frames of the given kinds (every frame when
// none is given) sent from → to, in the order they were sent; an empty
// name stands for every party.
func (t *tap) sent(from, to string, kinds ...wire.Kind) []*tapFrame {
	return t.frames(false, from, to, kinds)
}

// received is sent for the frames as they were received.
func (t *tap) received(from, to string, kinds ...wire.Kind) []*tapFrame {
	return t.frames(true, from, to, kinds)
}

func (t *tap) frames(recv bool, from, to string, kinds []wire.Kind) []*tapFrame {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*tapFrame
	for _, f := range t.log {
		if f.Recv == recv && (from == "" || f.From == from) && (to == "" || f.To == to) &&
			(len(kinds) == 0 || f.Msg != nil && slices.Contains(kinds, f.Msg.Kind)) {
			out = append(out, f)
		}
	}
	return out
}

// laneSums hashes every sent frame lane by lane and kind by kind, in the
// order it was sent, where a lane is an envelope's From>To: one sorted line
// "lane kind frames digest" each, the digest the leading 8 bytes of the
// SHA-256 of those frames, each prefixed by its length.
func (t *tap) laneSums() []string {
	hashes, frames := map[string]hash.Hash{}, map[string]int{}
	for _, f := range t.sent("", "") {
		key := fmt.Sprintf("%s>%s %s", f.Msg.From, f.Msg.To, f.Msg.Kind)
		if hashes[key] == nil {
			hashes[key] = sha256.New()
		}
		binary.Write(hashes[key], binary.LittleEndian, uint64(len(f.Raw)))
		hashes[key].Write(f.Raw)
		frames[key]++
	}
	var lines []string
	for key, h := range hashes {
		lines = append(lines, fmt.Sprintf("%s %d %x", key, frames[key], h.Sum(nil)[:8]))
	}
	slices.Sort(lines)
	return lines
}

// cells counts the numeric cells a ppc/local, ppc/numeric-disguised or
// ppc/numeric-s frame carries.
func (f *tapFrame) cells() (int, error) {
	if f.Msg.Kind == kindLocal {
		var b localBody
		err := wire.DecodeBody(f.Msg.Payload, &b)
		return len(b.wire) / 8, err
	}
	var b numSBody
	err := wire.DecodeBody(f.Msg.Payload, &b)
	return b.cells.Rows * b.cells.Cols, err
}

// tapSession runs a small plaintext session over parts under a tap (the
// schema defaults to the partitions'), a sharded one with its workers,
// and returns the tap. The tap records the holders' links, not the
// workers'.
func tapSession(t testing.TB, cfg Config, parts []dataset.Partition) *tap {
	t.Helper()
	if cfg.Schema.Attrs == nil {
		cfg.Schema = parts[0].Table.Schema()
	}
	cfg.PlaintextChannels = true
	if k := cfg.shardCount(); k > 1 {
		cfg.ShardDial = newShardWorkerPool(t, k, ShardServerConfig{Schema: cfg.Schema}).dialer("tapped", nil)
	}
	tp := newTap(cfg)
	if _, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(), deterministicRandom(61), tp.wrap); err != nil {
		t.Fatalf("tapped session: %v", err)
	}
	return tp
}
