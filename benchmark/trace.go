package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// span is one traced interval. Spans of one session share Session; Parent
// is the span that caused this one (0 for a session's root). Times are
// nanoseconds since the tracer started.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer keeps every span of a traced run in memory; writeSpans dumps them
// when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	sessions []sessObs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionTrace collects one session's spans and frame observations. The
// layers are measured from outside: a party span around each party's
// construction and run, and a frame record for every Send and Recv that
// crosses a conduit end the benchmark owns.
type sessionTrace struct {
	tr    *tracer
	id    int64 // the root span's id, shared by the session's spans as their session number
	start int64

	mu        sync.Mutex
	partyID   map[string]int64 // party name → its run span
	partyIvl  map[string][2]int64
	observers []*observer
	links     [][2]*observer // {holder end, TP end} of every holder→TP link seen from both sides
	admission []float64      // ms from dial to admission, one per holder (tenants-small)
}

func (t *tracer) beginSession() *sessionTrace {
	st := &sessionTrace{tr: t, partyID: map[string]int64{}, partyIvl: map[string][2]int64{}}
	st.id = t.nextID.Add(1)
	st.start = t.now()
	return st
}

// party returns the id of name's run span, allocating it on first use so
// that conduit ends created before the party starts can name their parent.
func (st *sessionTrace) party(name string) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.partyID[name]
	if !ok {
		id = st.tr.nextID.Add(1)
		st.partyID[name] = id
	}
	return id
}

// timeParty records fn as name's run span.
func (st *sessionTrace) timeParty(name string, fn func()) {
	if st == nil {
		fn()
		return
	}
	st.party(name)
	start := st.tr.now()
	fn()
	end := st.tr.now()
	st.mu.Lock()
	st.partyIvl[name] = [2]int64{start, end}
	st.mu.Unlock()
}

// frameRec is one observed Send or Recv: when the call started, when it
// returned, and the frame's size on the wire.
type frameRec struct {
	start, end int64
	size       int
}

// observer is the benchmark-owned conduit wrapper. It sits outside any
// link model and inside the byte meter, so it sees the sizes an on-path
// observer would and the time the owning party spent blocked in each call.
type observer struct {
	inner wire.Conduit
	st    *sessionTrace
	end   *linkEnd

	mu    sync.Mutex
	sends []frameRec
	recvs []frameRec
}

func (o *observer) Send(frame []byte) error {
	start := o.st.tr.now()
	err := o.inner.Send(frame)
	if err == nil {
		rec := frameRec{start, o.st.tr.now(), len(frame)}
		o.mu.Lock()
		o.sends = append(o.sends, rec)
		o.mu.Unlock()
	}
	return err
}

func (o *observer) Recv() ([]byte, error) {
	start := o.st.tr.now()
	f, err := o.inner.Recv()
	if err == nil {
		rec := frameRec{start, o.st.tr.now(), len(f)}
		o.mu.Lock()
		o.recvs = append(o.recvs, rec)
		o.mu.Unlock()
	}
	return f, err
}

func (o *observer) Close() error { return o.inner.Close() }

// sessObs is what one traced session yields for the per-layer metrics.
type sessObs struct {
	openMs, streamMs, tailMs float64
	holderRunMs, tpRunMs     float64
	tpRecvWaitMs             float64
	holderSendBlockMs        float64
	workerSendBlockMs        float64
	admissionMs              float64
	frames                   int
	maxFrame                 int
	bytes                    [numClasses]int64
	// frameSizes lists every frame of the session once, TCP frames apart,
	// for the seal/open and TCP replays.
	frameSizes, tcpSizes []int
}

// bigFrame is the size from which a frame counts as session payload rather
// than handshake, census or request traffic.
const bigFrame = 1 << 10

// tpSide reports whether a conduit end belongs to the third party: its
// control ends, its shard lanes ("TP#0") and its worker links.
func tpSide(owner string) bool { return strings.HasPrefix(owner, party.TPName) }

// finish turns the session's records into spans and a sessObs, once every
// party has returned and every conduit is closed.
func (st *sessionTrace) finish(end int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var so sessObs
	spans := []span{{ID: st.id, Session: st.id, Name: "session", Start: st.start, End: end}}

	var holders int
	for name, ivl := range st.partyIvl {
		if tpSide(name) {
			so.tpRunMs = ms(ivl[1] - ivl[0])
			spans = append(spans, span{st.partyID[name], st.id, st.id, "party.tp_run", ivl[0], ivl[1]})
			continue
		}
		so.holderRunMs += ms(ivl[1] - ivl[0])
		holders++
		spans = append(spans, span{st.partyID[name], st.id, st.id, "party.holder_run", ivl[0], ivl[1]})
	}
	if holders > 0 {
		so.holderRunMs /= float64(holders)
	}

	// firstBig and lastFrame are taken where holder→TP frames arrive: at
	// the TP's end when the benchmark owns it, otherwise (tenants-small,
	// where server.Manager owns the TP side) where the holder hands them
	// to the socket.
	firstBig, lastFrame := int64(-1), st.start
	arrival := func(r frameRec) {
		if r.size >= bigFrame && (firstBig < 0 || r.end < firstBig) {
			firstBig = r.end
		}
		if r.end > lastFrame {
			lastFrame = r.end
		}
	}
	// Snapshot under each observer's lock: a reader goroutine the party
	// left parked in Recv may still be returning.
	type frames struct{ sends, recvs []frameRec }
	snap := make(map[*observer]frames, len(st.observers))
	for _, o := range st.observers {
		o.mu.Lock()
		snap[o] = frames{o.sends, o.recvs}
		o.mu.Unlock()
	}
	for _, o := range st.observers {
		sends, recvs := snap[o].sends, snap[o].recvs
		e := o.end
		parent := st.partyID[partyOf(e.owner)]
		for _, r := range sends {
			spans = append(spans, span{st.tr.nextID.Add(1), parent, st.id, "wire.send", r.start, r.end})
			so.note(e, r.size)
			switch {
			case e.class == classWorker:
				so.workerSendBlockMs += ms(r.end - r.start)
			case !tpSide(e.owner):
				so.holderSendBlockMs += ms(r.end - r.start)
			}
			if e.class == classTP && !tpSide(e.owner) && e.both {
				arrival(r)
			}
		}
		for _, r := range recvs {
			spans = append(spans, span{st.tr.nextID.Add(1), parent, st.id, "wire.recv", r.start, r.end})
			if e.both {
				so.note(e, r.size)
			}
			if e.class == classTP && tpSide(e.owner) {
				arrival(r)
			}
		}
	}
	// Link wait: how long a TP-side Recv stayed blocked on a frame its
	// sender had already handed to the link. Frames are FIFO, so the i-th
	// Recv at the TP's end pairs with the i-th Send at the holder's.
	for _, l := range st.links {
		sent, got := snap[l[0]].sends, snap[l[1]].recvs
		for i := 0; i < len(got) && i < len(sent); i++ {
			from := got[i].start
			if sent[i].end > from {
				from = sent[i].end
			}
			if got[i].end > from {
				so.tpRecvWaitMs += ms(got[i].end - from)
			}
		}
	}
	if firstBig < 0 {
		firstBig = lastFrame
	}
	so.openMs = ms(firstBig - st.start)
	so.streamMs = ms(lastFrame - firstBig)
	so.tailMs = ms(end - lastFrame)
	so.admissionMs = median(st.admission)

	st.tr.mu.Lock()
	st.tr.spans = append(st.tr.spans, spans...)
	st.tr.sessions = append(st.tr.sessions, so)
	st.tr.mu.Unlock()
}

func (so *sessObs) note(e *linkEnd, size int) {
	so.frames++
	so.bytes[e.class] += int64(size)
	if size > so.maxFrame {
		so.maxFrame = size
	}
	if e.tcp {
		so.tcpSizes = append(so.tcpSizes, size)
	}
	so.frameSizes = append(so.frameSizes, size)
}

// partyOf maps a conduit end's owner to the party whose run span parents
// its frames: the third party owns its shard lanes ("TP#0") and worker
// links too.
func partyOf(owner string) string {
	if tpSide(owner) {
		return party.TPName
	}
	return owner
}
