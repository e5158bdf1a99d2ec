package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Kind names a protocol message type. Kinds are defined by the layers that
// speak them (internal/party); the wire layer treats them as routing labels.
type Kind string

// Message is the typed envelope every ppclust protocol exchange uses. The
// Payload is the encoded body, in the layout its sending layer owns.
type Message struct {
	// From and To are party names ("A", "B", …, "TP").
	From, To string
	// Kind selects the payload schema.
	Kind Kind
	// Attr is the attribute index a protocol message pertains to, or -1.
	Attr int
	// PairJ and PairK name the data-holder pair a comparison-protocol
	// message belongs to (empty outside pairwise protocols).
	PairJ, PairK string
	// Payload is the encoded message body: everything in the frame after
	// the header.
	Payload []byte

	// frame is the received frame Payload aliases, when the Message owns
	// it; Endpoint.Release hands it back to the frame pool.
	frame []byte
}

// FrameVersion is the first byte of every Message frame. The value can
// never open a gob stream (whose first byte is a length below 0x80 or a
// negated byte count of 0xF8 and above), so a frame from the gob-era
// envelope fails the version check instead of misparsing.
const FrameVersion = 0xB1

// ErrMalformed classifies every decode failure of the message layer: a
// frame whose header does not parse or whose first byte is not
// FrameVersion, and a payload its body decoder rejects.
var ErrMalformed = errors.New("wire: malformed frame")

// AppendFrame appends m's frame to dst: the FrameVersion byte, then From,
// To, Kind, PairJ and PairK each as a uvarint length and that many bytes,
// then Attr as a zigzag varint; the payload is the rest of the frame.
func AppendFrame(dst []byte, m *Message) []byte {
	return append(appendHeader(dst, m), m.Payload...)
}

// FrameLen is the length of the frame AppendFrame appends for m.
func FrameLen(m *Message) int { return headerLen(m) + len(m.Payload) }

// headerLen is the length of the header appendHeader writes for m.
func headerLen(m *Message) int {
	n := 1 + uvarintLen(uint64(m.Attr)<<1^uint64(int64(m.Attr)>>63))
	for _, s := range [...]string{m.From, m.To, string(m.Kind), m.PairJ, m.PairK} {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendHeader(dst []byte, m *Message) []byte {
	dst = append(dst, FrameVersion)
	for _, s := range [...]string{m.From, m.To, string(m.Kind), m.PairJ, m.PairK} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return binary.AppendVarint(dst, int64(m.Attr))
}

// ParseFrame is the inverse of AppendFrame. The returned Payload aliases
// frame.
func ParseFrame(frame []byte) (*Message, error) {
	if len(frame) == 0 || frame[0] != FrameVersion {
		return nil, fmt.Errorf("%w: first byte is not frame version %#x", ErrMalformed, FrameVersion)
	}
	p := frame[1:]
	var fields [5]string
	for i := range fields {
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)-w) {
			return nil, fmt.Errorf("%w: header field %d runs past the frame", ErrMalformed, i)
		}
		fields[i] = string(p[w : w+int(n)])
		p = p[w+int(n):]
	}
	attr, w := binary.Varint(p)
	if w <= 0 || int64(int(attr)) != attr {
		return nil, fmt.Errorf("%w: bad attribute index", ErrMalformed)
	}
	return &Message{From: fields[0], To: fields[1], Kind: Kind(fields[2]),
		PairJ: fields[3], PairK: fields[4], Attr: int(attr), Payload: p[w:]}, nil
}

// BodyAppender is implemented by body types with a fixed binary layout:
// AppendBody appends the encoded body to dst and returns the extended
// slice. SendBody writes such a body straight after the frame header.
type BodyAppender interface {
	AppendBody(dst []byte) ([]byte, error)
}

// BodySizer is a BodyAppender that knows, before it appends, at most how
// many bytes it will: SendBody builds its frame in a buffer of that size.
// The bodies whose size scales with a session — its chunks — are sizers,
// so a holder sending 64 KiB chunks never builds a frame in a buffer sized
// for another session's 256 KiB ones.
type BodySizer interface {
	BodyAppender
	BodySize() int
}

// BodyDecoder is the receiving half of BodyAppender. DecodeBody must bound
// every length the payload claims by the bytes that are left before it
// allocates, and may keep references into payload: a received Message
// owns its Payload (see Endpoint.Recv).
type BodyDecoder interface {
	DecodeBody(payload []byte) error
}

// EncodeBody encodes a payload struct for embedding in a Message: through
// its own layout when it is a BodyAppender, gob otherwise. Every session
// body has a layout of its own (internal/party/codec.go), so no session
// reaches the gob fallback; it stays only for the benchmark's replay,
// which times private gob mirrors of the session bodies through
// Endpoint.SendBody and Expect, and goes when that replay does.
func EncodeBody(v any) ([]byte, error) { return appendBody(nil, v) }

func appendBody(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(BodyAppender); ok {
		out, err := a.AppendBody(dst)
		if err != nil {
			return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
		}
		return out, nil
	}
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeBody decodes a Message payload into v, which must be a pointer —
// a BodyDecoder reads its own layout, anything else is gob (the fallback
// EncodeBody describes). Failures wrap ErrMalformed.
func DecodeBody(payload []byte, v any) error {
	var err error
	if d, ok := v.(BodyDecoder); ok {
		err = d.DecodeBody(payload)
	} else {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("wire: decoding %T: %w: %w", v, ErrMalformed, err)
	}
	return nil
}

// Endpoint sends and receives Messages over a Conduit.
type Endpoint struct {
	conduit Conduit
}

// frameHint is the length of the longest frame any Endpoint in the
// process has built from a body that is no BodySizer, up to
// maxRetainedBuf: the size of the pooled buffer the next such frame is
// built in. Sessions repeat their frame sizes, so once the process has
// sent one long frame, building a frame grows no buffer. The buffer goes
// back to the pool as soon as the frame is sent, so a large hint holds
// one buffer per concurrent sender at most.
var frameHint atomic.Int64

// NewEndpoint wraps a conduit for Message traffic.
func NewEndpoint(c Conduit) *Endpoint { return &Endpoint{conduit: c} }

// Send serializes and transmits m, whose Payload is already encoded.
func (e *Endpoint) Send(m *Message) error { return e.SendBody(*m, encoded(m.Payload)) }

// encoded is a body that was encoded beforehand.
type encoded []byte

func (p encoded) AppendBody(dst []byte) ([]byte, error) { return append(dst, p...), nil }
func (p encoded) BodySize() int                         { return len(p) }

// SendBody encodes body and sends it under the given envelope fields, in
// one pass: header and body are written back to back into one buffer from
// the frame pool, which goes back to the pool zeroed once Send returns,
// since it holds the frame in plaintext. m.Payload is not consulted.
func (e *Endpoint) SendBody(m Message, body any) error {
	n, sized := int(frameHint.Load()), false
	if b, ok := body.(BodySizer); ok {
		n, sized = headerLen(&m)+b.BodySize(), true
	}
	buf := getFrame(n)[:0]
	frame, err := appendBody(appendHeader(buf, &m), body)
	if err != nil {
		Release(buf)
		return err
	}
	if n := int64(min(len(frame), maxRetainedBuf)); !sized && n > frameHint.Load() {
		frameHint.Store(n)
	}
	if len(frame) > MaxFrame {
		err = fmt.Errorf("wire: message %q of %d bytes: %w", m.Kind, len(frame), ErrFrameTooLarge)
	} else {
		err = e.conduit.Send(frame)
	}
	// Only the frame's own bytes are plaintext: the rest of the buffer is
	// as the pool handed it out, or as a grown append left it, zero.
	clear(frame)
	putFrame(frame)
	return err
}

// Recv blocks for the next Message. The Message owns its Payload: it stays
// valid across later Recvs (the third party keeps a holder's tag frame
// until every holder's has arrived, relayed frames queue behind slow
// consumers), so body decoders may keep references into it. The payload
// aliases the received frame when the conduit vouches that Recv
// transferred ownership (see Conduit) and is copied out of it otherwise.
func (e *Endpoint) Recv() (*Message, error) {
	frame, err := e.conduit.Recv()
	if err != nil {
		return nil, err
	}
	m, err := ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if RecvOwned(e.conduit) {
		m.frame = frame
	} else {
		m.Payload = bytes.Clone(m.Payload)
	}
	return m, nil
}

// Release hands the frame a received Message aliases back to the frame
// pool, zeroed, and clears m's Payload; a Message whose payload was copied
// out of a lent frame has nothing to give back. Call it only when nothing
// decoded from m — no body, no slice of its Payload — is read again
// (docs/WIRE.md, "Release"); a Message never released is garbage collected
// as usual.
func (e *Endpoint) Release(m *Message) {
	Release(m.frame)
	m.frame, m.Payload = nil, nil
}

// Expect receives the next message and verifies its Kind, decoding the
// payload into body when body is non-nil.
func (e *Endpoint) Expect(kind Kind, body any) (*Message, error) {
	m, err := e.Recv()
	if err != nil {
		return nil, err
	}
	if m.Kind != kind {
		return nil, fmt.Errorf("wire: expected message %q, got %q from %s", kind, m.Kind, m.From)
	}
	if body != nil {
		if err := DecodeBody(m.Payload, body); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Close closes the underlying conduit.
func (e *Endpoint) Close() error { return e.conduit.Close() }
