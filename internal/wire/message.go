package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
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

// BodyDecoder is the receiving half of BodyAppender. DecodeBody must bound
// every length the payload claims by the bytes that are left before it
// allocates, and may keep references into payload: a received Message
// owns its Payload (see Endpoint.Recv).
type BodyDecoder interface {
	DecodeBody(payload []byte) error
}

// EncodeBody encodes a payload struct for embedding in a Message: through
// its own layout when it is a BodyAppender, gob otherwise (the small
// control bodies).
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
// a BodyDecoder reads its own layout, anything else is gob. Failures wrap
// ErrMalformed.
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

// NewEndpoint wraps a conduit for Message traffic.
func NewEndpoint(c Conduit) *Endpoint { return &Endpoint{conduit: c} }

// frameBufs pools the buffers Endpoint sends build frames in.
// Conduit.Send may not retain its frame, so a buffer is safe to recycle the
// moment Send returns; with row-chunked matrix streaming sending many
// mid-sized frames per attribute, reuse keeps the per-frame cost at the
// conduit's own copy instead of a fresh buffer growth per message.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Send serializes and transmits m, whose Payload is already encoded.
func (e *Endpoint) Send(m *Message) error { return e.SendBody(*m, encoded(m.Payload)) }

// encoded is a body that was encoded beforehand.
type encoded []byte

func (p encoded) AppendBody(dst []byte) ([]byte, error) { return append(dst, p...), nil }

// SendBody encodes body and sends it under the given envelope fields, in
// one pass: header and body are written back to back into one pooled
// buffer. m.Payload is not consulted.
func (e *Endpoint) SendBody(m Message, body any) error {
	bp := frameBufs.Get().(*[]byte)
	frame, err := appendBody(appendHeader((*bp)[:0], &m), body)
	if err != nil {
		frameBufs.Put(bp)
		return err
	}
	if len(frame) > MaxFrame {
		err = fmt.Errorf("wire: message %q of %d bytes: %w", m.Kind, len(frame), ErrFrameTooLarge)
	} else {
		err = e.conduit.Send(frame)
	}
	if cap(frame) <= maxRetainedBuf {
		*bp = frame[:0]
		frameBufs.Put(bp)
	}
	return err
}

// Recv blocks for the next Message. The Message owns its Payload: it stays
// valid across later Recvs (Demux parks messages in mailboxes, relayed
// frames queue behind slow consumers), so body decoders may keep
// references into it. The payload aliases the received frame when the
// conduit vouches that Recv transferred ownership (see Conduit) and is
// copied out of it otherwise.
func (e *Endpoint) Recv() (*Message, error) {
	frame, err := e.conduit.Recv()
	if err != nil {
		return nil, err
	}
	m, err := ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if !RecvOwned(e.conduit) {
		m.Payload = bytes.Clone(m.Payload)
	}
	return m, nil
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
