// Package netid is the connection preamble of the TCP deployment: the first
// bytes a dialer writes on a fresh connection, before the session handshake,
// so the acceptor can route it. The parties agree on the roster and the
// attribute list out of band; a connection only says who is dialing, which
// session, and which lane.
//
// One hello layout carries three forms, told apart by the version byte: a
// holder joining a session on its control or a shard lane, a holder resuming
// a severed lane of a live session, and a coordinator registering with a
// shard worker process. The acceptor answers every one: a routing accept, a
// resume grant, or a typed reject frame ("ppc/reject" in docs/WIRE.md)
// naming why the connection was refused — capacity, queue overflow, budget,
// drain, version skew. The bare name label (one length byte, then the name)
// labels holder↔holder links only: it gets no answer, and an acceptor of
// sessions refuses it.
package netid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Bounds on announced names, on session IDs, and on the free-text detail of
// a reject frame.
const (
	maxName         = 64
	maxSession      = 64
	maxRejectDetail = 512
)

// VersionSharded is the hello version a holder joins a session with: name,
// session ID and a one-byte lane, so a third-party server can route a
// holder's control connection and its K shard connections on one listener.
// It is answered with a routing admission (SendAcceptRouting) that carries
// the session's shard count. An acceptor refuses every version it does not
// serve (RejectVersion) rather than guessing at its layout.
const VersionSharded = 2

// VersionResume is the hello version a holder sends when re-dialing a
// severed conduit of a live session: the version-2 fields plus a proposed
// transport epoch and the holder's per-lane frame watermarks (frames sent /
// frames received on the dead conduit). The acceptor matches it to the
// degraded session and answers with a resume grant (SendAcceptResume)
// carrying its own watermarks, so both ends replay exactly the frames the
// other never installed. Version-3 hellos never create sessions.
const VersionResume = 3

// VersionShardProc is the hello version a shard worker process accepts
// from its coordinator: the version-3 layout reinterpreted as a shard
// registration. The lane byte carries the shard index the coordinator is
// assigning (shard s as s+1, like every lane byte), and the watermark
// fields carry the coordinator's frame counters for the link — zero on a
// first registration, the live counters on a re-registration after the
// link (or the worker) died. The worker answers with a resume grant
// (SendAcceptResume) carrying its own counters: (0, 0) from a freshly
// started process, so the coordinator replays the full cached stream.
// Version-4 hellos are never valid at the third-party server itself —
// holders don't send them and the server refuses them — they exist only on
// coordinator↔shard links.
const VersionShardProc = 4

// MaxShards bounds the shard index a hello can carry (the lane byte
// reserves 0x00 for the control connection).
const MaxShards = 254

// magicExtended marks a versioned hello. It is deliberately an invalid
// name length (> maxName), so the first byte alone tells a hello from a
// bare name label.
const magicExtended = 0xFF

// Admission response status bytes.
const (
	statusAccept = 0x00
	statusReject = 0x01
)

// checkName validates an announced party name.
func checkName(name string) error {
	if name == "" || len(name) > maxName {
		return fmt.Errorf("netid: invalid name %q", name)
	}
	return nil
}

// writeWithin writes one preamble frame under a write deadline: a peer that
// accepts the connection but never drains the socket cannot wedge session
// setup. The deadline is cleared before returning so the session owns the
// connection's timeout policy afterwards.
func writeWithin(conn net.Conn, buf []byte, timeout time.Duration) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	return conn.SetWriteDeadline(time.Time{})
}

// AnnounceWithin writes the bare name label on a fresh holder↔holder link,
// under a write deadline (cleared before returning). The accepting holder
// reads it with AcceptHelloWithin and answers nothing.
func AnnounceWithin(conn net.Conn, name string, timeout time.Duration) error {
	if err := checkName(name); err != nil {
		return err
	}
	return writeWithin(conn, append([]byte{byte(len(name))}, name...), timeout)
}

// Hello is a parsed connection preamble. Version 0 is the bare name label;
// a versioned hello carries the dialer's protocol version and session ID
// (the empty session ID names the default session).
type Hello struct {
	Name    string
	Session string
	Version int
	// Lane is the TP conduit lane the hello announces, in wire form: 0 for
	// the control connection, s+1 for the conduit to TP shard s. The zero
	// value is the control lane.
	Lane int
	// Epoch is the transport epoch a version-3 resume hello proposes for
	// the rebound conduit — strictly greater than every epoch the lane has
	// used, so both ends agree which transport instance carries the replay
	// (and derive a fresh channel key from it).
	Epoch uint32
	// Sent and Recv are the dialer's frame watermarks for the severed lane:
	// how many frames it had sent on, and received from, the dead conduit.
	// Versions 3 and 4 only.
	Sent uint64
	Recv uint64
}

// Extended reports whether the hello used the versioned form — only then
// does the dialer await an admission response.
func (h Hello) Extended() bool { return h.Version > 0 }

// Resume reports whether the hello asks to resume a severed lane of a live
// session rather than join a new one.
func (h Hello) Resume() bool { return h.Version == VersionResume }

// ShardRegistration reports whether the hello is a coordinator registering
// (or re-registering) with a shard worker process rather than a holder
// joining or resuming a session. The Lane field carries the assigned shard
// as shard+1; Epoch/Sent/Recv carry the coordinator's link state.
func (h Hello) ShardRegistration() bool { return h.Version == VersionShardProc }

// announce is the one hello writer: magic, version, the caller's party name
// and session ID, the lane byte (shard+1), and — for the resume and
// registration forms — the epoch and frame watermarks, big-endian. shard -1
// names the control lane, which a shard registration does not have. The
// frame goes out under a write deadline (writeWithin).
func announce(conn net.Conn, version byte, name, session string, shard int, epoch uint32, sent, recv uint64, timeout time.Duration) error {
	if err := checkName(name); err != nil {
		return err
	}
	if len(session) > maxSession {
		return fmt.Errorf("netid: session ID %q longer than %d bytes", session, maxSession)
	}
	minShard := -1
	if version == VersionShardProc {
		minShard = 0
	}
	if shard < minShard || shard >= MaxShards {
		return fmt.Errorf("netid: shard %d outside [%d, %d)", shard, minShard, MaxShards)
	}
	buf := make([]byte, 0, 25+len(name)+len(session))
	buf = append(buf, magicExtended, version, byte(len(name)))
	buf = append(buf, name...)
	buf = append(buf, byte(len(session)))
	buf = append(buf, session...)
	buf = append(buf, byte(shard+1))
	if version >= VersionResume {
		buf = binary.BigEndian.AppendUint32(buf, epoch)
		buf = binary.BigEndian.AppendUint64(buf, sent)
		buf = binary.BigEndian.AppendUint64(buf, recv)
	}
	return writeWithin(conn, buf, timeout)
}

// AnnounceSessionShardWithin writes the version-2 join hello under a write
// deadline, cleared before returning. shard -1 announces the control
// connection, shard s >= 0 the conduit to TP shard s. The acceptor answers
// with a routing admission carrying the session's shard count
// (AwaitAdmissionRouting).
func AnnounceSessionShardWithin(conn net.Conn, name, session string, shard int, timeout time.Duration) error {
	return announce(conn, VersionSharded, name, session, shard, 0, 0, 0, timeout)
}

// AnnounceResumeWithin writes the version-3 resume hello under a write
// deadline, cleared before returning: the version-2 fields, then the
// proposed transport epoch and the dialer's frame watermarks for the
// severed lane. shard follows the AnnounceSessionShardWithin convention: -1
// for the control conduit, s >= 0 for shard s. The acceptor answers with a
// resume grant (AwaitResumeGrant) or a typed refusal.
func AnnounceResumeWithin(conn net.Conn, name, session string, shard int, epoch uint32, sent, recv uint64, timeout time.Duration) error {
	return announce(conn, VersionResume, name, session, shard, epoch, sent, recv, timeout)
}

// AnnounceShardRegistrationWithin writes the version-4 shard-registration
// hello a coordinator sends to a shard worker process, under a write
// deadline, cleared before returning: the version-3 layout with the
// registering party's name, the session ID, the shard index being assigned
// (always a real shard — workers have no control lane, so shard must be in
// [0, MaxShards)), the transport epoch the coordinator proposes and its
// frame watermarks for the link (zero on first contact). The worker answers
// with a resume grant carrying its own watermarks (AwaitResumeGrant):
// (0, 0) from a fresh process, its live counters when it survived a link
// flap.
func AnnounceShardRegistrationWithin(conn net.Conn, name, session string, shard int, epoch uint32, sent, recv uint64, timeout time.Duration) error {
	return announce(conn, VersionShardProc, name, session, shard, epoch, sent, recv, timeout)
}

// readByte reads one header byte of the preamble.
func readByte(r io.Reader, what string) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("netid: reading %s: %w", what, err)
	}
	return b[0], nil
}

// readField reads the n-byte body of a length-prefixed field after checking
// n against the field's bounds.
func readField(r io.Reader, what string, n byte, min, max int) (string, error) {
	if int(n) < min || int(n) > max {
		return "", fmt.Errorf("netid: invalid %s length %d", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("netid: reading %s: %w", what, err)
	}
	return string(buf), nil
}

// ParseHello is the one preamble parser: the first byte distinguishes the
// bare name label (a length prefix; it parses to Version 0 and the empty
// session) from the versioned hello's magic. A version-2 hello carries the
// shard lane byte; versions 3 (resume) and 4 (shard registration) carry the
// lane plus the epoch and watermark fields. A hello claiming any other
// version — older or newer — is returned intact with its claimed Version
// and only the name and session read: the acceptor refuses it
// (RejectVersion) rather than this layer guessing at an unknown layout;
// whatever followed the session stays unread, so the refusal must close the
// connection.
func ParseHello(r io.Reader) (Hello, error) {
	var h Hello
	nameLen, err := readByte(r, "hello")
	if err != nil {
		return Hello{}, err
	}
	if nameLen == magicExtended {
		var hdr [2]byte // version, name length
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return Hello{}, fmt.Errorf("netid: reading hello version: %w", err)
		}
		if hdr[0] == 0 {
			return Hello{}, fmt.Errorf("netid: invalid extended hello version 0")
		}
		h.Version, nameLen = int(hdr[0]), hdr[1]
	}
	if h.Name, err = readField(r, "name", nameLen, 1, maxName); err != nil {
		return Hello{}, err
	}
	if !h.Extended() {
		return h, nil
	}
	sessionLen, err := readByte(r, "session length")
	if err != nil {
		return Hello{}, err
	}
	if h.Session, err = readField(r, "session", sessionLen, 0, maxSession); err != nil {
		return Hello{}, err
	}
	if h.Version >= VersionSharded && h.Version <= VersionShardProc {
		lane, err := readByte(r, "shard lane")
		if err != nil {
			return Hello{}, err
		}
		h.Lane = int(lane)
	}
	if h.Resume() || h.ShardRegistration() {
		var marks [20]byte
		if _, err := io.ReadFull(r, marks[:]); err != nil {
			return Hello{}, fmt.Errorf("netid: reading resume watermarks: %w", err)
		}
		h.Epoch = binary.BigEndian.Uint32(marks[0:4])
		h.Sent = binary.BigEndian.Uint64(marks[4:12])
		h.Recv = binary.BigEndian.Uint64(marks[12:20])
	}
	return h, nil
}

// AcceptHelloWithin is ParseHello on a fresh connection under a read
// deadline: a client that connects and goes silent fails the preamble
// instead of blocking the accept loop forever. The deadline is cleared
// before returning.
func AcceptHelloWithin(conn net.Conn, timeout time.Duration) (Hello, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Hello{}, err
	}
	h, err := ParseHello(conn)
	if err != nil {
		return Hello{}, err
	}
	return h, conn.SetReadDeadline(time.Time{})
}

// RejectCode types the reason an admission was refused, so holders and
// their supervisors can branch without parsing free text.
type RejectCode byte

const (
	// RejectCapacity: the server is at -max-sessions with no admission
	// queue configured (or the queue is disabled for this class).
	RejectCapacity RejectCode = iota + 1
	// RejectQueueFull: the server is saturated and the bounded admission
	// queue is full — the backpressure limit, never a silent hang.
	RejectQueueFull
	// RejectBudget: admitting the session would exceed the server's global
	// resource budget.
	RejectBudget
	// RejectDraining: the server is draining for shutdown and admits no
	// new work. Retryable — a restarted server will accept again.
	RejectDraining
	// RejectVersion: the hello's protocol version is not supported.
	RejectVersion
	// RejectSession: the session ID is invalid or conflicts with session
	// state (e.g. the session already failed).
	RejectSession
	// RejectUnknownHolder: the announced name is not one of the holders
	// this server serves sessions for.
	RejectUnknownHolder
	// RejectDuplicateHolder: this session already has a connection for the
	// announced holder name.
	RejectDuplicateHolder
	// RejectTimeout: the session did not gather all of its holders within
	// the server's gather deadline; its parked connections are refused.
	RejectTimeout
	// RejectResume: a version-3 resume hello was refused — the session or
	// lane is unknown, the session already aborted, or the offered
	// watermarks are stale/backward relative to the server's. Not
	// retryable: the streamed state the resume depends on is gone.
	RejectResume
)

// rejectNames is RejectCode.String's table.
var rejectNames = [...]string{
	RejectCapacity:        "capacity",
	RejectQueueFull:       "queue-full",
	RejectBudget:          "budget",
	RejectDraining:        "draining",
	RejectVersion:         "version",
	RejectSession:         "session",
	RejectUnknownHolder:   "unknown-holder",
	RejectDuplicateHolder: "duplicate-holder",
	RejectTimeout:         "gather-timeout",
	RejectResume:          "resume",
}

// String names the code as it appears in reject frames, logs and metrics.
func (c RejectCode) String() string {
	if int(c) < len(rejectNames) && rejectNames[c] != "" {
		return rejectNames[c]
	}
	return fmt.Sprintf("code-%d", byte(c))
}

// ErrRejected classifies every admission refusal; test with errors.Is and
// errors.As (*RejectedError) for the typed code.
var ErrRejected = errors.New("netid: admission refused")

// RejectedError is a typed admission refusal, carried by the reject frame.
type RejectedError struct {
	Code   RejectCode
	Detail string
}

func (e *RejectedError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("netid: admission refused (%s)", e.Code)
	}
	return fmt.Sprintf("netid: admission refused (%s): %s", e.Code, e.Detail)
}

// Unwrap ties every refusal to the ErrRejected class.
func (e *RejectedError) Unwrap() error { return ErrRejected }

// Retryable reports whether re-dialing later can reasonably succeed: a
// draining server is being replaced, so holders racing a restart should
// back off and reconnect rather than exit.
func (e *RejectedError) Retryable() bool { return e.Code == RejectDraining }

// SendAcceptRouting answers a version-2 hello with admission plus the
// routing preamble: the session's TP shard count. The dialer is expected
// to establish one conduit per shard (to ShardName(0..shards-1)) before
// the party handshake; shards == 1 means the single-TP path with no shard
// conduits. The session handshake frames follow on the same connection.
func SendAcceptRouting(conn net.Conn, shards int) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("netid: shard count %d outside [1, %d]", shards, MaxShards)
	}
	_, err := conn.Write([]byte{statusAccept, byte(shards)})
	return err
}

// SendAcceptResume answers a version-3 resume hello with a resume grant:
// admission plus the acceptor's own frame watermarks for the lane (frames
// it had sent, frames it had received and installed — big-endian). The
// dialer replays everything past recv; the acceptor replays everything
// past the hello's Recv. Secure-channel re-establishment under the agreed
// epoch follows on the same connection.
func SendAcceptResume(conn net.Conn, sent, recv uint64) error {
	buf := binary.BigEndian.AppendUint64([]byte{statusAccept}, sent)
	buf = binary.BigEndian.AppendUint64(buf, recv)
	_, err := conn.Write(buf)
	return err
}

// SendReject answers a versioned hello with a typed refusal and detail
// (truncated to a bounded length). The caller closes the connection after;
// nothing may follow a reject frame.
func SendReject(conn net.Conn, code RejectCode, detail string) error {
	if len(detail) > maxRejectDetail {
		detail = detail[:maxRejectDetail]
	}
	buf := make([]byte, 0, 4+len(detail))
	buf = append(buf, statusReject, byte(code))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(detail)))
	buf = append(buf, detail...)
	_, err := conn.Write(buf)
	return err
}

// awaitStatus is the one admission-answer reader: under a read deadline it
// reads the status byte that follows a versioned hello and returns nil on
// accept — the caller reads its form's body and clears the deadline — or the
// *RejectedError (classified under ErrRejected) of a typed refusal. A
// saturated server parks the connection in its admission queue and answers
// only once a slot frees, so the timeout is the dialer's backpressure patience.
func awaitStatus(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	status, err := readByte(conn, "admission response")
	if err != nil {
		return err
	}
	switch status {
	case statusAccept:
		return nil
	case statusReject:
		return parseReject(conn)
	default:
		return fmt.Errorf("netid: invalid admission response status %d", status)
	}
}

// AwaitAdmissionRouting reads the routing admission that follows a
// version-2 hello: the session's TP shard count on accept, a
// *RejectedError on a typed refusal. The timeout bounds the whole wait
// (awaitStatus); the read deadline is cleared before returning so the
// session owns the connection's timeout policy afterwards.
func AwaitAdmissionRouting(conn net.Conn, timeout time.Duration) (int, error) {
	if err := awaitStatus(conn, timeout); err != nil {
		return 0, err
	}
	count, err := readByte(conn, "shard count")
	if err != nil {
		return 0, err
	}
	if count < 1 {
		return 0, fmt.Errorf("netid: invalid shard count %d", count)
	}
	return int(count), conn.SetReadDeadline(time.Time{})
}

// AwaitResumeGrant reads the resume grant that follows a version-3 or
// version-4 hello: the acceptor's (sent, recv) watermarks for the lane on
// accept, a *RejectedError on a typed refusal. Deadline semantics match
// AwaitAdmissionRouting.
func AwaitResumeGrant(conn net.Conn, timeout time.Duration) (sent, recv uint64, err error) {
	if err := awaitStatus(conn, timeout); err != nil {
		return 0, 0, err
	}
	if sent, recv, err = parseResumeGrant(conn); err != nil {
		return 0, 0, err
	}
	return sent, recv, conn.SetReadDeadline(time.Time{})
}

// parseResumeGrant reads the watermark body of an accepted resume grant:
// the acceptor's sent and received frame counts, big-endian.
func parseResumeGrant(r io.Reader) (sent, recv uint64, err error) {
	var marks [16]byte
	if _, err := io.ReadFull(r, marks[:]); err != nil {
		return 0, 0, fmt.Errorf("netid: reading resume watermarks: %w", err)
	}
	return binary.BigEndian.Uint64(marks[0:8]), binary.BigEndian.Uint64(marks[8:16]), nil
}

// parseReject parses the typed refusal frame that follows a reject status
// byte.
func parseReject(r io.Reader) error {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("netid: reading reject frame: %w", err)
	}
	n := binary.BigEndian.Uint16(hdr[1:3])
	if n > maxRejectDetail {
		return fmt.Errorf("netid: reject detail length %d exceeds %d", n, maxRejectDetail)
	}
	detail := make([]byte, n)
	if _, err := io.ReadFull(r, detail); err != nil {
		return fmt.Errorf("netid: reading reject detail: %w", err)
	}
	return &RejectedError{Code: RejectCode(hdr[0]), Detail: string(detail)}
}
