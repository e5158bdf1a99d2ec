package ppclust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/server"
	"ppclust/internal/wire"
)

// ThirdPartyName is the reserved protocol name of the third party.
const ThirdPartyName = party.TPName

// TPShardConduitName is the conduit-map key a holder uses for its
// connection to TP shard s when the session runs with Options.TPShards
// > 1 ("TP#0", "TP#1", …). Holders of a sharded session pass these keys
// in the conns map of NewHolderSession next to ThirdPartyName.
func TPShardConduitName(s int) string { return party.ShardName(s) }

// TPShardConduitKey is the conduit-map key the third party uses for
// holder's connection to shard s in NewThirdPartySession's conns map
// ("A#0", "A#1", …). The multi-tenant TPServer keys its gathered shard
// connections this way automatically.
func TPShardConduitKey(holder string, s int) string { return party.ShardConduitKey(holder, s) }

// MaxTPShards bounds Options.TPShards: the wire's admission routing and
// shard-registration preambles carry the shard index in one byte with a
// reserved sentinel.
const MaxTPShards = party.MaxTPShards

// HolderSession is a data holder's side of a session over
// caller-established connections (TCP deployment).
type HolderSession = party.Holder

// ThirdPartySession is the third party's side of a session over
// caller-established connections.
type ThirdPartySession = party.ThirdParty

// NewHolderSession prepares a data holder over live network connections:
// conns maps every other holder's name, and ThirdPartyName, to an open
// net.Conn. The session performs key agreement and channel encryption on
// these connections; call Run on the returned session to execute the
// protocol and receive the clustering result.
func NewHolderSession(name string, table *Table, holders []string, schema Schema, opts Options, req ClusterRequest, conns map[string]net.Conn) (*HolderSession, error) {
	conduits := make(map[string]wire.Conduit, len(conns))
	for peer, c := range conns {
		// Each frame arrives in a buffer from the process's frame pool,
		// which the session then owns (docs/WIRE.md, "Ownership").
		conduits[peer] = wire.TCPPooled(c)
	}
	return party.NewHolder(name, table, holders, opts.toConfig(schema), req, conduits, optRandom(opts, name))
}

// NewThirdPartySession prepares the third party over live network
// connections: conns maps each holder name to an open net.Conn. Call Run
// on the returned session to serve the protocol. It runs the single third
// party; a sharded session (Options.TPShards > 1) needs its workers, which
// only NewTPServer reaches (TPServerOptions.ShardAddrs).
func NewThirdPartySession(holders []string, schema Schema, opts Options, conns map[string]net.Conn) (*ThirdPartySession, error) {
	conduits := make(map[string]wire.Conduit, len(conns))
	for peer, c := range conns {
		conduits[peer] = wire.TCPPooled(c)
	}
	return party.NewThirdParty(holders, opts.toConfig(schema), conduits, optRandom(opts, ThirdPartyName))
}

// resumeHandshakeTimeout bounds each leg of a resume redial's preamble:
// the version-3 hello write and the grant (or typed refusal) read. Unlike
// first admission, a resume is decided immediately — the session is
// already running — so no gather-window-sized wait is needed.
const resumeHandshakeTimeout = 30 * time.Second

// TPDialFunc dials a fresh connection to the third-party server for a
// resume redial. Implementations should retry transient connect failures
// themselves (cmd/ppc-holder reuses its -connect-retries/-connect-backoff
// policy); the session retries the redial as a whole until its reconnect
// window expires or the server refuses terminally.
type TPDialFunc func(ctx context.Context) (net.Conn, error)

// NewResumableHolderSession is NewHolderSession for TCP deployments with
// Options.ReconnectWindow armed: session names the tenant session (the ID
// announced in the hello to the multi-tenant server) and dialTP opens a
// fresh connection to that server when a TP lane is severed mid-session.
// On a sever the session parks degraded, redials through dialTP, performs
// the version-3 resume handshake (watermarked hello, grant await), and
// replays exactly the unacknowledged frames — the run completes
// bit-identically to a fault-free one. Peer-holder conduits are not
// resumable; only the holder↔TP lanes are.
func NewResumableHolderSession(name string, table *Table, holders []string, schema Schema, opts Options, req ClusterRequest, conns map[string]net.Conn, session string, dialTP TPDialFunc) (*HolderSession, error) {
	if dialTP == nil {
		return nil, errors.New("ppclust: NewResumableHolderSession requires a dial function")
	}
	conduits := make(map[string]wire.Conduit, len(conns))
	for peer, c := range conns {
		conduits[peer] = wire.TCPPooled(c)
	}
	cfg := opts.toConfig(schema)
	cfg.Redial = tcpRedial(session, dialTP)
	return party.NewHolder(name, table, holders, cfg, req, conduits, optRandom(opts, name))
}

// tcpRedial adapts a TCP dialer into the session's redial hook: dial,
// announce the version-3 resume hello for the severed lane, await the
// server's watermark grant, and hand the pooled conduit back for replay.
func tcpRedial(session string, dialTP TPDialFunc) party.RedialFunc {
	return func(ctx context.Context, holder string, lane int, st party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		c, err := dialTP(ctx)
		if err != nil {
			return nil, party.ResumeGrant{}, err
		}
		// The hello's shard field follows the announce convention: -1 is
		// the control conduit, s >= 0 the lane to TP shard s — exactly the
		// session lane number shifted by one.
		if err := netid.AnnounceResumeWithin(c, holder, session, lane-1, st.Epoch, st.Sent, st.Recv, resumeHandshakeTimeout); err != nil {
			c.Close()
			return nil, party.ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(c, resumeHandshakeTimeout)
		if err != nil {
			c.Close()
			return nil, party.ResumeGrant{}, mapResumeReject(err)
		}
		return wire.TCPPooled(c), party.ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// mapResumeReject translates the server's typed resume refusal into the
// session's resume classes: a duplicate-holder refusal (the server has not
// yet observed the sever) and anything retryable stay transient, so the
// redial loop tries again under its backoff; every other typed refusal is
// terminal and stops the loop instead of burning the reconnect window.
func mapResumeReject(err error) error {
	var rej *netid.RejectedError
	if !errors.As(err, &rej) {
		return err // transport failure: retry
	}
	if rej.Code == netid.RejectDuplicateHolder || rej.Retryable() {
		return err
	}
	return fmt.Errorf("%w: %w", party.ErrResumeAborted, err)
}

func optRandom(opts Options, name string) io.Reader {
	if opts.Random == nil {
		return nil
	}
	return opts.Random(name)
}

// TPServer is the multi-tenant third-party server: one listener serving
// many concurrent sessions, keyed by the session ID in the netid hello.
// Feed it a listener with Serve, stop it with Drain (graceful: running
// sessions finish, new arrivals get a retryable refusal) or Close
// (immediate, classified aborts). See docs/ARCHITECTURE.md ("Multi-tenant
// TP server").
type TPServer = server.Manager

// TPServeConfig tunes the server's TCP accept path (handshake timeout and
// concurrency, accept retries, admission-response deadline). The zero
// value selects sensible defaults.
type TPServeConfig = server.ServeConfig

// TPServerMetrics is the server's counter surface; Snapshot renders every
// counter under its documented name.
type TPServerMetrics = server.Metrics

// TPServerOptions is the server-side admission policy: how many tenant
// sessions may run at once, how many may queue, and what resources each
// may claim.
type TPServerOptions struct {
	// MaxSessions bounds concurrently admitted sessions (gathering plus
	// running). 0 means 1.
	MaxSessions int
	// QueueDepth bounds the admission queue; 0 disables queueing, so
	// saturated arrivals are refused immediately.
	QueueDepth int
	// GlobalBudgetBytes caps the summed per-session memory reservations;
	// each admitted session reserves EstimateSessionBytes(schema, opts,
	// holders, MaxSessionObjects). 0 disables the budget.
	GlobalBudgetBytes int64
	// MaxSessionObjects caps one session's total object count, enforced at
	// census time. Required when GlobalBudgetBytes is set. 0 disables.
	MaxSessionObjects int
	// GatherTimeout bounds an admitted session's wait for its remaining
	// holders; on expiry the gathered connections are refused with the
	// typed gather-timeout reason. 0 disables.
	GatherTimeout time.Duration
	// ShardAddrs lists the ppc-shard worker processes of a sharded
	// session: entry s is the listen address of the worker that evaluates
	// shard s's pair chunks. Options.TPShards > 1 requires exactly one
	// address per shard, and TPShards ≤ 1 none. Holders connect to the
	// server alone, one lane per shard; only the server dials workers. A
	// worker that dies mid-session degrades its sessions within
	// Options.ReconnectWindow (the server redials the same address, so a
	// restarted worker heals them) and fails them classified past it.
	ShardAddrs []string
	// OnComplete, when set, observes every session outcome.
	OnComplete func(session string, report *TPReport, err error)
	// Logf receives the structured event log; nil silences it.
	Logf func(format string, args ...any)
}

// NewTPServer builds the multi-tenant third-party server: every tenant
// session runs under the same out-of-band agreement (holders, schema,
// opts) and the admission policy in srv. When opts.Random is set, each
// session's third party draws from opts.Random(ThirdPartyName).
func NewTPServer(holders []string, schema Schema, opts Options, srv TPServerOptions) (*TPServer, error) {
	cfg := server.Config{
		Holders:           holders,
		Session:           opts.toConfig(schema),
		ShardAddrs:        srv.ShardAddrs,
		MaxSessions:       srv.MaxSessions,
		QueueDepth:        srv.QueueDepth,
		GlobalBudgetBytes: srv.GlobalBudgetBytes,
		MaxSessionObjects: srv.MaxSessionObjects,
		GatherTimeout:     srv.GatherTimeout,
		OnComplete:        srv.OnComplete,
		Logf:              srv.Logf,
	}
	if opts.Random != nil {
		cfg.Random = func(session string) io.Reader { return opts.Random(ThirdPartyName) }
	}
	return server.New(cfg)
}

// TPShardWorker is one external shard worker: a server that accepts
// version-4 shard-registration hellos from session coordinators (a
// TPServer running with TPServerOptions.ShardAddrs, or cmd/ppc-tp with
// -shard-addrs) and runs one shard's lane readers per registered
// session. Workers are stateless between registrations — a restarted
// worker heals its degraded sessions by recomputing from the
// coordinator's replay — so one worker process (cmd/ppc-shard) per
// address is the whole deployment. Feed it a listener with Serve and
// stop it with Close (drains: every registered run is aborted with a
// typed reason).
type TPShardWorker = party.ShardServer

// TPShardWorkerConfig configures a shard worker. The schema must match
// the coordinators' — every registration offer carries a schema
// fingerprint and a mismatch is refused with a typed abort.
type TPShardWorkerConfig struct {
	// Schema is the session schema the worker serves.
	Schema Schema
	// Logf receives the worker's structured event log; nil silences it.
	Logf func(format string, args ...any)
	// OnFrame, when set, observes every relayed holder frame of every
	// registered run (with the run's cumulative count) — a progress hook,
	// also the anchor the multi-process chaos harness hangs scripted
	// crash points on.
	OnFrame func(session string, shard, frames int)
}

// NewTPShardWorker builds a shard worker.
func NewTPShardWorker(cfg TPShardWorkerConfig) (*TPShardWorker, error) {
	return party.NewShardServer(party.ShardServerConfig{
		Schema: cfg.Schema, Logf: cfg.Logf, OnFrame: cfg.OnFrame,
	})
}

// EstimateSessionBytes prices one session under the server's budget
// formula: the resident matrices plus the frames and scratch the lane
// readers of a session of totalObjects objects hold at its peak. It is the per-
// session reservation NewTPServer charges against GlobalBudgetBytes, and
// the number to size -budget-bytes with.
func EstimateSessionBytes(schema Schema, opts Options, numHolders, totalObjects int) int64 {
	return opts.toConfig(schema).EstimateSessionBytes(numHolders, totalObjects)
}
