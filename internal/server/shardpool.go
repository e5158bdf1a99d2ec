package server

import (
	"context"
	"fmt"
	"net"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// shardDialTimeout bounds each step of the worker registration handshake
// (the v4 hello and the watermark grant). A worker that cannot answer
// within it is treated as down; the coordinator's redial loop owns the
// retry policy.
const shardDialTimeout = 10 * time.Second

// shardDialer builds one session's party.ShardDialFunc over the
// configured worker pool: TCP dial to ShardAddrs[shard], v4
// shard-registration hello carrying the session ID and resume state,
// watermark grant, pooled conduit metered into the worker-link counter.
// Every error is returned to the coordinator's redial loop, which decides
// whether it is retryable — a draining or unreachable worker is retried
// against the (possibly restarted) address until the reconnect window
// closes.
func (m *Manager) shardDialer(session string) party.ShardDialFunc {
	return func(ctx context.Context, shard int, state party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		if shard < 0 || shard >= len(m.cfg.ShardAddrs) {
			return nil, party.ResumeGrant{}, fmt.Errorf("server: shard %d outside the %d-worker pool", shard, len(m.cfg.ShardAddrs))
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", m.cfg.ShardAddrs[shard])
		if err != nil {
			return nil, party.ResumeGrant{}, fmt.Errorf("server: dial shard worker %d: %w", shard, err)
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, party.TPName, session, shard,
			state.Epoch, state.Sent, state.Recv, shardDialTimeout); err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, fmt.Errorf("server: register with shard worker %d: %w", shard, err)
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, shardDialTimeout)
		if err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, fmt.Errorf("server: shard worker %d grant: %w", shard, err)
		}
		c := wire.Meter(wire.TCPPooled(conn), &m.metrics.workerWire)
		return c, party.ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}
