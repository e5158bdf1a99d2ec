// ppc-holder runs one data holder of the privacy-preserving clustering
// protocol over TCP. The holder loads its private partition from CSV,
// connects to the third party and its peer holders, runs the session and
// prints the clustering result it receives.
//
// Connection topology: every holder dials the third party; for each holder
// pair the lexicographically larger name dials the smaller, which must be
// listening (-listen). Example for holders A, B, C:
//
//	ppc-holder -name A -data a.csv -tp tp:9000 -listen :9001 \
//	    -holders A,B,C -schema "age:numeric,seq:alphanumeric:dna"
//	ppc-holder -name B -data b.csv -tp tp:9000 -listen :9002 \
//	    -holders A,B,C -peers A=hostA:9001 -schema ...
//	ppc-holder -name C -data c.csv -tp tp:9000 \
//	    -holders A,B,C -peers A=hostA:9001,B=hostB:9002 -schema ...
//
// The holder announces itself to the third party with the versioned hello
// (-session names the tenant session; empty is the server's default
// session), waits for the typed admission response, and exits with code 5
// when the server refuses (retrying first, with capped exponential backoff,
// when the refusal is retryable — e.g. the server is draining). The routing
// admission carries the server's TP shard count: when the third party is
// sharded (ppc-tp -shard-addrs with K worker addresses), the holder
// automatically dials one extra connection per shard lane — no
// holder-side flag. All dials retry
// transient failures under -connect-retries / -connect-backoff.
//
// With -reconnect-window, a severed third-party connection mid-session no
// longer kills the run: the holder redials the server under the same
// -connect-retries / -connect-backoff policy, performs the version-3 resume
// handshake, and the session continues bit-identically after a watermarked
// replay. The window must match the server's (ppc-tp -reconnect-window).
// An unrecoverable sever exits with code 6.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	mrand "math/rand"
	"net"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppclust"
	"ppclust/internal/netid"
)

// handshakeTimeout bounds the netid preamble in both directions: how long
// we wait for a dialed peer to take our name announcement, and how long a
// connection accepted on -listen may take to announce its own. A silent
// peer fails the handshake instead of hanging the session setup.
const handshakeTimeout = 10 * time.Second

// maxAcceptRetries and acceptBackoff mirror ppc-tp's accept loop: a
// transient Accept error must not kill a holder that peers and the third
// party have already handshaken with.
const maxAcceptRetries = 10

const acceptBackoff = 100 * time.Millisecond

// admissionTimeout bounds the wait for the multi-tenant server's admission
// response. The accept is deferred until the whole session has gathered,
// so this must outlast the server's gather window (default 2m), not just a
// round trip.
const admissionTimeout = 5 * time.Minute

// maxConnectBackoff caps the exponential connect backoff.
const maxConnectBackoff = 5 * time.Second

// Exit codes distinguish the session failure classes so supervisors can
// react without parsing messages: 1 protocol/transport error, 2 usage,
// 3 watchdog timeout, 4 session abort (peer failure or local signal),
// 5 admission refused by the server (typed ppc/reject frame),
// 6 disconnected mid-session beyond recovery (no reconnect window armed,
// or the server refused the resume terminally).
const (
	exitProtocol     = 1
	exitUsage        = 2
	exitTimeout      = 3
	exitAbort        = 4
	exitRefused      = 5
	exitDisconnected = 6
)

func main() {
	if err := run(); err != nil {
		os.Exit(reportFailure(err))
	}
}

// reportFailure emits the one-line structured failure record and maps the
// error class to the exit code.
func reportFailure(err error) int {
	class, code := "protocol", exitProtocol
	switch {
	// Disconnected is checked first: a terminal resume refusal wraps both
	// the sever class and the server's typed reject, and the sever is the
	// operative fact for a supervisor deciding whether to restart.
	case errors.Is(err, ppclust.ErrDisconnected):
		class, code = "disconnected", exitDisconnected
	case errors.Is(err, ppclust.ErrSessionRefused):
		class, code = "refused", exitRefused
	case errors.Is(err, ppclust.ErrSessionTimeout):
		class, code = "timeout", exitTimeout
	case errors.Is(err, ppclust.ErrAborted):
		class, code = "abort", exitAbort
	}
	log.Printf("event=session-failed class=%s err=%q", class, err)
	return code
}

func run() error {
	name := flag.String("name", "", "this holder's name (required)")
	dataPath := flag.String("data", "", "CSV file with this holder's partition (required)")
	tpAddr := flag.String("tp", "", "third party address (required)")
	listen := flag.String("listen", "", "address to accept higher-named peers on")
	peersFlag := flag.String("peers", "", "lower-named peer addresses, name=host:port pairs")
	holdersFlag := flag.String("holders", "", "comma-separated names of all holders (required)")
	schemaFlag := flag.String("schema", "", "schema spec (required)")
	linkageFlag := flag.String("linkage", "average", "linkage for the agglomerative method")
	methodFlag := flag.String("method", "agglomerative", "clustering method: agglomerative, diana or pam")
	k := flag.Int("k", 2, "number of clusters to request")
	perPair := flag.Bool("perpair", false, "use per-pair masking")
	variant := flag.String("variant", "float64", "numeric arithmetic: float64, int64 or modp")
	sessionTimeout := flag.Duration("session-timeout", 0, "bound on the whole session (0 = unbounded)")
	phaseTimeout := flag.Duration("phase-timeout", 2*time.Minute, "watchdog bound on session inactivity (0 = disabled)")
	session := flag.String("session", "", "session ID at the third party (empty = the default session)")
	connectRetries := flag.Int("connect-retries", 5, "connect attempts per target before giving up")
	connectBackoff := flag.Duration("connect-backoff", 200*time.Millisecond, "initial connect backoff (doubles per attempt, capped, jittered)")
	reconnectWindow := flag.Duration("reconnect-window", 0, "grace period to redial the third party after a mid-session sever (0 = disabled; must match the server's)")
	flag.Parse()

	holders := splitNonEmpty(*holdersFlag)
	if *name == "" || *dataPath == "" || *tpAddr == "" || len(holders) < 2 || *schemaFlag == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	sort.Strings(holders)

	schema, err := ppclust.ParseSchema(*schemaFlag)
	if err != nil {
		return err
	}
	link, err := ppclust.ParseLinkage(*linkageFlag)
	if err != nil {
		return err
	}
	var method ppclust.Method
	switch *methodFlag {
	case "agglomerative":
		method = ppclust.MethodAgglomerative
	case "diana":
		method = ppclust.MethodDiana
	case "pam":
		method = ppclust.MethodPAM
	default:
		return fmt.Errorf("unknown method %q", *methodFlag)
	}
	var opts ppclust.Options
	if opts.Variant, err = ppclust.ParseVariant(*variant); err != nil {
		return err
	}
	if *perPair {
		opts.Masking = ppclust.PerPairMasking
	}
	opts.SessionTimeout = *sessionTimeout
	opts.PhaseTimeout = *phaseTimeout
	opts.ReconnectWindow = *reconnectWindow

	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	table, err := ppclust.ReadCSV(schema, f)
	f.Close()
	if err != nil {
		return err
	}
	log.Printf("holder %s loaded %d objects", *name, table.Len())

	peers := map[string]string{}
	for _, p := range splitNonEmpty(*peersFlag) {
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -peers entry %q", p)
		}
		peers[kv[0]] = kv[1]
	}

	// Every connection is closed on exit — success or failure — so peers
	// blocked on this holder observe a prompt ErrClosed instead of a
	// half-open session.
	conns := map[string]net.Conn{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	d := &dialer{
		retries: *connectRetries,
		backoff: *connectBackoff,
		rnd:     mrand.New(mrand.NewSource(time.Now().UnixNano())),
	}

	// Dial the third party. The versioned hello names the tenant session
	// and the routing admission is awaited — a typed refusal (capacity,
	// budget, version skew, …) surfaces here instead of a hang or a dead
	// socket mid-protocol, and the accept carries the session's TP shard
	// count. Retryable refusals (server draining) re-dial under the same
	// backoff as connect failures.
	tpShards := 1
	tpConn, err := d.dial("third party", *tpAddr, tpHandshake(*name, *session, &tpShards))
	if err != nil {
		return fmt.Errorf("dialing third party: %w", err)
	}
	conns[ppclust.ThirdPartyName] = tpConn

	// A sharded third party needs one extra connection per shard lane; the
	// server matches them into the session by (name, session, shard).
	if tpShards > 1 {
		log.Printf("third party shards the session %d ways; dialing shard lanes", tpShards)
		for s := 0; s < tpShards; s++ {
			shardConn, err := d.dial(fmt.Sprintf("third party shard %d", s), *tpAddr,
				shardHandshake(*name, *session, s))
			if err != nil {
				return fmt.Errorf("dialing third party shard %d: %w", s, err)
			}
			conns[ppclust.TPShardConduitName(s)] = shardConn
		}
	}
	opts.TPShards = tpShards

	// Dial every lower-named peer.
	var expectHigher []string
	for _, h := range holders {
		switch {
		case h == *name:
		case h < *name:
			addr, ok := peers[h]
			if !ok {
				return fmt.Errorf("no -peers address for lower-named holder %s", h)
			}
			c, err := d.dial("peer "+h, addr, func(c net.Conn) error {
				return netid.AnnounceWithin(c, *name, handshakeTimeout)
			})
			if err != nil {
				return fmt.Errorf("dialing peer %s: %w", h, err)
			}
			conns[h] = c
		default:
			expectHigher = append(expectHigher, h)
		}
	}

	// Accept every higher-named peer.
	if len(expectHigher) > 0 {
		if *listen == "" {
			return fmt.Errorf("holders %v will dial us; -listen is required", expectHigher)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		log.Printf("waiting for peers %v on %s", expectHigher, ln.Addr())
		retries := 0
		for pending := len(expectHigher); pending > 0; {
			c, err := ln.Accept()
			if err != nil {
				retries++
				if retries > maxAcceptRetries {
					return fmt.Errorf("accept failed %d times in a row, giving up: %w", retries, err)
				}
				log.Printf("accept (retry %d/%d): %v", retries, maxAcceptRetries, err)
				time.Sleep(acceptBackoff)
				continue
			}
			retries = 0
			peer, err := netid.AcceptHelloWithin(c, handshakeTimeout)
			if err != nil || peer.Extended() || !slices.Contains(expectHigher, peer.Name) || conns[peer.Name] != nil {
				log.Printf("rejecting connection (%v, peer %q)", err, peer.Name)
				c.Close()
				continue
			}
			conns[peer.Name] = c
			pending--
		}
	}

	req := ppclust.ClusterRequest{Method: method, Linkage: link, K: *k}
	var sess *ppclust.HolderSession
	if *reconnectWindow > 0 {
		// Resume redials share the connect policy: the same -connect-retries
		// attempt bound and the same capped, jittered exponential backoff
		// that governed the initial dials.
		sess, err = ppclust.NewResumableHolderSession(*name, table, holders, schema, opts, req, conns, *session,
			func(ctx context.Context) (net.Conn, error) {
				return d.dialRaw(ctx, "third party (resume)", *tpAddr)
			})
	} else {
		sess, err = ppclust.NewHolderSession(*name, table, holders, schema, opts, req, conns)
	}
	if err != nil {
		return err
	}
	// A termination signal aborts the session cleanly: the third party and
	// peer holders receive an abort frame naming the cause instead of
	// observing a dead socket.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := sess.RunContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("clustering received by %s (linkage=%v, k=%d):\n%s", *name, res.Linkage, res.K, res.Format())
	for i, q := range res.Quality {
		fmt.Printf("Cluster%d quality: size=%d avgSqDist=%.4f diameter=%.4f\n",
			i+1, q.Size, q.AvgSquaredDistance, q.Diameter)
	}
	return nil
}

// tpHandshake announces to the third party: the versioned session hello
// followed by the routing-admission wait — the accept carries the session's
// TP shard count, written to *shards.
func tpHandshake(name, session string, shards *int) func(net.Conn) error {
	return func(c net.Conn) error {
		if err := netid.AnnounceSessionShardWithin(c, name, session, -1, handshakeTimeout); err != nil {
			return err
		}
		k, err := netid.AwaitAdmissionRouting(c, admissionTimeout)
		if err != nil {
			return err
		}
		if shards != nil {
			*shards = k
		}
		return nil
	}
}

// shardHandshake announces one shard-lane connection: the versioned hello
// carrying the lane index, then the routing-admission wait.
func shardHandshake(name, session string, shard int) func(net.Conn) error {
	return func(c net.Conn) error {
		if err := netid.AnnounceSessionShardWithin(c, name, session, shard, handshakeTimeout); err != nil {
			return err
		}
		_, err := netid.AwaitAdmissionRouting(c, admissionTimeout)
		return err
	}
}

// dialer connects with capped exponential backoff and jitter, so a fleet
// of holders restarting together does not hammer a recovering server in
// lockstep.
type dialer struct {
	retries int
	backoff time.Duration
	mu      sync.Mutex // guards rnd: resume redials jitter off the main goroutine
	rnd     *mrand.Rand
}

// dial connects to addr and runs the handshake, retrying dial and
// handshake failures up to retries times. A typed admission refusal ends
// the attempts immediately unless the reject reason is retryable (server
// draining).
func (d *dialer) dial(what, addr string, handshake func(net.Conn) error) (net.Conn, error) {
	var last error
	for attempt := 0; ; attempt++ {
		c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err == nil {
			if err = handshake(c); err == nil {
				return c, nil
			}
			c.Close()
			var rej *netid.RejectedError
			if errors.As(err, &rej) && !rej.Retryable() {
				// Final by construction: the server named a constraint no
				// retry relieves (wrong version, unknown holder, full queue).
				return nil, err
			}
		}
		last = err
		if attempt+1 >= d.retries {
			return nil, fmt.Errorf("%s: giving up after %d attempts: %w", what, attempt+1, last)
		}
		delay := d.delay(attempt)
		log.Printf("event=connect-retry target=%q attempt=%d/%d delay=%v err=%q",
			what, attempt+1, d.retries, delay, err)
		time.Sleep(delay)
	}
}

// delay is the backoff before attempt+2: the initial backoff doubled per
// attempt, capped at maxConnectBackoff, jittered uniformly over
// [half, full] so synchronized restarts spread out.
func (d *dialer) delay(attempt int) time.Duration {
	base := d.backoff
	if base <= 0 {
		base = time.Millisecond
	}
	for i := 0; i < attempt && base < maxConnectBackoff; i++ {
		base *= 2
	}
	if base > maxConnectBackoff {
		base = maxConnectBackoff
	}
	half := base / 2
	if d.rnd == nil || half <= 0 {
		return base
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return half + time.Duration(d.rnd.Int63n(int64(half)+1))
}

// dialRaw connects to addr under the same retry and backoff policy as dial
// but performs no handshake — the resume preamble is the session's job —
// and honors ctx between attempts, so an expiring reconnect window stops
// the retries instead of sleeping through its own deadline.
func (d *dialer) dialRaw(ctx context.Context, what, addr string) (net.Conn, error) {
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err == nil {
			return c, nil
		}
		last = err
		if attempt+1 >= d.retries {
			return nil, fmt.Errorf("%s: giving up after %d attempts: %w", what, attempt+1, last)
		}
		delay := d.delay(attempt)
		log.Printf("event=connect-retry target=%q attempt=%d/%d delay=%v err=%q",
			what, attempt+1, d.retries, delay, err)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
