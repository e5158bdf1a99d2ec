// ppc-tp runs the third party of the privacy-preserving clustering protocol
// as a long-lived multi-tenant TCP server: holders announcing the same
// session ID (ppc-holder -session; empty is the default session) are
// matched into one session, many sessions run concurrently under admission
// control and resource budgets, and a termination signal drains gracefully.
// With -once it serves exactly one session, prints its report and exits.
// -shard-addrs lists K ≥ 2 ppc-shard worker processes and splits each
// session's third party into K row-range shards behind a merge
// coordinator, one worker evaluating each shard's pair chunks — holders
// learn the shard count from the routing admission and dial one extra
// connection per shard; reports are bit-identical to the single-TP path
// at every K, and a restarted worker heals its degraded sessions inside
// -reconnect-window. With -reconnect-window,
// a session whose holder lane is severed mid-run parks degraded for that
// grace period and accepts the holder's version-3 resume redial instead of
// aborting; the sessions_degraded gauge and reconnects_accepted/_refused
// counters on -debug-addr track the mechanism.
//
// Usage:
//
//	ppc-tp -listen :9000 -holders A,B,C -max-sessions 4 \
//	    -schema "age:numeric,diag:categorical,seq:alphanumeric:dna"
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr also serves /debug/pprof/
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ppclust"
)

// Exit codes distinguish the failure classes so supervisors can react
// without parsing messages: 1 protocol/transport error, 2 usage, 3
// watchdog timeout, 4 session abort (peer failure, forced drain or local
// signal).
const (
	exitProtocol = 1
	exitUsage    = 2
	exitTimeout  = 3
	exitAbort    = 4
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
	case errors.Is(err, ppclust.ErrSessionTimeout):
		class, code = "timeout", exitTimeout
	case errors.Is(err, ppclust.ErrAborted):
		class, code = "abort", exitAbort
	}
	log.Printf("event=server-failed class=%s err=%q", class, err)
	return code
}

// completion is one finished tenant session, as observed by -once and the
// report printer.
type completion struct {
	session string
	report  *ppclust.TPReport
	err     error
}

func run() error {
	listen := flag.String("listen", ":9000", "address to listen on")
	holdersFlag := flag.String("holders", "", "comma-separated data holder names (required)")
	schemaFlag := flag.String("schema", "", "schema spec, e.g. age:numeric,seq:alphanumeric:dna (required)")
	perPair := flag.Bool("perpair", false, "use per-pair masking (frequency-attack countermeasure)")
	variant := flag.String("variant", "float64", "numeric arithmetic: float64, int64 or modp")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated ppc-shard worker addresses: K ≥ 2 of them shard each session K ways, one worker per shard (empty = single third party; results are bit-identical at every K)")
	sessionTimeout := flag.Duration("session-timeout", 0, "bound on each tenant session (0 = unbounded)")
	phaseTimeout := flag.Duration("phase-timeout", 2*time.Minute, "watchdog bound on per-session inactivity (0 = disabled)")
	reconnectWindow := flag.Duration("reconnect-window", 0, "grace period a session with a severed holder lane waits degraded for a version-3 resume redial (0 = severs abort immediately; must match the holders')")
	maxSessions := flag.Int("max-sessions", 4, "concurrently admitted tenant sessions")
	queueDepth := flag.Int("queue-depth", 0, "sessions that may queue for a slot (0 = refuse when saturated)")
	budgetBytes := flag.Int64("budget-bytes", 0, "global memory budget across sessions (0 = unbounded; requires -max-objects)")
	maxObjects := flag.Int("max-objects", 0, "per-session object cap, enforced at census (0 = uncapped)")
	gatherTimeout := flag.Duration("gather-timeout", 2*time.Minute, "bound on an admitted session gathering its holders (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "graceful-drain bound after a termination signal (0 = wait forever)")
	debugAddr := flag.String("debug-addr", "", "expvar (/debug/vars) and pprof (/debug/pprof/) endpoint address, e.g. localhost:9090 (empty = disabled)")
	once := flag.Bool("once", false, "serve exactly one session, print its report, then exit")
	printReports := flag.Bool("print-reports", false, "print every completed session's published results (implied by -once)")
	flag.Parse()

	holders := splitNonEmpty(*holdersFlag)
	if len(holders) < 2 || *schemaFlag == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	workerAddrs := splitNonEmpty(*shardAddrs)
	shards := max(len(workerAddrs), 1)
	if len(workerAddrs) == 1 || shards > ppclust.MaxTPShards {
		fmt.Fprintf(flag.CommandLine.Output(), "ppc-tp: %d -shard-addrs entries, want none or 2 to %d\n", len(workerAddrs), ppclust.MaxTPShards)
		flag.Usage()
		os.Exit(exitUsage)
	}
	sort.Strings(holders)
	schema, err := ppclust.ParseSchema(*schemaFlag)
	if err != nil {
		return err
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
	opts.TPShards = shards
	opts.ReconnectWindow = *reconnectWindow

	if *once {
		*maxSessions = 1
		*printReports = true
	}
	completions := make(chan completion, 16)
	srv, err := ppclust.NewTPServer(holders, schema, opts, ppclust.TPServerOptions{
		ShardAddrs:        workerAddrs,
		MaxSessions:       *maxSessions,
		QueueDepth:        *queueDepth,
		GlobalBudgetBytes: *budgetBytes,
		MaxSessionObjects: *maxObjects,
		GatherTimeout:     *gatherTimeout,
		Logf:              log.Printf,
		OnComplete: func(session string, report *ppclust.TPReport, err error) {
			select {
			case completions <- completion{session: session, report: report, err: err}:
			default: // nobody is consuming fast enough; never block a session
			}
		},
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		expvar.Publish("ppc_server", expvar.Func(func() any { return srv.Metrics().Snapshot() }))
		go func() {
			log.Printf("event=debug-endpoint addr=%s path=/debug/vars,/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("event=debug-endpoint-failed err=%q", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("third party listening on %s for holders %v (max-sessions=%d queue=%d shards=%d)",
		ln.Addr(), holders, *maxSessions, *queueDepth, shards)

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln, ppclust.TPServeConfig{}) }()

	// First termination signal: stop accepting and drain gracefully.
	// A second signal during the drain aborts the stragglers immediately.
	signals := make(chan os.Signal, 2)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(signals)

	var onceResult error
	drain := false
	for !drain {
		select {
		case sig := <-signals:
			log.Printf("event=drain-signal signal=%v", sig)
			drain = true
		case err := <-served:
			// The accept loop died on its own (listener failure).
			if err != nil {
				srv.Close()
				return err
			}
			drain = true
		case c := <-completions:
			if c.err == nil && *printReports {
				printReport(c)
			}
			if *once {
				onceResult = c.err
				drain = true
			}
		}
	}

	ln.Close()
	ctx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *drainTimeout)
		defer cancel()
	}
	go func() {
		if _, ok := <-signals; ok {
			log.Printf("event=drain-aborted reason=second-signal")
			srv.Close()
		}
	}()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("%w: %w", ppclust.ErrAborted, err)
	}
	log.Printf("event=server-stopped sessions-completed=%d", srv.Metrics().Completed())
	return onceResult
}

func printReport(c completion) {
	fmt.Printf("session %q complete: %d objects, %d attribute matrices\n",
		c.session, len(c.report.ObjectIDs), len(c.report.AttributeMatrices))
	for holder, res := range c.report.Results {
		fmt.Printf("\npublished to %s (linkage=%v, k=%d):\n%s", holder, res.Linkage, res.K, res.Format())
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
