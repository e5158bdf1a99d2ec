// ppc-shard runs one external TP shard worker: a long-lived TCP server
// that accepts version-4 shard-registration hellos from session
// coordinators (ppc-tp started with -shard-addrs) and executes one
// shard's lane readers per registered session. Workers hold no state
// between registrations — a coordinator heals a crashed worker by
// redialing its address and replaying the shard stream, and the restarted
// process recomputes the slice — so deployment is one ppc-shard per
// -shard-addrs entry, restarted freely under any supervisor.
//
// The first line on stdout is "listening on ADDR" with the bound address
// (so -listen 127.0.0.1:0 is usable under a harness that needs the
// ephemeral port). A termination signal drains: every registered run is
// aborted with a typed reason and the process exits. -debug-addr serves
// the Go profiles at /debug/pprof/ on a separate address, off by default.
//
// Usage:
//
//	ppc-shard -listen :9100 -schema "age:numeric,diag:categorical"
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves /debug/pprof/
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"ppclust"
)

// Exit codes follow the family convention: 1 serve error, 2 usage. 3 is
// reserved for the deterministic crash hook below.
const (
	exitServe = 1
	exitUsage = 2
	exitCrash = 3
)

func main() {
	if err := run(); err != nil {
		log.Printf("event=shard-worker-failed err=%q", err)
		os.Exit(exitServe)
	}
}

func run() error {
	listen := flag.String("listen", ":9100", "address to listen on")
	schemaFlag := flag.String("schema", "", "schema spec, e.g. age:numeric,seq:alphanumeric:dna (required; must match the coordinator's)")
	debugAddr := flag.String("debug-addr", "", "pprof endpoint address (/debug/pprof/), e.g. localhost:9190 (empty = disabled)")
	flag.Parse()

	if *schemaFlag == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	schema, err := ppclust.ParseSchema(*schemaFlag)
	if err != nil {
		return err
	}
	worker, err := ppclust.NewTPShardWorker(ppclust.TPShardWorkerConfig{
		Schema:  schema,
		Logf:    log.Printf,
		OnFrame: crashHook(),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	if *debugAddr != "" {
		go func() {
			log.Printf("event=debug-endpoint addr=%s path=/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("event=debug-endpoint-failed err=%q", err)
			}
		}()
	}
	// The stdout address line is the spawn handshake the multi-process
	// harness (and any supervisor using an ephemeral -listen port) reads.
	fmt.Printf("listening on %s\n", ln.Addr())
	log.Printf("event=shard-worker-listening addr=%s", ln.Addr())

	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(signals)
	go func() {
		sig := <-signals
		log.Printf("event=shard-worker-drain signal=%v", sig)
		worker.Close()
		ln.Close()
	}()

	return worker.Serve(ln)
}

// crashHook arms the deterministic fault injection the multi-process
// chaos harness scripts kills with: when PPC_SHARD_CRASH_AFTER_FRAMES=N
// is set, the process dies hard (exit 3, no drain, no abort frames) the
// moment any run has relayed N frames — indistinguishable on the wire
// from a real worker crash at that protocol point. Unset means no hook.
func crashHook() func(session string, shard, frames int) {
	spec := os.Getenv("PPC_SHARD_CRASH_AFTER_FRAMES")
	if spec == "" {
		return nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 {
		log.Printf("event=crash-hook-ignored spec=%q", spec)
		return nil
	}
	return func(session string, shard, frames int) {
		if frames >= n {
			log.Printf("event=crash-hook-fired session=%q shard=%d frames=%d", session, shard, frames)
			os.Exit(exitCrash)
		}
	}
}
