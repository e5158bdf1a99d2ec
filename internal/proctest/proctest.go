// Package proctest is the multi-process conformance harness: it builds
// the real ppc-shard worker binary once, spawns worker subprocesses on
// localhost TCP, and drives sessions whose coordinator lives in the test
// process while the shard lane readers run in the spawned workers —
// the full cross-process control protocol (v4 registration, slice offer,
// frame relay, returned rows, done/abort) over real process and socket
// boundaries.
//
// The package also scripts deterministic process death: a worker spawned
// with a crash point (PPC_SHARD_CRASH_AFTER_FRAMES) exits hard at an
// exact protocol position, and the harness can respawn it on the same
// address so a coordinator's redial lands on a genuinely fresh process.
// The tests pin bit-identity of every surviving configuration against the
// single-TP differential and classified failure for every non-surviving
// one.
package proctest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// shardBin is the ppc-shard binary TestMain builds once for every test.
var shardBin string

// schemaSpec is the worker's -schema flag; schema() in data.go builds the
// byte-identical dataset.Schema the in-process coordinator runs with (the
// registration offer carries a fingerprint over it, so the two must
// agree).
const schemaSpec = "age:numeric,income:numeric,dna:alphanumeric:dna,city:categorical"

// worker is one spawned ppc-shard subprocess.
type worker struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the process exits
}

// startWorker spawns a ppc-shard on listen ("127.0.0.1:0" for an
// ephemeral port, a concrete address for a respawn) and waits for its
// stdout address line. crashAfter > 0 arms the deterministic crash hook:
// the process exits hard (no drain, no abort frames) once any run has
// relayed that many frames.
func startWorker(listen string, crashAfter int) (*worker, error) {
	cmd := exec.Command(shardBin, "-listen", listen, "-schema", schemaSpec)
	cmd.Env = os.Environ()
	if crashAfter > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("PPC_SHARD_CRASH_AFTER_FRAMES=%d", crashAfter))
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, done: make(chan struct{})}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		close(w.done)
		return nil, fmt.Errorf("proctest: worker produced no address line: %w", err)
	}
	w.addr = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "listening on "))
	if w.addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		close(w.done)
		return nil, fmt.Errorf("proctest: malformed address line %q", line)
	}
	go func() {
		_, _ = io.Copy(io.Discard, stdout) // drain any later stdout
		_ = cmd.Wait()
		close(w.done)
	}()
	return w, nil
}

// kill terminates the worker hard and waits for the process to be reaped.
func (w *worker) kill() {
	select {
	case <-w.done: // already exited (crash hook fired)
	default:
		_ = w.cmd.Process.Kill()
	}
	<-w.done
}

// exited reports whether the process has already terminated.
func (w *worker) exited() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// respawnDeadline bounds how long a respawn retries rebinding a crashed
// worker's concrete port (the dying process's socket can linger briefly).
const respawnDeadline = 15 * time.Second

// respawnOnExit watches a worker and, when its process dies, starts a
// fresh ppc-shard on the same address (retrying the bind until the port
// frees) so the coordinator's redial reaches a genuinely new process.
// stop() ends the watch and kills whichever process is current.
func respawnOnExit(w *worker, onErr func(error)) (stop func()) {
	var mu sync.Mutex
	current := w
	stopped := make(chan struct{})
	watcherDone := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(watcherDone)
		for {
			mu.Lock()
			c := current
			mu.Unlock()
			select {
			case <-stopped:
				return
			case <-c.done:
			}
			deadline := time.Now().Add(respawnDeadline)
			for {
				select {
				case <-stopped:
					return
				default:
				}
				fresh, err := startWorker(c.addr, 0)
				if err == nil {
					mu.Lock()
					current = fresh
					mu.Unlock()
					break
				}
				if time.Now().After(deadline) {
					onErr(fmt.Errorf("proctest: respawning worker on %s: %w", c.addr, err))
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}()
	return func() {
		once.Do(func() { close(stopped) })
		// Wait for the watcher to quiesce before reading current: killing
		// concurrently with a respawn would leak the fresh process (whose
		// inherited stderr then holds go test's output pipe open).
		<-watcherDone
		mu.Lock()
		c := current
		mu.Unlock()
		c.kill()
	}
}
