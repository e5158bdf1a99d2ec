// Command benchmark is the repository's benchmark: five closed-loop
// session workloads, seven end-to-end metrics with regression bounds, and
// a traced run that splits a session's cost by layer, all measured from
// outside the program under test. See README.md and ../BENCHMARK.json.
//
//	bash benchmark/run.sh                          every workload, untraced then traced
//	bash benchmark/run.sh -workload pair-cpu       one workload; last stdout line is a JSON result
//	bash benchmark/run.sh -aa                      two untraced sets, compared against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	quick    bool
	aa       bool
}

// Set-ups per untraced run (setup_s is their median; the benchmark contract
// asks for several per run) and warm-up sessions per set-up.
const (
	setups  = 5
	warmups = 3
)

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: every workload, each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's data is generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "with -workload: how long the run measures; the benchmark driver passes BENCHMARK.json's run_seconds, and commits are compared at that length only")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 makes the traced run for the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON")
	flag.BoolVar(&o.quick, "quick", false, "2 sessions per run and one set-up, for tests")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.seconds != runSeconds && o.workload == "") || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.aa:
		err = runAA(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the result line.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	printEnvironment(w, o)
	var res *result
	var err error
	if o.trace == 1 {
		res, err = runTraced(w, o)
	} else {
		res, err = runUntraced(w, o)
	}
	if res != nil {
		defs := endToEnd
		if o.trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			fmt.Printf("%-28s %14.4f %-5s (%s is better)\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better)
		}
		line, merr := json.Marshal(res)
		if merr != nil {
			return merr
		}
		fmt.Println(string(line))
	}
	return err
}

// runUntraced sets the workload up `setups` times, keeping the last
// environment, and drives the closed loop on it with tracing off, verifying
// every session.
func runUntraced(w *workload, o options) (*result, error) {
	nSetups, nWarm, sessions := setups, warmups, 0
	if o.quick {
		nSetups, nWarm, sessions = 1, 1, 2
	}
	var e *env
	var took []float64
	for i := 0; i < nSetups; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(w, o.seed, nWarm); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	defer e.close()
	r := e.measure(o.seconds, sessions, nil)
	fmt.Printf("untraced run: %s, %d closed-loop client(s)\n", r.describe(), w.Clients)
	return finish(r, endToEnd, endToEndValues(r, median(took)))
}

// finish packs a run into the result line; a failed session makes the
// command fail after the line is printed.
func finish(r *runStats, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{Correct: r.failed == 0 && r.ok() > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d sessions failed (failed_share %.4f); first error: %v",
			r.failed, r.attempted, float64(r.failed)/math.Max(1, float64(r.attempted)), r.firstErr)
	}
	return res, nil
}

// runTraced makes the traced run: a stretch with tracing off (the overhead
// baseline and the CPU per session the layers are set against), a stretch
// with every conduit end observed and every party in a span, and then the
// layer replays.
func runTraced(w *workload, o options) (*result, error) {
	nWarm, sessions := warmups, 0
	if o.quick {
		nWarm, sessions = 1, 2
	}
	e, err := setup(w, o.seed, nWarm)
	if err != nil {
		return nil, err
	}
	defer e.close()

	tr := newTracer()
	var active func() int64
	if e.mgr != nil {
		active = e.mgr.Metrics().Active
	}
	// The poller watches the untraced stretch, so that the tracer's own
	// spans are not in the live heap it reports.
	poll := startPoller(active)
	plain := e.measure(o.seconds*0.35, sessions, nil)
	poll.halt()
	traced := e.measure(o.seconds*0.35, sessions, tr)
	fmt.Printf("traced run: %s; untraced baseline: %s\n", traced.describe(), plain.describe())
	if traced.ok() == 0 || plain.ok() == 0 {
		return finish(traced, perLayer, nil)
	}

	v := map[string]float64{}
	obs := tr.sessions
	col := func(f func(*sessObs) float64) float64 {
		vals := make([]float64, len(obs))
		for i := range obs {
			vals[i] = f(&obs[i])
		}
		return median(vals)
	}
	v["party.open_ms"] = col(func(s *sessObs) float64 { return s.openMs })
	v["party.stream_ms"] = col(func(s *sessObs) float64 { return s.streamMs })
	v["party.tail_ms"] = col(func(s *sessObs) float64 { return s.tailMs })
	v["party.holder_run_ms"] = col(func(s *sessObs) float64 { return s.holderRunMs })
	v["party.tp_run_ms"] = col(func(s *sessObs) float64 { return s.tpRunMs })
	v["wire.tp_recv_wait_ms"] = col(func(s *sessObs) float64 { return s.tpRecvWaitMs })
	v["wire.holder_send_block_ms"] = col(func(s *sessObs) float64 { return s.holderSendBlockMs })
	v["wire.worker_send_block_ms"] = col(func(s *sessObs) float64 { return s.workerSendBlockMs })
	v["wire.frames_per_session"] = col(func(s *sessObs) float64 { return float64(s.frames) })
	v["wire.bytes_tp_links"] = col(func(s *sessObs) float64 { return float64(s.bytes[classTP]) })
	v["wire.bytes_holder_links"] = col(func(s *sessObs) float64 { return float64(s.bytes[classHolder]) })
	v["wire.bytes_worker_links"] = col(func(s *sessObs) float64 { return float64(s.bytes[classWorker]) })
	v["wire.max_frame_bytes"] = col(func(s *sessObs) float64 { return float64(s.maxFrame) })
	v["server.admission_wait_ms"] = col(func(s *sessObs) float64 { return s.admissionMs })
	v["server.active_max"] = float64(poll.activeMax)
	if e.mgr != nil {
		v["server.refused"] = float64(e.mgr.Metrics().Refused())
	}
	v["session_ms_p99"] = plain.percentile(0.99)
	v["trace.overhead_pct"] = 100 * (traced.percentile(0.5)/plain.percentile(0.5) - 1)
	v["proc.peak_live_heap_mb"] = float64(poll.peakLiveHeap) / 1e6
	v["proc.allocs_per_session"] = plain.perSession(float64(plain.rt.allocObjects))
	v["proc.gc_cpu_ms_per_session"] = plain.perSession(plain.rt.gcCPUSeconds * 1e3)

	// Each replayed layer gets the same slice of the run.
	budget := time.Duration(o.seconds * 0.012 * float64(time.Second))
	if o.quick {
		budget = 0 // one call per layer
	}
	layers, err := replayLayers(e, budget, obs[0].frameSizes, obs[0].tcpSizes)
	if err != nil {
		return nil, fmt.Errorf("replaying layers: %w", err)
	}
	for name, ms := range layers {
		v[name] = ms
	}
	cpu, sum := plain.cpuMs(), layers["layers.attributed_ms"]
	v["layers.unattributed_ms"] = cpu - sum
	v["proc.peak_rss_mb"] = peakRSSMB()
	fmt.Printf("cpu_ms_per_session of the untraced baseline: %.4f ms (the layers account for %.1f %%)\n", cpu, 100*sum/cpu)

	if o.traceOut != "" {
		if err := tr.writeSpans(o.traceOut); err != nil {
			return nil, err
		}
	}
	return finish(traced, perLayer, v)
}

// printEnvironment is the reproducibility block every output starts with.
func printEnvironment(w *workload, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  quick %v\n", w.Name, o.seed, o.seconds, o.trace, o.quick)
	fmt.Printf("  shape: %d holders x %d objects, %d closed-loop client(s); untraced runs set up %d times with %d warm-up sessions each (1 and 1 with -quick, which then measures 2 sessions)\n",
		w.Holders, w.Objects, w.Clients, setups, warmups)
	fmt.Printf("  link: %s\n", w.Link)
	fmt.Printf("  commit %s  %s  GOMAXPROCS %d  nproc %d  cpu %q\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// child runs one workload in a fresh process, so that its CPU, allocation
// and peak-memory figures belong to it alone, and parses the result line.
func child(o options, w *workload, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	if trace == 1 && o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut+"."+w.Name+".json")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  | %s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, errors.Join(fmt.Errorf("workload %s printed no result line", w.Name), runErr)
	}
	return &res, runErr
}

// runSet runs every workload with the given trace setting.
func runSet(o options, trace int) (map[string]*result, error) {
	set := map[string]*result{}
	var errs []error
	for i := range workloads {
		w := &workloads[i]
		res, err := child(o, w, trace)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.Name, err))
		}
		if res != nil {
			set[w.Name] = res
		}
	}
	return set, errors.Join(errs...)
}

func printTable(defs []metricDef, set map[string]*result) {
	fmt.Printf("\n%-28s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-28s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			if res := set[w.Name]; res != nil {
				fmt.Printf(" %14.4f", res.Metrics[d.Name].Value)
			} else {
				fmt.Printf(" %14s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %-6s", "failed_share", "ratio")
	for _, w := range workloads {
		if res := set[w.Name]; res != nil {
			fmt.Printf(" %14.4f", float64(res.Failed)/math.Max(1, float64(res.Attempted)))
		} else {
			fmt.Printf(" %14s", "-")
		}
	}
	fmt.Println()
}

// runAll is the one command: every workload untraced, then traced.
func runAll(o options) error {
	plain, err1 := runSet(o, 0)
	traced, err2 := runSet(o, 1)
	fmt.Println("\nend-to-end metrics (tracing off)")
	printTable(endToEnd, plain)
	fmt.Println("\nper-layer metrics (traced run; replayed figures are CPU ms per session)")
	printTable(perLayer, traced)
	return errors.Join(err1, err2)
}

// runAA runs the untraced set twice back to back and prints, per workload
// and metric, how far the second sits from the first next to the bound.
func runAA(o options) error {
	a, err := runSet(o, 0)
	if err != nil {
		return err
	}
	b, err := runSet(o, 0)
	if err != nil {
		return err
	}
	var over []string
	fmt.Printf("\n%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a[w.Name].Metrics[d.Name].Value, b[w.Name].Metrics[d.Name].Value
			diff := math.Abs(y-x) / x
			mark := ""
			if diff > d.Bound {
				mark = "  EXCEEDED"
				over = append(over, w.Name+"/"+d.Name)
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.Name, d.Name, x, y, 100*diff, 100*d.Bound, mark)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("two runs of the same code differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
