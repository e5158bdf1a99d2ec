package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuNow is the process's user+system CPU time so far, holders, third
// party and workers together.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the allocation and GC counters a run is charged by.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPUSeconds             float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// poller samples the live heap and the manager's active-session gauge
// every millisecond while a traced loop runs.
type poller struct {
	stop, done   chan struct{}
	peakLiveHeap uint64
	activeMax    int64
}

func startPoller(active func() int64) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				metrics.Read(live)
				if v := live[0].Value.Uint64(); v > p.peakLiveHeap {
					p.peakLiveHeap = v
				}
				if active != nil {
					if a := active(); a > p.activeMax {
						p.activeMax = a
					}
				}
			}
		}
	}()
	return p
}

// halt stops the poller and waits for it; its peaks are stable afterwards.
func (p *poller) halt() {
	close(p.stop)
	<-p.done
}

// runStats is one closed-loop run of a workload.
type runStats struct {
	durs      []float64 // ms per verified session, in completion order
	attempted int
	failed    int
	wallS     float64
	cpu       time.Duration // process CPU over the run
	rt        runtimeSample // deltas over the run
	wire      [numClasses]int64
	firstErr  error
}

func (r *runStats) ok() int { return r.attempted - r.failed }

func (r *runStats) perSession(v float64) float64 {
	if r.ok() == 0 {
		return 0
	}
	return v / float64(r.ok())
}

// percentile is over every verified session of the run.
func (r *runStats) percentile(p float64) float64 {
	durs := append([]float64(nil), r.durs...)
	sort.Float64s(durs)
	return percentile(durs, p)
}

func (r *runStats) cpuMs() float64 { return r.perSession(float64(r.cpu) / 1e6) }

// measure drives the workload's closed loop: each of its clients starts
// its next session only after the previous one completed and verified.
// The loop ends after `sessions` sessions when that is positive, otherwise
// once `seconds` have passed. tr switches tracing on.
func (e *env) measure(seconds float64, sessions int, tr *tracer) *runStats {
	r := &runStats{}
	var mu sync.Mutex
	var claimed atomic.Int64
	deadline := time.Duration(seconds * float64(time.Second))

	rt0, cpu0, start := readRuntime(), cpuNow(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := claimed.Add(1)
				if sessions > 0 && n > int64(sessions) {
					return
				}
				if sessions <= 0 && time.Since(start) >= deadline {
					return
				}
				var st *sessionTrace
				if tr != nil {
					st = tr.beginSession()
				}
				out, err := e.runSession(st, false)
				if err == nil {
					err = e.check(out)
				}
				mu.Lock()
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				} else {
					r.durs = append(r.durs, float64(out.dur)/1e6)
					for c, b := range out.bytes {
						r.wire[c] += b
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.cpu = cpuNow() - cpu0
	rt1 := readRuntime()
	r.rt = runtimeSample{rt1.allocBytes - rt0.allocBytes, rt1.allocObjects - rt0.allocObjects, rt1.gcCPUSeconds - rt0.gcCPUSeconds}
	return r
}

// endToEndValues turns an untraced run into the end-to-end metrics, each
// taken over every verified session of the run.
func endToEndValues(r *runStats, setupS float64) map[string]float64 {
	var wire int64
	for _, b := range r.wire {
		wire += b
	}
	return map[string]float64{
		"setup_s":              setupS,
		"session_ms_p50":       r.percentile(0.50),
		"session_ms_p90":       r.percentile(0.90),
		"sessions_per_s":       float64(r.ok()) / r.wallS,
		"cpu_ms_per_session":   r.cpuMs(),
		"wire_mb_per_session":  r.perSession(float64(wire)) / 1e6,
		"alloc_mb_per_session": r.perSession(float64(r.rt.allocBytes)) / 1e6,
	}
}

func (r *runStats) describe() string {
	return fmt.Sprintf("%d sessions attempted, %d failed, %.2f s measured", r.attempted, r.failed, r.wallS)
}
