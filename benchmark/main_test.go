package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// manifest is ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram fails on drift, either way, between what the
// program emits and what BENCHMARK.json promises.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest {%s %s %s}, program {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, d.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in the manifest, %v in the program", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	for _, name := range attributed {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("attributed lists %q, which is no per-layer metric", name)
		}
	}
}

func checkNames(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var got, want []string
	for name, v := range res.Metrics {
		got = append(got, name+" "+v.Unit)
	}
	for _, d := range defs {
		want = append(want, d.Name+" "+d.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("emitted metrics\n%v\nwant\n%v", got, want)
	}
}

// TestQuickRuns drives every workload through both kinds of run at -quick
// length and checks what they emit.
func TestQuickRuns(t *testing.T) {
	hashes := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 1, seconds: 1, quick: true, traceOut: filepath.Join(t.TempDir(), "spans.json")}
			plain, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, plain, endToEnd)
			if !plain.Correct || plain.Failed != 0 || plain.Attempted != 2 {
				t.Errorf("untraced run: %+v", plain)
			}
			for _, d := range endToEnd {
				if !(plain.Metrics[d.Name].Value > 0) {
					t.Errorf("%s is %v; end-to-end metrics are never 0", d.Name, plain.Metrics[d.Name].Value)
				}
			}

			traced, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, traced, perLayer)
			v := func(name string) float64 { return traced.Metrics[name].Value }
			// At -quick length the replays and the CPU per session are
			// single samples, hence the margin; TestLayersWithinCPU makes
			// the exact check at full length.
			if att, cpu := v("layers.attributed_ms"), v("layers.attributed_ms")+v("layers.unattributed_ms"); att <= 0 || att > 1.3*cpu {
				t.Errorf("layers.attributed_ms %.3f against cpu_ms_per_session %.3f", att, cpu)
			}
			if (v("wire.bytes_worker_links") > 0) != (w.Shards > 1) {
				t.Errorf("wire.bytes_worker_links %.0f on a workload with %d shards", v("wire.bytes_worker_links"), w.Shards)
			}
			if w.WAN && v("wire.tp_recv_wait_ms") <= 0 {
				t.Error("no link wait observed behind the modelled link")
			}
			checkSpans(t, o.traceOut)

			e, err := setup(w, o.seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			hashes[w.Name] = e.refHash
			e.close()
		})
	}
	// Same data, bit-identical by contract.
	if hashes["pair-cpu"] == "" || hashes["pair-cpu"] != hashes["pair-wan"] || hashes["pair-cpu"] != hashes["shard-workers"] {
		t.Errorf("pair-cpu, pair-wan and shard-workers publish different results: %v", hashes)
	}
}

// TestLayersWithinCPU makes the full-length traced run of every workload:
// the replays must not count work twice, so their sum stays at or below the
// CPU a session really costs. About two minutes; -short skips it.
func TestLayersWithinCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length traced runs")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runTraced(w, options{workload: w.Name, seed: 1, seconds: runSeconds, trace: 1})
			if err != nil {
				t.Fatal(err)
			}
			att, rest := res.Metrics["layers.attributed_ms"].Value, res.Metrics["layers.unattributed_ms"].Value
			if att <= 0 || rest < 0 {
				t.Errorf("layers.attributed_ms %.3f against cpu_ms_per_session %.3f", att, att+rest)
			}
		})
	}
}

// checkSpans parses a span file and checks its shape: one root per
// session, every other span under a live parent of the same session and
// not before it, and no negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int64]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		if s.End < s.Start || !nameRE.MatchString(s.Name) {
			t.Fatalf("bad span %+v", s)
		}
		if s.Parent == 0 {
			if s.Name != "session" {
				t.Errorf("root span %+v is no session", s)
			}
		} else if p, ok := byID[s.Parent]; !ok || p.Session != s.Session || s.Start < p.Start {
			t.Errorf("span %+v has no live parent (%+v)", s, p)
		}
		if self := selfTime(s, children[s.ID]); self < 0 {
			t.Errorf("span %+v has self time %d", s, self)
		}
	}
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, upTo := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, upTo), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			upTo = hi
		}
	}
	return s.End - s.Start - covered
}
