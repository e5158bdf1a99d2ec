package party

// The per-request reference tail — until ISSUE 25 the body of
// ThirdParty.finish's holder loop, now the in-package oracle the shared
// tail (clusterAll) is pinned against, the way serial_oracle_test.go pins
// the session pipeline. It shares nothing across requests: every request
// pays its own merge into a fresh triangle, its own clustering run, two
// cuts and its own scoring.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppclust/internal/alloccheck"
	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/pam"
	"ppclust/internal/rng"
)

// cluster merges the attribute matrices under the request's weights, runs
// the requested clustering algorithm and packages the published result.
func (tp *ThirdParty) cluster(matrices []*dissim.Matrix, req requestBody) (*Result, error) {
	merged, err := dissim.WeightedMergePar(matrices, req.Weights, tp.workers)
	if err != nil {
		return nil, err
	}
	method := Method(req.Method)
	link := hcluster.Linkage(req.Linkage)
	if merged.N() == 0 {
		// A census of zero objects (all holders empty) publishes an empty
		// result rather than failing the session.
		return &Result{Method: method, Linkage: link, K: 0}, nil
	}
	k := req.K
	if k < 1 {
		k = 1
	}
	if k > merged.N() {
		k = merged.N()
	}

	var clusters [][]int
	var labels []int
	switch method {
	case MethodAgglomerative, MethodDiana:
		var dg *hcluster.Dendrogram
		if method == MethodDiana {
			dg, err = hcluster.DianaPar(merged, tp.workers)
		} else {
			dg, err = hcluster.ClusterPar(merged, link, tp.workers)
		}
		if err != nil {
			return nil, err
		}
		if clusters, err = dg.CutK(k); err != nil {
			return nil, err
		}
		if labels, err = dg.Labels(k); err != nil {
			return nil, err
		}
	case MethodPAM:
		seed := rng.SeedFromBytes([]byte(fmt.Sprintf("ppc/pam/%d/%d", merged.N(), k)))
		res, err := pam.Cluster(merged, k, rng.NewXoshiro(seed), pam.Config{Workers: tp.workers})
		if err != nil {
			return nil, err
		}
		clusters = res.Clusters()
		labels = res.Labels
	default:
		return nil, fmt.Errorf("party: unknown clustering method %d", req.Method)
	}

	quality, err := hcluster.QualityPar(merged, clusters, tp.workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Quality: quality, Method: method, Linkage: link, K: k}
	if k >= 2 {
		if s, err := hcluster.SilhouettePar(merged, labels, tp.workers); err == nil {
			res.Silhouette = s
		}
	}
	ids := tp.objectIDs()
	for _, members := range clusters {
		objs := make([]dataset.ObjectID, len(members))
		for i, m := range members {
			objs[i] = ids[m]
		}
		res.Clusters = append(res.Clusters, objs)
	}
	return res, nil
}

// oracleTail is the parent's finish loop: every request through cluster, in
// holder order, failing at the first holder whose request does.
func (tp *ThirdParty) oracleTail(matrices []*dissim.Matrix, reqs []requestBody) (map[string]*Result, error) {
	out := make(map[string]*Result)
	for hi, h := range tp.holders {
		res, err := tp.cluster(matrices, reqs[hi])
		if err != nil {
			return nil, fmt.Errorf("party: clustering for %s: %w", h, err)
		}
		out[h] = res
	}
	return out, nil
}

// sharedTail runs the tail under test over buffered requests.
func (tp *ThirdParty) sharedTail(matrices []*dissim.Matrix, reqs []requestBody) (map[string]*Result, error) {
	return tp.clusterAll(matrices, tp.objectIDs(), func(hi int) (requestBody, error) { return reqs[hi], nil })
}

// bareTP is a third party past its census with nothing but what the tail
// reads: holders "A", "B", … owning counts objects, and a worker budget.
func bareTP(workers int, counts ...int) *ThirdParty {
	tp := &ThirdParty{counts: counts, workers: workers}
	for i := range counts {
		tp.holders = append(tp.holders, string(rune('A'+i)))
	}
	return tp
}

// tailMatrices draws attrs normalized random attribute matrices over n
// objects. Continuous values, so no linkage meets an exact tie.
func tailMatrices(n, attrs int, seed uint64) []*dissim.Matrix {
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	ms := make([]*dissim.Matrix, attrs)
	for a := range ms {
		ms[a] = dissim.FromLocal(n, func(i, j int) float64 { return rng.Float64(s) + 0.01 })
		ms[a].Normalize()
	}
	return ms
}

func packedBits(ms []*dissim.Matrix) [][]uint64 {
	out := make([][]uint64, len(ms))
	for a, m := range ms {
		for _, v := range m.PackedView() {
			out[a] = append(out[a], math.Float64bits(v))
		}
	}
	return out
}

// assertSameResult demands == on every float and deep-equal memberships.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if want.Method != got.Method || want.Linkage != got.Linkage || want.K != got.K {
		t.Fatalf("%s: echo (%v,%v,%d), oracle (%v,%v,%d)", label, got.Method, got.Linkage, got.K, want.Method, want.Linkage, want.K)
	}
	if want.Silhouette != got.Silhouette {
		t.Fatalf("%s: silhouette %v, oracle %v", label, got.Silhouette, want.Silhouette)
	}
	if len(want.Quality) != len(got.Quality) {
		t.Fatalf("%s: %d quality rows, oracle %d", label, len(got.Quality), len(want.Quality))
	}
	for c := range want.Quality {
		if want.Quality[c] != got.Quality[c] {
			t.Fatalf("%s: cluster %d quality %+v, oracle %+v", label, c, got.Quality[c], want.Quality[c])
		}
	}
	if !reflect.DeepEqual(want.Clusters, got.Clusters) {
		t.Fatalf("%s: memberships differ from the oracle's", label)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ in nil-ness: %#v vs oracle %#v", label, got, want)
	}
}

func agglo(link hcluster.Linkage, k int, weights ...float64) requestBody {
	return requestBody{Weights: weights, Method: int(MethodAgglomerative), Linkage: int(link), K: k}
}

// TestTailMatchesPerRequestOracle is the differential: whatever the
// requests share — everything, the dendrogram, the merge, nothing — every
// holder is published exactly what the per-request tail would have
// computed for it alone, at workers 1 and 2, and the attribute matrices
// come out bit-unchanged (the merge of a unit weight vector IS one of them).
func TestTailMatchesPerRequestOracle(t *testing.T) {
	avg := func(k int, w ...float64) requestBody { return agglo(hcluster.Average, k, w...) }
	method := func(m Method, k int, w ...float64) requestBody {
		return requestBody{Weights: w, Method: int(m), Linkage: int(hcluster.Complete), K: k}
	}
	cases := []struct {
		name   string
		counts []int
		attrs  int
		reqs   []requestBody
	}{
		{"identical", []int{20, 21}, 1, []requestBody{avg(4, 1), avg(4, 1)}},
		{"identical-two-attrs", []int{20, 21}, 2, []requestBody{avg(4, 1, 3), avg(4, 1, 3)}},
		{"same-weights-different-k", []int{15, 16, 10}, 2, []requestBody{avg(2, 1, 1), avg(5, 1, 1), avg(2, 1, 1)}},
		{"same-weights-different-linkage", []int{15, 16, 10}, 2, []requestBody{
			agglo(hcluster.Single, 3, 1, 2), agglo(hcluster.Ward, 3, 1, 2), agglo(hcluster.Centroid, 3, 1, 2)}},
		{"every-linkage", []int{9, 8, 7, 6, 5}, 1, []requestBody{
			agglo(hcluster.Complete, 3, 1), agglo(hcluster.Weighted, 3, 1), agglo(hcluster.Median, 3, 1),
			agglo(hcluster.Complete, 4, 1), agglo(hcluster.Single, 3, 1)}},
		{"agglomerative-diana-pam", []int{14, 13, 12}, 2, []requestBody{
			method(MethodAgglomerative, 3, 1, 1), method(MethodDiana, 3, 1, 1), method(MethodPAM, 3, 1, 1)}},
		{"diana-pam-shared-and-not", []int{10, 10, 10, 10, 11}, 1, []requestBody{
			method(MethodDiana, 2, 1), method(MethodDiana, 4, 1), method(MethodPAM, 2, 1),
			method(MethodPAM, 2, 1), method(MethodPAM, 4, 1)}},
		{"distinct-weights", []int{17, 18}, 3, []requestBody{avg(3, 1, 2, 3), avg(3, 3, 2, 1)}},
		{"scalar-multiples", []int{17, 18}, 2, []requestBody{avg(3, 2, 2), avg(3, 1, 1)}},
		{"single-nonzero-weight", []int{17, 18, 4}, 3, []requestBody{avg(3, 0, 5, 0), avg(3, 0, 0.25, 0), avg(3, 0, 0, 1)}},
		{"k-clamped-low", []int{11, 12}, 1, []requestBody{avg(0, 1), avg(1, 1)}},
		{"k-clamped-negative", []int{11, 12}, 1, []requestBody{avg(-7, 1), avg(2, 1)}},
		{"k-clamped-high", []int{11, 12}, 1, []requestBody{avg(23, 1), avg(1000, 1)}},
		{"k-clamped-pam", []int{6, 5}, 1, []requestBody{method(MethodPAM, 0, 1), method(MethodPAM, 99, 1)}},
		{"one-holder", []int{25}, 2, []requestBody{avg(3, 1, 1)}},
		{"five-holders", []int{5, 0, 7, 3, 6}, 2, []requestBody{avg(3, 1, 1), avg(3, 1, 1), avg(2, 1, 1), avg(3, 1, 0), avg(3, 1, 1)}},
		{"n=0", []int{0, 0}, 2, []requestBody{avg(3, 1, 1), method(MethodPAM, 0, 1, 2)}},
		{"n=0-any-method", []int{0, 0}, 1, []requestBody{method(Method(9), 2, 1), agglo(hcluster.Linkage(42), 2, 1)}},
		{"n=1", []int{1, 0}, 1, []requestBody{avg(3, 1), method(MethodDiana, 1, 1)}},
		{"n=2", []int{1, 1}, 1, []requestBody{avg(2, 1), method(MethodPAM, 2, 1)}},
		{"n=odd", []int{30, 31}, 2, []requestBody{avg(4, 1, 1), avg(4, 1, 1)}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				tp := bareTP(workers, tc.counts...)
				ms := tailMatrices(len(tp.objectIDs()), tc.attrs, 25)
				before := packedBits(ms)
				want, err := tp.oracleTail(ms, tc.reqs)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				got, err := tp.sharedTail(ms, tc.reqs)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d results for %d holders", len(got), len(want))
				}
				for _, h := range tp.holders {
					assertSameResult(t, "holder "+h, want[h], got[h])
				}
				if !reflect.DeepEqual(before, packedBits(ms)) {
					t.Fatal("the tail wrote an attribute matrix")
				}
			})
		}
	}
}

// TestTailScoresCoincidingMedoids: over identical objects PAM's medoids
// coincide and its partition has empty clusters; the tail still publishes
// exactly what the per-request tail does (Size-0 quality rows, silhouette 0)
// instead of failing the session.
func TestTailScoresCoincidingMedoids(t *testing.T) {
	tp := bareTP(1, 4, 3)
	ms := []*dissim.Matrix{dissim.New(7)}
	reqs := []requestBody{
		{Weights: []float64{1}, Method: int(MethodPAM), K: 3},
		{Weights: []float64{1}, Method: int(MethodPAM), K: 2},
	}
	want, err := tp.oracleTail(ms, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tp.sharedTail(ms, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tp.holders {
		if want[h].Quality[len(want[h].Quality)-1].Size != 0 {
			t.Fatalf("holder %s: PAM left no cluster empty — the case is not exercised", h)
		}
		assertSameResult(t, "holder "+h, want[h], got[h])
	}
}

// TestTailKeys pins what counts as the same request: scalar multiples of a
// weight vector, and every k clamped to the same end of [1, n].
func TestTailKeys(t *testing.T) {
	tp := bareTP(1, 4, 5)
	tl := &tail{matrices: tailMatrices(9, 2, 1), ids: tp.objectIDs()}
	key := func(req requestBody) tailKey {
		t.Helper()
		k, err := tl.keyOf(req)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := [][2]requestBody{
		{agglo(hcluster.Average, 3, 2, 2), agglo(hcluster.Average, 3, 1, 1)},
		{agglo(hcluster.Average, 3, 0.75, 0.25), agglo(hcluster.Average, 3, 3, 1)},
		{agglo(hcluster.Average, 3, 0, 7), agglo(hcluster.Average, 3, 0, 0.001)},
		{agglo(hcluster.Average, 0, 1, 1), agglo(hcluster.Average, 1, 1, 1)},
		{agglo(hcluster.Average, -3, 1, 1), agglo(hcluster.Average, 1, 1, 1)},
		{agglo(hcluster.Average, 9, 1, 1), agglo(hcluster.Average, 10, 1, 1)},
		{agglo(hcluster.Average, 9, 1, 1), agglo(hcluster.Average, 1<<40, 1, 1)},
	}
	for i, p := range same {
		if a, b := key(p[0]), key(p[1]); a != b {
			t.Errorf("pair %d: %+v and %+v must share, keys %+v vs %+v", i, p[0], p[1], a, b)
		}
	}
	base := agglo(hcluster.Average, 3, 1, 1)
	different := []requestBody{
		agglo(hcluster.Average, 3, 1, 2),
		agglo(hcluster.Average, 3, 1, math.Nextafter(1, 2)),
		agglo(hcluster.Average, 4, 1, 1),
		agglo(hcluster.Single, 3, 1, 1),
		{Weights: []float64{1, 1}, Method: int(MethodDiana), Linkage: int(hcluster.Average), K: 3},
	}
	for i, req := range different {
		if key(req) == key(base) {
			t.Errorf("request %d: %+v shares a key with %+v", i, req, base)
		}
	}
}

// TestTailResultsNeverAlias: holders that asked for the same thing are each
// published their own copy.
func TestTailResultsNeverAlias(t *testing.T) {
	tp := bareTP(2, 10, 10, 10)
	ms := tailMatrices(30, 1, 3)
	req := agglo(hcluster.Average, 3, 1)
	got, err := tp.sharedTail(ms, []requestBody{req, req, req})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tp.cluster(ms, req)
	if err != nil {
		t.Fatal(err)
	}
	a := got["A"]
	a.Clusters[0][0] = dataset.ObjectID{Site: "mallory", Index: -1}
	a.Clusters[1] = nil
	a.Clusters = a.Clusters[:1]
	a.Quality[0] = hcluster.ClusterQuality{Size: -1}
	a.Silhouette, a.K = 42, 42
	assertSameResult(t, "holder B after A's result was mutated", want, got["B"])
	assertSameResult(t, "holder C after A's result was mutated", want, got["C"])
}

// allocTriangles reports the bytes run allocates less frameBufferBytes', in
// packed float64 triangles over n objects: the least of three runs, so a
// stray allocation by a finished test's winding-down goroutine cannot fail
// it. Each run is read alone, because frameBufferBytes reads its own.
func allocTriangles(n int, run func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		frames := frameBufferBytes()
		bytes, _ := alloccheck.Least(1, run)
		least = math.Min(least, float64(bytes)-float64(frameBufferBytes()-frames))
	}
	return least / float64(8*n*(n-1)/2)
}

// TestTailRejectsBadRequestBeforeClustering: a malformed request anywhere
// in holder order fails the session with the per-request tail's message —
// naming the first holder in holder order that sent one — and before the
// good requests ahead of it were clustered (no working copy, no merge
// triangle was allocated).
func TestTailRejectsBadRequestBeforeClustering(t *testing.T) {
	const n = 300
	good := agglo(hcluster.Average, 4, 1, 1)
	bad := map[string]requestBody{
		"too-few-weights":  agglo(hcluster.Average, 4, 1),
		"too-many-weights": agglo(hcluster.Average, 4, 1, 1, 1),
		"no-weights":       agglo(hcluster.Average, 4),
		"negative-weight":  agglo(hcluster.Average, 4, 1, -1),
		"nan-weight":       agglo(hcluster.Average, 4, math.NaN(), 1),
		"inf-weight":       agglo(hcluster.Average, 4, 1, math.Inf(1)),
		"all-zero-weights": agglo(hcluster.Average, 4, 0, 0),
		"unknown-method":   {Weights: []float64{1, 1}, Method: 7, K: 4},
		"negative-method":  {Weights: []float64{1, 1}, Method: -1, K: 4},
		"invalid-linkage":  agglo(hcluster.Linkage(7), 4, 1, 1),
		"negative-linkage": agglo(hcluster.Linkage(-1), 4, 1, 1),
	}
	tp := bareTP(2, n/3, n/3, n/3)
	ms := tailMatrices(n, 2, 8)
	for name, req := range bad {
		t.Run(name, func(t *testing.T) {
			for _, reqs := range [][]requestBody{{good, good, req}, {good, req, bad["all-zero-weights"]}, {req, good, good}} {
				_, want := tp.oracleTail(ms, reqs)
				if want == nil {
					t.Fatal("the oracle accepts the request")
				}
				var got error
				cost := allocTriangles(n, func() { _, got = tp.sharedTail(ms, reqs) })
				if got == nil || got.Error() != want.Error() {
					t.Fatalf("error %v, oracle %v", got, want)
				}
				if !strings.HasPrefix(got.Error(), "party: clustering for ") {
					t.Fatalf("unclassified message %q", got)
				}
				if cost > 0.25 {
					t.Fatalf("rejecting allocated %.2f triangles: a good request was clustered first", cost)
				}
			}
		})
	}
	// A bad linkage matters only to the method that reads it.
	reqs := []requestBody{
		{Weights: []float64{1, 1}, Method: int(MethodDiana), Linkage: 99, K: 2},
		{Weights: []float64{1, 1}, Method: int(MethodPAM), Linkage: -5, K: 2},
	}
	small := bareTP(1, 6, 6)
	sms := tailMatrices(12, 2, 8)
	want, err := small.oracleTail(sms, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := small.sharedTail(sms, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range small.holders {
		assertSameResult(t, "holder "+h, want[h], got[h])
	}
}

// TestTailRequestReadErrorWins: a request that cannot be read fails the
// session with the read's own error, unwrapped.
func TestTailRequestReadErrorWins(t *testing.T) {
	tp := bareTP(1, 3, 3)
	boom := fmt.Errorf("lane severed")
	_, err := tp.clusterAll(tailMatrices(6, 1, 1), tp.objectIDs(), func(hi int) (requestBody, error) {
		if hi == 1 {
			return requestBody{}, boom
		}
		return agglo(hcluster.Average, 2, 1), nil
	})
	if err != boom {
		t.Fatalf("got %v, want the read error itself", err)
	}
}

// TestTailAllocationPin is the pin that a second merge or working copy does
// not creep back. Two identical one-attribute average-linkage requests at
// n = 600 — the pair-cpu tail at a quarter of the cells — need one NN-chain
// working copy and no merge triangle; the per-request tail spends two of
// each (> 4 triangles). The other rows pin each sharing level on its own.
func TestTailAllocationPin(t *testing.T) {
	const n = 600
	avg := func(k int, w ...float64) requestBody { return agglo(hcluster.Average, k, w...) }
	cases := []struct {
		name      string
		attrs     int
		reqs      []requestBody
		triangles float64 // upper bound; the oracle must exceed it
	}{
		{"identical one-attribute requests", 1, []requestBody{avg(4, 1), avg(4, 1)}, 1.5},
		{"same dendrogram, different k", 1, []requestBody{avg(2, 1), avg(9, 1)}, 1.5},
		{"scalar multiples share merge and dendrogram", 2, []requestBody{avg(4, 2, 2), avg(4, 1, 1)}, 2.5},
		{"same weights, different linkage share the merge", 2, []requestBody{avg(4, 1, 1), agglo(hcluster.Single, 4, 1, 1)}, 2.8},
		{"one non-zero weight is no merge", 3, []requestBody{agglo(hcluster.Single, 4, 0, 3, 0), agglo(hcluster.Single, 4, 0, 1, 0)}, 0.5},
	}
	tp := bareTP(2, n/2, n/2)
	for _, tc := range cases {
		ms := tailMatrices(n, tc.attrs, 6)
		shared := allocTriangles(n, func() {
			if _, err := tp.sharedTail(ms, tc.reqs); err != nil {
				t.Fatal(err)
			}
		})
		oracle := allocTriangles(n, func() {
			if _, err := tp.oracleTail(ms, tc.reqs); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f triangles, per-request tail %.2f", tc.name, shared, oracle)
		if shared >= tc.triangles {
			t.Errorf("%s: the tail allocated %.2f triangles, want < %.1f", tc.name, shared, tc.triangles)
		}
		if oracle <= tc.triangles {
			t.Errorf("%s: the per-request tail allocated only %.2f triangles — the bound %.1f pins nothing", tc.name, oracle, tc.triangles)
		}
	}
}

// resultsHash digests what a session published, holder by holder: every
// float by its bits, every membership in order.
func resultsHash(holders []string, results map[string]*Result) string {
	h := sha256.New()
	for _, name := range holders {
		r := results[name]
		fmt.Fprintf(h, "%s|%d|%d|%d|%x\n", name, r.Method, r.Linkage, r.K, math.Float64bits(r.Silhouette))
		for _, q := range r.Quality {
			fmt.Fprintf(h, "q|%d|%x|%x\n", q.Size, math.Float64bits(q.AvgSquaredDistance), math.Float64bits(q.Diameter))
		}
		for _, members := range r.Clusters {
			fmt.Fprintf(h, "c|%v\n", members)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// tailSessionShape builds a benchmark workload's shape at test size:
// pair (2 holders, one numeric attribute, identical average-linkage
// requests — pair-cpu) or mixed (3 holders, numeric + DNA + categorical,
// average / single / PAM — mixed-cpu). ties makes the pair's values
// integers in 0..20, so most cells of the matrix tie exactly.
func tailSessionShape(mixed, ties bool, rows int) shapeData {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	sites := []string{"A", "B"}
	reqs := map[string]ClusterRequest{
		"A": {Linkage: hcluster.Average, K: 4},
		"B": {Linkage: hcluster.Average, K: 4},
	}
	if mixed {
		schema = dataset.Schema{Attrs: []dataset.Attribute{
			{Name: "age", Type: dataset.Numeric},
			{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
			{Name: "city", Type: dataset.Categorical},
		}}
		sites = []string{"A", "B", "C"}
		reqs = map[string]ClusterRequest{
			"A": {Linkage: hcluster.Average, K: 3},
			"B": {Linkage: hcluster.Single, K: 3},
			"C": {Method: MethodPAM, K: 3},
		}
	}
	s := rng.NewXoshiro(rng.SeedFromUint64(2525))
	var parts []dataset.Partition
	for _, site := range sites {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < rows; r++ {
			family := rng.Symbol(s, 4)
			x := float64(family)*10 + rng.Float64(s)
			if ties {
				x = float64(rng.Symbol(s, 21))
			}
			if !mixed {
				tab.MustAppendRow(x)
				continue
			}
			dna := make([]byte, 8)
			for i := range dna {
				dna[i] = "ACGT"[(family+rng.Symbol(s, 2))%4]
			}
			tab.MustAppendRow(x, string(dna), []string{"ankara", "izmir", "bursa", "van"}[(family+rng.Symbol(s, 2))%4])
		}
		parts = append(parts, dataset.Partition{Site: site, Table: tab})
	}
	return shapeData{parts, reqs}
}
