package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestServeScheduleIsSeeded(t *testing.T) {
	a, b := serveSchedule(7, 3), serveSchedule(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, serveSchedule(8, 3)) {
		t.Fatal("two seeds gave the same request sequence")
	}
	if len(a) < serveRate || len(a) > serveRate*3 {
		t.Fatalf("got %d requests from %d arrivals", len(a), serveRate*3)
	}
	firstDue := map[[2]int64]time.Duration{}
	for _, k := range warmKeys() {
		firstDue[[2]int64{int64(k.Cell), k.Seed}] = k.Due
	}
	fresh := 0
	cells := map[int]int{}
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		k := [2]int64{int64(r.Cell), r.Seed}
		if !r.Fresh && i > 0 && a[i-1].Fresh && r.Due-a[i-1].Due < serveQuiet {
			t.Fatalf("request %d is due %v after a fresh one, inside the quiet gap", i, r.Due-a[i-1].Due)
		}
		if r.Fresh {
			fresh++
			cells[r.Cell]++
			if _, seen := firstDue[k]; seen {
				t.Fatalf("fresh request %d reuses key %v", i, k)
			}
			firstDue[k] = r.Due
			continue
		}
		due, seen := firstDue[k]
		if !seen || r.Due-due < serveLag {
			t.Fatalf("repeat %d asks for key %v before it is eligible", i, k)
		}
	}
	if fresh != serveFresh*3 {
		t.Fatalf("got %d fresh requests, want %d", fresh, serveFresh*3)
	}
	for c := range serveCells {
		if cells[c] != 2 {
			t.Fatalf("cell %d computed %d times, want 2 (12 fresh over %d cells)", c, cells[c], len(serveCells))
		}
	}
}

func TestSessionSequenceIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(sessionSpecs(3), sessionSpecs(3)) {
		t.Fatal("the same seed gave two different spec pools")
	}
	k := len(sessionSpecs(3))
	for n := 0; n < 3*k; n++ {
		if sessionOrder(3, n) != sessionOrder(3, n) {
			t.Fatalf("session %d: order not deterministic", n)
		}
		a, b := stepRounds(3, n), stepRounds(3, n)
		for step := 0; step < 60; step++ {
			ra, rb := a(), b()
			if ra != rb {
				t.Fatalf("session %d step %d: rounds %d then %d", n, step, ra, rb)
			}
			if ra < sessionRoundsMin || ra > sessionRoundsMax {
				t.Fatalf("rounds %d outside [%d, %d]", ra, sessionRoundsMin, sessionRoundsMax)
			}
		}
	}
	// Every cycle through the pool mounts each spec exactly once.
	for cycle := 0; cycle < 3; cycle++ {
		seen := map[int]bool{}
		for i := 0; i < k; i++ {
			seen[sessionOrder(3, cycle*k+i)] = true
		}
		if len(seen) != k {
			t.Fatalf("cycle %d mounted %d distinct specs, want %d", cycle, len(seen), k)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{20, 0.50, true, 10},
		{19, 0.50, false, 0},
		{0, 0.50, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

const sampleTop = `File: tpperf
Type: cpu
Duration: 10s, Total samples = 9.30s (93.00%)
Showing nodes accounting for 9.30s, 100% of 9.30s total
      flat  flat%   sum%        cum   cum%
     3.20s 34.41% 34.41%      4.10s 44.09%  timeprotection/internal/cache.(*Cache).touch
     1.50s 16.13% 50.54%      1.50s 16.13%  timeprotection/internal/mi.(*estimator).binnedDensity
     1.10s 11.83% 62.37%      1.10s 11.83%  runtime.scanobject
     0.90s  9.68% 72.04%      0.90s  9.68%  runtime.memmove
     0.80s  8.60% 80.65%      0.80s  8.60%  timeprotection/internal/snapshot.Memo[go.shape.*uint8]
     0.60s  6.45% 87.10%      0.60s  6.45%  net/http.(*conn).serve
     0.40s  4.30% 91.40%      0.40s  4.30%  syscall.Syscall6
     0.30s  3.23% 94.62%      0.30s  3.23%  timeprotection/internal/cluster/clustertest.Start
     0.20s  2.15% 96.77%      0.20s  2.15%  runtime.gcBgMarkWorker
     0.15s  1.61% 98.39%      0.15s  1.61%  encoding/json.(*encodeState).marshal
     0.10s  1.08% 99.46%      0.10s  1.08%  main.sendSchedule.func1
     50ms  0.54%   100%       50ms  0.54%  main.main
         0     0%   100%      9.30s   100%  runtime.goexit
`

func TestReduceTopPartitionsSamples(t *testing.T) {
	layers, total, err := reduceTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-9.30) > 1e-9 {
		t.Fatalf("total %v, want 9.30", total)
	}
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("layers sum to %v of %v: a sample was dropped or counted twice", sum, total)
	}
	want := map[string]float64{
		"cache": 3.20, "mi": 1.50, "gc": 1.30, "runtime": 0.90, "snapshot": 0.80,
		"http": 0.60, "syscall": 0.40, "cluster": 0.30, "other": 0.15, "bench": 0.15,
	}
	for l, w := range want {
		if math.Abs(layers[l]-w) > 1e-9 {
			t.Errorf("layer %s = %v, want %v", l, layers[l], w)
		}
	}
	if len(layers) != len(want) {
		t.Errorf("layers %v, want exactly %v", layers, want)
	}
}

// TestReduceRealProfile reduces a real profile of this test through `go
// tool pprof -top`, so the parser is held to the tool's actual format.
func TestReduceRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 1<<16)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := range xs {
			xs[i] = float64(i)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	top, err := pprofTop(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	layers, total, err := reduceTop(top)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	if total <= 0 || math.Abs(sum-total) > 1e-9 {
		t.Fatalf("layers %v sum to %v of total %v", layers, sum, total)
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json at the repository
// root to the workloads and metric declarations the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the code has %d", names, len(workloads))
	}
	if !reflect.DeepEqual(cfg.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", cfg.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(cfg.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", cfg.PerLayer, perLayer)
	}
}

// TestResultHoldsEveryMetric checks the shape of the result line: every
// end-to-end metric on every workload, never 0, and every per-layer
// metric, with 0 for a class the workload lacks or a refused tail.
func TestResultHoldsEveryMetric(t *testing.T) {
	e2e := map[string]float64{}
	for i, d := range endToEnd {
		e2e[d.Name] = float64(i + 1)
	}
	res, err := newResult(1, 0, e2e, endToEnd, false)
	if err != nil || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("complete end-to-end set: %v, %d metrics", err, len(res.Metrics))
	}
	for _, bad := range []float64{0, math.NaN()} {
		e2e["op_p50_ms"] = bad
		if _, err := newResult(1, 0, e2e, endToEnd, false); err == nil {
			t.Errorf("end-to-end op_p50_ms = %v was accepted", bad)
		}
	}
	delete(e2e, "op_p50_ms")
	if _, err := newResult(1, 0, e2e, endToEnd, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}

	layers := map[string]float64{"bench.served_p99_ms": math.NaN(), "cpu.cache_s": 1.5}
	res, err = newResult(1, 0, layers, perLayer, true)
	if err != nil || len(res.Metrics) != len(perLayer) {
		t.Fatalf("per-layer set: %v, %d of %d metrics", err, len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["bench.served_p99_ms"].Value; v != 0 {
		t.Errorf("refused per-layer tail reads %v, want 0", v)
	}
	if v := res.Metrics["cpu.cache_s"].Value; v != 1.5 {
		t.Errorf("cpu.cache_s reads %v, want 1.5", v)
	}
}
