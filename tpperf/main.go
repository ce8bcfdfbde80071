// Command tpperf is the repository's benchmark. It runs one workload
// per invocation from the root of a checkout, checks the program's
// outputs, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Usage (see README.md in this directory for what each workload does
// and how to read the metrics):
//
//	bash tpperf/run.sh --workload paper|serve|sessions --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of one untraced pass.
// With --trace 1 it runs an untraced pass and then a traced pass of the
// same workload and seed, and prints the per-layer metrics of the
// traced pass plus bench.trace_overhead_frac; the spans (Chrome
// trace-event format), the CPU profile and the counter deltas are
// written under .bench_build/tpperf/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"timeprotection/internal/core"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what one pass of a workload is given.
type env struct {
	seed    int64
	seconds int
	work    string  // empty scratch directory inside the checkout
	tr      *Tracer // nil on an untraced pass
}

// pass is what one pass of a workload measured. attempted counts the
// operations whose output was checked; failed counts those that erred,
// were refused or produced wrong output.
type pass struct {
	attempted, failed int
	e2e               map[string]float64
	// classes are the workload's own classMetrics.
	classes map[string]float64
	layers  map[string]float64
	// sim, when non-nil, is the workload's counters-only simulation
	// pass; the traced run calls it after the profile stops.
	sim func() ([]*trace.Sink, error)
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, classes: map[string]float64{}, layers: map[string]float64{}}
}

// setOps stores the end-to-end metrics of a workload's operations:
// n operations in wall seconds of timed region, and the median of the
// latencies lat. A median is not a tail, so the 10-beyond rule does not
// apply to it.
func (p *pass) setOps(n int, wall float64, lat []float64) {
	if wall > 0 {
		p.e2e["ops_per_s"] = float64(n) / wall
	}
	p.e2e["op_p50_ms"] = median(lat)
}

func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		fmt.Fprintf(os.Stderr, "tpperf: check failed: "+format+"\n", args...)
	}
}

// setPercentile stores the q-quantile of xs under name when the
// 10-beyond rule allows it. No samples at all store 0; a tail with too
// few samples is stored as NaN and reported on standard error. newResult
// refuses either as an end-to-end metric and prints a per-layer one as 0.
func setPercentile(m map[string]float64, name string, xs []float64, q float64) {
	if len(xs) == 0 {
		m[name] = 0
		return
	}
	v, ok := percentile(xs, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "tpperf: %s: %d samples are too few for p%g\n", name, len(xs), q*100)
		v = math.NaN()
	}
	m[name] = v
}

type workloadFunc func(env) (*pass, error)

var workloads = map[string]workloadFunc{
	"paper":    runPaper,
	"serve":    runServe,
	"sessions": runSessions,
}

func main() {
	name := flag.String("workload", "", "paper, serve or sessions")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long one pass measures")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintf(os.Stderr, "tpperf: %v\n", err)
		os.Exit(2)
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*name, run, *seed, *seconds)
	} else {
		res, err = untracedRun(run, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpperf: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printResult(res)
}

// outRoot is where passes keep scratch state and the traced run leaves
// its artefacts; relative to the checkout root, which .gitignore
// excludes.
const outRoot = ".bench_build/tpperf"

func checkCheckout() error {
	for _, f := range []string{"go.mod", "internal/experiments", "tpperf/go.mod"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the root of a checkout: %w", err)
		}
	}
	return nil
}

// runPass gives the workload a fresh scratch directory and removes it
// afterwards.
func runPass(run workloadFunc, seed int64, seconds int, tr *Tracer) (*pass, error) {
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outRoot, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	return run(env{seed: seed, seconds: seconds, work: work, tr: tr})
}

func untracedRun(run workloadFunc, seed int64, seconds int) (*result, error) {
	p, err := runPass(run, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range classMetrics {
		if v, ok := p.classes[c.Name]; ok && !math.IsNaN(v) {
			fmt.Printf("%-34s %14.6g %s\n", c.Name, v, c.Unit)
		}
	}
	return newResult(p.attempted, p.failed, p.e2e, endToEnd, false)
}

// tracedRun measures the workload untraced, then again with spans, a
// CPU profile and counter deltas, and reports the per-layer metrics of
// the second pass.
func tracedRun(name string, run workloadFunc, seed int64, seconds int) (*result, error) {
	base, err := runPass(run, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(outRoot, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	tr := newTracer()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	snapBefore := snapshot.Stats()
	stop, err := startCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	p, err := runPass(run, seed, seconds, tr)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	snapAfter := snapshot.Stats()

	l := p.layers
	l["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	l["snapshot.captures"] = float64(snapAfter.Captures - snapBefore.Captures)
	l["snapshot.forks"] = float64(snapAfter.Forks - snapBefore.Forks)
	l["snapshot.memo_hits"] = float64(snapAfter.MemoHits - snapBefore.MemoHits)
	l["snapshot.disk_hits"] = float64(snapAfter.DiskHits - snapBefore.DiskHits)
	for k, v := range base.classes {
		l[k] = v
	}
	if b, t := base.e2e["op_p50_ms"], p.e2e["op_p50_ms"]; b > 0 && !math.IsNaN(b) && !math.IsNaN(t) {
		l["bench.trace_overhead_frac"] = t/b - 1
	}

	top, err := pprofTop(profPath, dir)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu-top.txt"), []byte(top), 0o644); err != nil {
		return nil, err
	}
	cpu, _, err := reduceTop(top)
	if err != nil {
		return nil, err
	}
	for _, layer := range cpuLayers {
		l["cpu."+layer+"_s"] = cpu[layer]
	}

	capture, fork, err := snapshotProbe()
	if err != nil {
		return nil, err
	}
	l["snapshot.capture_ms"], l["snapshot.fork_ms"] = capture, fork

	if p.sim != nil {
		sinks, err := p.sim()
		if err != nil {
			return nil, fmt.Errorf("counters-only pass: %w", err)
		}
		l["sim.accesses"], l["sim.misses"], l["sim.cycles"] = simTotals(sinks)
	}

	if err := tr.WriteChrome(filepath.Join(dir, "trace.json")); err != nil {
		return nil, err
	}
	res, err := newResult(base.attempted+p.attempted, base.failed+p.failed, l, perLayer, true)
	if err != nil {
		return nil, err
	}
	counters, err := json.MarshalIndent(map[string]any{
		"layers": res.Metrics, "untraced": finite(base.e2e), "traced": finite(p.e2e),
		"snapshot_before": snapBefore, "snapshot_after": snapAfter,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "counters.json"), counters, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// finite drops refused (NaN) values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if !math.IsNaN(v) {
			out[k] = v
		}
	}
	return out
}

// newResult keeps the metrics the list declares, with their units.
// Every workload reports every end-to-end metric, and none of them may
// be 0, so a missing, refused or zero one is an error. With zeroAbsent
// (the per-layer metrics), a layer the workload does not touch, or a
// tail refused for too few samples, reads 0.
func newResult(attempted, failed int, vals map[string]float64, decl []metricDecl, zeroAbsent bool) (*result, error) {
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, d := range decl {
		known[d.Name] = true
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) {
			if !zeroAbsent {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			v = 0
		}
		if v == 0 && !zeroAbsent {
			return nil, fmt.Errorf("end-to-end metric %s reads 0", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for n := range vals {
		if !known[n] {
			return nil, fmt.Errorf("metric %q is not declared", n)
		}
	}
	return res, nil
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %14.6g (%d failed of %d attempted)\n", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// RSS. A workload calls it when set-up is done, so peak_rss_mb covers
// the timed region and what set-up left resident, but not set-up's
// transient peaks or the output checks after the timed region.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// endTimed records the memory metrics at the end of a timed region.
func (p *pass) endTimed() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	p.e2e["peak_rss_mb"] = rss
	p.e2e["heap_end_mb"] = heapEndMB()
	return nil
}

// heapEndMB is the live heap after a full collection.
func heapEndMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// snapshotProbe times one capture (a cold boot into the snapshot cache
// right after Reset) and one fork of the same configuration, as the
// median of three rounds.
func snapshotProbe() (captureMs, forkMs float64, err error) {
	opts := core.Options{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, Domains: 2}
	var caps, forks []float64
	for i := 0; i < 3; i++ {
		snapshot.Reset()
		t0 := time.Now()
		if _, err := snapshot.NewSystem(opts); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := snapshot.NewSystem(opts); err != nil {
			return 0, 0, err
		}
		caps = append(caps, ms(t1.Sub(t0)))
		forks = append(forks, ms(time.Since(t1)))
	}
	return median(caps), median(forks), nil
}

// simTotals sums the exact simulated counts of counters-only sinks:
// demand accesses and misses over every unit, and cycles the way the
// component metrics report totals them (padding plus every unit but
// the page walker, whose cycles are already charged to the caches).
func simTotals(sinks []*trace.Sink) (accesses, misses, cycles float64) {
	var a, m, c uint64
	for _, s := range sinks {
		c += s.PadCycles
		for u := trace.Unit(0); u < trace.NumUnits; u++ {
			st := s.UnitSnapshot(u)
			a += st.Accesses
			m += st.Misses
			if u != trace.UnitWalk {
				c += st.Cycles + st.WritebackCycles
			}
		}
	}
	return float64(a), float64(m), float64(c)
}
