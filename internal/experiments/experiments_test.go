package experiments

import (
	"strings"
	"testing"

	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/workload"
)

func fastCfg(plat hw.Platform) Config {
	return Config{Platform: plat, Samples: 80, SplashBlocks: 700, Seed: 42, Table8Slices: 8}
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Haswell", "Sabre", "L2-TLB", "Page colours"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		r, err := Table2(fastCfg(plat))
		if err != nil {
			t.Fatal(err)
		}
		if r.L1Direct <= 0 || r.FullDirect <= 0 {
			t.Fatalf("%s: zero flush cost: %+v", plat.Name, r)
		}
		// The paper's central cost claim: a full flush is far more
		// expensive than the targeted L1 flush.
		if r.FullDirect < 4*r.L1Direct {
			t.Errorf("%s: full flush (%.1f us) should dwarf L1 flush (%.1f us)", plat.Name, r.FullDirect, r.L1Direct)
		}
		if !strings.Contains(r.Render(), "Table 2") {
			t.Error("render missing title")
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	r, err := Figure3(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Raw.Leak() {
		t.Errorf("raw kernel channel must leak: %v", r.Raw)
	}
	if r.Protected.Leak() {
		t.Errorf("protected kernel channel must not leak: %v", r.Protected)
	}
	if len(r.RawMatrix.P) != 4 {
		t.Errorf("raw matrix has %d inputs", len(r.RawMatrix.P))
	}
	if !strings.Contains(r.Render(), "Signal") {
		t.Error("render missing symbol names")
	}
	// Capacity upper-bounds the uniform-input MI on the same matrix.
	if r.RawCapacity+0.05 < r.Raw.M {
		t.Errorf("capacity %.3f below MI %.3f", r.RawCapacity, r.Raw.M)
	}
	if r.RawMinLeak <= 0 {
		t.Error("raw channel should have positive min-entropy leakage")
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("x86 Table 3 has %d rows, want 6", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Raw.Leak() {
			t.Errorf("%s raw must leak: %v", row.Resource, row.Raw)
		}
		if row.FullFlush.Leak() {
			t.Errorf("%s full flush must not leak: %v", row.Resource, row.FullFlush)
		}
		if row.Resource == "L2" {
			if !row.Protected.Leak() {
				t.Errorf("x86 L2 protected should retain the prefetcher residual: %v", row.Protected)
			}
		} else if row.Protected.Leak() {
			t.Errorf("%s protected must not leak: %v", row.Resource, row.Protected)
		}
	}
	if r.PrefetchOff == nil {
		t.Fatal("x86 must include the prefetcher-off follow-up")
	}
	if r.PrefetchOff.Leak() {
		t.Errorf("prefetcher-off L2 must close: %v", *r.PrefetchOff)
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Raw.Accuracy < 0.95 {
		t.Errorf("raw key recovery accuracy = %.2f", r.Raw.Accuracy)
	}
	if r.Protected.ActiveSlots != 0 {
		t.Errorf("protected spy saw %d active slots", r.Protected.ActiveSlots)
	}
	if !strings.Contains(r.Render(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestTable4Shape(t *testing.T) {
	r, err := Table4(fastCfg(hw.Sabre()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.NoPadOffline.Leak() {
		t.Errorf("unpadded offline must leak: %v", r.NoPadOffline)
	}
	if r.PadOffline.Leak() || r.PadOnline.Leak() {
		t.Errorf("padded channel must close: %v / %v", r.PadOffline, r.PadOnline)
	}
	if len(r.OfflineBySymbol) != 4 {
		t.Errorf("Figure 5 series has %d symbols", len(r.OfflineBySymbol))
	}
	// The Figure 5 shape: offline time grows with the dirty footprint.
	if r.OfflineBySymbol[3] <= r.OfflineBySymbol[0] {
		t.Errorf("offline time should grow with dirty lines: %v", r.OfflineBySymbol)
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Unpartitioned.Leak() {
		t.Errorf("unpartitioned interrupt channel must leak: %v", r.Unpartitioned)
	}
	if r.Partitioned.Leak() {
		t.Errorf("partitioned interrupt channel must close: %v", r.Partitioned)
	}
	// The Figure 6 shape: first-online time tracks the timer setting.
	if r.OnlineBySymbol[4] <= r.OnlineBySymbol[0] {
		t.Errorf("first-online time should grow with the timer offset: %v", r.OnlineBySymbol)
	}
}

func TestTable5Shape(t *testing.T) {
	r, err := Table5(fastCfg(hw.Sabre()))
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Cycles[workload.IPCOriginal]
	ready := r.Cycles[workload.IPCColourReady]
	if ready/orig-1 < 0.03 {
		t.Errorf("Arm colour-ready should cost more: %v vs %v", ready, orig)
	}
	if !strings.Contains(r.Render(), "colour-ready") {
		t.Error("render missing variants")
	}
}

func TestTable6Shape(t *testing.T) {
	r, err := Table6(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	raw := r.Micros[0]  // ScenarioRaw
	full := r.Micros[1] // ScenarioFullFlush
	prot := r.Micros[2] // ScenarioProtected
	for _, w := range r.Workloads {
		if !(raw[w] < prot[w] && prot[w] < full[w]) {
			t.Errorf("%s: want raw < protected < full flush, got %.2f / %.2f / %.2f",
				w, raw[w], prot[w], full[w])
		}
	}
	// Workload dependence mostly vanishes in the defended systems
	// (paper: "the workload dependence ... has mostly vanished").
	min, max := 1e18, 0.0
	for _, w := range r.Workloads {
		if full[w] < min {
			min = full[w]
		}
		if full[w] > max {
			max = full[w]
		}
	}
	if max > 3*min {
		t.Errorf("full-flush switch cost varies too much with workload: %.2f..%.2f", min, max)
	}
}

func TestTable7Shape(t *testing.T) {
	for _, plat := range []hw.Platform{hw.Haswell(), hw.Sabre()} {
		r, err := Table7(fastCfg(plat))
		if err != nil {
			t.Fatal(err)
		}
		if !(r.DestroyMicros < r.CloneMicros && r.CloneMicros < r.ForkExecMicros) {
			t.Errorf("%s: want destroy < clone < fork+exec, got %.1f / %.1f / %.1f",
				plat.Name, r.DestroyMicros, r.CloneMicros, r.ForkExecMicros)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	cfg := fastCfg(hw.Sabre())
	r, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("Figure 7 has %d rows, want 11", len(r.Rows))
	}
	var ray, water Figure7Row
	for _, row := range r.Rows {
		if row.Name == "raytrace" {
			ray = row
		}
		if row.Name == "waternsquared" {
			water = row
		}
	}
	if ray.Base50 < 0.01 {
		t.Errorf("raytrace at 50%% should show a clear penalty: %+v", ray)
	}
	if water.Base50 > ray.Base50 {
		t.Errorf("waternsquared should suffer less than raytrace: %+v vs %+v", water, ray)
	}
	// Cloning adds ~nothing on top of colouring.
	if d := r.Mean.Clone100; d > 0.03 || d < -0.03 {
		t.Errorf("cloned kernel at full colours should be ~free, mean %.2f%%", d*100)
	}
}

func TestTable8Shape(t *testing.T) {
	cfg := fastCfg(hw.Haswell())
	r, err := Table8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NoPad.Mean < -0.05 || r.NoPad.Mean > 0.15 {
		t.Errorf("no-pad mean slowdown %.2f%% out of plausible range", r.NoPad.Mean*100)
	}
	if r.Pad.Mean < r.NoPad.Mean-0.02 {
		t.Errorf("padding should not speed things up: %.2f%% vs %.2f%%", r.Pad.Mean*100, r.NoPad.Mean*100)
	}
}

// TestTable8RunsBaselineOnce: each benchmark's raw time-shared baseline
// is shared by the no-pad and padded rows, so one Table8 call runs — and
// forks — exactly three systems per Splash-2 benchmark: the baseline
// and one protected run per padding row.
func TestTable8RunsBaselineOnce(t *testing.T) {
	restoreSnapshots(t)
	snapshot.SetEnabled(true)
	cfg := fastCfg(hw.Haswell())
	cfg.Table8Slices = 1
	before := snapshot.Stats()
	if _, err := Table8(cfg); err != nil {
		t.Fatal(err)
	}
	after := snapshot.Stats()
	if got, want := after.Forks-before.Forks, uint64(3*len(workload.Splash2())); got != want {
		t.Errorf("Table8 forked %d systems, want %d (3 per benchmark)", got, want)
	}
	if after.Fallbacks != before.Fallbacks {
		t.Errorf("Table8 cold-booted %d systems instead of forking", after.Fallbacks-before.Fallbacks)
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := Ablations(fastCfg(hw.Haswell()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	pairs := [][2]string{
		{"D1 shared kernel image", "D1 cloned coloured kernels"},
		{"D3 no switch padding", "D3 padded switches"},
		{"D6 prefetcher state retained", "D6 prefetcher disabled"},
		{"D5 IRQs unpartitioned", "D5 IRQs partitioned"},
	}
	for _, p := range pairs {
		open, okO := byName[p[0]]
		closed, okC := byName[p[1]]
		if !okO || !okC {
			t.Fatalf("missing ablation pair %v", p)
		}
		if !open.Measured.Leak() {
			t.Errorf("%s should leak: %v", p[0], open.Measured)
		}
		if closed.Measured.Leak() {
			t.Errorf("%s should be closed: %v", p[1], closed.Measured)
		}
	}
}
