package experiments

import (
	"fmt"

	"timeprotection/internal/kernel"
	"timeprotection/internal/workload"
)

// Table8Result is the time-shared Splash-2 impact of time protection
// with 50% colours (paper Table 8): slowdown vs the time-shared
// unprotected baseline, with and without padding.
type Table8Result struct {
	Platform string
	NoPad    Table8Stats
	Pad      Table8Stats
}

// Table8Stats summarises the suite.
type Table8Stats struct {
	Max, Min, Mean   float64
	MaxName, MinName string
}

// Render formats the result.
func (r Table8Result) Render() string {
	rows := [][]string{
		{"no", pct(r.NoPad.Max) + " (" + r.NoPad.MaxName + ")", pct(r.NoPad.Min) + " (" + r.NoPad.MinName + ")", pct(r.NoPad.Mean)},
		{"yes", pct(r.Pad.Max) + " (" + r.Pad.MaxName + ")", pct(r.Pad.Min) + " (" + r.Pad.MinName + ")", pct(r.Pad.Mean)},
	}
	return renderTable(
		fmt.Sprintf("Table 8: time-shared Splash-2 under time protection, 50%% colours, %s (paper x86: mean 2.76%%/3.38%%; Arm 0.75%%/1.09%%)", r.Platform),
		[]string{"Pad", "Max", "Min", "Mean"}, rows)
}

// add folds one benchmark's slowdown into the running statistics; Mean
// holds the sum until Table8 divides it.
func (st *Table8Stats) add(name string, s float64) {
	st.Mean += s
	if s > st.Max {
		st.Max, st.MaxName = s, name
	}
	if s < st.Min {
		st.Min, st.MinName = s, name
	}
}

// Table8 measures the time-shared suite by throughput over a fixed
// horizon: slowdown = baseBlocks/protBlocks - 1. Each benchmark's raw
// time-shared baseline is run once and shared by both padding rows.
func Table8(cfg Config) (Table8Result, error) {
	cfg = cfg.withDefaults()
	res := Table8Result{Platform: cfg.Platform.Name}
	// The paper time-shares with a 10 ms slice and pads to just above the
	// worst-case switch latency; scaled to our 2 ms slice, the pad sits
	// ~30% above the measured protected switch cost (Table 6).
	const slice = 2000.0
	pad := 12.0
	if cfg.Platform.Arch == "arm" {
		pad = 25.0
	}
	slices := uint64(24)
	if cfg.Table8Slices > 0 {
		slices = uint64(cfg.Table8Slices)
	}
	horizon := cfg.Platform.MicrosToCycles(slice) * slices
	run := func(spec workload.SplashSpec, sc kernel.Scenario, padMicros float64) (int, error) {
		return workload.RunSplashThroughput(spec, workload.SplashConfig{
			Platform: cfg.Platform, Scenario: sc,
			TimeShared: true, PadMicros: padMicros, TimesliceMicros: slice,
			Tracer: cfg.Tracer,
		}, horizon)
	}
	res.NoPad = Table8Stats{Min: 1e9, Max: -1e9}
	res.Pad = res.NoPad
	rows := []struct {
		st  *Table8Stats
		pad float64
	}{{&res.NoPad, 0}, {&res.Pad, pad}}
	specs := workload.Splash2()
	for _, spec := range specs {
		base, err := run(spec, kernel.ScenarioRaw, 0)
		if err != nil {
			return res, err
		}
		for _, row := range rows {
			// Two domains split the colours evenly, so the benchmark's
			// domain holds 50% of the cache — the paper's configuration.
			prot, err := run(spec, kernel.ScenarioProtected, row.pad)
			if err != nil {
				return res, err
			}
			if prot == 0 {
				return res, fmt.Errorf("table8: %s made no progress", spec.Name)
			}
			row.st.add(spec.Name, float64(base)/float64(prot)-1)
		}
	}
	for _, row := range rows {
		row.st.Mean /= float64(len(specs))
	}
	return res, nil
}
