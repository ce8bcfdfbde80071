// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one testing.B benchmark per artefact, plus ablation
// benches for the design decisions listed in DESIGN.md. Each iteration
// runs the full experiment on the simulated platform; custom metrics
// report the headline quantity next to the paper's value (see
// EXPERIMENTS.md for the comparison table).
//
// Artefact benchmarks measure the warm tier: a warm-up run outside the
// timer captures the machine snapshots (internal/snapshot), then every
// timed iteration forks those snapshots and runs the whole experiment
// again — no result is cached between iterations. This is the cost
// every regeneration after the first pays in one tpbench or tpserved
// process. The one-off capture boots are excluded by b.ResetTimer.
//
// Run: go test -bench=. -benchmem
package main

import (
	"math/rand"
	"testing"

	"timeprotection/internal/channel"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/workload"
)

func benchCfg(plat hw.Platform) experiments.Config {
	return experiments.Config{Platform: plat, Samples: 100, SplashBlocks: 800, Seed: 42, Table8Slices: 12}
}

func platforms() []hw.Platform { return []hw.Platform{hw.Haswell(), hw.Sabre()} }

// warm captures the machine snapshots with one untimed run and resets
// the timer, so the measured iterations pay the snapshot fork and the
// full experiment run, but not the capture boots.
func warm[T any](b *testing.B, run func() (T, error)) {
	b.Helper()
	if _, err := run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// BenchmarkTable2FlushCost measures the worst-case L1 and full-hierarchy
// flush costs (paper Table 2: x86 27/520 us, Arm 45/1150 us).
func BenchmarkTable2FlushCost(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table2Result
			var err error
			warm(b, func() (experiments.Table2Result, error) { return experiments.Table2(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table2(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.L1Direct+r.L1Indirect, "L1-us")
			b.ReportMetric(r.FullDirect+r.FullIndirect, "full-us")
		})
	}
}

// BenchmarkFigure3KernelChannel measures the shared-kernel syscall
// channel raw vs protected (paper x86: 0.79 b -> 0.6 mb).
func BenchmarkFigure3KernelChannel(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Figure3Result
			var err error
			warm(b, func() (experiments.Figure3Result, error) { return experiments.Figure3(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Figure3(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mi.Millibits(r.Raw.M), "raw-mb")
			b.ReportMetric(mi.Millibits(r.Protected.M), "prot-mb")
		})
	}
}

// BenchmarkTable3IntraCore sweeps every intra-core channel under all
// three scenarios (paper Table 3).
func BenchmarkTable3IntraCore(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table3Result
			var err error
			warm(b, func() (experiments.Table3Result, error) { return experiments.Table3(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table3(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			var rawSum, protSum float64
			for _, row := range r.Rows {
				rawSum += row.Raw.M
				protSum += row.Protected.M
			}
			b.ReportMetric(mi.Millibits(rawSum)/float64(len(r.Rows)), "raw-mean-mb")
			b.ReportMetric(mi.Millibits(protSum)/float64(len(r.Rows)), "prot-mean-mb")
		})
	}
}

// BenchmarkFigure4LLCSideChannel measures the cross-core ElGamal attack
// (paper: key visible raw, spy blind under colouring).
func BenchmarkFigure4LLCSideChannel(b *testing.B) {
	var r experiments.Figure4Result
	var err error
	warm(b, func() (experiments.Figure4Result, error) { return experiments.Figure4(benchCfg(hw.Haswell())) })
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Figure4(benchCfg(hw.Haswell())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Raw.Accuracy*100, "raw-key-acc-%")
	b.ReportMetric(float64(r.Protected.ActiveSlots), "prot-active-slots")
}

// BenchmarkTable4FlushChannel measures the cache-flush latency channel
// without and with padding (paper Table 4 / Figure 5).
func BenchmarkTable4FlushChannel(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table4Result
			var err error
			warm(b, func() (experiments.Table4Result, error) { return experiments.Table4(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table4(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mi.Millibits(r.NoPadOffline.M), "nopad-mb")
			b.ReportMetric(mi.Millibits(r.PadOffline.M), "pad-mb")
		})
	}
}

// BenchmarkFigure6InterruptChannel measures the interrupt channel with
// and without Kernel_SetInt partitioning (paper: 902 mb -> 0.5 mb).
func BenchmarkFigure6InterruptChannel(b *testing.B) {
	var r experiments.Figure6Result
	var err error
	warm(b, func() (experiments.Figure6Result, error) { return experiments.Figure6(benchCfg(hw.Haswell())) })
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Figure6(benchCfg(hw.Haswell())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mi.Millibits(r.Unpartitioned.M), "open-mb")
	b.ReportMetric(mi.Millibits(r.Partitioned.M), "closed-mb")
}

// BenchmarkTable5IPC measures one-way cross-AS IPC per variant (paper
// x86: 381/386/380/378 cycles; Arm: 344/391/395/389).
func BenchmarkTable5IPC(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table5Result
			var err error
			warm(b, func() (experiments.Table5Result, error) { return experiments.Table5(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table5(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Cycles[workload.IPCOriginal], "orig-cyc")
			b.ReportMetric(r.Cycles[workload.IPCInterColour], "inter-cyc")
		})
	}
}

// BenchmarkTable6DomainSwitch measures unpadded switch costs per
// scenario (paper x86: raw ~0.2, protected 30, full 271 us).
func BenchmarkTable6DomainSwitch(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table6Result
			var err error
			warm(b, func() (experiments.Table6Result, error) { return experiments.Table6(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table6(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Micros[kernel.ScenarioProtected]["L1-D"], "prot-us")
			b.ReportMetric(r.Micros[kernel.ScenarioFullFlush]["L1-D"], "full-us")
		})
	}
}

// BenchmarkTable7Clone measures Kernel_Clone / destroy / fork+exec
// (paper x86: 79/0.6/257 us; Arm: 608/67/4300 us).
func BenchmarkTable7Clone(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table7Result
			var err error
			warm(b, func() (experiments.Table7Result, error) { return experiments.Table7(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table7(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CloneMicros, "clone-us")
			b.ReportMetric(r.DestroyMicros, "destroy-us")
			b.ReportMetric(r.ForkExecMicros, "forkexec-us")
		})
	}
}

// BenchmarkFigure7Splash runs the Splash-2 colouring/cloning cost study
// (paper: mostly <2%, raytrace the Arm outlier).
func BenchmarkFigure7Splash(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Figure7Result
			var err error
			warm(b, func() (experiments.Figure7Result, error) { return experiments.Figure7(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Figure7(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Mean.Base50*100, "mean-50%-slowdown-%")
			b.ReportMetric(r.Mean.Clone100*100, "mean-clone-slowdown-%")
		})
	}
}

// BenchmarkTable8TimeShared runs the time-shared Splash-2 study (paper
// x86 mean 2.76%/3.38%; Arm 0.75%/1.09%).
func BenchmarkTable8TimeShared(b *testing.B) {
	for _, plat := range platforms() {
		b.Run(plat.Arch, func(b *testing.B) {
			var r experiments.Table8Result
			var err error
			warm(b, func() (experiments.Table8Result, error) { return experiments.Table8(benchCfg(plat)) })
			for i := 0; i < b.N; i++ {
				if r, err = experiments.Table8(benchCfg(plat)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.NoPad.Mean*100, "nopad-mean-%")
			b.ReportMetric(r.Pad.Mean*100, "pad-mean-%")
		})
	}
}

// ---- Ablation benches (design decisions D1-D6 of DESIGN.md) ----------

// BenchmarkAblationSharedKernel isolates D1: the kernel channel with a
// shared image vs cloned coloured images.
func BenchmarkAblationSharedKernel(b *testing.B) {
	spec := channel.Spec{Platform: hw.Haswell(), Samples: 100, Seed: 42}
	var open, closed mi.Result
	for i := 0; i < b.N; i++ {
		spec.Scenario = kernel.ScenarioRaw
		ds, err := channel.RunKernelChannel(spec)
		if err != nil {
			b.Fatal(err)
		}
		open = mi.Analyze(ds, newRng())
		spec.Scenario = kernel.ScenarioProtected
		if ds, err = channel.RunKernelChannel(spec); err != nil {
			b.Fatal(err)
		}
		closed = mi.Analyze(ds, newRng())
	}
	b.ReportMetric(mi.Millibits(open.M), "shared-mb")
	b.ReportMetric(mi.Millibits(closed.M), "cloned-mb")
}

// BenchmarkAblationPadding isolates D3: the flush-latency channel with
// and without deterministic padding.
func BenchmarkAblationPadding(b *testing.B) {
	spec := channel.Spec{Platform: hw.Sabre(), Samples: 100, Seed: 42}
	var open, closed mi.Result
	for i := 0; i < b.N; i++ {
		spec.PadMicros = 0
		r, err := channel.RunFlushChannel(spec)
		if err != nil {
			b.Fatal(err)
		}
		open = mi.Analyze(r.Offline, newRng())
		spec.PadMicros = 62.5
		if r, err = channel.RunFlushChannel(spec); err != nil {
			b.Fatal(err)
		}
		closed = mi.Analyze(r.Offline, newRng())
	}
	b.ReportMetric(mi.Millibits(open.M), "nopad-mb")
	b.ReportMetric(mi.Millibits(closed.M), "pad-mb")
}

// BenchmarkAblationPrefetcher isolates D6: the protected x86 L2 channel
// with the data prefetcher's hidden state retained vs disabled.
func BenchmarkAblationPrefetcher(b *testing.B) {
	spec := channel.Spec{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, Samples: 100, Seed: 42}
	var open, closed mi.Result
	for i := 0; i < b.N; i++ {
		spec.DisablePrefetcher = false
		ds, err := channel.RunIntraCore(spec, channel.L2)
		if err != nil {
			b.Fatal(err)
		}
		open = mi.Analyze(ds, newRng())
		spec.DisablePrefetcher = true
		if ds, err = channel.RunIntraCore(spec, channel.L2); err != nil {
			b.Fatal(err)
		}
		closed = mi.Analyze(ds, newRng())
	}
	b.ReportMetric(mi.Millibits(open.M), "residual-mb")
	b.ReportMetric(mi.Millibits(closed.M), "pf-off-mb")
}

// BenchmarkAblationIRQPartition isolates D5: the interrupt channel with
// and without Kernel_SetInt.
func BenchmarkAblationIRQPartition(b *testing.B) {
	spec := channel.Spec{Platform: hw.Haswell(), Scenario: kernel.ScenarioProtected, Samples: 100, Seed: 42}
	var open, closed mi.Result
	for i := 0; i < b.N; i++ {
		ds, err := channel.RunInterruptChannel(spec, false)
		if err != nil {
			b.Fatal(err)
		}
		open = mi.Analyze(ds, newRng())
		if ds, err = channel.RunInterruptChannel(spec, true); err != nil {
			b.Fatal(err)
		}
		closed = mi.Analyze(ds, newRng())
	}
	b.ReportMetric(mi.Millibits(open.M), "open-mb")
	b.ReportMetric(mi.Millibits(closed.M), "partitioned-mb")
}

// newRng returns the deterministic shuffle source used by the benches.
func newRng() *rand.Rand { return rand.New(rand.NewSource(7)) }
