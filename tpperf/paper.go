package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"time"

	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/trace"
)

// paperSeed is tpbench's default seed, the one the paper's artefacts
// (and paperDigests) are generated with. The paper workload's input is
// this fixed plan, so --seed does not change it.
const paperSeed = 42

// paperSetups is how many times a paper pass times its set-up.
const paperSetups = 201

func platforms() []hw.Platform { return []hw.Platform{hw.Haswell(), hw.Sabre()} }

// runPaper regenerates the paper cold: set-up is snapshot.Reset plus a
// collection, so every boot snapshot and memoized run is rebuilt inside
// the timed cells. Set-up runs on one P: with two, runtime.GC waits for
// the idle CPU to wake, which on a small VM reads as either ~0.2 ms or
// one ~4 ms kernel tick, and the figure would time the wake-up rather
// than the set-up. Cells run one at a time in plan order. Whole
// regenerations repeat while the pass has time left; one regeneration
// outlasts the usual --seconds, so a pass normally measures exactly
// one. The operation is a whole regeneration: op_p50_ms is its wall
// time (the median when a pass fits more than one).
func runPaper(e env) (*pass, error) {
	p := newPass()
	plan := paperPlan()

	setups := make([]float64, paperSetups)
	procs := runtime.GOMAXPROCS(1)
	for i := range setups {
		t0 := time.Now()
		snapshot.Reset()
		runtime.GC()
		setups[i] = time.Since(t0).Seconds()
	}
	runtime.GOMAXPROCS(procs)
	p.e2e["setup_s"] = median(setups)

	var walls []float64
	outs := make([]string, len(plan))
	errs := make([]error, len(plan))
	window := time.Duration(e.seconds) * time.Second
	var last time.Duration
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	for passStart := time.Now(); len(walls) == 0 || time.Since(passStart)+last <= window; {
		if len(walls) > 0 {
			snapshot.Reset()
			runtime.GC()
		}
		start := time.Now()
		for i, cell := range plan {
			c0 := time.Now()
			outs[i], errs[i] = cell.Output()
			c1 := time.Now()
			if e.tr != nil {
				e.tr.Add(Span{Name: cell.JobName(), Trace: uint64(i + 1), Start: c0, End: c1})
				p.layers[cellMetric(cell)] = c1.Sub(c0).Seconds()
			}
		}
		last = time.Since(start)
		walls = append(walls, last.Seconds())
	}
	total := 0.0
	lat := make([]float64, len(walls))
	for i, w := range walls {
		total += w
		lat[i] = w * 1000
	}
	p.setOps(len(walls), total, lat)
	if err := p.endTimed(); err != nil {
		return nil, err
	}

	for i, cell := range plan {
		got := digest(outs[i])
		want, known := paperDigests[cell.JobName()]
		p.check(errs[i] == nil && known && got == want,
			"paper cell %s: err=%v digest %s, recorded %q", cell.JobName(), errs[i], got, want)
	}
	// The security verdicts of `tpbench -check` at the same seed.
	for _, c := range experiments.Expand(experiments.PlanSpec{
		Platforms: platforms(), Base: experiments.Config{Seed: paperSeed}, Check: true,
	}) {
		_, err := c.Output()
		p.check(err == nil, "paper %s: %v", c.JobName(), err)
	}

	p.sim = func() ([]*trace.Sink, error) { return simPlan(plan) }
	return p, nil
}

// simPlan renders plan cells with a private counters-only sink each (the
// sink Config.Metrics would attach) on two workers and returns the
// sinks. Attaching a sink bypasses the run memo, so this pass is never
// timed.
func simPlan(plan []experiments.PlanEntry) ([]*trace.Sink, error) {
	sinks := make([]*trace.Sink, len(plan))
	jobs := make([]experiments.Job, len(plan))
	for i, cell := range plan {
		sinks[i] = trace.NewSink(0)
		cell.Config.Tracer = sinks[i]
		jobs[i] = cell.Job()
	}
	if err := experiments.RunJobs(jobs, 2, io.Discard); err != nil && !errors.Is(err, experiments.ErrCheckFailed) {
		return nil, err
	}
	return sinks, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// paperDigests are the SHA-256 digests of every paper cell's output at
// paperSeed and default scale, i.e. of the bytes `tpbench -all` prints
// per job. A check failure prints the digest a cell produced; a change
// that alters the artefacts on purpose records the new digests here.
var paperDigests = map[string]string{
	"table1":                 "e6021f438814d41d7bda5ea83ca2e1bc812df208d4dfe2e2a4fefff13f487bad",
	"table2/Haswell (x86)":   "df5b372f1a14b0ed2915c95f85ddd1ea00ee4953144b4a015fb424727262ee86",
	"figure3/Haswell (x86)":  "92cbbbb1b647d30f4a5545d7d239918681bd548aae892ab79447f5e92d0e4a51",
	"table3/Haswell (x86)":   "602c86e46464b19b215753d7ef65d1e3d8f49a6b3be3ea89d8d488fe004170fa",
	"figure4/Haswell (x86)":  "2c300606486cb962b1d3cf532477d8c33eb1bccc5842f8ca1265b96cc884ac8f",
	"table4/Haswell (x86)":   "83d21610f2e6475c1e8865e669db72f3bedc36ac404beb42b163a70a7cdaf6bf",
	"figure6/Haswell (x86)":  "7ea31a4ec75154b098fb7025ed33a8f7b66c238a90b1c066330770577764432d",
	"table5/Haswell (x86)":   "d7e45e3da73ece8060e4924d36cb852f4e71df18d1b4f49821f401b9012fcae9",
	"table6/Haswell (x86)":   "5bcc992d77273e1dfc2d37a29a26951b3f5c86a27f363b77b13d41e60a839d8d",
	"table7/Haswell (x86)":   "5c7f43ed15e5810fe48e230a79ec34183863ba85e743c59547d65673dddd7ac9",
	"figure7/Haswell (x86)":  "20b2c15a5ca9b5d4e236bd0543eb1802cff30c1c560af204a053e82ae770b033",
	"table8/Haswell (x86)":   "f5a162f92d4161ebe6e2b16154cac7d0119e26e835e2afc8aa60bdc439a4127e",
	"table2/Sabre (Arm v7)":  "09ee470862a0caba7fec73fb6744b6f852ff2e37a0e6984fbc497e4e01544b7a",
	"figure3/Sabre (Arm v7)": "8d9ca32e9d9199cbd5159e06991e552eac2eef681f661ec65af3e91988d1b283",
	"table3/Sabre (Arm v7)":  "2cb4448644456e436f15d2c7436d9f68898f972300ec50ad71dc44644b1efe5f",
	"table4/Sabre (Arm v7)":  "cd9a6f32e3a22474610169507baf93d96bcf0d275471c1d1c51968a92eaf4ac0",
	"table5/Sabre (Arm v7)":  "5c4ee5979cc05067eed4b208e3ca35515c8de7e6465f3d4a30965d9f79d8ad08",
	"table6/Sabre (Arm v7)":  "b50c357bec0aff54c29fcd16dce5edaf4deebceff8aabccdf8f20a674cf63dd4",
	"table7/Sabre (Arm v7)":  "1845701dcfc5ccf835557d8afc6e4714f06030bf65821693d321e115866c2fe4",
	"figure7/Sabre (Arm v7)": "06057b192b07b9c96daf9446d86558f5e0b80e8e1f3dc1b93897bf8046ea26ca",
	"table8/Sabre (Arm v7)":  "0f6f0f0845fbbb7c81dc06a0958c7dcf5ceed401444ae746ae06d601ca71ff7d",
}
