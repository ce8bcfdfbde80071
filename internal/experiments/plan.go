package experiments

import (
	"errors"
	"fmt"

	"timeprotection/internal/hw"
	"timeprotection/internal/store"
	"timeprotection/internal/trace"
)

// ErrCheckFailed is returned by a -check job whose security verdicts do
// not all hold; the job's output already carries the rendered verdicts.
var ErrCheckFailed = errors.New("security verdicts failed")

// PlanSpec selects which artefacts a tpbench invocation regenerates.
// The zero value selects nothing.
type PlanSpec struct {
	Platforms []hw.Platform
	Base      Config // Platform is overridden per entry in Platforms
	All       bool
	Table     int // 1-8, 0 = none
	Figure    int // 3-7, 0 = none
	// Artefacts selects registry entries by name ("table2", "ablations",
	// ...), in addition to the flag-style selectors above.
	Artefacts  []string
	Ablations  bool
	Extensions bool
	Check      bool
}

// PlanEntry is one resolved unit of a plan: an artefact (or the -check
// verdict suite) bound to a concrete platform and config. Entries are
// what the result cache in internal/service keys on.
type PlanEntry struct {
	// Artefact is the registry entry; the zero Artefact (empty Name)
	// with Check set marks a verdict-suite entry.
	Artefact Artefact
	// Check marks the security-verdict gate for Config.Platform.
	Check bool
	// Config carries the fully bound config (Platform set; for global
	// artefacts the platform is irrelevant and left as the base).
	Config Config
}

// JobName is the name RunJobs reports for this entry.
func (e PlanEntry) JobName() string {
	if e.Check {
		return "check/" + e.Config.Platform.Name
	}
	return e.Artefact.JobName(e.Config.Platform)
}

// CanonicalKey renders the canonical identity of a plan entry — the
// string the content-addressed caches hash. Tracer is excluded (runtime
// attachment); every other Config field changes the bytes produced.
// Both tpserved's result cache and the durable store in internal/store
// key on this, so a store directory filled by one front-end answers the
// other.
func (e PlanEntry) CanonicalKey() string {
	if !e.Check && e.Artefact.Global {
		// Platform-independent artefacts render the same bytes for any
		// config.
		return e.Artefact.Name + "|global"
	}
	name := e.Artefact.Name
	if e.Check {
		name = "check"
	}
	c := e.Config.Canonical()
	return fmt.Sprintf("%s|%s|samples=%d|blocks=%d|seed=%d|t8=%d|metrics=%t",
		name, c.Platform.Name, c.Samples, c.SplashBlocks, c.Seed, c.Table8Slices, c.Metrics)
}

// CacheKey is the content address of the entry: store.Key of its
// CanonicalKey. It doubles as the store's object file name.
func (e PlanEntry) CacheKey() string { return store.Key(e.CanonicalKey()) }

// Output computes the entry's rendered bytes — the exact bytes tpbench
// writes for this job. A failed check returns ErrCheckFailed alongside
// the rendered verdicts.
func (e PlanEntry) Output() (string, error) {
	if e.Check {
		return checkOutput(e.Config)
	}
	return e.Artefact.Output(e.Config)
}

// Job adapts the entry for RunJobs.
func (e PlanEntry) Job() Job {
	return Job{Name: e.JobName(), Run: e.Output}
}

func checkOutput(cfg Config) (string, error) {
	checks, err := Checks(cfg)
	if err != nil {
		return "", err
	}
	rendered, ok := RenderChecks(checks)
	out := fmt.Sprintf("Security verdicts, %s:\n%s", cfg.Platform.Name, rendered)
	if !ok {
		return out + "CHECK FAILED\n", ErrCheckFailed
	}
	return out + "all verdicts hold\n", nil
}

// Expand resolves a spec against the registry into the ordered entry
// list: global artefacts first (Table 1 is platform-independent), then
// every selected artefact per platform in the paper's order, then that
// platform's check gate. The order matches what the sequential tpbench
// has always printed; RunJobs preserves it at any worker count.
func Expand(spec PlanSpec) []PlanEntry {
	var entries []PlanEntry
	reg := Registry()
	for _, a := range reg {
		if a.Global && a.selectedBy(spec) {
			entries = append(entries, PlanEntry{Artefact: a, Config: spec.Base})
		}
	}
	for _, plat := range spec.Platforms {
		cfg := spec.Base
		cfg.Platform = plat
		for _, a := range reg {
			if a.Global || !a.selectedBy(spec) || !a.SupportsPlatform(plat) {
				continue
			}
			entries = append(entries, PlanEntry{Artefact: a, Config: cfg})
		}
		if spec.Check {
			entries = append(entries, PlanEntry{Check: true, Config: cfg})
		}
	}
	return entries
}

// Plan expands a spec into the ordered job list for RunJobs.
func Plan(spec PlanSpec) []Job {
	entries := Expand(spec)
	jobs := make([]Job, len(entries))
	for i, e := range entries {
		jobs[i] = e.Job()
	}
	return jobs
}

// runWithMetrics invokes one artefact renderer; when Config.Metrics asks
// for component accounting and no sink was supplied, it gives the job a
// private counters-only sink and appends the metrics report. Jobs run
// single-goroutine, so the per-job sink needs no synchronisation even
// when RunJobs runs jobs in parallel.
func runWithMetrics(cfg Config, render func(Config) (string, error)) (string, error) {
	var sink *trace.Sink
	if cfg.Metrics && cfg.Tracer == nil {
		sink = trace.NewSink(0)
		cfg.Tracer = sink
	}
	s, err := render(cfg)
	if err != nil {
		return "", err
	}
	if sink != nil {
		s += "\n" + sink.MetricsReport()
	}
	return s + "\n", nil
}
