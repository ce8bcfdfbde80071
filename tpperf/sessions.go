package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"timeprotection/internal/channel"
	"timeprotection/internal/hw"
	"timeprotection/internal/kernel"
	"timeprotection/internal/mi"
	"timeprotection/internal/service"
	"timeprotection/internal/session"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/store"
	"timeprotection/internal/trace"
)

// sessionCombos are the attacks the sessions workload mounts, each on
// both platforms. Their steps cost a few milliseconds each; the L2 and
// interrupt channels are left out because one of their steps costs
// tens to hundreds of milliseconds and would make the step tail a
// count of how often they were drawn.
var sessionCombos = []struct{ channel, platform string }{
	{"l1d", "haswell"}, {"l1d", "sabre"}, {"l1i", "haswell"}, {"l1i", "sabre"},
	{"tlb", "haswell"}, {"tlb", "sabre"}, {"btb", "haswell"}, {"btb", "sabre"},
	{"bhb", "haswell"}, {"bhb", "sabre"}, {"kernel", "haswell"}, {"kernel", "sabre"},
}

const (
	sessionSamples   = 600 // samples per session, so a session takes ~50 steps
	sessionRoundsMin = 8   // rounds per step are drawn from [min, max]
	sessionRoundsMax = 16
	sessionSetups    = 9
)

// sessionSpecs is the pool of specs one pass draws from: every combo
// under both the raw and the protected scenario (a protected step costs
// more, so both must appear in equal shares), with seeded sender seeds.
func sessionSpecs(seed int64) []session.Spec {
	var specs []session.Spec
	for _, scenario := range []string{"raw", "protected"} {
		for _, c := range sessionCombos {
			s := seed*1000 + int64(len(specs))
			specs = append(specs, session.Spec{
				Channel: c.channel, Platform: c.platform, Scenario: scenario,
				Samples: sessionSamples, Seed: &s,
			})
		}
	}
	return specs
}

// sessionOrder returns the pool index of the n-th session of a pass:
// the pool in a fresh seeded order per cycle, so every pass runs the
// combos in equal shares.
func sessionOrder(seed int64, n int) int {
	k := 2 * len(sessionCombos)
	rng := rand.New(rand.NewSource(seed*7919 + int64(n/k)))
	return rng.Perm(k)[n%k]
}

// stepRounds returns the seeded source of per-step round counts of the
// n-th session of a pass.
func stepRounds(seed int64, n int) func() int {
	rng := rand.New(rand.NewSource(seed*104729 + int64(n)))
	return func() int { return sessionRoundsMin + rng.Intn(sessionRoundsMax-sessionRoundsMin+1) }
}

// timedJournal is the session journal with every Update timed: the
// store's synchronous rewrite of a session's {spec, steps} doc.
type timedJournal struct {
	st      *store.Store
	tr      *Tracer
	keys    *inflight
	bytes   atomic.Int64
	updates atomic.Int64
}

func (j *timedJournal) Get(key string) ([]byte, bool) { return j.st.Get(key) }

func (j *timedJournal) Update(key string, body []byte) error {
	t0 := time.Now()
	err := j.st.Update(key, body)
	t1 := time.Now()
	trace, parent := j.keys.get(key)
	j.tr.Add(Span{Name: "store.Update", Trace: trace, Parent: parent, Start: t0, End: t1})
	j.bytes.Add(int64(len(body)))
	j.updates.Add(1)
	return err
}

// daemon is the single tpserved the sessions workload talks to.
type daemon struct {
	addr    string
	dir     string
	srv     *http.Server
	svc     *service.Server
	reg     *session.Registry
	st      *store.Store
	journal *timedJournal
	served  chan struct{}
}

func (d *daemon) stop() {
	d.srv.Close()
	<-d.served
	d.svc.Close()
	d.reg.Close()
	d.st.Close()
}

// sessionSetup is the timed set-up of a sessions pass: a cold snapshot
// layer, the store and daemon, and one throwaway session per pool spec
// on a private registry, which captures every boot snapshot the pass
// forks from.
func sessionSetup(dir string, specs []session.Spec, tr *Tracer, keys *inflight) (*daemon, error) {
	snapshot.Reset()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, st: st, served: make(chan struct{})}
	ropts := session.Options{Journal: st}
	if tr != nil {
		d.journal = &timedJournal{st: st, tr: tr, keys: keys}
		ropts.Journal = d.journal
	}
	d.reg = session.NewRegistry(ropts)
	d.svc = service.New(service.Options{Store: st, Sessions: d.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.svc.Close()
		d.reg.Close()
		st.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = &http.Server{Handler: d.svc.Handler()}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	warm := session.NewRegistry(session.Options{})
	defer warm.Close()
	for _, sp := range specs {
		s, err := warm.Create(sp)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm %s/%s: %w", sp.Channel, sp.Platform, err)
		}
		warm.Delete(s.ID)
	}
	return d, nil
}

// sessionRun is what the client saw of one session.
type sessionRun struct {
	pool     int
	seed     int64 // the spec's sender seed, which also seeds the verdict
	createMs float64
	stepMs   []float64 // steps that did not finish the session
	finalMs  float64   // the step that returned the verdict
	samples  []session.Sample
	verdict  *session.Verdict
	err      error
}

// runSessions drives sessions to completion one at a time, each with
// its event stream open, until the pass's time is up. The operation is
// a step: op_p50_ms times the steps that did not finish their session,
// ops_per_s counts all of them.
func runSessions(e env) (*pass, error) {
	p := newPass()
	specs := sessionSpecs(e.seed)
	keys := &inflight{m: map[string][2]uint64{}}

	var d *daemon
	setups := make([]float64, sessionSetups)
	for i := range setups {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, err = sessionSetup(filepath.Join(e.work, "setup"+strconv.Itoa(i)), specs, e.tr, keys)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	p.e2e["setup_s"] = median(setups)
	statsBefore := d.reg.Stats()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	var runs []*sessionRun
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds) * time.Second)
	for n := 0; len(runs) == 0 || time.Now().Before(deadline); n++ {
		pool := sessionOrder(e.seed, n)
		r := driveSession(client, d.addr, specs[pool], stepRounds(e.seed, n), uint64(n+1), e.tr, keys)
		r.pool = pool
		runs = append(runs, r)
	}
	elapsed := time.Since(start)
	client.CloseIdleConnections()
	if err := p.endTimed(); err != nil {
		return nil, err
	}

	var creates, steps []float64
	nsteps := 0
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		creates = append(creates, r.createMs)
		steps = append(steps, r.stepMs...)
		nsteps += len(r.stepMs) + 1
	}
	p.setOps(nsteps, elapsed.Seconds(), steps)
	setPercentile(p.classes, "bench.create_p50_ms", creates, 0.5)
	setPercentile(p.classes, "bench.step_p99_ms", steps, 0.99)

	if e.tr != nil {
		sessionLayers(p, d, runs, statsBefore, e.tr.Spans())
	}
	d.stop()

	if err := checkSessions(p, specs, runs); err != nil {
		return nil, err
	}
	p.sim = func() ([]*trace.Sink, error) { return simSessions(specs) }
	return p, nil
}

// driveSession creates one session, opens its stream, steps it with
// increasing seq until it is done, and deletes it.
func driveSession(client *http.Client, addr string, spec session.Spec, rounds func() int, traceID uint64, tr *Tracer, keys *inflight) *sessionRun {
	r := &sessionRun{seed: *spec.Seed}
	base := "http://" + addr + "/v1/sessions"
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	var st session.Status
	if err := call(client, http.MethodPost, base, body, http.StatusCreated, &st); err != nil {
		r.err = fmt.Errorf("create: %w", err)
		return r
	}
	t1 := time.Now()
	r.createMs = ms(t1.Sub(t0))
	tr.Add(Span{Name: "session.create", Trace: traceID, Start: t0, End: t1})

	hello := make(chan error, 1)
	streamDone := make(chan error, 1)
	go func() { streamDone <- readStream(client, base+"/"+st.ID+"/stream", hello) }()
	if err := <-hello; err != nil {
		r.err = fmt.Errorf("stream: %w", err)
		<-streamDone
		_ = call(client, http.MethodDelete, base+"/"+st.ID, nil, http.StatusNoContent, nil) // best effort: the session already failed
		return r
	}

	jkeys := []string{session.Key(st.ID)}
	for seq := uint64(1); ; seq++ {
		url := fmt.Sprintf("%s/%s/step?rounds=%d&seq=%d", base, st.ID, rounds(), seq)
		span := tr.NewID()
		keys.set(jkeys, traceID, span)
		var res session.StepResult
		s0 := time.Now()
		err := call(client, http.MethodPost, url, nil, http.StatusOK, &res)
		s1 := time.Now()
		keys.clear(jkeys, traceID)
		tr.Add(Span{Name: "session.step", Trace: traceID, ID: span, Start: s0, End: s1})
		if err != nil {
			r.err = fmt.Errorf("step %d: %w", seq, err)
			break
		}
		r.samples = append(r.samples, res.Samples...)
		if res.Done {
			r.finalMs, r.verdict = ms(s1.Sub(s0)), res.Verdict
			break
		}
		r.stepMs = append(r.stepMs, ms(s1.Sub(s0)))
	}
	if err := call(client, http.MethodDelete, base+"/"+st.ID, nil, http.StatusNoContent, nil); err != nil && r.err == nil {
		r.err = fmt.Errorf("delete: %w", err)
	}
	if err := <-streamDone; err != nil && r.err == nil {
		r.err = fmt.Errorf("stream: %w", err)
	}
	return r
}

func call(client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// readStream reads a session's SSE stream to its end. It reports on
// hello once the first event arrived (or the stream failed). The stream
// is lossy by design (a full subscriber buffer drops events), so only a
// clean end is required.
func readStream(client *http.Client, url string, hello chan<- error) error {
	resp, err := client.Get(url)
	if err != nil {
		hello <- err
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d", resp.StatusCode)
		hello <- err
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	greeted := false
	for sc.Scan() {
		if !greeted && strings.HasPrefix(sc.Text(), "event: ") {
			greeted = true
			hello <- nil
		}
	}
	if !greeted {
		hello <- fmt.Errorf("stream ended before hello")
	}
	return sc.Err()
}

// sessionLayers derives the per-layer metrics of a traced sessions
// pass.
func sessionLayers(p *pass, d *daemon, runs []*sessionRun, before session.Stats, spans []Span) {
	l := p.layers
	var first, last, final, est, ana []float64
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		tenth := max(len(r.stepMs)/10, 1)
		if len(r.stepMs) > 0 {
			first = append(first, r.stepMs[:tenth]...)
			last = append(last, r.stepMs[len(r.stepMs)-tenth:]...)
		}
		final = append(final, r.finalMs)
		// The estimator and the verdict analysis on the session's
		// samples at its final n, as every step and the last step run
		// them inside the daemon.
		ds := &mi.Dataset{}
		for _, s := range r.samples {
			ds.Add(s.Symbol, s.Value)
		}
		t0 := time.Now()
		mi.Estimate(ds)
		t1 := time.Now()
		mi.Analyze(ds, rand.New(rand.NewSource(r.seed)))
		t2 := time.Now()
		est, ana = append(est, ms(t1.Sub(t0))), append(ana, ms(t2.Sub(t1)))
	}
	setPercentile(l, "session.step_first_ms", first, 0.5)
	setPercentile(l, "session.step_last_ms", last, 0.5)
	// A raw session's verdict runs a shuffle test on leaky data (~100 ms)
	// and a protected one's on constant data (~1 ms); the pool holds both
	// in equal shares, so these are means: a median would sit on the
	// boundary between the two.
	l["session.verdict_step_ms"] = mean(final)
	l["mi.estimate_ms"] = mean(est)
	l["mi.analyze_ms"] = mean(ana)
	updates := durationsMs(spans, "store.Update")
	setPercentile(l, "store.update_ms_p50", updates, 0.5)
	setPercentile(l, "store.update_ms_p99", updates, 0.99)
	if n := d.journal.updates.Load(); n > 0 {
		l["session.journal_bytes_per_step"] = float64(d.journal.bytes.Load()) / float64(n)
	}
	after := d.reg.Stats()
	l["session.events_published"] = float64(after.EventsPublished - before.EventsPublished)
	l["session.events_dropped"] = float64(after.EventsDropped - before.EventsDropped)
	ss := d.st.Stats()
	l["store.hits"], l["store.puts"], l["store.updates"] = float64(ss.Hits), float64(ss.Puts), float64(ss.Updates)
	if fi, err := os.Stat(filepath.Join(d.dir, "journal.jsonl")); err == nil {
		l["store.journal_bytes"] = float64(fi.Size())
	}
}

// oneShot runs the spec the way tpattack does: the whole channel in one
// call, then mi.Analyze seeded with the spec's seed.
func oneShot(sp session.Spec, tracer *trace.Sink) (*mi.Dataset, mi.Result, error) {
	plat, ok := hw.PlatformByName(sp.Platform)
	if !ok {
		return nil, mi.Result{}, fmt.Errorf("unknown platform %q", sp.Platform)
	}
	sc := kernel.ScenarioRaw
	if sp.Scenario == "protected" {
		sc = kernel.ScenarioProtected
	}
	cs := channel.Spec{Platform: plat, Scenario: sc, Samples: sp.Samples, Seed: *sp.Seed, Tracer: tracer}
	var ds *mi.Dataset
	var err error
	if sp.Channel == "kernel" {
		ds, err = channel.RunKernelChannel(cs)
	} else {
		ds, err = channel.RunIntraCore(cs, intraResource[sp.Channel])
	}
	if err != nil {
		return nil, mi.Result{}, err
	}
	return ds, mi.Analyze(ds, rand.New(rand.NewSource(*sp.Seed))), nil
}

var intraResource = map[string]channel.Resource{
	"l1d": channel.L1D, "l1i": channel.L1I, "l2": channel.L2,
	"tlb": channel.TLB, "btb": channel.BTB, "bhb": channel.BHB,
}

// checkSessions counts every session: it must have run without error,
// streamed its events, and ended with the verdict and the samples of
// the one-shot tpattack run of the same spec.
func checkSessions(p *pass, specs []session.Spec, runs []*sessionRun) error {
	type ref struct {
		ds *mi.Dataset
		r  mi.Result
	}
	refs := map[int]ref{}
	for _, r := range runs {
		if r.err != nil {
			p.check(false, "session %s/%s: %v", specs[r.pool].Channel, specs[r.pool].Platform, r.err)
			continue
		}
		want, ok := refs[r.pool]
		if !ok {
			ds, res, err := oneShot(specs[r.pool], nil)
			if err != nil {
				return fmt.Errorf("one-shot %s/%s: %w", specs[r.pool].Channel, specs[r.pool].Platform, err)
			}
			want = ref{ds, res}
			refs[r.pool] = want
		}
		p.check(sameSession(r, want.ds, want.r), "session %s/%s seed %d: verdict or samples differ from the one-shot run",
			specs[r.pool].Channel, specs[r.pool].Platform, *specs[r.pool].Seed)
	}
	return nil
}

func sameSession(r *sessionRun, ds *mi.Dataset, res mi.Result) bool {
	v := r.verdict
	if v == nil || v.MBits != res.M || v.M0Bits != res.M0 || v.N != res.N || v.Leak != res.Leak() || v.Summary != res.String() {
		return false
	}
	if len(r.samples) != ds.N() {
		return false
	}
	for i, s := range r.samples {
		want := ds.At(i)
		if s.Index != i || s.Symbol != want.Input || s.Value != want.Output {
			return false
		}
	}
	return true
}

// simSessions runs every pool spec one-shot with a counters-only sink.
func simSessions(specs []session.Spec) ([]*trace.Sink, error) {
	var sinks []*trace.Sink
	for _, sp := range specs {
		s := trace.NewSink(0)
		if _, _, err := oneShot(sp, s); err != nil {
			return nil, err
		}
		sinks = append(sinks, s)
	}
	return sinks, nil
}
