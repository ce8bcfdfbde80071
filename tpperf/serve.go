package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"timeprotection/internal/api"
	"timeprotection/internal/cluster"
	"timeprotection/internal/experiments"
	"timeprotection/internal/hw"
	"timeprotection/internal/service"
	"timeprotection/internal/snapshot"
	"timeprotection/internal/store"
	"timeprotection/internal/trace"
)

// serveCells is the serve mix: channel-measurement cells whose output
// depends on the seed, so a fresh seed is a real driver run and no
// Splash code runs.
var serveCells = []struct{ artefact, platform string }{
	{"figure3", "haswell"}, {"figure3", "sabre"},
	{"table4", "haswell"}, {"table4", "sabre"},
	{"figure4", "haswell"}, {"figure6", "haswell"},
}

const (
	serveShards  = 2    // in-process tpserved shards
	serveClients = 2    // requests in flight at most
	serveSamples = 10   // samples per channel measurement
	serveRate    = 1000 // requests per second, open loop
	serveFresh   = 4    // requests per second for a never-seen seed
	serveLRU     = 16   // memory-cache entries per shard, below the working set
	serveSetups  = 9    // set-ups timed per pass
	serveChecks  = 6    // keys recomputed in-process to check bodies
	// serveQuiet is the gap after a fresh request in which no other
	// request is sent, longer than a computed request takes.
	serveQuiet = 100 * time.Millisecond
	// serveLag is how long after its first request a fresh key may be
	// repeated.
	serveLag = 500 * time.Millisecond
	// warmSeed is the experiment seed set-up requests every cell at; no
	// fresh key uses it.
	warmSeed = -1
)

// serveReq is one scheduled request. Due is its offset from the start
// of the measured window.
type serveReq struct {
	Due   time.Duration
	Shard int
	Cell  int
	Seed  int64
	Fresh bool
}

// serveSchedule draws the open-loop request sequence of a pass from
// serveRate*seconds arrivals spread uniformly over the window (a Poisson
// process conditioned on its count). The first arrival of each
// 1/serveFresh interval asks for a fresh seed, so a pass computes
// serveFresh*seconds cells, and the arrivals in the serveQuiet after it
// are dropped: a compute holds one of the two client connections and
// half the CPU, and requests queued behind it would make the served
// tail measure how often they collided with computes rather than
// serving. Fresh keys cycle through the cells in a seeded order, so
// every pass computes each cell equally often. The rest are repeats: a
// repeat draws the k-th most recent key with weight 1/k among the keys
// set-up warmed and the fresh keys due at least serveLag earlier, so it
// finds its key computed.
func serveSchedule(seed int64, seconds int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, serveRate*seconds)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(seconds) * int64(time.Second)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	keys := warmKeys()
	eligible := len(keys)
	var order []int
	var reqs []serveReq
	var next, quietUntil time.Duration
	for _, d := range due {
		fresh := d >= next
		if !fresh && d < quietUntil {
			continue
		}
		r := serveReq{Due: d, Shard: rng.Intn(serveShards), Fresh: fresh}
		for eligible < len(keys) && keys[eligible].Due <= d-serveLag {
			eligible++
		}
		if fresh {
			next += time.Second / serveFresh
			quietUntil = d + serveQuiet
			if len(order) == 0 {
				order = rng.Perm(len(serveCells))
			}
			r.Cell, order = order[0], order[1:]
			r.Seed = seed*1_000_000 + int64(len(keys)-len(serveCells))
			keys = append(keys, r)
		} else {
			k := keys[eligible-zipfRank(rng, eligible)]
			r.Cell, r.Seed = k.Cell, k.Seed
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// warmKeys are the keys set-up computes through the cluster: every mix
// cell at warmSeed.
func warmKeys() []serveReq {
	keys := make([]serveReq, len(serveCells))
	for c := range keys {
		keys[c] = serveReq{Due: -time.Hour, Cell: c, Seed: warmSeed}
	}
	return keys
}

// zipfRank draws a rank in [1, n] with probability proportional to
// 1/rank.
func zipfRank(rng *rand.Rand, n int) int {
	h := 0.0
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	u := rng.Float64() * h
	for r := 1; r <= n; r++ {
		if u -= 1 / float64(r); u <= 0 {
			return r
		}
	}
	return n
}

// serveEntry is the plan entry tpserved builds for a GET of the cell at
// the seed, so its CanonicalKey is the key the shards cache under.
func serveEntry(cell int, seed int64) experiments.PlanEntry {
	c := serveCells[cell]
	art, _ := experiments.LookupArtefact(c.artefact)
	plat, _ := hw.PlatformByName(c.platform)
	cfg := experiments.Config{Platform: plat, Samples: serveSamples, Seed: seed}
	return experiments.PlanEntry{Artefact: art, Config: cfg.Canonical()}
}

func serveURL(addr string, r serveReq) string {
	c := serveCells[r.Cell]
	return fmt.Sprintf("http://%s/v1/artefacts/%s?platform=%s&samples=%d&seed=%d",
		addr, c.artefact, c.platform, serveSamples, r.Seed)
}

// inflight maps the keys of requests in flight to their trace and root
// span, so spans recorded inside the shards (runner calls, peer hops)
// join the request that caused them.
type inflight struct {
	mu sync.Mutex
	m  map[string][2]uint64
}

func (f *inflight) set(keys []string, trace, span uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range keys {
		f.m[k] = [2]uint64{trace, span}
	}
}

func (f *inflight) clear(keys []string, trace uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range keys {
		if f.m[k][0] == trace {
			delete(f.m, k)
		}
	}
}

func (f *inflight) get(key string) (trace, span uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.m[key]
	return v[0], v[1]
}

// peerKey identifies a cell as both the runner and the peer hop can see
// it.
func peerKey(artefact, arch, seed string) string { return artefact + "|" + arch + "|" + seed }

// hopTransport times every peer request a shard sends: read-through
// forwards and replication pushes.
type hopTransport struct {
	base http.RoundTripper
	tr   *Tracer
	keys *inflight
}

func (h hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := h.base.RoundTrip(req)
	t1 := time.Now()
	name, key := "cluster.replicate", strings.TrimPrefix(req.URL.Path, cluster.ReplicaPathPrefix)
	if req.URL.Path == cluster.EntryPath {
		q := req.URL.Query()
		name, key = "cluster.forward", peerKey(q.Get("artefact"), q.Get("platform"), q.Get("seed"))
	}
	trace, parent := h.keys.get(key)
	h.tr.Add(Span{Name: name, Trace: trace, Parent: parent, Start: t0, End: t1})
	return resp, err
}

// shard is one in-process tpserved: a service.Server over its own
// durable store and cluster view, on a loopback listener.
type shard struct {
	addr   string
	dir    string
	srv    *http.Server
	svc    *service.Server
	cl     *cluster.Cluster
	st     *store.Store
	served chan struct{} // closed when Serve returns
}

// startShards boots the cluster the way tpserved -peers does, with one
// pool worker per shard and a memory LRU below the working set. With a
// tracer, runner calls and peer hops are timed.
func startShards(dir string, tr *Tracer, keys *inflight) (shards []*shard, err error) {
	defer func() {
		if err != nil {
			stopShards(shards)
		}
	}()
	lns := make([]net.Listener, serveShards)
	addrs := make([]string, serveShards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range lns {
		copts := cluster.Options{Self: addrs[i], Peers: addrs, Replicas: 1, BreakerThreshold: 1}
		if tr != nil {
			copts.Client = &http.Client{Transport: hopTransport{
				base: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
				tr:   tr, keys: keys,
			}}
		}
		cl, err := cluster.New(copts)
		if err != nil {
			closeListeners(lns[i:])
			return shards, err
		}
		sdir := filepath.Join(dir, "shard"+strconv.Itoa(i))
		st, err := store.Open(sdir, store.Options{})
		if err != nil {
			cl.Close()
			closeListeners(lns[i:])
			return shards, err
		}
		sopts := service.Options{Parallel: 1, CacheEntries: serveLRU, Store: st, Cluster: cl}
		if tr != nil {
			sopts.Runner = func(e experiments.PlanEntry) (string, error) {
				t0 := time.Now()
				out, err := e.Output()
				t1 := time.Now()
				trace, parent := keys.get(peerKey(e.Artefact.Name, e.Config.Platform.Arch, strconv.FormatInt(e.Config.Seed, 10)))
				tr.Add(Span{Name: "service.Runner", Trace: trace, Parent: parent, Start: t0, End: t1})
				return out, err
			}
		}
		svc := service.New(sopts)
		s := &shard{addr: addrs[i], dir: sdir, svc: svc, cl: cl, st: st,
			srv: &http.Server{Handler: svc.Handler()}, served: make(chan struct{})}
		shards = append(shards, s)
		go func(ln net.Listener) {
			defer close(s.served)
			s.srv.Serve(ln)
		}(lns[i])
	}
	return shards, nil
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		l.Close()
	}
}

// stopShards drains the cluster in tpserved's shutdown order once the
// write-behind replication has landed.
func stopShards(shards []*shard) {
	for _, s := range shards {
		s.cl.WaitReplication()
	}
	for _, s := range shards {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		<-s.served
	}
	for _, s := range shards {
		s.svc.Close()
		s.cl.Close()
		s.st.Close()
	}
}

// serveSetup is the timed set-up of a serve pass: a cold snapshot
// layer, the shards with their stores, and a GET of every warm key
// through the cluster, which captures every boot snapshot the mix needs
// (so the measured requests run warm) and leaves the warm keys stored
// and replicated on both shards.
func serveSetup(dir string, tr *Tracer, keys *inflight) ([]*shard, error) {
	snapshot.Reset()
	shards, err := startShards(dir, tr, keys)
	if err != nil {
		return nil, err
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, k := range warmKeys() {
		if o := fetch(client, serveURL(shards[0].addr, k)); o.err != nil {
			stopShards(shards)
			return nil, fmt.Errorf("warm %v: %w", serveCells[k.Cell], o.err)
		}
	}
	for _, s := range shards {
		s.cl.WaitReplication()
	}
	return shards, nil
}

// serveObs is what the client saw of one request.
type serveObs struct {
	late, lat      time.Duration
	xcache, origin string
	sum            [sha256.Size]byte
	err            error
}

func (o serveObs) computed() bool {
	return o.xcache == api.CacheMiss || (o.xcache == api.CacheForward && o.origin == api.CacheMiss)
}

// runServe sends the open-loop schedule to a 2-shard cluster. The
// operation is a request: op_p50_ms times the computed ones, the class
// whose work an optimisation of the program changes; served requests
// and lateness are class metrics.
func runServe(e env) (*pass, error) {
	p := newPass()
	reqs := serveSchedule(e.seed, e.seconds)
	keys := &inflight{m: map[string][2]uint64{}}

	var shards []*shard
	setups := make([]float64, serveSetups)
	for i := range setups {
		if shards != nil {
			stopShards(shards)
		}
		t0 := time.Now()
		var err error
		shards, err = serveSetup(filepath.Join(e.work, "setup"+strconv.Itoa(i)), e.tr, keys)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	p.e2e["setup_s"] = median(setups)

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	obs := sendSchedule(reqs, shards, e.tr, keys)
	wall := time.Since(t0).Seconds()
	for _, s := range shards {
		s.cl.WaitReplication()
	}
	if err := p.endTimed(); err != nil {
		return nil, err
	}
	if e.tr != nil {
		serveLayers(p, reqs, obs, shards, e.tr.Spans())
	}
	stopShards(shards)

	var served, computed, late []float64
	for _, o := range obs {
		late = append(late, ms(o.late))
		switch {
		case o.err != nil:
		case o.computed():
			computed = append(computed, ms(o.lat))
		default:
			served = append(served, ms(o.lat))
		}
	}
	p.setOps(len(obs), wall, computed)
	setPercentile(p.classes, "bench.served_p50_ms", served, 0.50)
	setPercentile(p.classes, "bench.served_p90_ms", served, 0.90)
	setPercentile(p.classes, "bench.computed_p90_ms", computed, 0.90)
	setPercentile(p.classes, "bench.late_p90_ms", late, 0.90)
	// The p99 tails sit in the garbage collector's stop-the-world waits
	// for an idle CPU to wake, which a 2-CPU VM serves in 2 to 9 ms
	// depending on host load.
	setPercentile(p.classes, "bench.served_p99_ms", served, 0.99)
	setPercentile(p.classes, "bench.late_p99_ms", late, 0.99)

	if err := checkServe(p, e.seed, reqs, obs); err != nil {
		return nil, err
	}
	p.sim = func() ([]*trace.Sink, error) { return simPlan(serveCheckEntries(e.seed, reqs)) }
	return p, nil
}

// sendSchedule plays the schedule with serveClients workers. Each
// request is timed from when it was due, and its lateness is how long
// after that a worker picked it up.
func sendSchedule(reqs []serveReq, shards []*shard, tr *Tracer, keys *inflight) []serveObs {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	obs := make([]serveObs, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := reqs[i]
				due := start.Add(r.Due)
				sent := time.Now()
				trace, span := uint64(i+1), tr.NewID()
				var rkeys []string
				if tr != nil {
					en := serveEntry(r.Cell, r.Seed)
					rkeys = []string{
						peerKey(en.Artefact.Name, en.Config.Platform.Arch, strconv.FormatInt(r.Seed, 10)),
						service.ContentKey(en.CanonicalKey()),
					}
					keys.set(rkeys, trace, span)
				}
				o := fetch(client, serveURL(shards[r.Shard].addr, r))
				end := time.Now()
				keys.clear(rkeys, trace)
				tr.Add(Span{Name: "GET " + serveCells[r.Cell].artefact, Trace: trace, ID: span, Start: sent, End: end})
				o.late, o.lat = sent.Sub(due), end.Sub(due)
				obs[i] = o
			}
		}()
	}
	for i, r := range reqs {
		if d := time.Until(start.Add(r.Due)); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return obs
}

func fetch(client *http.Client, url string) serveObs {
	resp, err := client.Get(url)
	if err != nil {
		return serveObs{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return serveObs{
		xcache: resp.Header.Get(api.HeaderCache), origin: resp.Header.Get(api.HeaderOriginCache),
		sum: sha256.Sum256(body), err: err,
	}
}

// serveLayers derives the per-layer metrics of a traced serve pass.
func serveLayers(p *pass, reqs []serveReq, obs []serveObs, shards []*shard, spans []Span) {
	l := p.layers
	byDisp := map[string][]float64{}
	for _, o := range obs {
		if o.err == nil {
			byDisp[o.xcache] = append(byDisp[o.xcache], ms(o.lat))
		}
	}
	for _, d := range dispositions {
		l["service."+d] = float64(len(byDisp[d]))
		setPercentile(l, "service."+d+"_p50_ms", byDisp[d], 0.5)
	}
	run := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == "service.Runner" && s.Trace != 0 {
			run[s.Trace] += s.End.Sub(s.Start)
		}
	}
	var wait []float64
	for i, o := range obs {
		if d, ok := run[uint64(i+1)]; ok && o.err == nil && o.computed() {
			wait = append(wait, ms(o.lat-d))
		}
	}
	setPercentile(l, "service.run_ms_p50", durationsMs(spans, "service.Runner"), 0.5)
	setPercentile(l, "service.wait_ms_p50", wait, 0.5)
	hops := append(durationsMs(spans, "cluster.forward"), durationsMs(spans, "cluster.replicate")...)
	setPercentile(l, "cluster.hop_ms_p50", hops, 0.5)
	setPercentile(l, "cluster.hop_ms_p90", hops, 0.9)
	for _, s := range shards {
		m := s.svc.Snapshot()
		l["service.singleflight_shared"] += float64(m.Singleflight.Shared)
		l["service.cache_evictions"] += float64(m.Cache.Evictions)
		cs := s.cl.Stats()
		l["cluster.forwards"] += float64(cs.Forwards)
		l["cluster.forward_shared"] += float64(cs.ForwardShared)
		l["cluster.replicated"] += float64(cs.Replication.Acked)
		ss := s.st.Stats()
		l["store.hits"] += float64(ss.Hits)
		l["store.puts"] += float64(ss.Puts)
		l["store.updates"] += float64(ss.Updates)
		if fi, err := os.Stat(filepath.Join(s.dir, "journal.jsonl")); err == nil {
			l["store.journal_bytes"] += float64(fi.Size())
		}
	}
}

// serveCheckKeys is the seeded sample of distinct served keys whose
// bodies are recomputed in-process.
func serveCheckKeys(seed int64, reqs []serveReq) []serveReq {
	var fresh []serveReq
	for _, r := range reqs {
		if r.Fresh {
			fresh = append(fresh, r)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []serveReq
	for _, i := range rng.Perm(len(fresh))[:min(serveChecks, len(fresh))] {
		out = append(out, fresh[i])
	}
	return out
}

func serveCheckEntries(seed int64, reqs []serveReq) []experiments.PlanEntry {
	var out []experiments.PlanEntry
	for _, r := range serveCheckKeys(seed, reqs) {
		out = append(out, serveEntry(r.Cell, r.Seed))
	}
	return out
}

// checkServe counts every request: it must have succeeded, and every
// body of one key must be identical. A seeded sample of keys is then
// recomputed in-process from a cold snapshot layer and must equal the
// served bytes.
func checkServe(p *pass, seed int64, reqs []serveReq, obs []serveObs) error {
	type key struct {
		cell int
		seed int64
	}
	first := map[key][sha256.Size]byte{}
	for i, o := range obs {
		k := key{reqs[i].Cell, reqs[i].Seed}
		if o.err != nil {
			p.check(false, "serve request %d: %v", i, o.err)
			continue
		}
		want, seen := first[k]
		if !seen {
			first[k], want = o.sum, o.sum
		}
		p.check(o.sum == want, "serve request %d: body differs from an earlier body of %v", i, serveCells[k.cell])
	}
	snapshot.Reset()
	for _, r := range serveCheckKeys(seed, reqs) {
		en := serveEntry(r.Cell, r.Seed)
		out, err := en.Output()
		if err != nil {
			return fmt.Errorf("recompute %s: %w", en.JobName(), err)
		}
		got, ok := first[key{r.Cell, r.Seed}]
		p.check(ok && got == sha256.Sum256([]byte(out)), "serve %s seed %d: served body differs from Artefact.Output", en.JobName(), en.Config.Seed)
	}
	if p.attempted == 0 {
		return errors.New("no request was sent")
	}
	return nil
}
