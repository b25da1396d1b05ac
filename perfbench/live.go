package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/demand"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/topology"
	"repro/internal/vclock"
)

// liveSpec describes one live workload: the client op stream driven
// against a router of shardCount shards of replicasPerShard replicas
// through shard.Router and shard.Session.
type liveSpec struct {
	name            string
	keys            int
	zipfS           float64 // > 1: Zipf key popularity; 0: uniform
	valueBytes      int
	readFrac        float64
	sessionReadFrac float64 // share of reads served at session level
	opsPerSecond    int     // nominal rate: a run's timed work is seconds × this
	durable         bool
	// episodes is how many independent clusters share a run's work. A
	// cluster settles into a scheduling mode that shifts all of its
	// figures together (two runs of one seed differed by 20% in
	// throughput); pooling rounds over fresh clusters averages the modes.
	// The saturated write workloads, whose figures shift most, take six.
	episodes         int
	setupsPerEpisode int // setup_s is the median over every set-up of the run
}

var liveSpecs = map[string]liveSpec{
	"read-mostly": {
		name: "read-mostly", keys: 1 << 17, valueBytes: 32,
		readFrac: 0.95, sessionReadFrac: 0.5, opsPerSecond: 700_000,
		episodes: 3, setupsPerEpisode: 1,
	},
	"write-heavy": {
		name: "write-heavy", keys: 4096, zipfS: 1.1, valueBytes: 64,
		readFrac: 0.10, opsPerSecond: 200_000,
		episodes: 6, setupsPerEpisode: 3,
	},
	"durable-write": {
		name: "durable-write", keys: 16384, valueBytes: 256,
		readFrac: 0.10, opsPerSecond: 36_000, durable: true,
		episodes: 6, setupsPerEpisode: 1,
	},
}

const (
	shardCount       = 4
	replicasPerShard = 8
	// sessionInterval is the replicas' mean anti-entropy session interval.
	sessionInterval = 10 * time.Millisecond
	// topologySeed fixes each cluster's graph and demand field: the shape
	// is part of the workload, while --seed varies the op stream and the
	// replicas' session timing.
	topologySeed = 20020701
	// rounds splits each episode's timed work; throughput is the median
	// round's.
	rounds = 10
	// probeTimeout bounds one propagation probe; a probe that has not
	// reached every replica of its shard by then counts as a failed op.
	probeTimeout = 5 * time.Second
	// replayClient marks the single-threaded replay writes of a traced run.
	replayClient = preloadClient - 1
)

// clients is the closed-loop client count: one per CPU, since each client
// waits for its reply before sending the next op.
func clients() int { return goruntime.NumCPU() }

// cluster is one live router with what the benchmark knows about it.
type cluster struct {
	spec    liveSpec
	router  *shard.Router
	cancel  context.CancelFunc
	fsys    *memFS
	reg     *obs.Registry
	keys    []string
	byRank  map[string][]vclock.NodeID // shard → replica ids, highest demand first
	serving map[string]vclock.NodeID   // shard → replica its receipts name
	owned   [][]int                    // key indexes owned by each shard, in ring order
}

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
	}
	return keys
}

// newCluster builds and starts a router. fsys, when non-nil, holds the
// replicas' WALs; a router rebuilt over the same fsys recovers from it.
func newCluster(spec liveSpec, seed int64, keys []string, fsys *memFS, reg *obs.Registry) (*cluster, error) {
	total := shardCount * replicasPerShard
	rng := rand.New(rand.NewSource(topologySeed))
	graph := topology.BarabasiAlbert(total, 2, rng)
	field := demand.Uniform(total, 1, 101, rng)
	specs, err := shard.Carve(graph, field, shardCount)
	if err != nil {
		return nil, err
	}
	opts := []runtime.Option{
		runtime.WithPolicy(policy.NewDynamicOrdered),
		runtime.WithFastPush(true),
		runtime.WithSessionInterval(sessionInterval),
		runtime.WithAdvertInterval(10 * time.Millisecond),
	}
	cfg := shard.Config{Seed: seed, Obs: reg}
	if fsys != nil {
		cfg.DataDir = "wal"
		opts = append(opts, runtime.WithDurabilityFS(fsys))
	}
	cfg.RuntimeOptions = opts
	r, err := shard.NewRouter(specs, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.Start(ctx); err != nil {
		cancel()
		r.Stop()
		return nil, err
	}
	c := &cluster{spec: spec, router: r, cancel: cancel, fsys: fsys, reg: reg, keys: keys,
		byRank: map[string][]vclock.NodeID{}, serving: map[string]vclock.NodeID{}}
	for _, s := range specs {
		ids := make([]vclock.NodeID, s.Graph.N())
		for i := range ids {
			ids[i] = vclock.NodeID(i)
		}
		sort.SliceStable(ids, func(a, b int) bool { return s.Field.At(ids[a], 0) > s.Field.At(ids[b], 0) })
		c.byRank[s.Name] = ids
	}
	index := map[string]int{}
	for i, name := range r.Shards() {
		index[name] = i
	}
	c.owned = make([][]int, len(index))
	for k, key := range keys {
		owner, _ := r.OwnerOf(key)
		c.owned[index[owner]] = append(c.owned[index[owner]], k)
	}
	return c, nil
}

func (c *cluster) stop() {
	c.router.Stop()
	c.cancel()
}

// waitServing polls until every replica of every shard serves.
func (c *cluster) waitServing(ctx context.Context) error {
	for _, name := range c.router.Shards() {
		g, _ := c.router.Group(name)
		for id := 0; id < g.N(); id++ {
			for !g.Cluster().Serving(vclock.NodeID(id)) {
				if ctx.Err() != nil {
					return fmt.Errorf("%s/n%d does not serve after recovery", name, id)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

// preload writes every key once, from clients() goroutines, and folds the
// receipts into model.
func (c *cluster) preload(model *lww) error {
	n := clients()
	errs := make(chan error, n)
	parts := make([]*lww, n)
	for j := 0; j < n; j++ {
		parts[j] = newLWW(len(c.keys))
		go func(j int) {
			part := parts[j]
			for k := j; k < len(c.keys); k += n {
				w := writeID{client: preloadClient, seq: uint64(k)}
				v := makeValue(make([]byte, c.spec.valueBytes), k, w)
				rc, err := c.router.Write(c.keys[k], v)
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", c.keys[k], err)
					return
				}
				part.observe(k, version{clock: rc.Clock, ts: rc.TS}, w)
			}
			errs <- nil
		}(j)
	}
	var first error
	for j := 0; j < n; j++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for _, p := range parts {
		model.merge(p)
	}
	return first
}

// converge waits for every shard to converge.
func (c *cluster) converge() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if !c.router.WaitConverged(ctx) {
		return fmt.Errorf("router did not converge within 60s")
	}
	return nil
}

// verify checks every replica of every shard against the reference model,
// and that each shard's replicas agree on their store digest.
func (c *cluster) verify(model *lww) error {
	if err := c.converge(); err != nil {
		return err
	}
	for _, name := range c.router.Shards() {
		g, _ := c.router.Group(name)
		if _, ok := g.Digest(); !ok {
			return fmt.Errorf("%s: replicas converged but their store digests differ", name)
		}
	}
	for k, key := range c.keys {
		owner, _ := c.router.OwnerOf(key)
		g, _ := c.router.Group(owner)
		for id := 0; id < g.N(); id++ {
			v, found, err := g.Cluster().Read(vclock.NodeID(id), key)
			if err != nil {
				return fmt.Errorf("%s/n%d: read %s: %w", owner, id, key, err)
			}
			if err := model.checkRead(k, c.spec.valueBytes, v, found); err != nil {
				return fmt.Errorf("%s/n%d: %w", owner, id, err)
			}
		}
	}
	return nil
}

// setUp builds a cluster, preloads it and waits for first convergence,
// timing the whole.
func setUp(spec liveSpec, seed int64, keys []string, reg *obs.Registry) (*cluster, *lww, time.Duration, error) {
	start := time.Now()
	var fsys *memFS
	if spec.durable {
		fsys = newMemFS()
	}
	c, err := newCluster(spec, seed, keys, fsys, reg)
	if err != nil {
		return nil, nil, 0, err
	}
	model := newLWW(len(keys))
	if err := c.preload(model); err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	if err := c.converge(); err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	return c, model, time.Since(start), nil
}

// phase is what one episode's timed phase measured.
type phase struct {
	rates         []float64 // ops/s of each round
	readQ, writeQ roundQuantiles
	reads, writes uint64
	ops, failed   int64
	timedOps      int64
	probes        *prober
	allocs, gcs   float64
	gcCPU, allCPU float64
	heapBytes     float64
	delta         node.Stats // protocol counters over the timed rounds
	seconds       float64
	spans         []*spanBuf
	checkErr      error
	obs           map[string]sumCount // obs histogram families over the timed rounds
}

// sumCount is an obs histogram family's total and observation count.
type sumCount struct{ sum, count float64 }

// obsFamilies are the histogram families a traced run reports means of.
var obsFamilies = []string{
	"repro_commit_batch_size",
	"repro_commit_queue_sojourn_seconds",
}

// obsTotals reads every obsFamilies family's sum and count (nil without a
// registry).
func obsTotals(reg *obs.Registry) map[string]sumCount {
	if reg == nil {
		return nil
	}
	out := make(map[string]sumCount, len(obsFamilies))
	for _, name := range obsFamilies {
		var t sumCount
		for _, h := range reg.Histograms(name) {
			s := h.Snapshot()
			t.sum += s.Sum
			t.count += float64(s.Count)
		}
		out[name] = t
	}
	return out
}

// roundQuantiles collects one latency histogram's p50, p90 and p99 per
// round; the reported figure is their median over the rounds.
type roundQuantiles struct{ p50, p90, p99 []float64 }

func (r *roundQuantiles) add(h *hist) {
	if h.n > 0 {
		r.p50 = append(r.p50, h.quantile(0.50))
		r.p90 = append(r.p90, h.quantile(0.90))
		r.p99 = append(r.p99, h.quantile(0.99))
	}
}

func (r *roundQuantiles) merge(o *roundQuantiles) {
	r.p50 = append(r.p50, o.p50...)
	r.p90 = append(r.p90, o.p90...)
	r.p99 = append(r.p99, o.p99...)
}

// runtime/metrics samples read around the timed phase.
var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readSamples() []float64 {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// timedPhase drives the closed-loop clients through ops operations and
// measures them. model receives every acked write.
func (c *cluster) timedPhase(seed int64, ops int, model *lww, traced bool) *phase {
	n := clients()
	perClient := max(ops/rounds/n, 1)
	base := time.Now()
	gens := make([]*gen, n)
	for j := range gens {
		gens[j] = newGen(c, j, seed, len(c.keys))
		if traced {
			gens[j].spans = newSpanBuf(base)
		}
	}
	p := &phase{probes: newProber(c)}
	gens[0].probe = p.probes

	// Warm-up: a tenth of a round, untimed, so caches fill and lazy
	// set-up finishes before timing.
	c.runRound(gens, (perClient+9)/10)
	for _, g := range gens {
		g.reads, g.writes = hist{}, hist{}
	}
	p.probes.samples = map[string]*probeSamples{}
	p.timedOps = int64(rounds * perClient * n)
	before := c.router.Stats()
	obs0 := obsTotals(c.reg)
	s0 := readSamples()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		d := c.runRound(gens, perClient)
		p.rates = append(p.rates, float64(perClient*n)/d.Seconds())
		var rr, rw hist
		for _, g := range gens {
			rr.merge(&g.reads)
			rw.merge(&g.writes)
			g.reads, g.writes = hist{}, hist{}
		}
		p.readQ.add(&rr)
		p.writeQ.add(&rw)
		p.reads += rr.n
		p.writes += rw.n
	}
	p.seconds = time.Since(start).Seconds()
	s1 := readSamples()
	if obs1 := obsTotals(c.reg); obs1 != nil {
		p.obs = make(map[string]sumCount, len(obs1))
		for name, t := range obs1 {
			p.obs[name] = sumCount{sum: t.sum - obs0[name].sum, count: t.count - obs0[name].count}
		}
	}
	p.delta = statsDelta(before, c.router.Stats())
	p.probes.finish()
	p.allocs, p.gcs, p.gcCPU, p.allCPU = s1[0]-s0[0], s1[1]-s0[1], s1[2]-s0[2], s1[3]-s0[3]
	for _, g := range gens {
		p.ops += g.ops
		p.failed += g.failed
		model.merge(g.model)
		if p.checkErr == nil {
			p.checkErr = g.checkErr
		}
		if g.spans != nil {
			p.spans = append(p.spans, g.spans)
		}
		for shard, id := range g.serving {
			c.serving[shard] = id
		}
	}
	p.failed += p.probes.failed
	p.heapBytes = c.restingHeap()
	return p
}

// restingHeap is the live heap after a forced GC: the smallest of five
// readings 20 ms apart, so that a WAL snapshot in flight (a copy of a
// replica's whole store) does not count. The in-memory WAL device's
// contents are not program heap.
func (c *cluster) restingHeap() float64 {
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		h := float64(ms.HeapAlloc)
		if c.fsys != nil {
			h -= float64(c.fsys.held())
		}
		least = math.Min(least, h)
	}
	return least
}

// runRound runs ops ops on every client at once and returns the round's
// wall time.
func (c *cluster) runRound(gens []*gen, ops int) time.Duration {
	done := make(chan struct{}, len(gens))
	start := time.Now()
	for _, g := range gens {
		go func(g *gen) {
			g.run(ops)
			done <- struct{}{}
		}(g)
	}
	for range gens {
		<-done
	}
	return time.Since(start)
}

// liveRun pools what a run's episodes measured.
type liveRun struct {
	setups, rates, heaps   []float64
	readQ, writeQ          roundQuantiles
	shards                 []string
	probes                 map[string]*probeSamples // shard → the run's probes
	ops, failed, timedOps  int64
	allocs, gcs            float64
	gcCPU, allCPU, seconds float64
	deltas                 []node.Stats
	obs                    map[string]sumCount
	spans                  []*spanBuf
	checkErr               error
}

func (lr *liveRun) fail(err error) {
	if err != nil && lr.checkErr == nil {
		lr.checkErr = err
	}
}

func (lr *liveRun) add(p *phase) {
	lr.rates = append(lr.rates, p.rates...)
	lr.heaps = append(lr.heaps, p.heapBytes)
	lr.readQ.merge(&p.readQ)
	lr.writeQ.merge(&p.writeQ)
	lr.shards = p.probes.shards
	if lr.probes == nil {
		lr.probes = map[string]*probeSamples{}
	}
	for name, q := range p.probes.samples {
		if lr.probes[name] == nil {
			lr.probes[name] = &probeSamples{}
		}
		lr.probes[name].add(q, -1)
	}
	lr.ops += p.ops
	lr.failed += p.failed
	lr.timedOps += p.timedOps
	lr.allocs += p.allocs
	lr.gcs += p.gcs
	lr.gcCPU += p.gcCPU
	lr.allCPU += p.allCPU
	lr.seconds += p.seconds
	lr.deltas = append(lr.deltas, p.delta)
	for name, t := range p.obs {
		if lr.obs == nil {
			lr.obs = map[string]sumCount{}
		}
		acc := lr.obs[name]
		lr.obs[name] = sumCount{sum: acc.sum + t.sum, count: acc.count + t.count}
	}
	lr.spans = append(lr.spans, p.spans...)
	lr.fail(p.checkErr)
}

// obsMean is an obs histogram family's mean over the timed rounds. The
// registry's latency buckets start at 50µs, so quantiles read from them
// cannot resolve the microsecond stages of the commit path; the mean is
// exact.
func (lr *liveRun) obsMean(name string) float64 {
	t := lr.obs[name]
	return ratio(t.sum, t.count)
}

// stat sums one protocol counter over the episodes' timed rounds.
func (lr *liveRun) stat(field func(node.Stats) uint64) float64 {
	var t uint64
	for _, d := range lr.deltas {
		t += field(d)
	}
	return float64(t)
}

// runEpisode runs episode e of a live workload and adds what it measured
// to lr. It sets up a fresh cluster (setupsPerEpisode times, keeping the
// last), runs a third of the run's work, checks the outputs and, for
// durable-write, rebuilds the router cold and checks them again. It
// returns the timed phase and the episode's cluster (the cold rebuild for
// durable-write) still running, with its model.
func runEpisode(cfg runConfig, spec liveSpec, keys []string, e int, reg *obs.Registry, traced bool, lr *liveRun) (*phase, *cluster, *lww, error) {
	work := cfg.seconds * spec.opsPerSecond / spec.episodes
	seed := cfg.seed + int64(e)*1_000_003
	var c *cluster
	var model *lww
	for i := 0; i < spec.setupsPerEpisode; i++ {
		if c != nil {
			c.stop()
			debug.FreeOSMemory()
		}
		// Each set-up draws its own replica seed, so the median averages
		// over session timings; the kept one, set up last, runs on seed.
		var took time.Duration
		var err error
		c, model, took, err = setUp(spec, seed+int64(spec.setupsPerEpisode-1-i)*7919, keys, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		lr.setups = append(lr.setups, took.Seconds())
	}
	p := c.timedPhase(seed, work, model, traced)
	lr.add(p)
	fmt.Fprintf(cfg.out, "# episode %d: %d ops, %.2fs timed; %d reads, %d writes, %d probes; heap %.1f MiB; round rates %s\n",
		e, p.ops, p.seconds, p.reads, p.writes, p.probes.count(), p.heapBytes/(1<<20), fmtRates(p.rates))
	lr.fail(c.verify(model))
	if spec.durable {
		last, err := coldRebuild(cfg, spec, seed, c)
		if err != nil {
			return nil, nil, nil, err
		}
		c = last
		lr.fail(c.verify(model))
	}
	return p, c, model, nil
}

// runEpisodes runs a live workload's untraced episodes, each on its own
// cluster.
func runEpisodes(cfg runConfig, spec liveSpec, keys []string) (*liveRun, error) {
	lr := &liveRun{}
	for e := 0; e < spec.episodes; e++ {
		_, c, _, err := runEpisode(cfg, spec, keys, e, nil, false, lr)
		if err != nil {
			return nil, err
		}
		c.stop()
		debug.FreeOSMemory()
	}
	return lr, nil
}

// report sets the end-to-end metrics.
func (lr *liveRun) report(o *outcome) {
	o.set("setup_s", "s", median(lr.setups))
	o.set("throughput_ops_s", "ops/s", median(lr.rates))
	o.set("read_p50_us", "us", median(lr.readQ.p50)/1e3)
	o.set("read_p99_us", "us", median(lr.readQ.p99)/1e3)
	o.set("write_p50_us", "us", median(lr.writeQ.p50)/1e3)
	o.set("write_p99_us", "us", median(lr.writeQ.p99)/1e3)
	probes := pool(lr.probes, lr.shards)
	o.set("prop_top_p50_ms", "ms", exactQuantile(probes.top, 0.50))
	o.set("prop_all_p50_ms", "ms", exactQuantile(probes.all, 0.50))
	o.set("prop_all_p90_ms", "ms", exactQuantile(probes.all, 0.90))
	o.set("allocs_per_op", "allocs/op", lr.allocs/float64(lr.timedOps))
	o.set("heap_mib", "MiB", median(lr.heaps)/(1<<20))
}

func runLive(cfg runConfig, spec liveSpec) (*outcome, error) {
	keys := keyNames(spec.keys)
	o := &outcome{}
	if cfg.traced {
		return o, runLiveTraced(cfg, spec, keys, o)
	}
	lr, err := runEpisodes(cfg, spec, keys)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = lr.ops, lr.failed
	o.fail(lr.checkErr)
	lr.report(o)
	paperCheck(cfg, o)
	probes := pool(lr.probes, lr.shards)
	fmt.Fprintf(cfg.out, "# probes: %d per shard; top deciles %s; all deciles %s\n",
		len(probes.all)/len(lr.shards), deciles(probes.top), deciles(probes.all))
	return o, nil
}

// deciles renders the 10th to 90th percentiles of xs.
func deciles(xs []float64) string {
	q := make([]float64, 9)
	for i := range q {
		q[i] = exactQuantile(xs, float64(i+1)/10)
	}
	return fmt.Sprintf("%.3g", q)
}

func fmtRates(rates []float64) string {
	s := ""
	for _, r := range rates {
		s += fmt.Sprintf(" %.0f", r)
	}
	return "[" + s[1:] + "]"
}

// coldRebuild stops c and rebuilds the router cold over the same WALs,
// waiting until every replica serves. The rebuilt router is returned
// running.
func coldRebuild(cfg runConfig, spec liveSpec, seed int64, c *cluster) (*cluster, error) {
	fsys, keys, serving := c.fsys, c.keys, c.serving
	c.stop()
	debug.FreeOSMemory()
	start := time.Now()
	r, err := newCluster(spec, seed, keys, fsys, nil)
	if err != nil {
		return nil, fmt.Errorf("cold rebuild: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = r.waitServing(ctx)
	cancel()
	if err != nil {
		r.stop()
		return nil, err
	}
	r.serving = serving
	fmt.Fprintf(cfg.out, "# cold rebuild: %.3g s over %d MiB of WAL and snapshots\n", time.Since(start).Seconds(), fsys.held()>>20)
	return r, nil
}

// ratio guards a ratio against an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
