package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/vclock"
)

// This file holds the load generator: closed-loop clients that call
// shard.Router and shard.Session directly, check what they read, and
// issue the propagation probes.

// prober tracks the propagation probes: ordinary writes, at most one in
// flight per shard, watched until every replica of the owning shard
// covers them. A probe's times run from the moment its write was issued:
// on durable-write the top replica is often covered by the time the ack
// returns, and timing from the watch's opening would measure a race with
// its registration.
type prober struct {
	c        *cluster
	shards   []string                 // shard names in ring order, as c.owned
	inflight map[string]*probe        // shard → its probe in flight
	samples  map[string]*probeSamples // shard → its completed probes
	failed   int64
	next     int // probes rotate over the shards in ring order
}

// probeSamples holds completed probes' times.
type probeSamples struct {
	top  []float64   // ms until the shard's highest-demand replica covers it
	all  []float64   // ms until every replica covers it
	rank [][]float64 // ms until the replica of each demand rank covers it
}

// add appends the first n of q's probes (all of them if n < 0).
func (s *probeSamples) add(q *probeSamples, n int) {
	if n < 0 || n > len(q.all) {
		n = len(q.all)
	}
	s.top = append(s.top, q.top[:n]...)
	s.all = append(s.all, q.all[:n]...)
	for r, xs := range q.rank {
		if r >= len(s.rank) {
			s.rank = append(s.rank, nil)
		}
		s.rank[r] = append(s.rank[r], xs[:n]...)
	}
}

// pool pools the same number of probes from every shard, the fewest any
// shard completed: with one probe in flight per shard, a shard whose
// writes propagate faster completes more of them, and pooling them all
// would weigh it more.
func pool(byShard map[string]*probeSamples, shards []string) *probeSamples {
	n := -1
	for _, name := range shards {
		if q := byShard[name]; q == nil {
			n = 0
		} else if n < 0 || len(q.all) < n {
			n = len(q.all)
		}
	}
	out := &probeSamples{}
	for _, name := range shards {
		if q := byShard[name]; q != nil {
			out.add(q, n)
		}
	}
	return out
}

// count is the number of completed probes over every shard.
func (p *prober) count() int {
	n := 0
	for _, q := range p.samples {
		n += len(q.all)
	}
	return n
}

// probe is one watched write.
type probe struct {
	w      *runtime.Watch
	shard  string
	offset time.Duration // write issued → watch opened
	opened time.Time
}

func newProber(c *cluster) *prober {
	return &prober{c: c, shards: c.router.Shards(), inflight: map[string]*probe{}, samples: map[string]*probeSamples{}}
}

// probeKey returns a key for the next probe, in the next shard in ring
// order that has none in flight, or false if every shard has one.
func (p *prober) probeKey(rng *rand.Rand) (int, bool) {
	for i := range p.shards {
		s := (p.next + i) % len(p.shards)
		if p.inflight[p.shards[s]] == nil {
			p.next = s + 1
			keys := p.c.owned[s]
			return keys[rng.Intn(len(keys))], true
		}
	}
	return 0, false
}

// start watches a just-acked write, issued at issued, unless its shard
// has a probe in flight.
func (p *prober) start(rc shard.Receipt, issued time.Time) {
	if p.inflight[rc.Shard] != nil {
		return
	}
	opened := time.Now()
	w, err := p.c.router.Watch(rc)
	if err != nil {
		p.failed++
		return
	}
	p.inflight[rc.Shard] = &probe{w: w, shard: rc.Shard, offset: opened.Sub(issued), opened: opened}
}

// poll records the probes that have completed, and abandons as failed
// those older than probeTimeout.
func (p *prober) poll() {
	for _, pr := range p.inflight {
		select {
		case <-pr.w.Done():
			p.record(pr)
		default:
			if time.Since(pr.opened) > probeTimeout {
				p.abandon(pr)
			}
		}
	}
}

// finish waits for the probes in flight.
func (p *prober) finish() {
	for _, pr := range p.inflight {
		select {
		case <-pr.w.Done():
			p.record(pr)
		case <-time.After(probeTimeout - time.Since(pr.opened)):
			p.abandon(pr)
		}
	}
}

func (p *prober) abandon(pr *probe) {
	if g, ok := p.c.router.Group(pr.shard); ok {
		g.Cluster().Unwatch(pr.w)
	}
	p.failed++
	delete(p.inflight, pr.shard)
}

func (p *prober) record(pr *probe) {
	ids := p.c.byRank[pr.shard]
	q := p.samples[pr.shard]
	if q == nil {
		q = &probeSamples{rank: make([][]float64, len(ids))}
		p.samples[pr.shard] = q
	}
	var worst time.Duration
	for r, id := range ids {
		d, _ := pr.w.TimeOf(id)
		d += pr.offset
		ms := float64(d) / 1e6
		q.rank[r] = append(q.rank[r], ms)
		if r == 0 {
			q.top = append(q.top, ms)
		}
		worst = max(worst, d)
	}
	q.all = append(q.all, float64(worst)/1e6)
	delete(p.inflight, pr.shard)
}

// gen is one closed-loop client.
type gen struct {
	c           *cluster
	id          int
	rng         *rand.Rand
	zipf        *rand.Zipf
	sess        *shard.Session
	model       *lww
	own         map[int]version // session clients: their last acked write per key
	seq         uint64
	reads       hist
	writes      hist
	ops         int64
	failed      int64
	timedWrites int64
	checkErr    error
	probe       *prober
	spans       *spanBuf
	serving     map[string]vclock.NodeID
}

func newGen(c *cluster, id int, seed int64, keys int) *gen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	g := &gen{c: c, id: id, rng: rng, model: newLWW(keys), serving: map[string]vclock.NodeID{}}
	if c.spec.zipfS > 1 {
		g.zipf = rand.NewZipf(rng, c.spec.zipfS, 1, uint64(keys-1))
	}
	if c.spec.sessionReadFrac > 0 {
		g.sess = c.router.NewSession()
		g.own = map[int]version{}
	}
	return g
}

func (g *gen) pickKey() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(len(g.c.keys))
}

// traceEvery samples one op in this many for spans in a traced run.
const traceEvery = 64

func (g *gen) run(ops int) {
	for i := 0; i < ops; i++ {
		g.step()
		if g.probe != nil && i%16 == 0 {
			g.probe.poll()
		}
	}
}

// step issues one op and checks what it returns.
func (g *gen) step() {
	g.ops++
	k := g.pickKey()
	read := g.rng.Float64() < g.c.spec.readFrac
	sessionRead := read && g.sess != nil && g.rng.Float64() < g.c.spec.sessionReadFrac
	if !read && g.probe != nil {
		if pk, ok := g.probe.probeKey(g.rng); ok {
			k = pk
		}
	}
	key := g.c.keys[k]
	var root int32 = -1
	traced := g.spans != nil && g.ops%traceEvery == 0
	if traced {
		op := uint64(g.id)<<48 | uint64(g.ops)
		t0 := g.spans.now()
		root = g.spans.add("gen.op", t0, 0, -1, op)
		g.c.router.OwnerOf(key)
		g.spans.add("shard.Router.OwnerOf", t0, g.spans.now(), root, op)
	}
	var err error
	switch {
	case sessionRead:
		err = g.sessionRead(k, key, root)
	case read:
		err = g.read(k, key, root)
	default:
		err = g.write(k, key, root)
	}
	if traced {
		g.spans.setEnd(root, g.spans.now())
	}
	if err != nil {
		g.failed++
	}
}

func (g *gen) spanStart(root int32) int64 {
	if root < 0 {
		return 0
	}
	return g.spans.now()
}

func (g *gen) spanEnd(root int32, name string, start int64) {
	if root >= 0 {
		g.spans.add(name, start, g.spans.now(), root, g.spans.spans[root].op)
	}
}

func (g *gen) read(k int, key string, root int32) error {
	s := g.spanStart(root)
	t0 := time.Now()
	v, found, err := g.c.router.Read(key)
	g.reads.record(uint64(time.Since(t0)))
	g.spanEnd(root, "shard.Router.Read", s)
	if err != nil {
		return err
	}
	g.checkFound(k, v, found)
	return nil
}

func (g *gen) sessionRead(k int, key string, root int32) error {
	s := g.spanStart(root)
	t0 := time.Now()
	v, found, err := g.sess.ReadVersioned(key, runtime.LevelSession)
	g.reads.record(uint64(time.Since(t0)))
	g.spanEnd(root, "shard.Session.ReadVersioned", s)
	if err != nil {
		return err
	}
	g.checkFound(k, v.Value, found)
	if own, ok := g.own[k]; ok && g.checkErr == nil {
		g.checkErr = checkSessionRead(k, own, version{clock: v.Clock, ts: v.TS})
	}
	return nil
}

// checkFound checks that a read found a value the benchmark wrote for the
// key (every key is preloaded before the timed phase).
func (g *gen) checkFound(k int, v []byte, found bool) {
	if g.checkErr != nil {
		return
	}
	if !found {
		g.checkErr = fmt.Errorf("key %d: preloaded key read as missing", k)
		return
	}
	if _, err := checkValue(k, g.c.spec.valueBytes, v); err != nil {
		g.checkErr = err
	}
}

func (g *gen) write(k int, key string, root int32) error {
	g.seq++
	w := writeID{client: uint32(g.id), seq: g.seq}
	// Stores alias the values they are given, so every write gets a fresh
	// buffer.
	v := makeValue(make([]byte, g.c.spec.valueBytes), k, w)
	s := g.spanStart(root)
	var rc shard.Receipt
	var err error
	t0 := time.Now()
	if g.sess != nil {
		rc, err = g.sess.Write(key, v)
	} else {
		rc, err = g.c.router.Write(key, v)
	}
	g.writes.record(uint64(time.Since(t0)))
	if g.sess != nil {
		g.spanEnd(root, "shard.Session.Write", s)
	} else {
		g.spanEnd(root, "shard.Router.Write", s)
	}
	if err != nil {
		return err
	}
	g.timedWrites++
	ver := version{clock: rc.Clock, ts: rc.TS}
	g.model.observe(k, ver, w)
	if g.own != nil {
		g.own[k] = ver
	}
	g.serving[rc.Shard] = rc.Node
	if g.probe != nil {
		g.probe.start(rc, t0)
	}
	return nil
}
