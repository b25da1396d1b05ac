package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/node"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wlog"
)

// This file holds the traced run's per-layer measurements that are taken
// by calling one layer's public API directly, single-threaded, with the
// workload's own keys and values.

// perCall times fn, which makes n calls, reps times and returns the
// median nanoseconds per call.
func perCall(reps, n int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

const replayReps = 5

// replayCluster times single calls into the live cluster's layers and
// reports shard.*, runtime.read_ns, runtime.session_read_ns and
// runtime.write_us. Its writes are acked like any other, so they enter
// model.
func (c *cluster) replayCluster(o *outcome, model *lww, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7265706c6179))
	sample := make([]int, 20000)
	for i := range sample {
		sample[i] = rng.Intn(len(c.keys))
	}
	type target struct {
		cl *runtime.Cluster
		id vclock.NodeID
	}
	targets := make([]target, len(sample))
	for i, k := range sample {
		owner, _ := c.router.OwnerOf(c.keys[k])
		g, _ := c.router.Group(owner)
		targets[i] = target{cl: g.Cluster(), id: c.serving[owner]}
	}
	owner := perCall(replayReps, len(sample), func() {
		for _, k := range sample {
			c.router.OwnerOf(c.keys[k])
		}
	})
	routerRead := perCall(replayReps, len(sample), func() {
		for _, k := range sample {
			c.router.Read(c.keys[k])
		}
	})
	clusterRead := perCall(replayReps, len(sample), func() {
		for i, k := range sample {
			targets[i].cl.Read(targets[i].id, c.keys[k])
		}
	})
	o.set("shard.owner_ns", "ns", owner)
	o.set("shard.router_self_ns", "ns", routerRead-clusterRead-owner)
	o.set("runtime.read_ns", "ns", clusterRead)

	// Session reads and sequential writes go to the first shard's serving
	// replica, over the sampled keys that shard owns.
	name := c.router.Shards()[0]
	g, _ := c.router.Group(name)
	cl, id := g.Cluster(), c.serving[name]
	var mine []int
	for _, k := range sample {
		if o, _ := c.router.OwnerOf(c.keys[k]); o == name {
			mine = append(mine, k)
		}
	}
	if len(mine) == 0 {
		return fmt.Errorf("replay: no sampled key in %s", name)
	}
	var seq uint64
	write := func(k int, do func(key string, v []byte) (runtime.WriteReceipt, error)) error {
		seq++
		w := writeID{client: replayClient, seq: seq}
		rec, err := do(c.keys[k], makeValue(make([]byte, c.spec.valueBytes), k, w))
		if err != nil {
			return fmt.Errorf("replay write: %w", err)
		}
		model.observe(k, version{clock: rec.Clock, ts: rec.TS}, w)
		return nil
	}
	sess := cl.NewSession()
	if err := write(mine[0], func(key string, v []byte) (runtime.WriteReceipt, error) { return sess.Write(id, key, v) }); err != nil {
		return err
	}
	var readErr error
	o.set("runtime.session_read_ns", "ns", perCall(replayReps, len(mine), func() {
		for _, k := range mine {
			if _, _, err := sess.ReadLevel(id, c.keys[k], runtime.LevelSession); err != nil && readErr == nil {
				readErr = err
			}
		}
	}))
	if readErr != nil {
		return fmt.Errorf("replay session read: %w", readErr)
	}
	lat := make([]float64, 0, 2000)
	for i := 0; i < cap(lat); i++ {
		start := time.Now()
		if err := write(mine[i%len(mine)], func(key string, v []byte) (runtime.WriteReceipt, error) {
			return cl.WriteReceipted(id, key, v)
		}); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	o.set("runtime.write_us", "us", median(lat))
	return nil
}

// replayInput is the workload's own write stream, replayed through single
// layers.
type replayInput struct {
	keys       []string
	stream     []int // key indexes in workload order
	valueBytes int
	origins    int // replicas per group: the summaries' width
	logLen     int // entries in a replica's write log at the end of the run
}

// entries builds one write-log entry per stream position, with origins
// taking turns.
func (in replayInput) entries() []wlog.Entry {
	out := make([]wlog.Entry, len(in.stream))
	for i, k := range in.stream {
		v := makeValue(make([]byte, in.valueBytes), k, writeID{client: replayClient, seq: uint64(i)})
		out[i] = wlog.Entry{
			TS:    vclock.Timestamp{Node: vclock.NodeID(i % in.origins), Seq: uint64(i/in.origins + 1)},
			Key:   in.keys[k],
			Value: v,
			Clock: uint64(i + 1),
		}
	}
	return out
}

// replayStore reports store.apply_ns and store.get_ns over a store holding
// every key of the workload.
func replayStore(o *outcome, in replayInput) {
	st := store.New()
	for k, key := range in.keys {
		st.Apply(wlog.Entry{TS: vclock.Timestamp{Node: 0, Seq: uint64(k + 1)}, Key: key,
			Value: make([]byte, in.valueBytes)})
	}
	ents := in.entries()
	clock := uint64(len(in.keys))
	o.set("store.apply_ns", "ns", perCall(replayReps, len(ents), func() {
		for _, e := range ents {
			clock++
			e.Clock = clock
			st.Apply(e)
		}
	}))
	o.set("store.get_ns", "ns", perCall(replayReps, len(in.stream), func() {
		for _, k := range in.stream {
			st.Get(in.keys[k])
		}
	}))
}

// replayVclock reports vclock.clone_ns, lag_delta_ns and merge_ns on
// summaries as wide as a replica group.
func replayVclock(o *outcome, in replayInput) {
	a, b := vclock.NewSummary(), vclock.NewSummary()
	for i := 0; i < in.origins; i++ {
		a.Advance(vclock.NodeID(i), uint64(in.logLen/in.origins+i))
		b.Advance(vclock.NodeID(i), uint64(in.logLen/in.origins+2*i))
	}
	const n = 100000
	var sink *vclock.Summary
	o.set("vclock.clone_ns", "ns", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			sink = a.Clone()
		}
	}))
	_ = sink
	o.set("vclock.lag_delta_ns", "ns", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			a.LagDelta(b)
		}
	}))
	dst := a.Clone()
	o.set("vclock.merge_ns", "ns", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			dst.Merge(b)
		}
	}))
}

// replayWlog reports wlog.append_ns_per_entry (16-write batches) and
// wlog.missing_given_us on a log as long as a replica's at the end of the
// run, against a partner 8 entries behind on every origin.
func replayWlog(o *outcome, in replayInput) {
	ents := in.entries()
	const batch = 16
	o.set("wlog.append_ns_per_entry", "ns", perCall(replayReps, len(ents), func() {
		l := wlog.New()
		writes := make([]wlog.LocalWrite, 0, batch)
		for i := 0; i < len(ents); i += batch {
			writes = writes[:0]
			for _, e := range ents[i:min(i+batch, len(ents))] {
				writes = append(writes, wlog.LocalWrite{Key: e.Key, Value: e.Value, Clock: e.Clock})
			}
			l.AppendBatch(0, writes)
		}
	}))
	l := wlog.New()
	for i := 0; i < in.logLen; i++ {
		e := ents[i%len(ents)]
		l.Append(vclock.NodeID(i%in.origins), e.Key, e.Value, uint64(i+1))
	}
	partner := vclock.NewSummary()
	l.Summary().ForEach(func(n vclock.NodeID, seq uint64) {
		if seq > 8 {
			partner.Advance(n, seq-8)
		}
	})
	const n = 200
	o.set("wlog.missing_given_us", "us", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			l.MissingGiven(partner)
		}
	})/1e3)
}

// replayNode reports node.write_batch_ns_per_entry (ClientWriteBatch in
// 16-write batches at one replica) and node.absorb_ns_per_entry (a
// neighbour absorbing those entries as fast-update payloads).
func replayNode(o *outcome, in replayInput) {
	ents := in.entries()
	const batch = 16
	newNode := func(id vclock.NodeID) *node.Node {
		nbrs := make([]vclock.NodeID, 0, in.origins-1)
		for j := 0; j < in.origins; j++ {
			if vclock.NodeID(j) != id {
				nbrs = append(nbrs, vclock.NodeID(j))
			}
		}
		return node.New(node.Config{ID: id, Neighbors: nbrs, Selector: policy.NewDynamicOrdered(id, nbrs),
			FastPush: true, Demand: func(float64) float64 { return float64(id + 1) }})
	}
	var writeNs, absorbNs []float64
	for r := 0; r < replayReps; r++ {
		src, dst := newNode(0), newNode(1)
		ops := make([]node.WriteOp, 0, batch)
		var logged []wlog.Entry
		start := time.Now()
		for i := 0; i < len(ents); i += batch {
			ops = ops[:0]
			for _, e := range ents[i:min(i+batch, len(ents))] {
				ops = append(ops, node.WriteOp{Key: e.Key, Value: e.Value})
			}
			out, _ := src.ClientWriteBatch(0, ops)
			logged = append(logged, out...)
		}
		writeNs = append(writeNs, float64(time.Since(start).Nanoseconds())/float64(len(ents)))
		start = time.Now()
		for i := 0; i < len(logged); i += batch {
			dst.HandleMessage(0, protocol.Envelope{From: 0, To: 1,
				Msg: protocol.FastPayload{Entries: logged[i:min(i+batch, len(logged))]}})
		}
		absorbNs = append(absorbNs, float64(time.Since(start).Nanoseconds())/float64(len(logged)))
	}
	o.set("node.write_batch_ns_per_entry", "ns", median(writeNs))
	o.set("node.absorb_ns_per_entry", "ns", median(absorbNs))
}

// replayTransport reports transport.memory_send_ns: one envelope carrying
// one of the workload's entries, sent to a draining peer.
func replayTransport(o *outcome, in replayInput) {
	ents := in.entries()
	net := transport.NewMemory(transport.MemoryConfig{Buffer: 1024})
	a, b := net.Attach(0), net.Attach(1)
	drained := make(chan struct{})
	go func() {
		for range b.Recv() {
		}
		close(drained)
	}()
	const n = 100000
	o.set("transport.memory_send_ns", "ns", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			a.Send(protocol.Envelope{To: 1, Msg: protocol.FastPayload{Entries: ents[i%len(ents) : i%len(ents)+1]}})
		}
	}))
	net.Close()
	<-drained
}

// replayWAL reports wal.append_ns_per_record (one entry per Append on a
// fresh log over the in-memory filesystem), wal.bytes_per_user_byte (what
// the log wrote over the values it was given) and
// wal.recovery_records_per_s (re-opening the closed log). The recovered
// log must hold every record.
func replayWAL(o *outcome, in replayInput) error {
	ents := in.entries()
	var ns, perS, written []float64
	for r := 0; r < replayReps; r++ {
		fsys := newMemFS()
		dir := fmt.Sprintf("replay%d", r)
		l, _, err := wal.Open(dir, wal.Options{FS: fsys})
		if err != nil {
			return fmt.Errorf("replay wal: %w", err)
		}
		start := time.Now()
		for i := range ents {
			if err := l.Append(ents[i : i+1]); err != nil {
				l.Close()
				return fmt.Errorf("replay wal: %w", err)
			}
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(ents)))
		if err := l.Close(); err != nil {
			return fmt.Errorf("replay wal: %w", err)
		}
		written = append(written, float64(fsys.bytes.Load()))
		start = time.Now()
		l, rec, err := wal.Open(dir, wal.Options{FS: fsys})
		took := time.Since(start)
		if err != nil {
			return fmt.Errorf("replay wal recovery: %w", err)
		}
		l.Close()
		got := 0
		for _, s := range rec.Steps {
			got += len(s.Entries)
		}
		if got != len(ents) {
			return fmt.Errorf("replay wal recovery: %d of %d records recovered", got, len(ents))
		}
		perS = append(perS, float64(got)/took.Seconds())
	}
	o.set("wal.append_ns_per_record", "ns", median(ns))
	o.set("wal.bytes_per_user_byte", "ratio", median(written)/float64(len(ents)*in.valueBytes))
	o.set("wal.recovery_records_per_s", "records/s", median(perS))
	return nil
}

// genSelfCost reports gen.self_ns_per_op: the load generator's own work
// per op (key and op choice, value building, two clock reads, histogram
// and model updates) with the call into the system left out.
func genSelfCost(o *outcome, spec liveSpec, seed int64) {
	c := &cluster{spec: spec, keys: keyNames(spec.keys)}
	g := newGen(c, 0, seed, spec.keys)
	g.sess = nil
	const n = 200000
	o.set("gen.self_ns_per_op", "ns", perCall(replayReps, n, func() {
		for i := 0; i < n; i++ {
			k := g.pickKey()
			read := g.rng.Float64() < spec.readFrac
			t0 := time.Now()
			if read {
				g.rng.Float64()
				g.reads.record(uint64(time.Since(t0)))
				continue
			}
			g.seq++
			w := writeID{client: 0, seq: g.seq}
			makeValue(make([]byte, spec.valueBytes), k, w)
			g.writes.record(uint64(time.Since(t0)))
			g.model.observe(k, version{clock: g.seq}, w)
		}
	}))
}
