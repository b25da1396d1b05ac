package main

import (
	"fmt"
	"path/filepath"
	"runtime/debug"

	"repro/internal/node"
	"repro/internal/obs"
)

// runLiveTraced is a live workload's traced run. Each episode runs twice
// back to back, untraced and then traced with an observability registry
// and spans, or the other way round on odd episodes, so the box's drift
// over the run cancels out of the tracing overhead: the median over the
// pairs of the untraced over the traced throughput. Per-layer metrics come
// from the traced episodes' counters, from single calls into the last
// traced cluster, and from single-threaded replays of the workload's
// writes through each layer.
func runLiveTraced(cfg runConfig, spec liveSpec, keys []string, o *outcome) error {
	plain, lr := &liveRun{}, &liveRun{}
	reg := obs.NewRegistry()
	var c *cluster
	var model *lww
	var overhead []float64
	for e := 0; e < spec.episodes; e++ {
		var rates [2]float64 // untraced, traced
		for half := 0; half < 2; half++ {
			traced := (half == 1) == (e%2 == 0)
			var r *obs.Registry
			into := plain
			if traced {
				into, r = lr, reg
			}
			p, ec, em, err := runEpisode(cfg, spec, keys, e, r, traced, into)
			if err != nil {
				return err
			}
			if traced {
				rates[1] = median(p.rates)
			} else {
				rates[0] = median(p.rates)
			}
			if traced && e == spec.episodes-1 {
				c, model = ec, em
			} else {
				ec.stop()
			}
			debug.FreeOSMemory()
		}
		overhead = append(overhead, rates[0]/rates[1])
	}
	defer c.stop()
	o.attempted, o.failed = plain.ops+lr.ops, plain.failed+lr.failed
	o.fail(plain.checkErr)
	o.fail(lr.checkErr)
	reportTrace(cfg.out, filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.tsv", spec.name, cfg.seed)), lr.spans)

	o.set("trace.overhead_pct", "%", (median(overhead)-1)*100)
	o.set("go.gc_cycles_per_mop", "count", lr.gcs/(float64(lr.timedOps)/1e6))
	o.set("go.gc_cpu_share", "ratio", ratio(lr.gcCPU, lr.allCPU))

	writes := lr.stat(func(s node.Stats) uint64 { return s.ClientWrites })
	o.set("node.messages_per_write", "count", ratio(lr.stat(func(s node.Stats) uint64 { return s.MessagesHandled }), writes))
	o.set("node.entries_sent_per_write", "count", ratio(lr.stat(func(s node.Stats) uint64 { return s.EntriesSent + s.FastEntriesSent }), writes))
	o.set("node.duplicate_ratio", "ratio", ratio(lr.stat(func(s node.Stats) uint64 { return s.DuplicateDrops }),
		lr.stat(func(s node.Stats) uint64 { return s.EntriesReceived })))
	o.set("node.fast_share", "ratio", ratio(lr.stat(func(s node.Stats) uint64 { return s.FastEntriesGained }),
		lr.stat(func(s node.Stats) uint64 { return s.EntriesAbsorbed })))
	o.set("node.offer_accept_ratio", "ratio", ratio(lr.stat(func(s node.Stats) uint64 { return s.FastOffersAccepted }),
		lr.stat(func(s node.Stats) uint64 { return s.FastOffersReceived })))
	o.set("node.sessions_per_s", "1/s", lr.stat(func(s node.Stats) uint64 { return s.SessionsInitiated })/lr.seconds)
	o.set("runtime.commit_batch_mean", "count", lr.obsMean("repro_commit_batch_size"))
	o.set("runtime.queue_sojourn_mean_us", "us", lr.obsMean("repro_commit_queue_sojourn_seconds")*1e6)
	for r, xs := range pool(lr.probes, lr.shards).rank {
		o.set(fmt.Sprintf("prop.rank%d_p50_ms", r), "ms", exactQuantile(xs, 0.5))
	}
	if err := c.replayCluster(o, model, cfg.seed); err != nil {
		return err
	}
	o.fail(c.verify(model))
	// The single-layer replays run on an otherwise idle process.
	c.stop()

	// A replica's log at the end of an episode holds every write of its
	// shard: the preload plus the episode's timed writes.
	in := replayInput{keys: keys, valueBytes: spec.valueBytes, origins: replicasPerShard,
		logLen: (len(keys) + int(writes)/spec.episodes) / shardCount}
	g := newGen(&cluster{spec: spec, keys: keys}, 0, cfg.seed, len(keys))
	in.stream = make([]int, 1<<16)
	for i := range in.stream {
		in.stream[i] = g.pickKey()
	}
	replayStore(o, in)
	replayVclock(o, in)
	replayWlog(o, in)
	replayNode(o, in)
	replayTransport(o, in)
	if err := replayWAL(o, in); err != nil {
		return err
	}
	genSelfCost(o, spec, cfg.seed)
	paperCheck(cfg, o)
	return nil
}

// statsDelta subtracts protocol counters.
func statsDelta(a, b node.Stats) node.Stats {
	return node.Stats{
		SessionsInitiated:  b.SessionsInitiated - a.SessionsInitiated,
		EntriesSent:        b.EntriesSent - a.EntriesSent,
		EntriesReceived:    b.EntriesReceived - a.EntriesReceived,
		FastOffersReceived: b.FastOffersReceived - a.FastOffersReceived,
		FastOffersAccepted: b.FastOffersAccepted - a.FastOffersAccepted,
		FastEntriesSent:    b.FastEntriesSent - a.FastEntriesSent,
		FastEntriesGained:  b.FastEntriesGained - a.FastEntriesGained,
		MessagesHandled:    b.MessagesHandled - a.MessagesHandled,
		ClientWrites:       b.ClientWrites - a.ClientWrites,
		EntriesAbsorbed:    b.EntriesAbsorbed - a.EntriesAbsorbed,
		DuplicateDrops:     b.DuplicateDrops - a.DuplicateDrops,
	}
}
