package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/demand"
	"repro/internal/mc"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/vclock"
)

// Every run ends with the paper's §5 Monte-Carlo experiment (Fig. 6) as an
// output check: one write at a random replica of a 100-node
// Barabási–Albert graph with uniform demand, propagated until every
// replica covers it, first by fast consistency (demand-ordered partner
// choice plus fast-update push), then by weak consistency (random
// partners, no push) on the same trial seeds. It runs single-threaded
// after the live clusters are stopped, outside every timed phase; a
// traced run reports its fast arm as the mc.* per-layer metrics.
const (
	simNodes      = 100
	simHighFrac   = 0.2
	simTrials     = 200 // trials of each arm
	simSeedStride = 1_000_003
)

// simArm is what one arm's trials measured.
type simArm struct {
	trials     int
	incomplete int
	sumTop     float64 // simulated sessions until the top-demand replicas cover the write
	sumAll     float64 // simulated sessions until every replica covers it
	messages   uint64
	sessions   uint64
	trialNs    []float64
	busyNs     int64
	allocs     float64
}

// runArm runs trial seeds base..base+n-1 of cfg on the calling goroutine.
func runArm(cfg mc.Config, high []vclock.NodeID, base int64, n int) *simArm {
	a := &simArm{trialNs: make([]float64, 0, n)}
	s0 := readSamples()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res := mc.RunTrial(cfg, base+int64(i))
		d := time.Since(t0).Nanoseconds()
		a.trials++
		a.trialNs = append(a.trialNs, float64(d))
		a.busyNs += d
		a.messages += res.Messages
		a.sessions += res.Sessions
		if !res.Completed {
			a.incomplete++
			continue
		}
		a.sumTop += res.TimeOver(high)
		a.sumAll += res.TimeAll()
	}
	a.allocs = readSamples()[0] - s0[0]
	return a
}

// paperCheck runs both arms and checks that every trial completes before
// the horizon, that the top-demand replicas are covered before all of
// them, and that fast consistency reaches every replica in fewer sessions
// than weak consistency.
func paperCheck(rc runConfig, o *outcome) {
	rng := rand.New(rand.NewSource(topologySeed))
	g := topology.BarabasiAlbert(simNodes, 2, rng)
	f := demand.Uniform(simNodes, 1, 101, rng)
	high := demand.TopFraction(f, simNodes, 0, simHighFrac)
	fastCfg := mc.NewConfig(g, f, policy.NewDynamicOrdered)
	fastCfg.FastPush = true
	base := rc.seed * simSeedStride
	fast := runArm(fastCfg, high, base, simTrials)
	weak := runArm(mc.NewConfig(g, f, policy.NewRandom), high, base, simTrials)

	done := float64(fast.trials - fast.incomplete)
	top, all := fast.sumTop/done, fast.sumAll/done
	weakAll := weak.sumAll / float64(weak.trials-weak.incomplete)
	fmt.Fprintf(rc.out, "# paper check: %d trials per arm; fast: sessions_to_top %.3f, sessions_to_all %.3f; weak: sessions_to_all %.3f\n",
		simTrials, top, all, weakAll)
	switch {
	case fast.incomplete+weak.incomplete > 0:
		o.fail(fmt.Errorf("paper check: %d of %d trials did not complete before the horizon",
			fast.incomplete+weak.incomplete, 2*simTrials))
	case !(top < all):
		o.fail(fmt.Errorf("paper check: sessions_to_top %.4f is not below sessions_to_all %.4f", top, all))
	case !(all < weakAll):
		o.fail(fmt.Errorf("paper check: fast consistency's sessions_to_all %.4f is not below weak consistency's %.4f", all, weakAll))
	}
	if !rc.traced {
		return
	}
	trials := float64(fast.trials)
	o.set("mc.trial_p50_ms", "ms", exactQuantile(fast.trialNs, 0.5)/1e6)
	o.set("mc.ns_per_message", "ns", float64(fast.busyNs)/float64(fast.messages))
	o.set("mc.allocs_per_trial", "count", fast.allocs/trials)
	o.set("mc.messages_per_trial", "count", float64(fast.messages)/trials)
	o.set("mc.sessions_per_trial", "count", float64(fast.sessions)/trials)
}
