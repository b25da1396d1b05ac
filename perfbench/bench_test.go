package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wlog"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() uint64{
		"lognormal":   func() uint64 { return uint64(math.Exp(rng.NormFloat64()*1.5 + 8)) },
		"exponential": func() uint64 { return uint64(rng.ExpFloat64()*5000) + 1 },
		"uniform":     func() uint64 { return uint64(rng.Int63n(1e9)) + 1 },
		"small":       func() uint64 { return uint64(rng.Intn(300)) + 1 },
	}
	for name, draw := range dists {
		var h hist
		xs := make([]float64, 200000)
		for i := range xs {
			v := draw()
			h.record(v)
			xs[i] = float64(v)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			want := exactQuantile(xs, q)
			got := h.quantile(q)
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("%s p%g: histogram %g, exact %g (relative error %.4f)", name, q*100, got, want, rel)
			}
		}
	}
}

func TestHistMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all hist
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		if i%3 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the histogram of the union")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || pyMedian(xs) != 5.5 {
		t.Fatalf("quartiles %g, %g and median %g; want 2.75, 8.25 and 5.5", q1, q3, pyMedian(xs))
	}
}

// receipt is one acked write as the tests generate it.
type receipt struct {
	key int
	v   version
	w   writeID
}

// randomWrites draws writes with colliding clocks, so the timestamp
// tiebreak decides some keys.
func randomWrites(rng *rand.Rand, n, keys int) []receipt {
	seqs := map[vclock.NodeID]uint64{}
	out := make([]receipt, n)
	for i := range out {
		node := vclock.NodeID(rng.Intn(8))
		seqs[node]++
		out[i] = receipt{
			key: rng.Intn(keys),
			v:   version{clock: uint64(rng.Intn(20) + 1), ts: vclock.Timestamp{Node: node, Seq: seqs[node]}},
			w:   writeID{client: uint32(rng.Intn(2)), seq: uint64(i + 1)},
		}
	}
	return out
}

func TestLWWMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const keys = 50
	writes := randomWrites(rng, 2000, keys)
	m := newLWW(keys)
	for _, r := range writes {
		m.observe(r.key, r.v, r.w)
	}
	for k := 0; k < keys; k++ {
		var mine []receipt
		for _, r := range writes {
			if r.key == k {
				mine = append(mine, r)
			}
		}
		w, _, ok := m.winner(k)
		if len(mine) == 0 {
			if ok {
				t.Errorf("key %d: never written, model has a winner", k)
			}
			continue
		}
		sort.Slice(mine, func(i, j int) bool {
			a, b := mine[i].v, mine[j].v
			if a.clock != b.clock {
				return a.clock < b.clock
			}
			if a.ts.Node != b.ts.Node {
				return a.ts.Node < b.ts.Node
			}
			return a.ts.Seq < b.ts.Seq
		})
		if want := mine[len(mine)-1].w; !ok || w != want {
			t.Errorf("key %d: model winner %v, brute force %v", k, w, want)
		}
	}
}

// storeOf applies the writes, in shuffled order, to a real store.
func storeOf(rng *rand.Rand, writes []receipt, keys, size int) *store.Store {
	names := keyNames(keys)
	st := store.New()
	for _, i := range rng.Perm(len(writes)) {
		r := writes[i]
		st.Apply(wlog.Entry{TS: r.v.ts, Key: names[r.key], Clock: r.v.clock,
			Value: makeValue(make([]byte, size), r.key, r.w)})
	}
	return st
}

// mismatches counts keys where the store disagrees with the model.
func mismatches(m *lww, st *store.Store, keys, size int) int {
	names := keyNames(keys)
	bad := 0
	for k := 0; k < keys; k++ {
		v, found := st.Get(names[k])
		if m.checkRead(k, size, v, found) != nil {
			bad++
		}
	}
	return bad
}

func TestLWWAgreesWithStore(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const keys, size = 64, 40
	writes := randomWrites(rng, 3000, keys)
	m := newLWW(keys)
	for _, r := range writes {
		m.observe(r.key, r.v, r.w)
	}
	if bad := mismatches(m, storeOf(rng, writes, keys, size), keys, size); bad != 0 {
		t.Fatalf("%d keys disagree between the store and the reference model", bad)
	}
}

// Mutant: the reference model built with the (Clock, TS) order inverted
// must disagree with the store.
func TestCheckCatchesInvertedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const keys, size = 64, 40
	writes := randomWrites(rng, 3000, keys)
	inverted := newLWW(keys)
	for _, r := range writes {
		v := version{clock: math.MaxUint64 - r.v.clock,
			ts: vclock.Timestamp{Node: -r.v.ts.Node, Seq: math.MaxUint64 - r.v.ts.Seq}}
		inverted.observe(r.key, v, r.w)
	}
	if mismatches(inverted, storeOf(rng, writes, keys, size), keys, size) == 0 {
		t.Fatal("the check accepted a store against a model with the LWW order inverted")
	}
}

// Mutant: a replica holding another write's value, or a corrupt value,
// must fail the check.
func TestCheckCatchesFlippedValue(t *testing.T) {
	const size = 40
	m := newLWW(4)
	m.observe(2, version{clock: 7}, writeID{client: 1, seq: 9})
	good := makeValue(make([]byte, size), 2, writeID{client: 1, seq: 9})
	if err := m.checkRead(2, size, good, true); err != nil {
		t.Fatalf("expected value rejected: %v", err)
	}
	older := makeValue(make([]byte, size), 2, writeID{client: 1, seq: 8})
	if m.checkRead(2, size, older, true) == nil {
		t.Error("accepted another write's value")
	}
	otherKey := makeValue(make([]byte, size), 3, writeID{client: 1, seq: 9})
	if m.checkRead(2, size, otherKey, true) == nil {
		t.Error("accepted a value written for another key")
	}
	corrupt := append([]byte(nil), good...)
	corrupt[size-1] ^= 1
	if m.checkRead(2, size, corrupt, true) == nil {
		t.Error("accepted a corrupt value")
	}
	if m.checkRead(2, size, nil, false) == nil {
		t.Error("accepted a missing key")
	}
}

// Mutant: a session read older than the session's own write must fail.
func TestCheckCatchesStaleSessionRead(t *testing.T) {
	own := version{clock: 5, ts: vclock.Timestamp{Node: 2, Seq: 3}}
	stale := []version{
		{clock: 4, ts: vclock.Timestamp{Node: 7, Seq: 9}},
		{clock: 5, ts: vclock.Timestamp{Node: 1, Seq: 9}},
		{clock: 5, ts: vclock.Timestamp{Node: 2, Seq: 2}},
	}
	for _, got := range stale {
		if checkSessionRead(1, own, got) == nil {
			t.Errorf("accepted stale session read %v after own write %v", got, own)
		}
	}
	for _, got := range []version{own, {clock: 6}, {clock: 5, ts: vclock.Timestamp{Node: 3}}} {
		if err := checkSessionRead(1, own, got); err != nil {
			t.Errorf("rejected fresh session read %v: %v", got, err)
		}
	}
}

// The durable workload's WALs live on memFS: a log written there must
// recover every record.
func TestMemFSRecoversWAL(t *testing.T) {
	fsys := newMemFS()
	l, _, err := wal.Open("wal/n0", wal.Options{FS: fsys, Preallocate: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		e := wlog.Entry{TS: vclock.Timestamp{Node: 0, Seq: uint64(i + 1)}, Key: "k", Value: []byte("value"), Clock: uint64(i + 1)}
		if err := l.Append([]wlog.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec, err := wal.Open("wal/n0", wal.Options{FS: fsys, Preallocate: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := 0
	for _, s := range rec.Steps {
		got += len(s.Entries)
	}
	if got != n {
		t.Fatalf("recovered %d entries, want %d", got, n)
	}
}

// A run must print exactly the metrics BENCHMARK.json names for its kind,
// in their units, finite, and its end-to-end figures above zero.
func TestCheckMetricsAgainstManifest(t *testing.T) {
	bf := &benchFile{}
	if err := json.Unmarshal([]byte(`{
		"end_to_end": [{"name": "a_ms", "unit": "ms", "bound": 0.25}, {"name": "b", "unit": "count", "bound": 0.1}],
		"per_layer": [{"name": "layer.x_ns", "unit": "ns"}]}`), bf); err != nil {
		t.Fatal(err)
	}
	full := map[string]metric{"a_ms": {1.5, "ms"}, "b": {3, "count"}}
	if err := bf.checkMetrics(false, full); err != nil {
		t.Errorf("rejected a complete end-to-end result: %v", err)
	}
	if err := bf.checkMetrics(true, map[string]metric{"layer.x_ns": {0, "ns"}}); err != nil {
		t.Errorf("rejected a complete per-layer result: %v", err)
	}
	bad := map[string]map[string]metric{
		"missing":    {"a_ms": {1.5, "ms"}},
		"wrong unit": {"a_ms": {1.5, "us"}, "b": {3, "count"}},
		"zero":       {"a_ms": {0, "ms"}, "b": {3, "count"}},
		"not finite": {"a_ms": {math.NaN(), "ms"}, "b": {3, "count"}},
		"extra":      {"a_ms": {1.5, "ms"}, "b": {3, "count"}, "c": {1, "count"}},
	}
	for name, got := range bad {
		if err := bf.checkMetrics(false, got); err == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
}
