package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/vclock"
)

// Every value the benchmark writes names itself: the key index, the writer
// and the writer's sequence number, followed by filler bytes derived from
// those three. A value read back can thus be checked against the key it was
// read under without keeping every value written.

// writeID names one write: the client that issued it and its sequence
// number at that client. Client preloadClient marks set-up writes.
type writeID struct {
	client uint32
	seq    uint64
}

const (
	preloadClient = 1<<32 - 1
	valueHeader   = 16
)

// makeValue builds the value for write w of key into buf (len(buf) is the
// value size, at least valueHeader bytes).
func makeValue(buf []byte, key int, w writeID) []byte {
	binary.LittleEndian.PutUint32(buf[0:], uint32(key))
	binary.LittleEndian.PutUint32(buf[4:], w.client)
	binary.LittleEndian.PutUint64(buf[8:], w.seq)
	fill(buf[valueHeader:], key, w)
	return buf
}

// filler is the xorshift stream seeded by one write's identity.
type filler struct{ x uint64 }

func newFiller(key int, w writeID) filler {
	return filler{x: uint64(key)*0x9e3779b97f4a7c15 ^ uint64(w.client)<<40 ^ w.seq | 1}
}

func (f *filler) next() uint64 {
	f.x ^= f.x << 13
	f.x ^= f.x >> 7
	f.x ^= f.x << 17
	return f.x
}

// fill writes the stream of (key, w) into b, eight bytes per step.
func fill(b []byte, key int, w writeID) {
	f := newFiller(key, w)
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, f.next())
	}
	for i := range b {
		b[i] = byte(f.next())
	}
}

// fillMismatch returns the offset of the first 8-byte step of b that
// differs from fill's output, or -1 when b matches.
func fillMismatch(b []byte, key int, w writeID) int {
	f := newFiller(key, w)
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != f.next() {
			return i
		}
	}
	for ; i < len(b); i++ {
		if b[i] != byte(f.next()) {
			return i
		}
	}
	return -1
}

// checkValue verifies that v is a value the benchmark wrote for key and
// returns the write that produced it.
func checkValue(key, size int, v []byte) (writeID, error) {
	if len(v) != size {
		return writeID{}, fmt.Errorf("key %d: value of %d bytes, want %d", key, len(v), size)
	}
	if got := int(binary.LittleEndian.Uint32(v[0:])); got != key {
		return writeID{}, fmt.Errorf("key %d: read a value written for key %d", key, got)
	}
	w := writeID{client: binary.LittleEndian.Uint32(v[4:]), seq: binary.LittleEndian.Uint64(v[8:])}
	if at := fillMismatch(v[valueHeader:], key, w); at >= 0 {
		return writeID{}, fmt.Errorf("key %d: value of write %v is corrupt near byte %d", key, w, valueHeader+at)
	}
	return w, nil
}

// version is a write's position in the store's last-writer-wins order:
// Lamport clock first, timestamp as the tiebreak.
type version struct {
	clock uint64
	ts    vclock.Timestamp
}

func (a version) less(b version) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.ts.Compare(b.ts) < 0
}

// lww is the reference last-writer-wins model: for every key, the acked
// write with the highest version. It is built from write receipts alone,
// independently of the replicas it is checked against.
type lww struct {
	best []lwwSlot
}

type lwwSlot struct {
	v   version
	w   writeID
	set bool
}

func newLWW(keys int) *lww { return &lww{best: make([]lwwSlot, keys)} }

// observe folds one acked write into the model.
func (m *lww) observe(key int, v version, w writeID) {
	s := &m.best[key]
	if !s.set || s.v.less(v) {
		*s = lwwSlot{v: v, w: w, set: true}
	}
}

// merge folds another model over the same keyspace into m.
func (m *lww) merge(o *lww) {
	for k, s := range o.best {
		if s.set {
			m.observe(k, s.v, s.w)
		}
	}
}

// winner returns key's expected write and version.
func (m *lww) winner(key int) (writeID, version, bool) {
	s := m.best[key]
	return s.w, s.v, s.set
}

// checkRead compares a value read for key against the model's winner.
func (m *lww) checkRead(key, size int, v []byte, found bool) error {
	w, _, ok := m.winner(key)
	if !ok {
		if found {
			return fmt.Errorf("key %d: never written but read a value", key)
		}
		return nil
	}
	if !found {
		return fmt.Errorf("key %d: missing, want write %v", key, w)
	}
	got, err := checkValue(key, size, v)
	if err != nil {
		return err
	}
	if got != w {
		return fmt.Errorf("key %d: holds write %v, the reference model expects %v", key, got, w)
	}
	return nil
}

// checkSessionRead verifies read-your-writes for one session read: the
// version served must not be older than the session's own last acked write
// to the key.
func checkSessionRead(key int, own, got version) error {
	if got.less(own) {
		return fmt.Errorf("key %d: session read returned version %v, older than its own acked write %v", key, got, own)
	}
	return nil
}
