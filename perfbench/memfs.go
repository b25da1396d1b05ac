package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// memFS is an in-process, memory-backed vfs.FS for the durable workload's
// write-ahead logs. The WAL's framing, checksums, sync pipeline, ordered
// ack release and recovery all run unchanged; only the device is memory,
// so the figures measure the program's durable path rather than a shared
// disk whose fsync latency drifts from run to run. Sync is a no-op, as it
// is on a tmpfs; bytes counts what was written.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	bytes atomic.Uint64
}

// memData is one file's content. size exceeds len(data) after Truncate
// extends a file (the WAL preallocates segments); the tail reads as zeros.
type memData struct {
	data []byte
	size int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// held returns the heap bytes the files occupy.
func (m *memFS) held() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, d := range m.files {
		n += int64(cap(d.data))
	}
	return n
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	switch {
	case d == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case d == nil || flag&os.O_TRUNC != 0:
		d = &memData{}
		m.files[name] = d
	}
	return &memFile{fs: m, d: d}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return nil, notExist("open", name)
	}
	out := make([]byte, d.size)
	copy(out, d.data)
	return out, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldpath]
	if d == nil {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := filepath.Clean(path) + string(filepath.Separator)
	for name := range m.files {
		if name == path || strings.HasPrefix(name, prefix) {
			delete(m.files, name)
		}
	}
	return nil
}

func (m *memFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	if d == nil {
		return notExist("truncate", name)
	}
	if size < int64(len(d.data)) {
		d.data = d.data[:size]
	}
	d.size = size
	return nil
}

// memFile is a write handle; like an os.File opened for writing, it writes
// at its own offset, which starts at zero.
type memFile struct {
	fs  *memFS
	d   *memData
	off int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	d := f.d
	end := f.off + int64(len(p))
	if end > int64(len(d.data)) {
		if end > int64(cap(d.data)) {
			grown := make([]byte, len(d.data), 2*end)
			copy(grown, d.data)
			d.data = grown
		}
		d.data = d.data[:end]
	}
	copy(d.data[f.off:], p)
	f.off = end
	if end > d.size {
		d.size = end
	}
	f.fs.bytes.Add(uint64(len(p)))
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error { return nil }
