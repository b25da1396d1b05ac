package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call a traced run records: a layer boundary crossed by
// the benchmark's own code. Spans of one op share its op id; a child names
// its parent by index in the same buffer (-1 for a root).
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's base
	parent     int32
	op         uint64
}

// spanBuf is one goroutine's bounded span buffer: once full, further spans
// are counted and dropped, so memory does not grow with the run.
type spanBuf struct {
	base    time.Time
	spans   []span
	dropped uint64
}

const spansPerBuffer = 1 << 16

func newSpanBuf(base time.Time) *spanBuf {
	return &spanBuf{base: base, spans: make([]span, 0, spansPerBuffer)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.base)) }

// add records a span and returns its index (-1 when dropped).
func (b *spanBuf) add(name string, start, end int64, parent int32, op uint64) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return int32(len(b.spans) - 1)
}

// setEnd closes a root span opened with end 0.
func (b *spanBuf) setEnd(i int32, end int64) {
	if i >= 0 {
		b.spans[i].end = end
	}
}

// selfStat is a span name's count and mean self time: its duration minus
// the part its child spans cover.
type selfStat struct {
	name   string
	count  int
	meanNs float64
}

func selfTimes(bufs []*spanBuf) []selfStat {
	type acc struct {
		n    int
		self int64
	}
	by := map[string]*acc{}
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			a := by[s.name]
			if a == nil {
				a = &acc{}
				by[s.name] = a
			}
			a.n++
			a.self += s.end - s.start - child[i]
		}
	}
	out := make([]selfStat, 0, len(by))
	for name, a := range by {
		out = append(out, selfStat{name: name, count: a.n, meanNs: float64(a.self) / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSpans writes every span as one tab-separated line (op, name, start,
// end, parent) to path.
func writeSpans(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tstart_ns\tend_ns\tparent")
	for bi, b := range bufs {
		for _, s := range b.spans {
			parent := "-"
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", bi, s.parent)
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\n", s.op, s.name, s.start, s.end, parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportTrace writes the spans out and prints each name's self time.
func reportTrace(out io.Writer, path string, bufs []*spanBuf) {
	var dropped uint64
	for _, b := range bufs {
		dropped += b.dropped
	}
	if err := writeSpans(path, bufs); err != nil {
		fmt.Fprintf(out, "# trace: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(out, "# trace: spans in %s (%d dropped once buffers filled)\n", path, dropped)
	}
	for _, s := range selfTimes(bufs) {
		fmt.Fprintf(out, "# trace: self time %-24s n=%-7d mean=%.0f ns\n", s.name, s.count, s.meanNs)
	}
}
