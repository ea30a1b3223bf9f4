package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one request (one emulated connection, one rep) share req;
// parent is the index of the enclosing span, or -1 at the root. n is the
// number of operations the interval covers, so a layer drive can time a
// thousand cheap calls with two clock reads.
type span struct {
	name       int32
	parent     int32
	req        int32
	n          int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the benchmark ends. It is owned by one
// goroutine; concurrent feeders each fork their own and the owner merges
// them back once they have stopped.
type tracer struct {
	epoch  time.Time
	names  []string
	byName map[string]int32
	spans  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: map[string]int32{}}
}

// name interns a span name.
func (t *tracer) name(s string) int32 {
	if id, ok := t.byName[s]; ok {
		return id
	}
	id := int32(len(t.names))
	t.names = append(t.names, s)
	t.byName[s] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, parent, req int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes span id, which covered n operations.
func (t *tracer) end(id int32, n int) {
	s := &t.spans[id]
	s.end = t.now()
	s.n = int32(n)
}

// fork returns a tracer for another goroutine sharing t's epoch and the
// names interned so far. It must not intern new names, and its spans may be
// parented only under spans t already holds, never under one another: that
// keeps parent indices valid once merge appends them to t.
func (t *tracer) fork() *tracer {
	return &tracer{epoch: t.epoch, names: t.names, byName: t.byName}
}

// merge appends a stopped fork's spans.
func (t *tracer) merge(f *tracer) { t.spans = append(t.spans, f.spans...) }

// selfTimes returns each span's duration minus the part of it its direct
// children cover. Children are clipped to the parent's interval, so a child
// that outlives its parent cannot drive the self time negative.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
	}
	for i := range spans {
		c := &spans[i]
		if c.parent < 0 {
			continue
		}
		p := &spans[c.parent]
		lo, hi := c.start, c.end
		if lo < p.start {
			lo = p.start
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			self[c.parent] -= hi - lo
		}
	}
	return self
}

// write dumps every span as compact JSON: a name table plus one
// [name, start, end, parent, request, ops] row per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"unit":"ns","columns":["name","start","end","parent","request","ops"],"names":[`)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"spans\":[\n")
	var buf []byte
	for i := range t.spans {
		s := &t.spans[i]
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(s.name), s.start, s.end, int64(s.parent), int64(s.req), int64(s.n)} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
