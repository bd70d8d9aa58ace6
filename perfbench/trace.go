package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Times are nanoseconds since the
// tracer's base; Parent indexes the same tracer's span buffer (-1 for a
// root); Op numbers the benchmark operation the span belongs to.
type span struct {
	Name   uint16
	Parent int32
	Op     uint32
	Start  int64
	End    int64
}

// token is an open span: its buffer slot (-1 when the buffer was full) and
// what finishing it needs.
type token struct {
	id    int32
	name  uint16
	start int64
}

// tracer keeps spans in a buffer allocated once, at construction, and
// feeds every finished span's duration into a per-name histogram and
// per-name total and self times. When the buffer is full, later spans are
// counted as dropped but still reach the histograms and the totals, so
// per-layer percentiles and self-time shares cover the whole window. One
// tracer belongs to one caller goroutine, whose spans nest: a span ends
// after every span begun inside it.
type tracer struct {
	base    time.Time
	names   []string
	spans   []span
	dropped uint64
	hists   []*hist
	// Per name: summed duration and summed self time of finished spans.
	totalNs, selfNs []int64
	// childNs[d] sums the finished children of the open span at depth d.
	childNs [8]int64
	depth   int
}

func newTracer(base time.Time, names []string, capacity int) *tracer {
	t := &tracer{base: base, names: names, spans: make([]span, 0, capacity),
		totalNs: make([]int64, len(names)), selfNs: make([]int64, len(names))}
	for range names {
		t.hists = append(t.hists, new(hist))
	}
	return t
}

// open pushes a span onto the nesting stack.
func (t *tracer) open() {
	if t.depth < len(t.childNs) {
		t.childNs[t.depth] = 0
	}
	t.depth++
}

// close pops the innermost open span, named name, which lasted dur.
func (t *tracer) close(name uint16, dur int64) {
	t.depth--
	var kids int64
	if t.depth < len(t.childNs) {
		kids = t.childNs[t.depth]
	}
	t.finished(name, dur, kids)
}

// finished books a span of duration dur whose children took kids into the
// per-name totals and its parent's child time.
func (t *tracer) finished(name uint16, dur, kids int64) {
	t.totalNs[name] += dur
	t.selfNs[name] += dur - kids
	if d := t.depth - 1; d >= 0 && d < len(t.childNs) {
		t.childNs[d] += dur
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span named name (an index into the tracer's names) for
// operation op under parent (-1 for a root).
func (t *tracer) begin(name int, op uint32, parent int32) token {
	tok := token{id: -1, name: uint16(name), start: t.now()}
	t.open()
	if len(t.spans) < cap(t.spans) {
		tok.id = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: uint16(name), Parent: parent, Op: op, Start: tok.start})
	} else {
		t.dropped++
	}
	return tok
}

func (t *tracer) end(tok token) {
	e := t.now()
	t.hists[tok.name].record(e - tok.start)
	t.close(tok.name, e-tok.start)
	if tok.id >= 0 {
		t.spans[tok.id].End = e
	}
}

// add records a finished span, without children, whose times were taken
// elsewhere; it is a child of the innermost open span.
func (t *tracer) add(name int, op uint32, parent int32, start, end int64) {
	t.hists[name].record(end - start)
	t.finished(uint16(name), end-start, 0)
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{Name: uint16(name), Parent: parent, Op: op, Start: start, End: end})
	} else {
		t.dropped++
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. Children
// may overlap each other; coverage is clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// spanSummary is one span name's totals over the buffered spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// summarize folds buffered spans into per-name totals. Spans left open
// (End == 0) are skipped.
func summarize(names []string, spans []span) []spanSummary {
	self := selfTimes(spans)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i].Name = n
	}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		o := &out[s.Name]
		o.Count++
		o.TotalUs += float64(s.End-s.Start) / 1e3
		o.SelfUs += float64(self[i]) / 1e3
	}
	return out
}

// selfFrac is the share of the time the tracers' spans named name took
// that is self time, over every span they finished, buffered or dropped.
func selfFrac(ts []*tracer, name int) float64 {
	var self, total int64
	for _, t := range ts {
		self += t.selfNs[name]
		total += t.totalNs[name]
	}
	return ratio(float64(self), float64(total))
}

// mergeTracers concatenates several callers' buffers (re-basing parent
// indices) and merges their histograms.
func mergeTracers(ts []*tracer) (spans []span, hists []*hist, dropped uint64) {
	if len(ts) == 0 {
		return nil, nil, 0
	}
	for range ts[0].names {
		hists = append(hists, new(hist))
	}
	for _, t := range ts {
		off := int32(len(spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
		for i, h := range t.hists {
			hists[i].merge(h)
		}
		dropped += t.dropped
	}
	return spans, hists, dropped
}

// writeSpans writes the buffered spans and their per-name summary as one
// JSON document: {"workload", "seed", "dropped", "names", "summary",
// "spans": [[name, parent, op, start_ns, end_ns], ...]}.
func writeSpans(path, workload string, seed int64, names []string, spans []span, dropped uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	w := bufio.NewWriter(f)
	head := map[string]any{
		"workload": workload,
		"seed":     seed,
		"dropped":  dropped,
		"names":    names,
		"summary":  summarize(names, spans),
	}
	hb, err := json.Marshal(head)
	if err != nil {
		f.Close()
		return err
	}
	w.Write(hb[:len(hb)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.Name, s.Parent, s.Op, s.Start, s.End)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span output: %w", err)
	}
	return f.Close()
}
