package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the bench around a call into a
// layer. Spans of one op share Op; Parent is the ID of the span that
// caused this one (-1 for an op's root). Start and End are offsets from
// the recorder's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. A nil recorder is
// tracing off: every method is a no-op, so the op code is the same in the
// timed and the traced pass.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.origin)})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.origin)
}

// synthetic records a child span whose duration was reported by the layer
// itself (the server's queue and run times), laid out from start inside
// its parent.
func (r *recorder) synthetic(name string, parent, op int, start, dur time.Duration) time.Duration {
	if r == nil {
		return start
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: start, End: start + dur})
	return start + dur
}

// startOf returns a span's start offset, for laying synthetic children out.
func (r *recorder) startOf(id int) time.Duration {
	if r == nil {
		return 0
	}
	return r.spans[id].Start
}

// covered returns how much of parent's interval its direct children cover:
// the length of the union of the child intervals clipped to the parent.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	end = parent.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// childrenOf groups spans by parent ID.
func childrenOf(spans []span) map[int][]span {
	by := make(map[int][]span)
	for _, s := range spans {
		by[s.Parent] = append(by[s.Parent], s)
	}
	return by
}

// selfTimes sums each span name's self time: a span's duration minus the
// part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	by := childrenOf(spans)
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, by[s.ID])
	}
	return self
}

// spanCover returns, per op, the share of the root span its direct
// children cover — the part of an op the trace can attribute to a layer.
func spanCover(spans []span) []float64 {
	by := childrenOf(spans)
	var out []float64
	for _, root := range by[-1] {
		if d := root.End - root.Start; d > 0 {
			out = append(out, float64(covered(root, by[root.ID]))/float64(d))
		}
	}
	return out
}

// writeSpans flushes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
