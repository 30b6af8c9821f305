package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (nothing inside the program is
// instrumented yet). Parent is the index of the span that caused it, -1
// for a root; spans of one request share Req.
type span struct {
	Name   string
	Layer  string
	Req    int
	Parent int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name, layer string, req, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(t.origin)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Req: req, Parent: parent, Start: s, End: s + d})
	return len(t.spans) - 1
}

// nest moves span child (and nothing else) so that it sits centred
// inside its parent. The depth ladder measures each depth of a request
// in its own execution; nesting the measurements turns them back into
// the tree one traced request would have produced, which is what self
// time is defined on.
func (t *tracer) nest(child int) {
	c := &t.spans[child]
	p := t.spans[c.Parent]
	d := c.dur()
	start := p.Start + (p.dur()-d)/2
	if start < p.Start {
		start = p.Start
	}
	c.Start, c.End = start, start+d
}

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover — overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeChrome writes the spans in Chrome's trace-event format (load it
// in chrome://tracing or ui.perfetto.dev): one complete event per span,
// one row per layer, the request and parent in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	rows := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := rows[s.Layer]
		if !ok {
			tid = len(rows) + 1
			rows[s.Layer] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]any{"span": i, "parent": s.Parent, "req": s.Req},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
