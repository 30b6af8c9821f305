package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
}

// The tail a sample is reported at is the highest percentile that still
// has ten samples beyond it.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailP != 0.99 || s.P50 != 500.5 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("summarize = %+v, want n=1000 p50=500.5 tail=p99=990.01", s)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time is the span minus what its direct children cover: children
// that overlap count once, a child reaching past its parent counts only
// inside it, and grandchildren are their parent's business.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Parent: 0, Start: ms(30), End: ms(60)},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // 20 outside the root
		{Name: "a1", Parent: 1, Start: ms(15), End: ms(20)}, // grandchild of root
		{Name: "inside-b", Parent: 2, Start: ms(35), End: ms(55)},
		{Name: "dup-b", Parent: 2, Start: ms(35), End: ms(55)}, // same interval twice
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 5), ms(30 - 20), ms(30), ms(5), ms(20), ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNestCentresChildInParent(t *testing.T) {
	tr := newTracer()
	base := tr.origin
	p := tr.add("parent", "net", 1, -1, base, ms(100))
	c := tr.add("child", "server", 1, p, base.Add(ms(500)), ms(40))
	tr.nest(c)
	if s := tr.spans[c]; s.Start != ms(30) || s.End != ms(70) {
		t.Errorf("nested child spans [%v, %v], want [30ms, 70ms]", s.Start, s.End)
	}
	if self := selfTimes(tr.spans); self[p] != ms(60) || self[c] != ms(40) {
		t.Errorf("self times %v, want [60ms 40ms]", self)
	}
}
