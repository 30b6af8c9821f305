package decision

import (
	"sync"
	"sync/atomic"

	"robustscaler/internal/stats"
)

// The unit-rate Gamma quantile Gamma(i, 1)⁻¹(p) is the mass Λ that the
// i-th upcoming arrival reaches with probability p (time rescaling), so it
// depends on (i, p) alone, never on the model. Every hp plan walks
// i = 1, 2, … at one p, and κ (eq. 8) searches the same values; each is a
// Newton inversion costing about a microsecond. gammaQuantiles keeps them
// in a process-wide table, one row per p, filled on demand by the same
// function, so a tabled value is bit-identical to a computed one.
//
// The table is bounded: at most gammaTableRows distinct p, each row at
// most gammaTableShapes long, so it never holds more than
// gammaTableRows × gammaTableShapes × 8 B = 2 MiB. A p or shape outside
// the bound is computed as if there were no table; nothing is evicted, so
// a flood of distinct request targets cannot grow memory.
const (
	// gammaTableShapes covers every shape an engine plan walks
	// (i ≤ maxPlanEntries = 10,000), rounded up to a power of two.
	gammaTableShapes = 1 << 14
	// gammaTableRows is the number of distinct p held; a service sees a
	// handful of hp targets.
	gammaTableRows = 16
)

// gammaRow holds Gamma(i, 1)⁻¹(p) at index i−1. Readers load vals and
// never see an element change: a fill writes only past the published
// length (into spare capacity or a fresh copy) and then publishes the
// longer slice.
type gammaRow struct {
	p    float64
	vals atomic.Pointer[[]float64]
	mu   sync.Mutex // serializes fills
}

// gammaTable is the process-wide table. rows is an immutable slice of
// rows, replaced copy-on-write under mu when a new p arrives.
type gammaTable struct {
	rows atomic.Pointer[[]*gammaRow]
	mu   sync.Mutex
}

var gammaQuantiles gammaTable

// gammaQuantileDirect is the untabled computation and the source of every
// tabled value.
func gammaQuantileDirect(i int, p float64) float64 {
	return stats.Gamma{Shape: float64(i), Scale: 1}.Quantile(p)
}

// tabled reports whether (i, p) is within the table's bound.
func tabled(i int, p float64) bool {
	return i >= 1 && i <= gammaTableShapes && p > 0 && p < 1
}

// quantile returns Gamma(i, 1)⁻¹(p), filling p's row up to i when the
// pair is within bound and the table has room for p.
func (t *gammaTable) quantile(i int, p float64) float64 {
	if !tabled(i, p) {
		return gammaQuantileDirect(i, p)
	}
	r := t.row(p, true)
	if r == nil {
		return gammaQuantileDirect(i, p)
	}
	if v := *r.vals.Load(); i <= len(v) {
		return v[i-1]
	}
	return r.fill(i)[i-1]
}

// peek returns the tabled Gamma(i, 1)⁻¹(p) if it is already filled and
// computes it otherwise, adding nothing to the table. κ's search uses it:
// its doubling steps jump far past any plan's length, and filling up to
// them would cost O(κ) inversions where the search needs O(log κ).
func (t *gammaTable) peek(i int, p float64) float64 {
	if tabled(i, p) {
		if r := t.row(p, false); r != nil {
			if v := *r.vals.Load(); i <= len(v) {
				return v[i-1]
			}
		}
	}
	return gammaQuantileDirect(i, p)
}

// row finds p's row. With add set it creates the row when there is room,
// and returns nil when the table already holds gammaTableRows others.
func (t *gammaTable) row(p float64, add bool) *gammaRow {
	if rows := t.rows.Load(); rows != nil {
		for _, r := range *rows {
			if r.p == p {
				return r
			}
		}
	}
	if !add {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var old []*gammaRow
	if rows := t.rows.Load(); rows != nil {
		old = *rows
	}
	for _, r := range old {
		if r.p == p {
			return r // added while we waited for the lock
		}
	}
	if len(old) >= gammaTableRows {
		return nil
	}
	r := &gammaRow{p: p}
	r.vals.Store(new([]float64))
	rows := make([]*gammaRow, len(old), len(old)+1)
	copy(rows, old)
	rows = append(rows, r)
	t.rows.Store(&rows)
	return r
}

// fill extends the row to at least n values (n ≤ gammaTableShapes) and
// returns the published slice.
func (r *gammaRow) fill(n int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := *r.vals.Load()
	if n <= len(v) {
		return v // filled while we waited for the lock
	}
	if n > cap(v) {
		// Double to amortize sequential walks, within the row bound.
		c := max(n, min(2*cap(v), gammaTableShapes))
		grown := make([]float64, len(v), c)
		copy(grown, v)
		v = grown
	}
	for i := len(v) + 1; i <= n; i++ {
		v = append(v, gammaQuantileDirect(i, r.p))
	}
	r.vals.Store(&v)
	return v
}
