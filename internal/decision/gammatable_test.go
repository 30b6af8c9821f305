package decision

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"robustscaler/internal/nhpp"
)

// tableProbes are the p values the table tests check: both extremes, the
// common hp targets' α and the median.
var tableProbes = []float64{1e-9, 1e-3, 0.05, 0.1, 0.5, 0.9, 1 - 1e-9}

// TestGammaTableBitIdentical checks every tabled value against the direct
// computation bit for bit, over the whole shape range the table covers.
func TestGammaTableBitIdentical(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 97 // a prime stride still crosses every doubling boundary
	}
	var tab gammaTable
	for _, p := range tableProbes {
		for i := 1; i <= gammaTableShapes; i += stride {
			// A walk that grows the row as a plan does, through every
			// doubling of its backing array.
			got, want := tab.quantile(i, p), gammaQuantileDirect(i, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%g i=%d: table %v, direct %v", p, i, got, want)
			}
			if peek := tab.peek(i, p); math.Float64bits(peek) != math.Float64bits(want) {
				t.Fatalf("p=%g i=%d: peek %v, direct %v", p, i, peek, want)
			}
		}
		tab.quantile(gammaTableShapes, p)
	}
	rows, values := tab.size()
	if rows != len(tableProbes) || values != len(tableProbes)*gammaTableShapes {
		t.Fatalf("size = %d rows, %d values; want %d rows of %d", rows, values, len(tableProbes), gammaTableShapes)
	}
}

// TestGammaTableBounds is the memory-bound test: past the row cap and the
// shape cap the table computes exact values and stays the same size, and
// peek never adds to it.
func TestGammaTableBounds(t *testing.T) {
	var tab gammaTable
	for r := 0; r < gammaTableRows; r++ {
		p := 0.01 + 0.05*float64(r)
		tab.quantile(40, p)
	}
	rows, values := tab.size()
	if rows != gammaTableRows {
		t.Fatalf("rows = %d, want %d", rows, gammaTableRows)
	}
	if values > gammaTableRows*gammaTableShapes {
		t.Fatalf("%d values exceed the %d-value bound", values, gammaTableRows*gammaTableShapes)
	}
	check := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
		if r, v := tab.size(); r != rows || v != values {
			t.Fatalf("%s grew the table: %d rows, %d values; was %d, %d", what, r, v, rows, values)
		}
	}
	// A new p once every row is taken.
	for k := 0; k < 100; k++ {
		p := 0.999 - 1e-4*float64(k)
		check("row cap", tab.quantile(7, p), gammaQuantileDirect(7, p))
	}
	// A shape past the bound, on a tabled p.
	p0 := 0.01
	for _, i := range []int{gammaTableShapes + 1, 1 << 17, 1 << 20} {
		check("shape cap", tab.quantile(i, p0), gammaQuantileDirect(i, p0))
	}
	// peek past the filled length computes without filling.
	check("peek", tab.peek(1000, p0), gammaQuantileDirect(1000, p0))
	// p outside (0, 1) is never tabled.
	check("p=0", tab.quantile(3, 0), 0)
	check("p=1", tab.quantile(3, 1), math.Inf(1))

	// A row never holds more than the shape bound, however it grew.
	var one gammaTable
	for _, n := range []int{1, 3, 1000, gammaTableShapes/2 + 1, gammaTableShapes} {
		one.quantile(n, 0.1)
		if _, v := one.size(); v > gammaTableShapes {
			t.Fatalf("after filling to %d the row holds %d values, bound %d", n, v, gammaTableShapes)
		}
	}
}

// TestGammaTableConcurrent fills and reads one row from several
// goroutines at once, in different orders, and checks every value; run it
// under -race.
func TestGammaTableConcurrent(t *testing.T) {
	var tab gammaTable
	const p, n, workers = 0.1, 600, 8
	want := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		want[i] = gammaQuantileDirect(i, p)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 2*n; k++ {
				i := 1 + k%n // sequential walks, like a plan
				if w%2 == 1 {
					i = 1 + rng.Intn(n) // random jumps, like κ's search
				}
				var got float64
				if w%4 == 3 {
					got = tab.peek(i, p)
				} else {
					got = tab.quantile(i, p)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- "mismatch"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestGammaTableWarmReadZeroAlloc pins the warm read path to zero
// allocations: the table lookup, κ's peek, and QuantileArrival on a warm
// horizon.
func TestGammaTableWarmReadZeroAlloc(t *testing.T) {
	var tab gammaTable
	tab.quantile(500, 0.1)
	if a := testing.AllocsPerRun(100, func() { tab.quantile(321, 0.1) }); a != 0 {
		t.Fatalf("warm quantile allocates %v per read", a)
	}
	if a := testing.AllocsPerRun(100, func() { tab.peek(321, 0.1) }); a != 0 {
		t.Fatalf("warm peek allocates %v per read", a)
	}
	h := NewHorizon(nhpp.Constant{Lambda: 2}, 0, 0.5, 0)
	for i := 1; i <= 300; i++ {
		h.QuantileArrival(i, 0.1)
	}
	if a := testing.AllocsPerRun(100, func() { h.QuantileArrival(250, 0.1) }); a != 0 {
		t.Fatalf("warm QuantileArrival allocates %v per read", a)
	}
}

// TestKappaMatchesUntabled checks κ through the table against the same
// search over directly computed quantiles, including κ beyond the
// table's shape bound.
func TestKappaMatchesUntabled(t *testing.T) {
	for _, c := range []struct{ lambda, tau, alpha float64 }{
		{10, 13, 0.1}, {0.5, 13, 0.1}, {50, 60, 0.05}, {400, 60, 0.1}, {2, 30, 0.5},
	} {
		want := lastTrue(func(i int) bool { return gammaQuantileDirect(i, c.alpha)/c.lambda < c.tau })
		// Before and after a plan-like walk tables α up to κ+2.
		if got := kappaDeterministic(c.lambda, c.tau, c.alpha); got != want {
			t.Fatalf("%+v cold: κ=%d, want %d", c, got, want)
		}
		for i := 1; i <= min(want+2, gammaTableShapes); i++ {
			gammaQuantiles.quantile(i, c.alpha)
		}
		if got := kappaDeterministic(c.lambda, c.tau, c.alpha); got != want {
			t.Fatalf("%+v warm: κ=%d, want %d", c, got, want)
		}
	}
}

// size returns the number of rows and the total capacity, in values, of
// their backing arrays.
func (t *gammaTable) size() (rows, values int) {
	rs := t.rows.Load()
	if rs == nil {
		return 0, 0
	}
	for _, r := range *rs {
		values += cap(*r.vals.Load())
	}
	return len(*rs), values
}
