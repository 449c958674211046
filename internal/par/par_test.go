package par

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d", got)
	}
}

func TestInner(t *testing.T) {
	cases := []struct{ budget, outer, want int }{
		{8, 2, 4},
		{8, 3, 2},
		{8, 16, 1}, // oversubscribed outer: inner floors at 1
		{1, 4, 1},
		{6, 6, 1},
	}
	for _, c := range cases {
		if got := Inner(c.budget, c.outer); got != c.want {
			t.Errorf("Inner(%d, %d) = %d, want %d", c.budget, c.outer, got, c.want)
		}
	}
	if got := Inner(4, 0); got != 4 {
		t.Errorf("Inner(4, 0) = %d, want the full budget", got)
	}
}

// TestForEachRunsAll checks that every index runs once and that no more
// than workers calls are ever in flight.
func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		var sum, calls, active, peak atomic.Int64
		err := ForEach(context.Background(), workers, 50, func(i int) error {
			a := active.Add(1)
			for p := peak.Load(); a > p; p = peak.Load() {
				if peak.CompareAndSwap(p, a) {
					break
				}
			}
			defer active.Add(-1)
			sum.Add(int64(i))
			calls.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != 50 || sum.Load() != 49*50/2 {
			t.Fatalf("workers=%d: calls=%d sum=%d", workers, calls.Load(), sum.Load())
		}
		if peak.Load() > int64(workers) {
			t.Fatalf("workers=%d: %d calls in flight", workers, peak.Load())
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := ForEach(context.Background(), 2, 1000, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls.Load() == 1000 {
		t.Error("error did not stop the feed")
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := ForEach(ctx, 1, 1000, func(i int) error {
		if calls.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() == 1000 {
		t.Error("cancellation did not stop the feed")
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDoDisjointSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out := make([]int, 64)
		Do(workers, len(out), func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestChunksCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 5, 64, 101} {
			out := make([]int, n)
			spanOf := make([]int, n)
			Chunks(workers, n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i]++
					spanOf[i] = w
				}
			})
			for i, v := range out {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, v)
				}
			}
			// Spans are contiguous and ordered: span ids never decrease.
			for i := 1; i < n; i++ {
				if spanOf[i] < spanOf[i-1] {
					t.Fatalf("workers=%d n=%d: span ids out of order at %d", workers, n, i)
				}
			}
		}
	}
}

func TestChunksSpanIDsDisjoint(t *testing.T) {
	// Each span id is owned by exactly one invocation, so per-worker
	// scratch indexed by w needs no synchronization.
	workers := 4
	n := 37
	var calls atomic.Int64
	seen := make([]atomic.Int64, workers)
	Chunks(workers, n, func(w, lo, hi int) {
		calls.Add(1)
		seen[w].Add(1)
	})
	if calls.Load() != int64(workers) {
		t.Fatalf("calls = %d, want %d", calls.Load(), workers)
	}
	for w := range seen {
		if seen[w].Load() != 1 {
			t.Fatalf("span %d invoked %d times", w, seen[w].Load())
		}
	}
}

func TestArgminDeterministicTies(t *testing.T) {
	vals := []float64{5, 3, 9, 3, 3, 7}
	for _, workers := range []int{1, 2, 3, 8} {
		idx, val := Argmin(workers, len(vals), func(_, i int) float64 { return vals[i] })
		if idx != 1 || val != 3 {
			t.Fatalf("workers=%d: argmin = (%d, %v), want (1, 3)", workers, idx, val)
		}
	}
}

func TestArgminSkipsNaN(t *testing.T) {
	nan := math.NaN()
	vals := []float64{nan, 4, nan, 2, nan}
	for _, workers := range []int{1, 2, 5} {
		idx, val := Argmin(workers, len(vals), func(_, i int) float64 { return vals[i] })
		if idx != 3 || val != 2 {
			t.Fatalf("workers=%d: argmin = (%d, %v), want (3, 2)", workers, idx, val)
		}
	}
	// All NaN → no winner.
	if idx, _ := Argmin(2, 3, func(_, i int) float64 { return nan }); idx != -1 {
		t.Fatalf("all-NaN argmin = %d, want -1", idx)
	}
	// Empty input → no winner.
	if idx, _ := Argmin(2, 0, nil); idx != -1 {
		t.Fatalf("empty argmin = %d, want -1", idx)
	}
	// All +Inf is still a winner (the lowest index), unlike NaN.
	if idx, val := Argmin(2, 4, func(_, i int) float64 { return math.Inf(1) }); idx != 0 || !math.IsInf(val, 1) {
		t.Fatalf("all-Inf argmin = (%d, %v), want (0, +Inf)", idx, val)
	}
}

func TestBudgetFairShare(t *testing.T) {
	b := NewBudget(8)
	if b.total != 8 {
		t.Fatalf("total = %d, want 8", b.total)
	}
	s1, r1 := b.Acquire()
	if s1 != 8 {
		t.Errorf("sole consumer share = %d, want 8", s1)
	}
	s2, r2 := b.Acquire()
	if s2 != 4 {
		t.Errorf("second consumer share = %d, want 4", s2)
	}
	s3, r3 := b.Acquire()
	if s3 != 2 {
		t.Errorf("third consumer share = %d, want 2", s3)
	}
	r2()
	r2() // release is idempotent
	r3()
	s4, r4 := b.Acquire()
	if s4 != 4 {
		t.Errorf("share after releases = %d, want 4 (2 active)", s4)
	}
	r1()
	r4()
	// More consumers than budget still get at least one worker each.
	b2 := NewBudget(2)
	for i := 0; i < 5; i++ {
		s, _ := b2.Acquire()
		if s < 1 {
			t.Fatalf("consumer %d share = %d, want >= 1", i, s)
		}
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share, release := b.Acquire()
			defer release()
			if share < 1 || share > 4 {
				t.Errorf("share = %d, want in [1, 4]", share)
			}
		}()
	}
	wg.Wait()
	// All released: the next consumer gets the full budget back.
	if s, _ := b.Acquire(); s != 4 {
		t.Errorf("share after all released = %d, want 4", s)
	}
}
