// Package par provides the repository's shared bounded-concurrency
// primitives. Every worker pool — campaign job fleets, Algorithm 1's
// correlation/prune/selection fan-out, parallel experiment runs — draws
// from these helpers, so one GOMAXPROCS-derived budget governs the whole
// process and nested pools can split it instead of multiplying it.
//
// All helpers are deterministic by construction for workloads whose units
// write to disjoint result slots: scheduling order may vary between runs,
// but no primitive here introduces cross-unit data flow, so outputs are
// identical at any worker count.
package par

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// Workers resolves a worker-count knob: n itself when positive, otherwise
// the process budget (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Inner splits a concurrency budget across `outer` concurrent consumers:
// the per-consumer worker count such that outer × Inner ≈ budget, never
// below 1. Nested pools use this so a campaign running W jobs gives each
// job's analysis budget/W workers instead of W × budget goroutines.
func Inner(budget, outer int) int {
	if outer <= 0 {
		return Workers(budget)
	}
	inner := Workers(budget) / outer
	if inner < 1 {
		return 1
	}
	return inner
}

// ForEach runs fn(0) … fn(n-1) on up to `workers` goroutines and waits for
// all of them. The first non-nil error (or ctx cancellation) stops further
// indices from starting — already-running calls finish — and is returned.
// workers <= 0 uses the process budget.
func ForEach(ctx context.Context, workers, n int, fn func(int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return ctx.Err()
	}

	idx := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-stop:
			break feed
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// Do runs fn(0) … fn(n-1) on up to `workers` goroutines and waits for all
// of them — ForEach without errors or cancellation, for pure fan-out
// kernels. With workers == 1 (or n == 1) it runs inline on the calling
// goroutine, so single-worker invocations cost nothing extra.
func Do(workers, n int, fn func(int)) {
	workers = Workers(workers)
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ForEach(context.Background(), workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// Chunks splits [0, n) into min(workers, n) contiguous spans and runs
// fn(w, lo, hi) once per span, concurrently. The span id w ∈ [0, spans)
// lets callers index per-worker scratch without synchronization: exactly
// one invocation owns each w. Span boundaries depend only on (workers, n),
// never on scheduling, so a kernel whose units write disjoint slots stays
// deterministic at any worker count. workers <= 0 uses the process budget.
func Chunks(workers, n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	spans := Workers(workers)
	if spans > n {
		spans = n
	}
	// Balanced split: the first `rem` spans get one extra index.
	size, rem := n/spans, n%spans
	bounds := func(w int) (int, int) {
		lo := w*size + min(w, rem)
		hi := lo + size
		if w < rem {
			hi++
		}
		return lo, hi
	}
	Do(spans, spans, func(w int) {
		lo, hi := bounds(w)
		fn(w, lo, hi)
	})
}

// Budget divides a fixed machine-wide concurrency budget among a varying
// set of concurrent consumers. Inner handles the static case (a pool of
// known width W); Budget handles the dynamic one — a daemon whose number
// of simultaneously running jobs varies between 0 and W — by recomputing
// the fair share at every Acquire. A job that runs alone gets the whole
// budget; jobs that start while others run get budget/active, never below
// 1. Shares are not rebalanced mid-job: a consumer keeps the width it
// acquired until it releases.
type Budget struct {
	mu     sync.Mutex
	total  int
	active int
}

// NewBudget returns a budget of `total` workers; total <= 0 uses the
// process budget (GOMAXPROCS).
func NewBudget(total int) *Budget {
	return &Budget{total: Workers(total)}
}

// Acquire registers one consumer and returns its fair share of the budget
// plus a release func. release is idempotent and must be called when the
// consumer's work ends.
func (b *Budget) Acquire() (share int, release func()) {
	b.mu.Lock()
	b.active++
	share = b.total / b.active
	b.mu.Unlock()
	if share < 1 {
		share = 1
	}
	var once sync.Once
	return share, func() {
		once.Do(func() {
			b.mu.Lock()
			b.active--
			b.mu.Unlock()
		})
	}
}

// Argmin evaluates score(w, i) for i ∈ [0, n) across contiguous spans (w is
// the Chunks span id, usable as a scratch index) and returns the index and
// value of the smallest score. Ties and NaNs resolve deterministically: the
// lowest index attaining the minimum wins and NaN scores are skipped, so the
// result is identical at any worker count. Returns (-1, +Inf) when n <= 0 or
// every score is NaN.
func Argmin(workers, n int, score func(w, i int) float64) (int, float64) {
	if n <= 0 {
		return -1, math.Inf(1)
	}
	spans := Workers(workers)
	if spans > n {
		spans = n
	}
	bestIdx := make([]int, spans)
	bestVal := make([]float64, spans)
	Chunks(spans, n, func(w, lo, hi int) {
		idx, val := -1, math.Inf(1)
		for i := lo; i < hi; i++ {
			if s := score(w, i); s < val || (idx < 0 && s <= val) {
				// `s <= val` admits a leading +Inf score so that an
				// all-+Inf span still reports its first index; NaN
				// fails both comparisons and is skipped.
				idx, val = i, s
			}
		}
		bestIdx[w], bestVal[w] = idx, val
	})
	idx, val := -1, math.Inf(1)
	for w := 0; w < spans; w++ {
		// Spans are scanned in index order, so strict < keeps the lowest
		// winning index.
		if bestIdx[w] >= 0 && (bestVal[w] < val || idx < 0) {
			idx, val = bestIdx[w], bestVal[w]
		}
	}
	return idx, val
}
