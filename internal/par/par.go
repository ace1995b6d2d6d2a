// Package par provides the tiny deterministic worker-pool primitive
// the construction paths fan out over: a bounded parallel for-loop.
// Callers index into pre-sized result slices so assembly order never
// depends on scheduling, only the wall-clock does.
//
// The pool is hardened: a panic inside one iteration no longer kills
// the process. Each worker recovers panics into *PanicError values,
// remaining iterations are abandoned as soon as any iteration fails or
// the caller's context is canceled, and the error reported back is the
// one from the lowest-indexed failing iteration — so the outcome is
// deterministic even though scheduling is not.
package par

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"finwl/internal/check"
)

// Ctx is the subset of context.Context the pool consults, kept as a
// local interface so plain For callers pass nothing.
type Ctx interface {
	Err() error
	Done() <-chan struct{}
}

// PanicError wraps a panic recovered from a worker iteration.
type PanicError struct {
	Index int    // iteration that panicked
	Value any    // the recovered value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic on iteration %d: %v", e.Index, e.Value)
}

// For runs fn(i) for every i in [0, n) across up to
// runtime.GOMAXPROCS(0) goroutines and returns when all calls have
// finished or the first failure has been observed. Iterations are
// claimed dynamically (an atomic counter), so unevenly sized work
// items — e.g. population levels whose state spaces grow with k —
// balance themselves. With one processor, or n ≤ 1, it degenerates to
// a plain loop with no goroutines at all.
//
// A panic in fn is recovered and returned as a *PanicError; once any
// iteration fails, unclaimed iterations are skipped. fn must be safe
// to call concurrently for distinct i.
func For(n int, fn func(i int)) error {
	return ForErr(nil, n, func(i int) error { fn(i); return nil })
}

// MinParallelCost is the ForCost cutover: total modeled work below it
// runs serially. The unit is the callers' state-space cost model
// (≈ matrix entries touched, tens of ns each), so the threshold sits
// where the work is a few goroutine lifetimes — below it the pool's
// spawn/join overhead is the dominant term and parallel construction
// loses to a plain loop, which is exactly the regression the perf
// harness caught on small chains.
const MinParallelCost = int64(1) << 16

// ForCost is ForErr with a per-item cost model driving both the
// serial/parallel cutover and the claim order. cost(i) is the modeled
// work of item i in arbitrary consistent units (the chain builders
// feed it the statespace.LevelSize/ChainPrice entry counts):
//
//   - when the total modeled cost is below MinParallelCost, or only
//     one processor is available, the loop runs serially in index
//     order with zero goroutines;
//   - otherwise workers claim items from a descending-cost schedule in
//     chunks, so the largest levels start first (load balance) and the
//     tail of tiny levels is taken in batches instead of one atomic
//     claim each.
//
// Failure handling matches ForErr — panics become *PanicError values,
// the first failure stops unclaimed work, cancellation surfaces as
// check.ErrCanceled — except that "first" means first in the
// deterministic descending-cost schedule rather than index order.
func ForCost(ctx Ctx, n int, cost func(i int) int64, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var total int64
	order := make([]int, n)
	costs := make([]int64, n)
	for i := range order {
		order[i] = i
		c := cost(i)
		if c < 0 {
			c = 0
		}
		costs[i] = c
		if total < MaxCost-c {
			total += c
		} else {
			total = MaxCost
		}
	}
	if total < MinParallelCost || runtime.GOMAXPROCS(0) <= 1 || n <= 1 {
		return serial(ctx, n, fn)
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	chunk := n / (runtime.GOMAXPROCS(0) * 4)
	if chunk < 1 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	return ForErr(ctx, chunks, func(ci int) error {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for _, i := range order[lo:hi] {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// MaxCost is the saturation bound of ForCost's cost accumulation.
const MaxCost = int64(1) << 62

// ForErr is For with per-iteration errors and optional cancellation:
// ctx may be nil (never canceled) or a context.Context. The first
// error by iteration index wins; a canceled context surfaces as
// check.ErrCanceled. All spawned goroutines have exited by the time
// ForErr returns, whatever the outcome.
func ForErr(ctx Ctx, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return serial(ctx, n, fn)
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					failed.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runOne(i, fn); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Cancellation wins only when no iteration failed on its own: an
	// iteration error is more specific than the cancellation racing it.
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctxErr(ctx)
}

// serial runs fn(0), …, fn(n−1) in order on the calling goroutine,
// polling ctx before each iteration, and stops at the first failure.
func serial(ctx Ctx, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := runOne(i, fn); err != nil {
			return err
		}
	}
	return nil
}

// ctxErr returns ctx's cancellation as the typed error, or nil when
// ctx is nil or live.
func ctxErr(ctx Ctx) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &canceled{cause: err}
	}
	return nil
}

// canceled adapts a raw ctx.Err() into the typed-error contract
// without importing context (ctx may be any Ctx implementation).
type canceled struct{ cause error }

func (e *canceled) Error() string {
	return "par: " + check.ErrCanceled.Error() + ": " + e.cause.Error()
}
func (e *canceled) Unwrap() error { return e.cause }
func (e *canceled) Is(target error) bool {
	return target == check.ErrCanceled
}

// runOne executes one iteration with panic containment.
func runOne(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: r, Stack: buf}
		}
	}()
	return fn(i)
}
