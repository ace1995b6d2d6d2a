package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"finwl/internal/check"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		counts := make([]int32, n)
		if err := For(n, func(i int) { atomic.AddInt32(&counts[i], 1) }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForDeterministicAssembly(t *testing.T) {
	// Results land in caller-indexed slots, so the output is identical
	// however the iterations are scheduled.
	n := 257
	out := make([]int, n)
	if err := For(n, func(i int) { out[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestForSerialWithOneProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	sum := 0 // unguarded on purpose: must run serially under GOMAXPROCS(1)
	if err := For(100, func(i int) { sum += i }); err != nil {
		t.Fatal(err)
	}
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

// TestForRecoversWorkerPanic is the regression test for the crash the
// old pool had: a panic in one worker took the whole process down.
func TestForRecoversWorkerPanic(t *testing.T) {
	err := For(64, func(i int) {
		if i == 13 {
			panic("boom at 13")
		}
	})
	if err == nil {
		t.Fatal("want panic error, got nil")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PanicError", err)
	}
	if pe.Index != 13 || pe.Value != "boom at 13" {
		t.Errorf("PanicError = {Index: %d, Value: %v}", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError has no stack trace")
	}
}

func TestForPanicSerialPath(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	err := For(4, func(i int) {
		if i == 2 {
			panic(fmt.Errorf("wrapped %d", i))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("serial path: got %v", err)
	}
}

func TestForErrStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("fail")
	err := ForErr(nil, 100000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if got := ran.Load(); got == 100000 {
		t.Error("all iterations ran despite early error")
	}
}

func TestForErrLowestIndexWins(t *testing.T) {
	// Every iteration fails; the reported error must be a low index —
	// deterministically index 0 is always claimed, and no later error
	// may shadow an earlier one that was recorded.
	for trial := 0; trial < 10; trial++ {
		err := ForErr(nil, 64, func(i int) error { return fmt.Errorf("e%d", i) })
		if err == nil {
			t.Fatal("want error")
		}
		if err.Error() != "e0" {
			t.Fatalf("trial %d: got %v, want e0", trial, err)
		}
	}
}

func TestForErrPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForErr(ctx, 1000, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should unwrap to context.Canceled", err)
	}
}

func TestForErrCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForErr(ctx, 100000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got == 100000 {
		t.Error("cancellation did not stop the pool")
	}
}

func TestForErrNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		_ = For(256, func(i int) {
			if i%17 == 0 {
				panic(i)
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// ForCost below the cutover must run serially in index order on the
// calling goroutine — no pool overhead for small chains — however many
// processors are set.
func TestForCostSerialBelowCutover(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	caller := goid()
	var order []int
	err := ForCost(nil, 8,
		func(i int) int64 { return 10 }, // total 80 ≪ MinParallelCost
		func(i int) error {
			if id := goid(); id != caller {
				return fmt.Errorf("item %d ran on goroutine %d, want the caller's %d", i, id, caller)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial path visited %v, want ascending index order", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("visited %d items, want 8", len(order))
	}
}

// goid returns the calling goroutine's id, parsed from the
// "goroutine N [" header of its stack trace.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id int
	if _, err := fmt.Sscanf(string(buf), "goroutine %d ", &id); err != nil {
		panic(err)
	}
	return id
}

// Above the cutover every index still runs exactly once, whatever the
// descending-cost chunk schedule does.
func TestForCostParallelCoversEveryIndexOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 100
	var counts [n]atomic.Int32
	err := ForCost(nil, n,
		func(i int) int64 { return int64(1+i) * 1 << 12 },
		func(i int) error { counts[i].Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// Degenerate cost models must not break the cutover: negative costs
// clamp to zero and a cost function at MaxCost saturates instead of
// overflowing the total.
func TestForCostDegenerateCosts(t *testing.T) {
	var ran atomic.Int32
	if err := ForCost(nil, 4,
		func(i int) int64 { return -5 },
		func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("negative costs: ran %d, want 4", ran.Load())
	}
	ran.Store(0)
	if err := ForCost(nil, 3,
		func(i int) int64 { return MaxCost },
		func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("saturating costs: ran %d, want 3", ran.Load())
	}
}

// A pre-canceled context stops ForCost with the typed cancellation
// error on the parallel path, matching ForErr's contract.
func TestForCostPreCanceled(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForCost(ctx, 50,
		func(i int) int64 { return 1 << 14 },
		func(i int) error { return nil })
	if err == nil || !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// An iteration error surfaces and stops the remaining work.
func TestForCostErrorStops(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForCost(nil, 64,
		func(i int) int64 { return 1 << 12 },
		func(i int) error {
			if ran.Add(1) == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() == 64 {
		t.Fatal("error did not stop unclaimed work")
	}
}
