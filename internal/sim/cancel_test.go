package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// runners drives every front end of the event loop over one network:
// a finite workload of n tasks, and open and closed job streams of the
// same size.
func runners(net *network.Network, n, maxEvents int) map[string]func(ctx context.Context) error {
	open := StreamConfig{Net: net, K: 3, JobTasks: n / 2, Jobs: 2, Arrival: phase.MustExpo(1),
		Seed: 1, MaxEvents: maxEvents}
	closed := StreamConfig{Net: net, K: 3, JobTasks: n / 2, Customers: 2, Think: phase.MustExpo(1),
		Probes: []float64{1e9}, Seed: 1, MaxEvents: maxEvents}
	return map[string]func(ctx context.Context) error{
		"run": func(ctx context.Context) error {
			_, err := RunCtx(ctx, Config{Net: net, K: 3, N: n, Seed: 1, MaxEvents: maxEvents})
			return err
		},
		"stream-open":   func(ctx context.Context) error { _, err := RunStreamCtx(ctx, open); return err },
		"stream-closed": func(ctx context.Context) error { _, err := RunStreamCtx(ctx, closed); return err },
	}
}

// A canceled context must stop a single run promptly with a typed
// error.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range runners(singleStation(statespace.Queue, phase.MustExpo(1)), 50000, 0) {
		if err := run(ctx); !errors.Is(err, check.ErrCanceled) {
			t.Fatalf("%s: %v, want ErrCanceled", name, err)
		}
	}
}

// Canceling mid-replication must return ErrCanceled and leave no
// worker goroutines behind.
func TestReplicateCanceledNoLeak(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustExpo(1))
	for name, replicate := range map[string]func(ctx context.Context) error{
		"run": func(ctx context.Context) error {
			_, err := ReplicateCtx(ctx, Config{Net: net, K: 3, N: 2000, Seed: 1}, 10000)
			return err
		},
		"stream": func(ctx context.Context) error {
			_, err := ReplicateStreamCtx(ctx, StreamConfig{Net: net, K: 3, JobTasks: 1000, Jobs: 2,
				Arrival: phase.MustExpo(1), Seed: 1}, 10000)
			return err
		},
	} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- replicate(ctx) }()
		time.Sleep(10 * time.Millisecond) // let the pool spin up mid-flight
		cancel()

		select {
		case err := <-done:
			if !errors.Is(err, check.ErrCanceled) {
				t.Fatalf("%s: %v, want ErrCanceled", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return after cancel", name)
		}

		// All workers must have exited by the time the call returns;
		// allow the runtime a few scheduling rounds to settle.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.GC(); runtime.NumGoroutine() > before; runtime.GC() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines leaked: %d before, %d after cancel", name, before, runtime.NumGoroutine())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// The event budget turns a structurally valid but non-absorbing
// network into a typed convergence failure instead of an endless run.
func TestMaxEventsBudget(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustExpo(1))
	net.Exit[0] = 0
	net.Route.Set(0, 0, 1) // tasks loop forever
	for name, run := range runners(net, 6, 1000) {
		if err := run(context.Background()); !errors.Is(err, check.ErrNotConverged) {
			t.Fatalf("%s: %v, want ErrNotConverged", name, err)
		}
	}
}
