package core

import (
	"math"
	"sync"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/workload"
)

// A Solver is immutable after construction: concurrent Solve calls
// must agree and not race (run with -race).
func TestSolverConcurrentUse(t *testing.T) {
	app := workload.Default(20)
	net, err := cluster.Central(4, app, cluster.Dists{Remote: cluster.WithCV2(5)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, net, 4)
	want, err := s.TotalTime(app.N)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.TotalTime(app.N)
			if err != nil {
				errs <- err
				return
			}
			if math.Abs(got-want) > 1e-12 {
				errs <- errMismatch{got, want}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{ got, want float64 }

func (e errMismatch) Error() string { return "concurrent results diverged" }

// The pooled scratch workspaces must keep Solve, SolveSweep,
// SteadyState and TimeStationary independent when they run
// concurrently on one Solver (run with -race): each goroutine checks
// its answers against serially computed references.
func TestSolverMixedConcurrentUse(t *testing.T) {
	app := workload.Default(40)
	net, err := cluster.Central(4, app, cluster.Dists{Remote: cluster.WithCV2(5)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, net, 4)

	wantTotal, err := s.TotalTime(app.N)
	if err != nil {
		t.Fatal(err)
	}
	_, wantTss, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	wantTS, err := s.TimeStationary()
	if err != nil {
		t.Fatal(err)
	}
	sweepNs := []int{2, 4, 15, 40}
	wantSweep, err := s.TotalTimeSweep(sweepNs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			got, err := s.TotalTime(app.N)
			if err != nil {
				errs <- err
			} else if got != wantTotal {
				errs <- errMismatch{got, wantTotal}
			}
		}()
		go func() {
			defer wg.Done()
			_, tss, err := s.SteadyState()
			if err != nil {
				errs <- err
			} else if math.Abs(tss-wantTss) > 1e-12*wantTss {
				errs <- errMismatch{tss, wantTss}
			}
		}()
		go func() {
			defer wg.Done()
			pi, err := s.TimeStationary()
			if err != nil {
				errs <- err
				return
			}
			for i := range pi {
				if math.Abs(pi[i]-wantTS[i]) > 1e-12 {
					errs <- errMismatch{pi[i], wantTS[i]}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			totals, err := s.TotalTimeSweep(sweepNs)
			if err != nil {
				errs <- err
				return
			}
			for i := range totals {
				if totals[i] != wantSweep[i] {
					errs <- errMismatch{totals[i], wantSweep[i]}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
