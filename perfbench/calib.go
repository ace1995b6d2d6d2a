package main

import (
	"context"
	"time"

	"finwl/internal/core"
	"finwl/internal/serve"
)

// calibrator times a fixed single-thread kernel: SolveCtx with N=300
// on a fixed K=8 central chain with an H2 remote station. It is timed
// at the start and the end of every run and reported beside the
// workload's figures, so a host slowdown that hits every workload at
// once reads as host noise rather than as a code change. No verdict
// uses it.
type calibrator struct {
	solver  *core.Solver
	samples []float64 // ms
}

func newCalibrator() (*calibrator, error) {
	req := &serve.Request{Arch: "central", K: 8, N: 300, CV2: &serve.CV2Spec{Remote: 4}}
	net, err := req.BuildNetwork()
	if err != nil {
		return nil, err
	}
	s, err := core.NewSolver(net, req.K)
	if err != nil {
		return nil, err
	}
	return &calibrator{solver: s}, nil
}

// sample times reps solves and keeps each time.
func (c *calibrator) sample(reps int) error {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := c.solver.SolveCtx(context.Background(), 300); err != nil {
			return err
		}
		c.samples = append(c.samples, ms(time.Since(t0)))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
