package core

import "finwl/internal/obs"

// Solver-stage metrics on the process-wide registry. These are the
// quantities the paper says dominate transient-solve cost — level
// sizes, factorization time, epoch counts — so an operator can see
// where a running instance spends its time without profiling.
//
// Hot-path note: the epoch and iteration counters are incremented
// inside the allocation-free kernels; a Counter.Inc is one atomic add,
// which preserves the 0 allocs/op property (bench-asserted by
// BenchmarkPerfFeedEpochIntoK8).
var (
	mSolves = obs.Default.Counter("finwl_solves_total",
		"Transient solves answered by Solve and SplitTotalTimeCtx, which serves both exact ladder rungs (SolveSweep's drain checkpoints count in finwl_sweep_checkpoints_total).")
	mEpochs = obs.Default.Counter("finwl_epochs_total",
		"Feeding and draining epochs advanced by the transient kernels, and backward steps of SplitTotalTimeCtx.")
	mSweepCheckpoints = obs.Default.Counter("finwl_sweep_checkpoints_total",
		"Drain checkpoints materialized by SolveSweep's shared feeding pass (batch and job sweeps; the serving ladder's checkpoint rung counts in finwl_solves_total).")
	mPowerIters = obs.Default.Counter("finwl_power_iterations_total",
		"Power/fixed-point iterations of the steady-state and time-stationary solvers.")
	mLevelFactor = obs.Default.Histogram("finwl_level_factor_seconds",
		"Per-level LU factorization time of A_k = I - P_k during solver construction.",
		obs.ExpBounds(10_000, 4, 14), 1e-9) // 10µs .. ~2.7s
	mSparseFactors = obs.Default.Counter("finwl_level_factorizations_total",
		"Level factorizations of A_k = I - P_k, by elimination path.",
		obs.L("path", "sparse"))
)

// The dense series of the same family stays registered, and reads 0:
// every level factors sparse, and dashboards and benchmarks that
// compute the sparse fraction read both labels.
var _ = obs.Default.Counter("finwl_level_factorizations_total",
	"Level factorizations of A_k = I - P_k, by elimination path.",
	obs.L("path", "dense"))
