package batch

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/core"
	"finwl/internal/network"
	"finwl/internal/workload"
)

func centralNet(t *testing.T, k int, dists cluster.Dists) *network.Network {
	t.Helper()
	net, err := cluster.Central(k, workload.Default(30), dists, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// cachingHooks counts fresh solver builds per key and serves repeats
// from its own cache, standing in for the serve solver cache.
type cachingHooks struct {
	mu      sync.Mutex
	builds  map[string]int
	cache   map[string]*core.Solver
	groups  []int
	reused  []bool
	acquire int64
}

func newCachingHooks() *cachingHooks {
	return &cachingHooks{builds: make(map[string]int), cache: make(map[string]*core.Solver)}
}

func (h *cachingHooks) hooks() Hooks {
	return Hooks{
		Acquire: func(done <-chan struct{}, price int64) error {
			h.mu.Lock()
			h.acquire += price
			h.mu.Unlock()
			return nil
		},
		Release: func(price int64) {
			h.mu.Lock()
			h.acquire -= price
			h.mu.Unlock()
		},
		SolverFor: func(ctx context.Context, key string, net *network.Network, k int) (*core.Solver, bool, error) {
			h.mu.Lock()
			if s, ok := h.cache[key]; ok {
				h.mu.Unlock()
				return s, true, nil
			}
			h.mu.Unlock()
			s, err := core.NewSolverCtx(ctx, net, k)
			if err != nil {
				return nil, false, err
			}
			h.mu.Lock()
			h.cache[key] = s
			h.builds[key]++
			h.mu.Unlock()
			return s, false, nil
		},
		OnGroupDone: func(jobs int, reused bool, err error) {
			h.mu.Lock()
			h.groups = append(h.groups, jobs)
			h.reused = append(h.reused, reused)
			h.mu.Unlock()
		},
	}
}

// A batch over two distinct networks groups by key, builds each chain
// once, and returns per-job results identical to standalone solves.
func TestRunGroupsShareChains(t *testing.T) {
	netA := centralNet(t, 4, cluster.Dists{})
	netB := centralNet(t, 4, cluster.Dists{CPU: cluster.ErlangStages(3)})
	jobs := []Job{
		{Key: "A", Net: netA, K: 4, N: 50},
		{Key: "B", Net: netB, K: 4, N: 10},
		{Key: "A", Net: netA, K: 4, N: 2},
		{Key: "A", Net: netA, K: 4, N: 120},
		{Key: "A", Net: netA, K: 4, N: 50}, // duplicate population
		{Key: "B", Net: netB, K: 4, N: 80},
	}
	h := newCachingHooks()
	var planJobs int
	var planGroups []int
	var doneCalls atomic.Int64 // OnJobDone runs on the group workers
	prog := &Progress{
		OnPlan:    func(jobs int, groupJobs []int) { planJobs, planGroups = jobs, groupJobs },
		OnJobDone: func(done, total int) { doneCalls.Add(1) },
	}
	outcomes := New(h.hooks()).Run(context.Background(), jobs, prog)

	if planJobs != len(jobs) || len(planGroups) != 2 || planGroups[0] != 4 || planGroups[1] != 2 {
		t.Fatalf("plan: jobs=%d groups=%v", planJobs, planGroups)
	}
	if n := doneCalls.Load(); n != int64(len(jobs)) {
		t.Fatalf("OnJobDone fired %d times, want %d", n, len(jobs))
	}
	if h.builds["A"] != 1 || h.builds["B"] != 1 {
		t.Fatalf("chain builds per key: %v, want exactly 1 each", h.builds)
	}
	if len(h.groups) != 2 {
		t.Fatalf("OnGroupDone fired %d times, want 2", len(h.groups))
	}
	if h.acquire != 0 {
		t.Fatalf("admission not balanced: %d units still held", h.acquire)
	}
	for i, j := range jobs {
		o := outcomes[i]
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		want := map[string]int{"A": 4, "B": 2}[j.Key]
		if o.GroupJobs != want {
			t.Fatalf("job %d: GroupJobs %d, want %d", i, o.GroupJobs, want)
		}
		if o.Price <= 0 || o.Result == nil || o.Result.N != j.N {
			t.Fatalf("job %d: malformed outcome %+v", i, o)
		}
		ref, err := core.NewSolver(j.Net, j.K)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := ref.Solve(j.N)
		if err != nil {
			t.Fatal(err)
		}
		if !closeRel(o.Result.TotalTime, wantRes.TotalTime, 1e-13) {
			t.Fatalf("job %d: TotalTime %v, want %v", i, o.Result.TotalTime, wantRes.TotalTime)
		}
	}
}

// One bad job per failure mode — no network, bad K, bad N — fails
// typed and alone; its group-mates still solve.
func TestRunPartialFailure(t *testing.T) {
	net := centralNet(t, 3, cluster.Dists{})
	jobs := []Job{
		{Key: "A", Net: net, K: 3, N: 20},
		{Key: "A", Net: net, K: 3, N: 0},  // bad N: fails inside the sweep
		{Key: "A", Net: nil, K: 3, N: 5},  // no network
		{Key: "", Net: net, K: 0, N: 5},   // bad K
		{Key: "A", Net: net, K: 3, N: 40}, // healthy group-mate
	}
	h := newCachingHooks()
	outcomes := New(h.hooks()).Run(context.Background(), jobs, nil)
	for _, i := range []int{1, 2, 3} {
		if !errors.Is(outcomes[i].Err, check.ErrInvalidModel) {
			t.Fatalf("job %d: err %v, want ErrInvalidModel", i, outcomes[i].Err)
		}
		if outcomes[i].Result != nil {
			t.Fatalf("job %d: result alongside error", i)
		}
	}
	for _, i := range []int{0, 4} {
		if outcomes[i].Err != nil || outcomes[i].Result == nil {
			t.Fatalf("healthy job %d poisoned: %+v", i, outcomes[i])
		}
	}
	if h.builds["A"] != 1 {
		t.Fatalf("builds: %v, want one for A", h.builds)
	}
}

// A failed group admission fails every group member typed, and other
// groups are untouched.
func TestRunGroupAdmissionFailure(t *testing.T) {
	net := centralNet(t, 3, cluster.Dists{})
	other := centralNet(t, 3, cluster.Dists{CPU: cluster.ErlangStages(2)})
	hooks := Hooks{
		Acquire: func(done <-chan struct{}, price int64) error {
			return check.ErrOverloaded
		},
	}
	// Only group A is priced over budget in this fake: reject all.
	outcomes := New(hooks).Run(context.Background(), []Job{
		{Key: "A", Net: net, K: 3, N: 10},
		{Key: "B", Net: other, K: 3, N: 10},
	}, nil)
	for i, o := range outcomes {
		if !errors.Is(o.Err, check.ErrOverloaded) {
			t.Fatalf("job %d: err %v, want ErrOverloaded", i, o.Err)
		}
	}
}

// A dead context settles every job with a typed cancel.
func TestRunCanceled(t *testing.T) {
	net := centralNet(t, 3, cluster.Dists{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes := New(Hooks{}).Run(ctx, []Job{
		{Key: "A", Net: net, K: 3, N: 10},
		{Key: "A", Net: net, K: 3, N: 20},
	}, nil)
	for i, o := range outcomes {
		if !errors.Is(o.Err, check.ErrCanceled) {
			t.Fatalf("job %d: err %v, want ErrCanceled", i, o.Err)
		}
	}
}

// Two concurrent Runs over the identical group collapse onto one
// leader: one build, one OnGroupDone, follower outcomes marked
// Shared.
func TestRunDedupsIdenticalConcurrentGroups(t *testing.T) {
	net := centralNet(t, 3, cluster.Dists{})
	h := newCachingHooks()
	hooks := h.hooks()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	inner := hooks.Acquire
	hooks.Acquire = func(done <-chan struct{}, price int64) error {
		once.Do(func() { close(entered) })
		<-release
		return inner(done, price)
	}
	sched := New(hooks)
	jobs := []Job{{Key: "A", Net: net, K: 3, N: 30}, {Key: "A", Net: net, K: 3, N: 60}}

	var wg sync.WaitGroup
	results := make([][]Outcome, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = sched.Run(context.Background(), jobs, nil) }()
	<-entered // leader is parked inside admission
	wg.Add(1)
	go func() { defer wg.Done(); results[1] = sched.Run(context.Background(), jobs, nil) }()
	// Give the second Run time to park as a flight follower, then let
	// the leader go.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if h.builds["A"] != 1 {
		t.Fatalf("builds: %v, want exactly one", h.builds)
	}
	if len(h.groups) != 1 {
		t.Fatalf("OnGroupDone fired %d times, want 1 (followers share the leader's group)", len(h.groups))
	}
	shared := 0
	for _, outs := range results {
		for i, o := range outs {
			if o.Err != nil || o.Result == nil {
				t.Fatalf("outcome %d: %+v", i, o)
			}
			if o.Shared {
				shared++
			}
		}
	}
	if shared != len(jobs) {
		t.Fatalf("%d shared outcomes, want %d (one whole Run deduplicated)", shared, len(jobs))
	}
}
