package fleet

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/fleet/chaos"
	"finwl/internal/serve"
)

// testFleet is a router over n live replica servers (real
// serve.Server engines behind httptest), each wrapped in a chaos
// injector the tests flip faults on.
type testFleet struct {
	router   *Router
	servers  []*httptest.Server
	injector []*chaos.Injector
	backends []*serve.Server
}

func newTestFleet(t *testing.T, n int, mut func(*Config)) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Seed: int64(i) + 1})
		inj := chaos.New(srv.Handler(), 42)
		ts := httptest.NewServer(inj)
		f.backends = append(f.backends, srv)
		f.injector = append(f.injector, inj)
		f.servers = append(f.servers, ts)
		urls[i] = ts.URL
	}
	cfg := Config{
		Replicas: urls,
		Seed:     1,
		// Keep the active prober quiet by default so tests exercise the
		// passive path deterministically; probe tests override.
		ProbeInterval: time.Hour,
		ProbeFails:    1000,
		RetryBase:     time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
		for _, ts := range f.servers {
			ts.Close()
		}
	})
	return f
}

// repIndex maps a RoutedVia tag ("owner http://...") back to the
// replica slot.
func (f *testFleet) repIndex(t *testing.T, via string) int {
	t.Helper()
	for i, ts := range f.servers {
		if strings.HasSuffix(via, ts.URL) {
			return i
		}
	}
	t.Fatalf("routed_via %q names no replica", via)
	return -1
}

func testRequest(n int) *serve.Request {
	return &serve.Request{Arch: "central", K: 3, N: n}
}

// directSolve computes the reference answer on a private engine.
func directSolve(t *testing.T, req *serve.Request) *serve.Response {
	t.Helper()
	s := serve.New(serve.Config{Seed: 99})
	resp, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	return resp
}

// TestRouterAffinity: repeats of one model land on the same replica,
// so the second answer comes from that replica's result cache.
func TestRouterAffinity(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	req := testRequest(12)

	first, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first.RoutedVia, "owner ") {
		t.Errorf("first RoutedVia = %q, want owner", first.RoutedVia)
	}
	second, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.RoutedVia != first.RoutedVia {
		t.Errorf("affinity broken: %q then %q", first.RoutedVia, second.RoutedVia)
	}
	if !second.Cached {
		t.Error("second identical request was not served from the owner's cache")
	}
	if second.TotalTime != first.TotalTime {
		t.Errorf("cache returned a different answer: %v vs %v", second.TotalTime, first.TotalTime)
	}
}

// TestRouterFailover: killing the owner mid-fleet reroutes the same
// request to another replica, which computes the same answer; the
// failover counter records the hop.
func TestRouterFailover(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	req := testRequest(25)
	want := directSolve(t, req)

	first, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.repIndex(t, first.RoutedVia)
	f.servers[owner].CloseClientConnections()
	f.servers[owner].Close() // SIGKILL stand-in: connection refused from here on

	resp, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("solve after owner death: %v", err)
	}
	if !strings.HasPrefix(resp.RoutedVia, "failover ") {
		t.Errorf("RoutedVia = %q, want failover", resp.RoutedVia)
	}
	if f.repIndex(t, resp.RoutedVia) == owner {
		t.Errorf("failover answered via the dead owner (%q)", resp.RoutedVia)
	}
	if math.Abs(resp.TotalTime-want.TotalTime) > 1e-13 {
		t.Errorf("failover answer %v differs from direct solve %v", resp.TotalTime, want.TotalTime)
	}
	if got := f.router.m.failovers.Value(); got < 1 {
		t.Errorf("finwl_fleet_failover_total = %d, want ≥ 1", got)
	}
}

// TestRouterInvalidModelZeroHops: a typed 400 is produced at the
// router without forwarding — it must not burn failover retries.
func TestRouterInvalidModelZeroHops(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	_, err := f.router.Solve(context.Background(), &serve.Request{Arch: "central", K: 0, N: 10})
	if !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("err = %v, want ErrInvalidModel", err)
	}
	if got := f.router.m.invalid.Value(); got != 1 {
		t.Errorf("invalid counter = %d, want 1", got)
	}
	if got := f.router.m.failovers.Value(); got != 0 {
		t.Errorf("failover counter = %d, want 0 for a local 400", got)
	}
	for _, rep := range f.router.reps {
		if rep.ewmaNs.Load() != 0 {
			t.Error("a hop was forwarded for an invalid model")
		}
	}
}

// TestRouterSpillover: a healthy but saturated owner is demoted behind
// the least-loaded replica by the weighted-load rule.
func TestRouterSpillover(t *testing.T) {
	f := newTestFleet(t, 3, func(c *Config) {
		c.SpillDepth = 2
		c.SpillFactor = 1.5
	})
	req := testRequest(30)
	net, err := req.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	owner := f.router.ring.owner(serve.ShardKey(net, req.K))
	// Stop the active prober first: its initial scrape runs as soon as
	// the router starts and, on a loaded host, can land after the store
	// below and reset the owner's queue depth to 0.
	f.router.probeCancel()
	<-f.router.probeDone
	// Fake the load signals the prober would have scraped: the owner
	// deep in queue and slow, everyone else idle.
	f.router.reps[owner].queued.Store(50)
	f.router.reps[owner].ewmaNs.Store(int64(50 * time.Millisecond))

	resp, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.RoutedVia, "spillover ") {
		t.Errorf("RoutedVia = %q, want spillover", resp.RoutedVia)
	}
	if f.repIndex(t, resp.RoutedVia) == owner {
		t.Errorf("spillover stayed on the saturated owner (%q)", resp.RoutedVia)
	}
	if got := f.router.m.spillovers.Value(); got != 1 {
		t.Errorf("spillover counter = %d, want 1", got)
	}
}

// TestBreakerUnderChaosFlapping: injected faults trip a replica's
// passive breaker; after the cooldown a half-open probe against the
// still-broken replica re-opens it, and once the fault heals the probe
// closes it again.
func TestBreakerUnderChaosFlapping(t *testing.T) {
	clock := struct{ now atomic.Int64 }{}
	clock.now.Store(time.Now().UnixNano())
	now := func() time.Time { return time.Unix(0, clock.now.Load()) }
	advance := func(d time.Duration) { clock.now.Add(int64(d)) }

	f := newTestFleet(t, 1, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Minute
		c.Now = now
	})
	rep := f.router.reps[0]
	req := testRequest(8)

	f.injector[0].Set(chaos.Fault{Mode: chaos.Error})
	for i := 0; i < 2; i++ {
		if _, err := f.router.Solve(context.Background(), req); !errors.Is(err, serve.ErrUnavailable) {
			t.Fatalf("fault %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if got := rep.br.State(); got != serve.BreakerOpen {
		t.Fatalf("after %d faults breaker = %v, want open", 2, got)
	}

	// Cooldown elapses but the replica still flaps: the half-open probe
	// fails and re-opens the breaker.
	advance(2 * time.Minute)
	if got := rep.br.State(); got != serve.BreakerHalfOpen {
		t.Fatalf("after cooldown breaker = %v, want half-open", got)
	}
	if _, err := f.router.Solve(context.Background(), req); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("probe against broken replica: err = %v, want ErrUnavailable", err)
	}
	if got := rep.br.State(); got != serve.BreakerOpen {
		t.Fatalf("failed probe left breaker %v, want open", got)
	}

	// Fault heals; the next half-open probe succeeds and closes it.
	f.injector[0].Set(chaos.Fault{Mode: chaos.None})
	advance(2 * time.Minute)
	resp, err := f.router.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if resp.TotalTime <= 0 {
		t.Errorf("healed probe returned TotalTime %v", resp.TotalTime)
	}
	if got := rep.br.State(); got != serve.BreakerClosed {
		t.Errorf("successful probe left breaker %v, want closed", got)
	}
}

// TestRouterBatchScatterGather: a batch spanning several shards routes
// each group to its owner and reassembles items in order, tagged with
// the answering replica.
func TestRouterBatchScatterGather(t *testing.T) {
	f := newTestFleet(t, 3, nil)
	reqs := []*serve.Request{
		testRequest(10), testRequest(20),
		{Arch: "central", K: 5, N: 15},
		{Arch: "central", K: 0, N: 1}, // invalid: settled at the router
		nil,                           // null job: settled at the router
	}
	items := f.router.SolveBatch(context.Background(), reqs)
	if len(items) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(items), len(reqs))
	}
	for i := 0; i < 3; i++ {
		it := items[i]
		if it.Response == nil {
			t.Fatalf("item %d failed: %s (%s)", i, it.Error, it.Code)
		}
		if it.Response.RoutedVia == "" {
			t.Errorf("item %d missing routed_via", i)
		}
		want := directSolve(t, reqs[i])
		if math.Abs(it.Response.TotalTime-want.TotalTime) > 1e-13 {
			t.Errorf("item %d: TotalTime %v, want %v", i, it.Response.TotalTime, want.TotalTime)
		}
	}
	if items[3].Code != "invalid_model" {
		t.Errorf("invalid job code = %q, want invalid_model", items[3].Code)
	}
	if items[4].Code != "invalid_model" {
		t.Errorf("null job code = %q, want invalid_model", items[4].Code)
	}
}

// TestRouterDrainNoLeak mirrors the serve drain test: after Drain
// returns, no router goroutine (probe loop, in-flight hop) survives,
// and new work is refused typed.
func TestRouterDrainNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srvs := make([]*httptest.Server, 2)
		urls := make([]string, 2)
		for i := range srvs {
			srvs[i] = httptest.NewServer(serve.New(serve.Config{Seed: int64(i) + 1}).Handler())
			urls[i] = srvs[i].URL
			defer srvs[i].Close()
		}
		rt, err := New(Config{
			Replicas:      urls,
			Seed:          1,
			ProbeInterval: 10 * time.Millisecond, // exercise the probe loop for real
			RetryBase:     time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Solve(context.Background(), testRequest(10)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if _, err := rt.Solve(context.Background(), testRequest(10)); !errors.Is(err, serve.ErrDraining) || !errors.Is(err, check.ErrOverloaded) {
			t.Errorf("post-drain solve err = %v, want ErrDraining ∧ ErrOverloaded", err)
		}
		// Draining must flow through to the health endpoint contract.
		if !rt.Draining() {
			t.Error("Draining() = false after Drain")
		}
	}()
	waitForGoroutines(t, before)
}

// TestRouterProbeMarksDownAndUp: the active prober takes a dead
// replica out of rotation and restores it when it answers again.
func TestRouterProbeMarksDownAndUp(t *testing.T) {
	f := newTestFleet(t, 2, func(c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
		c.ProbeTimeout = 200 * time.Millisecond
		c.ProbeFails = 2
	})
	f.injector[0].Set(chaos.Fault{Mode: chaos.Error, Status: http.StatusInternalServerError})
	waitFor(t, func() bool { return !f.router.reps[0].healthy.Load() })
	f.injector[0].Set(chaos.Fault{Mode: chaos.None})
	waitFor(t, func() bool { return f.router.reps[0].healthy.Load() })
	if fails := f.router.reps[0].probeFails.Load(); fails != 0 {
		t.Errorf("probe-fail streak = %d after recovery, want 0", fails)
	}
}

// TestRouterStatsPayload: the /stats body carries the per-replica
// health view and the routing counters.
func TestRouterStatsPayload(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	if _, err := f.router.Solve(context.Background(), testRequest(10)); err != nil {
		t.Fatal(err)
	}
	body, ok := f.router.StatsPayload().(statsBody)
	if !ok {
		t.Fatalf("StatsPayload is %T, want statsBody", f.router.StatsPayload())
	}
	if body.Mode != "router" {
		t.Errorf("mode = %q", body.Mode)
	}
	if body.Requests != 1 {
		t.Errorf("requests = %d, want 1", body.Requests)
	}
	if len(body.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(body.Replicas))
	}
	for _, rs := range body.Replicas {
		if !rs.Healthy {
			t.Errorf("replica %s unhealthy in a live fleet", rs.URL)
		}
		if rs.Breaker != "closed" {
			t.Errorf("replica %s breaker = %q, want closed", rs.URL, rs.Breaker)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// waitForGoroutines asserts the goroutine count settles back to the
// baseline (HTTP client/server teardown is asynchronous for a few
// scheduler ticks).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}
