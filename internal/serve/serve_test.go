package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/core"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// healthyTwoStation builds a small well-posed open-exit network.
func healthyTwoStation() *NetworkSpec {
	route := matrix.New(2, 2)
	route.Set(0, 1, 0.5)
	route.Set(1, 0, 1)
	return SpecFromNetwork(&network.Network{
		Stations: []network.Station{
			{Name: "cpu", Kind: statespace.Delay, Service: phase.MustExpo(2)},
			{Name: "io", Kind: statespace.Queue, Service: phase.MustExpo(3)},
		},
		Route: route,
		Exit:  []float64{0.5, 0},
		Entry: []float64{1, 0},
	})
}

// trappedTwoStation is the same station shapes (and therefore the same
// breaker class) with a closed loop: exact, steady and bounds all fail
// with singular traffic equations.
func trappedTwoStation() *NetworkSpec {
	spec := healthyTwoStation()
	spec.Route[0][1] = 1
	spec.Exit = []Num{0, 0}
	return spec
}

func TestSolveExactThenCached(t *testing.T) {
	s := New(Config{Seed: 1})
	req := &Request{Arch: "central", K: 3, N: 10}
	resp, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if resp.Fidelity != FidelityExact || resp.Cached || resp.TotalTime <= 0 {
		t.Fatalf("first solve = %+v, want fresh exact with positive total time", resp)
	}
	resp2, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("second Solve: %v", err)
	}
	if !resp2.Cached || resp2.TotalTime != resp.TotalTime {
		t.Fatalf("second solve = %+v, want cache hit with identical value", resp2)
	}
	if st := s.Snapshot(); st.CacheHits != 1 || st.Exact != 1 {
		t.Fatalf("stats = %+v, want 1 cache hit and 1 exact solve", st)
	}
}

func TestCacheKeyCanonicalizesClusterAndRawForms(t *testing.T) {
	// A cluster request and the raw-network spelling of the same model
	// must share a cache entry.
	s := New(Config{Seed: 1})
	cReq := &Request{Arch: "central", K: 3, N: 10}
	cResp, err := s.Solve(context.Background(), cReq)
	if err != nil {
		t.Fatal(err)
	}
	net, err := cReq.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	rawResp, err := s.Solve(context.Background(), &Request{K: 3, N: 10, Network: SpecFromNetwork(net)})
	if err != nil {
		t.Fatal(err)
	}
	if !rawResp.Cached || rawResp.TotalTime != cResp.TotalTime {
		t.Fatalf("raw-form solve = %+v, want a cache hit on the cluster-form entry", rawResp)
	}
}

func TestBreakerForcesDegradedFidelity(t *testing.T) {
	s := New(Config{Seed: 1, BreakerThreshold: 2})
	ctx := context.Background()

	// Two singular failures of the class trip its breaker: the trapped
	// network fails every rung, so each request exhausts the ladder.
	for i := 0; i < 2; i++ {
		req := &Request{K: 3, N: 5 + i, Network: trappedTwoStation()}
		if _, err := s.Solve(ctx, req); !errors.Is(err, check.ErrSingular) {
			t.Fatalf("trapped solve %d: err = %v, want ErrSingular", i, err)
		}
	}

	// A healthy model of the same class now skips the exact tiers.
	resp, err := s.Solve(ctx, &Request{K: 3, N: 5, Network: healthyTwoStation()})
	if err == nil || !errors.Is(err, check.ErrDegraded) {
		t.Fatalf("err = %v, want a DegradedError matching check.ErrDegraded", err)
	}
	if resp == nil {
		t.Fatal("degraded solve returned no usable response")
	}
	if resp.Fidelity != FidelitySteady {
		t.Fatalf("fidelity = %s, want steady-state (breaker open, no deadline pressure)", resp.Fidelity)
	}
	if resp.DegradedFrom == "" {
		t.Fatal("degraded response carries no degraded_from reason")
	}
	var de *DegradedError
	if !errors.As(err, &de) || de.Fidelity != resp.Fidelity {
		t.Fatalf("error detail %v does not mirror the response fidelity %s", err, resp.Fidelity)
	}
	if st := s.Snapshot(); st.Degraded != 1 || st.Failures != 2 {
		t.Fatalf("stats = %+v, want 2 ladder failures and 1 degraded response", st)
	}
}

// TestHalfOpenProbeReleasedWithoutOutcome is the regression test for
// the probe-token leak: a request that wins the half-open probe but
// never reports an outcome — here because its deadline keeps
// selectTier away from the exact rungs — must release the token, or
// every later request sees allow() = (false, false) and the class is
// stuck degraded until restart.
func TestHalfOpenProbeReleasedWithoutOutcome(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := New(Config{
		Seed:             1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Second,
		Now:              clk.now,
		// ~0.1s per state-space unit puts the exact estimate in the
		// seconds for the two-station class: far above a 500ms request
		// deadline, far below the 60s default cap.
		ExactNsPerUnit: 1e8,
	})
	ctx := context.Background()

	// One singular failure trips the class breaker (threshold 1).
	if _, err := s.Solve(ctx, &Request{K: 3, N: 5, Network: trappedTwoStation()}); !errors.Is(err, check.ErrSingular) {
		t.Fatalf("trapped solve: err = %v, want ErrSingular", err)
	}
	clk.advance(time.Second) // open → half-open

	// This request claims the probe token, but its 500ms deadline is
	// below the exact estimate, so no exact rung runs and the probe
	// outcome is never reported.
	resp, err := s.Solve(ctx, &Request{K: 3, N: 5, Network: healthyTwoStation(), TimeoutMS: 500})
	if !errors.Is(err, check.ErrDegraded) {
		t.Fatalf("probe-claiming solve: err = %v (resp %+v), want ErrDegraded", err, resp)
	}

	// The next deadline-free request of the class must get a fresh
	// probe, run exact, and close the breaker.
	resp, err = s.Solve(ctx, &Request{K: 3, N: 6, Network: healthyTwoStation()})
	if err != nil {
		t.Fatalf("recovery solve: %v", err)
	}
	if resp.Fidelity != FidelityExact {
		t.Fatalf("recovery fidelity = %s, want exact (leaked probe token?)", resp.Fidelity)
	}
	if resp.Breaker != BreakerClosed.String() {
		t.Fatalf("breaker after successful probe = %q, want closed", resp.Breaker)
	}
}

// TestClassStateBounded: breaker and estimator tables are keyed by a
// client-controlled class and must not grow without bound.
func TestClassStateBounded(t *testing.T) {
	s := New(Config{Seed: 1, ClassCacheSize: 2})
	for k := 1; k <= 4; k++ { // four distinct classes (class key includes K)
		if _, err := s.Solve(context.Background(), &Request{Arch: "central", K: k, N: 10}); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
	}
	if n := s.breakers.len(); n > 2 {
		t.Fatalf("breaker classes = %d, want ≤ 2 (LRU-bounded)", n)
	}
	if n := s.est.classes.len(); n > 2 {
		t.Fatalf("estimator classes = %d, want ≤ 2 (LRU-bounded)", n)
	}
}

func TestDeadlineDegrades(t *testing.T) {
	s := New(Config{Seed: 1})
	// A model whose exact-tier estimate is far above a 1ms deadline.
	resp, err := s.Solve(context.Background(), &Request{Arch: "central", K: 10, N: 50, TimeoutMS: 1})
	if !errors.Is(err, check.ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if resp == nil || !resp.Degraded() {
		t.Fatalf("resp = %+v, want a degraded approximation", resp)
	}
	if resp.Fidelity == FidelityBounds && resp.TotalTimeLower >= resp.TotalTimeUpper {
		t.Fatalf("bounds envelope [%v, %v] is empty", resp.TotalTimeLower, resp.TotalTimeUpper)
	}
}

func TestHTTPFidelityRoundTrip(t *testing.T) {
	s := New(Config{Seed: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("bad JSON body %q: %v", raw, err)
		}
		return resp.StatusCode, m
	}

	status, body := post(`{"arch":"central","k":3,"n":10}`)
	if status != http.StatusOK || body["fidelity"] != "exact" {
		t.Fatalf("healthy solve: status %d body %v, want 200 fidelity=exact", status, body)
	}

	// The degraded tag must round-trip to the client on a 200.
	status, body = post(`{"arch":"central","k":10,"n":50,"timeout_ms":1}`)
	if status != http.StatusOK {
		t.Fatalf("degraded solve: status %d body %v, want 200", status, body)
	}
	fid, _ := body["fidelity"].(string)
	if fid != string(FidelitySteady) && fid != string(FidelityBounds) {
		t.Fatalf("degraded fidelity = %q, want steady-state or bounds", fid)
	}
	if body["degraded_from"] == "" {
		t.Fatalf("degraded body %v carries no degraded_from", body)
	}

	// Error mapping: bad model, wrong method, unknown field.
	status, body = post(`{"arch":"central","k":0,"n":10}`)
	if status != http.StatusBadRequest || body["code"] != "invalid_model" {
		t.Fatalf("invalid model: status %d body %v, want 400 invalid_model", status, body)
	}
	status, body = post(`{"arch":"central","k":3,"n":10,"bogus":1}`)
	if status != http.StatusBadRequest || body["code"] != "invalid_model" {
		t.Fatalf("unknown field: status %d body %v, want 400 invalid_model", status, body)
	}
	getResp, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d, want 405", getResp.StatusCode)
	}
}

// TestDrainUnderLoad is the issue-mandated shutdown scenario: with one
// request solving and one queued, Drain must cancel the queued request
// (typed check.ErrCanceled), finish or force-cancel the in-flight one,
// reject new work as draining, and leak no goroutines.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	inflightReq := &Request{Arch: "central", K: 16, N: 2000}
	net, err := inflightReq.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	price := chainPrice(net.Space(), inflightReq.K)
	// Budget fits exactly one such solve, so the second request queues.
	s := New(Config{Seed: 1, Budget: price, MaxQueue: 4})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	resps := make([]*Response, 2)
	for i := 0; i < 2; i++ {
		i := i
		req := &Request{Arch: "central", K: 16, N: 2000 + i}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.Solve(context.Background(), req)
		}()
		// Admit the first fully before launching the second so the
		// in-flight/queued roles are deterministic.
		waitFor(t, func() bool {
			used, _, queued := s.adm.snapshot()
			return used > 0 && queued >= i
		})
	}

	// Force-cancel drain: the deadline is already unreachable for the
	// in-flight exact solve.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = s.Drain(drainCtx)
	wg.Wait()

	if err == nil || !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("Drain = %v, want a typed deadline-expired report", err)
	}
	canceled := 0
	for i := 0; i < 2; i++ {
		if errs[i] == nil {
			continue // finished before the force-cancel landed
		}
		if !errors.Is(errs[i], check.ErrCanceled) {
			t.Fatalf("request %d: err = %v (resp %+v), want ErrCanceled", i, errs[i], resps[i])
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no request observed the drain cancel; the scenario did not exercise the path")
	}

	// New work is refused as draining (503, not 429).
	_, err = s.Solve(context.Background(), &Request{Arch: "central", K: 3, N: 5})
	if !errors.Is(err, ErrDraining) || !errors.Is(err, check.ErrOverloaded) {
		t.Fatalf("post-drain Solve: err = %v, want ErrDraining ∧ ErrOverloaded", err)
	}
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", StatusOf(err))
	}

	// No goroutine may outlive the drain (issue: leak check under
	// cancel-during-drain).
	waitForGoroutines(t, before)
}

// TestDrainCompletesInflight: with an ample deadline, Drain lets the
// running solve finish and returns nil.
func TestDrainCompletesInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Seed: 1})
	var wg sync.WaitGroup
	var resp *Response
	var solveErr error
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, solveErr = s.Solve(context.Background(), &Request{Arch: "central", K: 10, N: 80})
		done.Store(true)
	}()
	// In-flight, or already finished (the solve is only ~tens of ms).
	waitFor(t, func() bool {
		used, _, _ := s.adm.snapshot()
		return used > 0 || done.Load()
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if solveErr != nil {
		t.Fatalf("in-flight solve: %v", solveErr)
	}
	if resp.Fidelity != FidelityExact {
		t.Fatalf("in-flight solve fidelity = %s, want exact", resp.Fidelity)
	}
	waitForGoroutines(t, before)
}

func TestStatusAndCodeMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{nil, 200, ""},
		{&DegradedError{Fidelity: FidelityBounds, Reason: "x"}, 200, "degraded"},
		{check.Invalid("x"), 400, "invalid_model"},
		{errDraining(), 503, "draining"},
		{check.ErrOverloaded, 429, "overloaded"},
		{check.ErrCanceled, 504, "canceled"},
		{check.ErrSingular, 503, "singular"},
		{check.ErrNumeric, 503, "numeric"},
		{check.ErrNotConverged, 503, "not_converged"},
		{errors.New("mystery"), 500, "internal"},
	}
	for _, tc := range cases {
		if got := StatusOf(tc.err); got != tc.status {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.status)
		}
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %q, want %q", tc.err, got, tc.code)
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
// baseline (solver teardown is asynchronous for a few scheduler ticks).
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

// TestRequestIdentityFastPath: a repeated request is served from the
// result cache via the request-identity mapping — without rebuilding
// the network — and deadline changes do not split the identity.
func TestRequestIdentityFastPath(t *testing.T) {
	s := New(Config{Seed: 1})
	ctx := context.Background()
	first, err := s.Solve(ctx, &Request{Arch: "central", K: 3, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve must miss")
	}
	// Same request with a different deadline: still one identity.
	hit, err := s.Solve(ctx, &Request{Arch: "central", K: 3, N: 10, TimeoutMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("repeat solve must hit the cache")
	}
	if hit.TotalTime != first.TotalTime {
		t.Fatalf("cached TotalTime = %v, want %v", hit.TotalTime, first.TotalTime)
	}
	if got := s.Snapshot().CacheHits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// The paper's distributed cluster at K=6 with CV² 10 disks (full
// reduced space: 14,407 states at level 6, over the chain budget) is
// served exactly under the default configuration: its six disks are
// exchangeable, so the chain is lumped to 281 states at level 6. The
// answer is the solver's own.
func TestDistributedK6ServedExact(t *testing.T) {
	s := New(Config{Seed: 1})
	req := &Request{Arch: "distributed", K: 6, N: 30, CV2: &CV2Spec{Remote: 10}}
	resp, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if resp.Fidelity != FidelityExact {
		t.Fatalf("fidelity %q, want exact", resp.Fidelity)
	}
	net, err := req.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewSolver(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d := solver.Chain.D(6); d != 281 {
		t.Fatalf("level 6 has %d states, want 281", d)
	}
	want, err := solver.TotalTime(30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.TotalTime-want) > 1e-12*want {
		t.Fatalf("served E(T) %v, solver %v", resp.TotalTime, want)
	}
}
