// Command perfbench is the repository benchmark. It boots the real
// cmd/finwld binary on loopback, drives one workload against it in a
// closed loop, checks every answer against an in-process reference,
// and prints the result as one JSON line:
//
//	perfbench --workload cold-distinct --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics: deltas read from the
// child's /metrics, /debug/vars and response bodies over the measured
// window, plus span timings from an in-process traced replay of the
// same request sequence. run.sh builds both binaries and runs it;
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"finwl/internal/serve"
)

// Fixed run shape. Changing any of these changes what is measured.
const (
	boots = 9 // setup_s is the median over this many boots
	// The client runs on one thread while it drives finwld, which then
	// has the host's other CPU; checking and tracing use both.
	driveProcs   = 1
	checkProcs   = 2
	traceBudget  = 4 * time.Second // traced replay length
	traceMaxReqs = 2000
	calibReps    = 5
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window length")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = flag.String("finwld", ".bench_build/finwld", "finwld binary to boot")
		outDir  = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	w, err := newWorkload(*name, *seed)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	out, err := run(w, time.Duration(*seconds)*time.Second, *traced == 1, *bin, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session owns every child process of a run, so each exit path,
// including a signal, kills and reaps them.
type session struct {
	mu   sync.Mutex
	live map[*child]bool
}

func (s *session) boot(bin string) (*child, error) {
	c, err := bootChild(bin)
	if err == nil {
		s.mu.Lock()
		s.live[c] = true
		s.mu.Unlock()
	}
	return c, err
}

func (s *session) stop(c *child) {
	c.stop()
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
}

func (s *session) stopAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.live {
		c.stop()
		delete(s.live, c)
	}
}

func run(w *workload, window time.Duration, traced bool, bin, outDir string) (*result, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("finwld binary: %w", err)
	}
	ses := &session{live: map[*child]bool{}}
	defer ses.stopAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			ses.stopAll()
			os.Exit(1)
		}
	}()

	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration model: %w", err)
	}
	if err := cal.sample(calibReps); err != nil {
		return nil, err
	}
	calStart := median(cal.samples)

	runtime.GOMAXPROCS(driveProcs)
	// Set-up: boot to warm, several times; the last boot is measured.
	client := newClient()
	defer client.CloseIdleConnections()
	var setups []float64
	var c *child
	for b := 0; b < boots; b++ {
		if c != nil {
			ses.stop(c)
			client.CloseIdleConnections()
		}
		t0 := time.Now()
		if c, err = ses.boot(bin); err != nil {
			return nil, err
		}
		if err := c.waitHealthy(client); err != nil {
			return nil, err
		}
		// The warm-up also opens the keep-alive connections the
		// measured window reuses.
		if err := warmUp(client, c.base, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	before, err := c.snapshot(client)
	if err != nil {
		return nil, err
	}
	recs := closedLoop(client, c.base, w, window)
	after, err := c.snapshot(client)
	if err != nil {
		return nil, err
	}
	ses.stop(c)
	runtime.GOMAXPROCS(checkProcs)

	v := checkRecords(recs, checkProcs)
	for _, f := range v.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check: %s\n", f)
	}
	if err := cal.sample(calibReps); err != nil {
		return nil, err
	}
	calEnd := median(cal.samples[calibReps:])

	e2e := endToEnd(w, recs, window, before, after, setups, v)
	res := &result{
		Correct:   v.attempted > 0 && v.exact == v.attempted,
		Attempted: v.attempted,
		Failed:    v.attempted - v.exact,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed run: %d requests, %d answers, host.calib_ms %.4f → %.4f\n",
		w.Name, len(recs), v.attempted, calStart, calEnd)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = perLayer(recs, before, after, v)
	res.Metrics["host.calib_ms"] = metric{median(cal.samples), "ms"}
	res.Metrics["host.calib_drift_frac"] = metric{calEnd/calStart - 1, "ratio"}
	tres, err := tracedReplay(w, traceBudget, traceMaxReqs, filepath.Join(outDir, "spans"))
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	addTraceMetrics(res.Metrics, tres, e2e["p50_ms"].Value)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d requests, spans in %s\n", tres.requests, tres.spanFile)
	return res, nil
}

// endToEnd computes the metrics a user of finwld sees, over the whole
// measured window.
func endToEnd(w *workload, recs []record, window time.Duration, before, after snapshot, setups []float64, v verdict) map[string]metric {
	lat := make([]float64, 0, len(recs))
	var done float64
	for _, r := range recs {
		lat = append(lat, ms(r.latency()))
		if r.done <= window {
			done += float64(r.req.Answers)
		}
	}
	answers := float64(v.attempted)
	cpu := float64(after.proc.cpuTicks-before.proc.cpuTicks) * float64(clockTick/time.Millisecond)
	return map[string]metric{
		"answers_per_s":     {done / window.Seconds(), "1/s"},
		"p50_ms":            {percentile(lat, 50), "ms"},
		"tail_ms":           {percentile(lat, w.Tail), "ms"},
		"cpu_ms_per_answer": {cpu / answers, "ms"},
		"peak_rss_mb":       {after.proc.hwmKB / 1024, "MB"},
		"ok_frac":           {float64(v.ok) / answers, "ratio"},
		"exact_frac":        {float64(v.exact) / answers, "ratio"},
		"setup_s":           {median(setups), "s"},
	}
}

// perLayer computes the per-layer figures of the untraced run: deltas
// of the child's counters over the window, and response-body timings.
func perLayer(recs []record, before, after snapshot, v verdict) map[string]metric {
	d := func(name string) float64 { return after.prom[name] - before.prom[name] }
	answers := float64(v.attempted)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var front, states []float64
	for _, r := range recs {
		var body struct {
			States  int            `json:"states"`
			Timings *serve.Timings `json:"timings"`
		}
		if r.req.Kind == kindBatch || json.Unmarshal(r.body, &body) != nil || body.Timings == nil {
			continue
		}
		front = append(front, ms(r.latency())-body.Timings.QueueMS-body.Timings.SolveMS)
		if r.req.Kind == kindStream {
			states = append(states, float64(body.States))
		}
	}
	hits, misses := d("finwld_cache_hits_total"), d("finwld_cache_misses_total")
	builds := d("finwl_chain_build_seconds_count")
	sparse, dense := d(`finwl_level_factorizations_total{path="sparse"}`), d(`finwl_level_factorizations_total{path="dense"}`)
	return map[string]metric{
		"serve.cache_hit_ratio":             {ratio(hits, hits+misses), "ratio"},
		"serve.front_ms":                    {median(front), "ms"},
		"serve.queue_wait_ms":               {1000 * ratio(d("finwld_queue_wait_seconds_sum"), d("finwld_queue_wait_seconds_count")), "ms"},
		"serve.retries":                     {d("finwld_retries_total"), "count"},
		"serve.degraded":                    {d("finwld_degraded_total"), "count"},
		"serve.rejected":                    {d("finwld_rejected_total"), "count"},
		"network.chain_builds_per_answer":   {builds / answers, "count"},
		"network.chain_build_ms":            {1000 * ratio(d("finwl_chain_build_seconds_sum"), builds), "ms"},
		"core.factor_ms":                    {1000 * ratio(d("finwl_level_factor_seconds_sum"), d("finwl_level_factor_seconds_count")), "ms"},
		"core.sparse_factor_frac":           {ratio(sparse, sparse+dense), "ratio"},
		"core.epochs_per_answer":            {d("finwl_epochs_total") / answers, "count"},
		"core.sweep_checkpoints_per_answer": {d("finwl_sweep_checkpoints_total") / answers, "count"},
		"batch.jobs_per_group":              {ratio(d("finwld_batch_jobs_total"), d("finwld_batch_groups_total")), "count"},
		"batch.chain_reuse_frac":            {ratio(d("finwld_batch_chain_reuse_total"), d("finwld_batch_jobs_total")), "ratio"},
		"stream.states_per_scenario":        {mean(states), "count"},
		"runtime.alloc_kb_per_answer":       {(after.alloc - before.alloc) / 1024 / answers, "KiB"},
		"runtime.gc_per_1k_answers":         {1000 * (after.numGC - before.numGC) / answers, "count"},
	}
}

// addTraceMetrics adds the traced run's figures: medians over traced
// requests, 0 where a layer does not take part in the workload.
func addTraceMetrics(m map[string]metric, t *traceResult, untracedP50 float64) {
	epochUS := 0.0
	if t.epochs > 0 {
		epochUS = t.solveNS / t.epochs / 1e3
	}
	m["trace.requests"] = metric{float64(t.requests), "count"}
	m["trace.serve.build_network_ms"] = metric{median(t.buildNetworkMS), "ms"}
	m["trace.network.chain_build_ms"] = metric{median(t.chainBuildMS), "ms"}
	m["trace.core.factor_ms"] = metric{median(t.factorMS), "ms"}
	m["trace.stream.solve_ms"] = metric{median(t.streamSolveMS), "ms"}
	m["trace.core.epoch_us"] = metric{epochUS, "us"}
	m["trace.serve.pipeline_self_ms"] = metric{median(t.pipelineSelfMS), "ms"}
	m["trace.serve.front_self_ms"] = metric{median(t.frontSelfMS), "ms"}
	m["bench.trace_overhead_frac"] = metric{median(t.roundTripMS)/untracedP50 - 1, "ratio"}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks, 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
