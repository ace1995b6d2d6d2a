// Package serve is the resilient request-processing layer in front of
// the solver pipeline — what turns the one-shot CLI solvers into a
// long-running service that survives bursts, numerical failures and
// shutdowns:
//
//   - admission control: a bounded FIFO job queue priced by the
//     statespace.LevelSize DP, so a request's state-space cost is
//     charged against a capacity budget before anything is allocated
//     (reject → check.ErrOverloaded → HTTP 429);
//   - retry with exponential backoff + jitter for transient failures
//     (ErrNotConverged, ErrNumeric);
//   - a per-model-class circuit breaker that trips after repeated
//     ErrSingular/ErrNumeric failures and short-circuits to the
//     degradation path, with half-open probes to recover;
//   - a graceful-degradation ladder — exact transient solve →
//     incremental sweep over a cached factored solver → product-form
//     steady-state approximation → operational-analysis bounds — with
//     every response carrying an explicit fidelity tag;
//   - a singleflight-deduplicated LRU result cache keyed by the
//     canonicalized model; and
//   - graceful drain: stop admitting, cancel queued work (typed
//     check.ErrCanceled), finish in-flight solves within a deadline.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finwl/internal/batch"
	"finwl/internal/bounds"
	"finwl/internal/check"
	"finwl/internal/core"
	"finwl/internal/network"
	"finwl/internal/obs"
	"finwl/internal/productform"
	"finwl/internal/statespace"
)

// ErrDraining marks rejections issued while the server is shutting
// down; it additionally matches check.ErrOverloaded and maps to HTTP
// 503 (rather than 429) so clients know not to retry this instance.
var ErrDraining = errors.New("server draining")

func errDraining() error {
	return fmt.Errorf("%w: %w", ErrDraining, check.ErrOverloaded)
}

// ErrUnavailable marks a fleet-router failure to place a request on
// any replica: every candidate was down, partitioned, or refused the
// work. It additionally matches check.ErrOverloaded (retrying later
// can help) and maps to HTTP 503 so clients can tell it from their
// own model being rejected.
var ErrUnavailable = errors.New("no replica available")

// ErrJobUnknown marks a GET /jobs/{id} for an ID this server has never
// seen; it maps to HTTP 404 (code "not_found").
var ErrJobUnknown = errors.New("unknown job")

// ErrJobGone marks a GET /jobs/{id} for an ID that was once valid but
// whose record has since expired or been evicted — a distinction only
// a journal-backed server can make. It maps to HTTP 410 (code "gone"):
// re-polling cannot help, but re-submitting with the same idempotency
// key safely re-runs the work.
var ErrJobGone = errors.New("job expired")

func jobUnknown(id string) error {
	return fmt.Errorf("serve: unknown or expired job %q: %w", id, ErrJobUnknown)
}

func jobGone(id string) error {
	return fmt.Errorf("serve: job %q expired; results no longer retained: %w", id, ErrJobGone)
}

// Unavailable wraps cause (the last per-replica failure, may be nil)
// into an ErrUnavailable-matching error.
func Unavailable(cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %w", ErrUnavailable, check.ErrOverloaded)
	}
	return fmt.Errorf("%w: %w: last error: %w", ErrUnavailable, check.ErrOverloaded, cause)
}

// Config tunes the serving layer. Zero values take the defaults
// below; negative cache sizes disable the cache.
type Config struct {
	Budget           int64         // admission budget, state-space units (default 1<<27)
	MaxQueue         int           // max queued (waiting) requests (default 64)
	CacheSize        int           // result-cache entries (default 512, <0 disables)
	SolverCacheSize  int           // factored-solver cache entries (default 4, <0 disables)
	BreakerThreshold int           // consecutive failures to trip (default 5)
	BreakerCooldown  time.Duration // open → half-open delay (default 5s)
	ClassCacheSize   int           // per-model-class breaker/estimator entries (default 256; <1 takes the default)
	Retries          int           // extra attempts for transient failures (default 2, <0 disables)
	RetryBase        time.Duration // first backoff (default 50ms)
	MaxTimeout       time.Duration // cap and default for per-request deadlines (default 60s)
	StreamMaxStates  int64         // /stream augmented-state cap (default stream.DefaultMaxStates)

	// Batch and async-job tuning.
	MaxBatchJobs int           // max jobs in one /batch or /jobs submission (default 256)
	JobStoreSize int           // async job records held at once (default 64)
	JobTTL       time.Duration // retention of finished async results (default 10m)
	AsyncWorkers int           // concurrent async batch runs (default 4)

	// Durability. A non-empty JournalDir enables the async-jobs
	// journal: every /jobs transition is appended to
	// JournalDir/jobs.jsonl and replayed at boot — queued and
	// running-at-crash batches re-enqueue (running ones restart from
	// their last checkpointed group), finished results within JobTTL
	// stay fetchable, and expired-but-once-valid IDs answer 410 Gone.
	// Empty (the default) keeps the purely in-memory PR-5 behavior.
	JournalDir    string
	Fsync         string             // journal fsync policy: always|interval|never (default interval)
	FsyncInterval time.Duration      // interval-policy sync period (default 100ms)
	JournalHooks  batch.JournalHooks // fault-injection hooks (chaos, tests)
	// ReplicaID prefixes async job IDs ("replica/uuid") so a fleet
	// router can route GET /jobs/{id} back by prefix alone. Empty with
	// a journal: a generated ID is persisted in JournalDir/replica-id
	// so the prefix survives restarts. Empty without a journal: IDs
	// stay bare (the PR-5 wire shape).
	ReplicaID string
	// IdemWindow bounds the Idempotency-Key dedup LRU for /jobs and
	// /batch (default 256; negative disables).
	IdemWindow int

	// Cold-start cost model for the degradation ladder; the per-class
	// EWMA estimator refines these from observed solves.
	ExactNsPerUnit float64       // exact-tier ns per state-space unit (default 50)
	CheckpointFrac float64       // checkpoint cost as a fraction of exact (default 0.125)
	SteadyEstimate time.Duration // steady-tier cost guess (default 2ms)

	Seed int64            // jitter seed (default: wall clock)
	Now  func() time.Time // test hook for breaker clocks

	// Logger receives one structured line per HTTP request (request
	// ID, method, path, status, elapsed). nil disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Budget, 1<<27)
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.SolverCacheSize == 0 {
		c.SolverCacheSize = 4
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ClassCacheSize < 1 {
		// Unlike the result caches this one cannot be disabled: an
		// unretained breaker would never accumulate a failure streak.
		c.ClassCacheSize = 256
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase == 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBatchJobs == 0 {
		c.MaxBatchJobs = 256
	}
	if c.JobStoreSize == 0 {
		c.JobStoreSize = 64
	}
	if c.JobTTL == 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.AsyncWorkers < 1 {
		c.AsyncWorkers = 4
	}
	if c.IdemWindow == 0 {
		c.IdemWindow = 256
	}
	if c.ExactNsPerUnit == 0 {
		c.ExactNsPerUnit = 50
	}
	if c.CheckpointFrac == 0 {
		c.CheckpointFrac = 0.125
	}
	if c.SteadyEstimate == 0 {
		c.SteadyEstimate = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Response is the client-visible result of one solve.
type Response struct {
	Fidelity Fidelity `json:"fidelity"`
	K        int      `json:"k"`
	N        int      `json:"n"`

	// TotalTime is E(T), the mean time to complete the workload —
	// exact for the exact/checkpoint tiers, approximate for steady,
	// and the bracket midpoint for bounds.
	TotalTime float64 `json:"total_time"`
	// Bounds-tier envelope (zero otherwise).
	TotalTimeLower  float64 `json:"total_time_lower,omitempty"`
	TotalTimeUpper  float64 `json:"total_time_upper,omitempty"`
	ThroughputLower float64 `json:"x_lower,omitempty"`
	ThroughputUpper float64 `json:"x_upper,omitempty"`

	Epochs       int     `json:"epochs,omitempty"`        // exact tiers: epochs computed (= N)
	Price        int64   `json:"price"`                   // admission cost charged
	Breaker      string  `json:"breaker,omitempty"`       // model-class breaker state
	DegradedFrom string  `json:"degraded_from,omitempty"` // why fidelity < exact
	RoutedVia    string  `json:"routed_via,omitempty"`    // fleet router: which replica answered, and why
	Cached       bool    `json:"cached,omitempty"`
	Deduplicated bool    `json:"deduplicated,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`

	// Timings breaks the request's wall time into its pipeline stages;
	// EncodeMS is filled by the HTTP handler just before the final
	// serialization. PR-3 clients that ignore unknown fields are
	// unaffected.
	Timings *Timings `json:"timings,omitempty"`
}

// Timings is the per-response stage breakdown.
type Timings struct {
	QueueMS  float64 `json:"queue_ms"`  // admission-queue wait
	SolveMS  float64 `json:"solve_ms"`  // ladder time after admission
	EncodeMS float64 `json:"encode_ms"` // response JSON serialization
}

// clone copies a Response deeply enough that mutating the copy's
// flags or timings cannot race with other holders of the original
// (the result cache, concurrent dedup followers).
func (r *Response) clone() *Response {
	cp := *r
	if r.Timings != nil {
		t := *r.Timings
		cp.Timings = &t
	}
	return &cp
}

// Degraded reports whether the response came from an approximation
// tier rather than an exact one.
func (r *Response) Degraded() bool {
	return r.Fidelity != FidelityExact && r.Fidelity != FidelityCheckpoint
}

// DegradedError accompanies a usable degraded Response; it matches
// check.ErrDegraded so callers can branch with errors.Is while still
// consuming the approximation.
type DegradedError struct {
	Fidelity Fidelity
	Reason   string
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("served %s approximation (%s)", e.Fidelity, e.Reason)
}

func (e *DegradedError) Unwrap() error { return check.ErrDegraded }

// Stats are monotonic service counters, exposed at /stats.
type Stats struct {
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	Deduplicated int64 `json:"deduplicated"`
	Rejected     int64 `json:"rejected"` // admission rejections (429/503)
	Invalid      int64 `json:"invalid"`  // model rejections (400)
	Canceled     int64 `json:"canceled"` // 504s
	Retries      int64 `json:"retries"`
	Degraded     int64 `json:"degraded"` // responses with fidelity below exact tiers
	Failures     int64 `json:"failures"` // ladder exhausted (503)
	Exact        int64 `json:"exact"`
	Checkpoint   int64 `json:"checkpoint"`
	Steady       int64 `json:"steady_state"`
	Bounds       int64 `json:"bounds"`

	// Batch scheduler counters (additive to the PR-3 shape).
	BatchJobs       int64 `json:"batch_jobs"`
	BatchGroups     int64 `json:"batch_groups"`
	BatchChainReuse int64 `json:"batch_chain_reuse"`
}

// Server is the resilient solver service. Create with New; it is safe
// for concurrent use.
type Server struct {
	cfg   Config
	adm   *admission
	cache *lru[*Response]
	// reqKeys maps a request's wire identity (deadline stripped) to its
	// result-cache key, so repeat requests skip network construction
	// and canonicalization on the hit path.
	reqKeys *lru[string]
	solvers *lru[*core.Solver]
	flight  *flightGroup[*Response]
	est     *estimator
	rand    *lockedRand

	// breakers is LRU-bounded (ClassCacheSize): the class key is
	// client-controlled, so an unbounded map would let a diverse
	// workload leak memory. An evicted class simply starts over closed.
	breakers *lru[*Breaker]

	// Batch surface: the shared-chain scheduler, a singleflight around
	// fresh chain construction (so concurrent groups over one network
	// build it once), and the async job store plus its worker gate.
	sched        *batch.Scheduler
	solverFlight *flightGroup[*core.Solver]
	jobs         *batch.Store[BatchItem]
	asyncSem     chan struct{}
	asyncWG      sync.WaitGroup

	// Durability and idempotency: the append-only journal (nil when
	// JournalDir is empty), this replica's job-ID prefix, and the
	// bounded Idempotency-Key windows — idemJobs maps a key to its job
	// ID under idemMu (submits must be read-modify-write atomic),
	// idemBatch caches a keyed /batch's items with idemFlight
	// collapsing concurrent redeliveries of the same key.
	journal    *batch.Journal
	replicaID  string
	idemMu     sync.Mutex
	idemJobs   *lru[string]
	idemBatch  *lru[[]BatchItem]
	idemFlight *flightGroup[[]BatchItem]

	draining   atomic.Bool
	drainCh    chan struct{} // closed when Drain starts; parks no new async work
	drainOnce  sync.Once
	workCtx    context.Context
	workCancel context.CancelFunc

	reg *obs.Registry
	m   *serveMetrics
}

// New builds a Server from cfg (zero value = all defaults). With a
// JournalDir configured it additionally recovers journaled async jobs;
// a journal that cannot be opened or replayed (including typed
// check.ErrJournalCorrupt) is logged and the server runs without
// durability — use NewRecovered when that must be a hard failure.
func New(cfg Config) *Server {
	s, err := NewRecovered(cfg)
	if err != nil {
		// Availability-first fallback: serve from memory only. The
		// journal error was already logged by NewRecovered's caller
		// contract below; strip the journal config and rebuild.
		if cfg.Logger != nil {
			cfg.Logger.Error("journal disabled: open/replay failed", "dir", cfg.JournalDir, "error", err)
		}
		bare := cfg
		bare.JournalDir = ""
		s, _ = NewRecovered(bare)
	}
	return s
}

// NewRecovered is New with journal failures surfaced: a JournalDir
// that cannot be opened, or whose contents fail the integrity check
// (typed check.ErrJournalCorrupt), returns the error instead of a
// server. With an empty JournalDir it never fails.
func NewRecovered(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	workCtx, workCancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	s := &Server{
		cfg:          cfg,
		adm:          newAdmission(cfg.Budget, cfg.MaxQueue),
		cache:        newLRU[*Response](cfg.CacheSize),
		reqKeys:      newLRU[string](cfg.CacheSize),
		solvers:      newLRU[*core.Solver](cfg.SolverCacheSize),
		flight:       newFlightGroup[*Response](),
		est:          newEstimator(cfg.ExactNsPerUnit, cfg.CheckpointFrac, float64(cfg.SteadyEstimate), cfg.ClassCacheSize),
		rand:         newLockedRand(cfg.Seed),
		breakers:     newLRU[*Breaker](cfg.ClassCacheSize),
		solverFlight: newFlightGroup[*core.Solver](),
		jobs:         batch.NewStore[BatchItem](cfg.JobStoreSize, cfg.JobTTL, cfg.Now),
		asyncSem:     make(chan struct{}, cfg.AsyncWorkers),
		drainCh:      make(chan struct{}),
		workCtx:      workCtx,
		workCancel:   workCancel,
		reg:          reg,
		m:            newServeMetrics(reg),

		replicaID:  cfg.ReplicaID,
		idemJobs:   newLRU[string](cfg.IdemWindow),
		idemBatch:  newLRU[[]BatchItem](cfg.IdemWindow),
		idemFlight: newFlightGroup[[]BatchItem](),
	}
	s.sched = batch.New(batch.Hooks{
		Acquire: func(done <-chan struct{}, price int64) error {
			err := s.adm.acquire(done, price)
			if err != nil && errors.Is(err, check.ErrOverloaded) {
				s.m.rejected.Inc()
			}
			return err
		},
		Release:   s.adm.release,
		SolverFor: s.solverFor,
		OnGroupDone: func(jobs int, reused bool, err error) {
			s.m.batchGroups.Inc()
			s.m.batchGroupJobs.Observe(int64(jobs))
			// Chain-reuse accounting: a cached (or concurrently built)
			// solver means no member of the group triggered a fresh
			// chain; a fresh build is shared by everyone but the builder.
			switch {
			case reused:
				s.m.batchChainReuse.Add(int64(jobs))
			case err == nil:
				s.m.batchChainReuse.Add(int64(jobs - 1))
			}
		},
	})
	registerGauges(reg, s)
	if cfg.JournalDir != "" {
		if err := s.openJournal(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// solverFor resolves the factored solver for solverKey, building it at
// most once across concurrent callers: the solver cache answers
// repeats, and the singleflight collapses simultaneous first builds of
// the same chain (two batch groups, or a batch racing /solve). The
// bool reports reuse — the caller did not pay for a chain
// construction.
func (s *Server) solverFor(ctx context.Context, solverKey string, net *network.Network, k int) (*core.Solver, bool, error) {
	if solver, ok := s.solvers.get(solverKey); ok {
		return solver, true, nil
	}
	solver, err, shared, abandoned := s.solverFlight.do(ctx.Done(), solverKey, func() (*core.Solver, error) {
		sv, err := core.NewSolverCtx(ctx, net, k)
		if err != nil {
			return nil, err
		}
		s.solvers.add(solverKey, sv)
		return sv, nil
	})
	if abandoned {
		return nil, false, check.Canceled(ctx)
	}
	return solver, shared, err
}

// Metrics returns the server's metric registry, for embedding into a
// combined /metrics page (finwld concatenates it with obs.Default).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// classKey identifies a model class for the circuit breakers and the
// cost estimator: the station-shape signature plus the population.
func classKey(space *statespace.Space, k int) string {
	var b strings.Builder
	for i := 0; i < space.Stations(); i++ {
		sh := space.Shape(i)
		fmt.Fprintf(&b, "%s:%d:%d|", sh.Kind, sh.Phases, sh.Servers)
	}
	fmt.Fprintf(&b, "K=%d", k)
	return b.String()
}

// requestIdentity is the canonical wire form of a request with its
// deadline stripped — a deadline never changes which result is
// correct, only how long the caller waits for it. It returns "" when
// the request cannot marshal (never for requests the API can express),
// which simply disables the fast path for that call.
func requestIdentity(req *Request) string {
	r := *req
	r.TimeoutMS = 0
	b, err := json.Marshal(&r)
	if err != nil {
		return ""
	}
	return string(b)
}

func (s *Server) breakerFor(class string) *Breaker {
	return s.breakers.getOrCreate(class, func() *Breaker {
		return NewBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, s.cfg.Now, s.m.breakerTransition)
	})
}

// Solve runs one request through the full resilience pipeline. On a
// degraded result both return values are non-nil: a usable Response
// plus a *DegradedError matching check.ErrDegraded. Every other error
// matches a check sentinel.
func (s *Server) Solve(ctx context.Context, req *Request) (*Response, error) {
	s.m.requests.Inc()
	if s.draining.Load() {
		s.m.rejected.Inc()
		return nil, errDraining()
	}
	// Request-identity fast path: a repeat of a request already seen
	// maps straight to its result-cache key, skipping network
	// construction and canonicalization entirely. The mapping is
	// populated only after a successful BuildNetwork, so it can never
	// vouch for an invalid request.
	rid := requestIdentity(req)
	if rid != "" {
		if key, ok := s.reqKeys.get(rid); ok {
			if cached, ok := s.cache.get(key); ok {
				s.m.cacheHits.Inc()
				cp := cached.clone()
				cp.Cached = true
				cp.Timings = &Timings{} // a hit does no queueing or solving
				return cp, nil
			}
		}
	}
	net, err := req.BuildNetwork()
	if err != nil {
		s.m.invalid.Inc()
		return nil, err
	}

	timeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	// A drain deadline cuts in-flight work by cancelling every
	// request's context.
	stop := context.AfterFunc(s.workCtx, cancel)
	defer stop()

	netKey := networkKey(net)
	key := fmt.Sprintf("%s|k=%d|n=%d", netKey, req.K, req.N)
	if rid != "" {
		s.reqKeys.add(rid, key)
	}
	if cached, ok := s.cache.get(key); ok {
		s.m.cacheHits.Inc()
		cp := cached.clone()
		cp.Cached = true
		cp.Timings = &Timings{} // a hit does no queueing or solving
		return cp, nil
	}
	s.m.cacheMisses.Inc()

	solverKey := fmt.Sprintf("%s|K=%d", netKey, req.K) // == ShardKey(net, req.K)
	resp, err, shared, abandoned := s.flight.do(ctx.Done(), key, func() (*Response, error) {
		return s.process(ctx, net, req.K, req.N, key, solverKey)
	})
	if abandoned {
		s.m.canceled.Inc()
		return nil, check.Canceled(ctx)
	}
	if shared {
		s.m.deduped.Inc()
		if resp != nil {
			cp := resp.clone()
			cp.Deduplicated = true
			resp = cp
		}
	}
	if err != nil && errors.Is(err, check.ErrCanceled) {
		s.m.canceled.Inc()
	}
	return resp, err
}

// process is the admission → breaker → ladder core of one solve; it
// runs once per singleflight key.
func (s *Server) process(ctx context.Context, net *network.Network, k, n int, key, solverKey string) (*Response, error) {
	space := net.Space()
	price := chainPrice(space, k)
	queueSpan := s.m.queueWait.Start()
	if err := s.adm.acquire(ctx.Done(), price); err != nil {
		queueSpan.End()
		if errors.Is(err, check.ErrOverloaded) {
			s.m.rejected.Inc()
		}
		return nil, err
	}
	queueWait := queueSpan.End()
	defer s.adm.release(price)

	class := classKey(space, k)
	br := s.breakerFor(class)
	allowed, probe := br.Allow()
	// A half-open probe token must be released on every exit path.
	// Cancellation, a non-tripping exact failure, or a tier choice that
	// never attempts an exact rung report neither OnSuccess nor
	// onFailure; without the abort the breaker would stay probing
	// forever and short-circuit the class until restart.
	probeSettled := false
	if probe {
		defer func() {
			if !probeSettled {
				br.AbortProbe()
			}
		}()
	}
	est := s.est.estimate(class, price)
	remaining := noDeadline
	if dl, ok := ctx.Deadline(); ok {
		remaining = time.Until(dl)
		if remaining > 0 {
			// Only bounded requests are observable here: noDeadline
			// would park every unbounded request in the +Inf bucket and
			// drown the signal (how close requests run to their budget).
			s.m.deadlineRemaining.ObserveDuration(remaining)
		}
	}
	_, haveSolver := s.solvers.get(solverKey)
	tier := selectTier(!allowed, haveSolver, remaining, est)

	var reasons []string
	if tier == FidelitySteady || tier == FidelityBounds {
		if !allowed {
			reasons = append(reasons, "breaker "+br.State().String())
		} else {
			reasons = append(reasons, fmt.Sprintf("deadline %v below exact estimate %v", remaining.Round(time.Millisecond), est.exact.Round(time.Millisecond)))
		}
	}

	for rung := tier; ; rung = rungBelow(rung) {
		start := time.Now()
		var resp *Response
		err := withRetry(ctx, s.cfg.Retries, s.cfg.RetryBase, s.rand, func() { s.m.retries.Inc() }, func() error {
			var e error
			resp, e = s.runTier(ctx, rung, net, k, n, solverKey)
			return e
		})
		if err == nil {
			solveTime := time.Since(start)
			s.est.observe(class, resp.Fidelity, price, solveTime)
			s.m.tierCounter(resp.Fidelity).Inc()
			s.m.solveTime.ObserveDuration(solveTime)
			resp.K, resp.N, resp.Price = k, n, price
			resp.ElapsedMS = float64(solveTime.Microseconds()) / 1000
			resp.Timings = &Timings{
				QueueMS: float64(queueWait.Microseconds()) / 1000,
				SolveMS: float64(solveTime.Microseconds()) / 1000,
			}
			if !resp.Degraded() {
				if probe || allowed {
					br.OnSuccess()
					probeSettled = true
				}
				resp.Breaker = br.State().String()
				s.cache.add(key, resp)
				return resp, nil
			}
			resp.Breaker = br.State().String()
			resp.DegradedFrom = strings.Join(reasons, "; ")
			s.m.degraded.Inc()
			return resp, &DegradedError{Fidelity: resp.Fidelity, Reason: resp.DegradedFrom}
		}
		if errors.Is(err, check.ErrCanceled) {
			return nil, err
		}
		if (rung == FidelityExact || rung == FidelityCheckpoint) &&
			(errors.Is(err, check.ErrSingular) || errors.Is(err, check.ErrNumeric)) {
			br.OnFailure()
			probeSettled = true
		}
		if rung == FidelityBounds {
			// Ladder exhausted: nothing cheaper to fall to.
			s.m.failures.Inc()
			return nil, err
		}
		reasons = append(reasons, fmt.Sprintf("%s tier failed: %v", rung, err))
	}
}

// runTier executes one ladder rung. The returned Response carries the
// fidelity actually delivered (a checkpoint request whose cached
// solver was evicted builds a fresh one and reports exact).
func (s *Server) runTier(ctx context.Context, rung Fidelity, net *network.Network, k, n int, solverKey string) (*Response, error) {
	switch rung {
	case FidelityExact, FidelityCheckpoint:
		solver, reused, err := s.solverFor(ctx, solverKey, net, k)
		if err != nil {
			return nil, err
		}
		if !reused {
			rung = FidelityExact
		}
		// Both rungs answer through core's split E(T): a forward and a
		// backward epoch recursion that share the work of N epochs.
		// They differ only in the fidelity label; both count in
		// finwl_solves_total.
		total, err := solver.SplitTotalTimeCtx(ctx, n)
		if err != nil {
			return nil, err
		}
		return &Response{Fidelity: rung, TotalTime: total, Epochs: n}, nil

	case FidelitySteady:
		return steadyApprox(net, k, n)

	default: // FidelityBounds
		return boundsEnvelope(net, n)
	}
}

// steadyApprox is the product-form steady-state approximation of
// E(T): drain epochs costed at the product-form interdeparture time
// of each population 1..min(n,K), and the n−K feeding epochs at the
// level-K rate — the paper's steady-state stand-in for the transient.
func steadyApprox(net *network.Network, k, n int) (*Response, error) {
	m, err := productform.FromNetwork(net)
	if err != nil {
		return nil, err
	}
	if err := typedOr(m.Validate(), check.ErrInvalidModel); err != nil {
		return nil, err
	}
	var total float64
	kTop := min(n, k)
	var xK float64
	for kk := 1; kk <= kTop; kk++ {
		x := m.ThroughputBuzen(kk)
		if !(x > 0) {
			return nil, fmt.Errorf("serve: product-form throughput X(%d) = %v: %w", kk, x, check.ErrNumeric)
		}
		total += 1 / x
		xK = x
	}
	if n > k {
		total += float64(n-k) / xK
	}
	if err := check.Finite("serve: steady-state total time", total); err != nil {
		return nil, fmt.Errorf("%v: %w", err, check.ErrNumeric)
	}
	return &Response{Fidelity: FidelitySteady, TotalTime: total}, nil
}

// boundsEnvelope is the last rung: the operational-analysis bounds
// bracket, O(stations) and deadline-proof.
func boundsEnvelope(net *network.Network, n int) (*Response, error) {
	m, err := productform.FromNetwork(net)
	if err != nil {
		return nil, err
	}
	b, err := bounds.FromModel(m, n)
	if err != nil {
		return nil, typedOr(err, check.ErrInvalidModel)
	}
	if !(b.XUpperBJB > 0) || !(b.XLowerBJB > 0) {
		return nil, fmt.Errorf("serve: degenerate throughput bounds [%v, %v]: %w", b.XLowerBJB, b.XUpperBJB, check.ErrNumeric)
	}
	lower := float64(n) / b.XUpperBJB
	upper := float64(n) / b.XLowerBJB
	return &Response{
		Fidelity:        FidelityBounds,
		TotalTime:       (lower + upper) / 2,
		TotalTimeLower:  lower,
		TotalTimeUpper:  upper,
		ThroughputLower: b.XLowerBJB,
		ThroughputUpper: b.XUpperBJB,
	}, nil
}

// typedOr passes through nil and already-typed errors, and wraps
// anything else with the given sentinel so the serve boundary never
// leaks an untyped failure.
func typedOr(err, sentinel error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{
		check.ErrInvalidModel, check.ErrSingular, check.ErrNotConverged,
		check.ErrNumeric, check.ErrCanceled, check.ErrOverloaded, check.ErrDegraded,
	} {
		if errors.Is(err, s) {
			return err
		}
	}
	return fmt.Errorf("%v: %w", err, sentinel)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the service down: stop admitting (new
// requests fail 503-draining), cancel all queued work (typed
// check.ErrCanceled), and wait for in-flight solves. If ctx expires
// first, in-flight work is force-canceled (the solvers poll their
// contexts and unwind promptly) and Drain reports it; either way,
// when Drain returns no request is still running.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.adm.close()
	done := make(chan struct{})
	go func() {
		s.adm.wait()
		// Async batches not yet holding admission: queued ones fail
		// typed off drainCh, running ones unwind through their (now
		// rejecting) acquires.
		s.asyncWG.Wait()
		close(done)
	}()
	finish := func() {
		// Belt and braces: any record still queued after the workers
		// unwound reports canceled, and finished results stay fetchable.
		s.jobs.DrainQueued(errDrainCanceled())
	}
	select {
	case <-done:
		finish()
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.workCancel()
		<-done
		finish()
		s.closeJournal()
		return fmt.Errorf("serve: drain deadline expired, in-flight work canceled: %w", check.ErrCanceled)
	}
}

// closeJournal syncs and closes the journal at the end of a drain; a
// journal-less server no-ops.
func (s *Server) closeJournal() {
	if s.journal != nil {
		if err := s.journal.Close(); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("journal close failed", "error", err)
		}
	}
}

// Snapshot returns the current counters, read from the same
// registry-backed metrics /metrics scrapes — the JSON shape is
// unchanged from PR 3 so /stats consumers keep working.
func (s *Server) Snapshot() Stats {
	m := s.m
	return Stats{
		Requests:     m.requests.Value(),
		CacheHits:    m.cacheHits.Value(),
		Deduplicated: m.deduped.Value(),
		Rejected:     m.rejected.Value(),
		Invalid:      m.invalid.Value(),
		Canceled:     m.canceled.Value(),
		Retries:      m.retries.Value(),
		Degraded:     m.degraded.Value(),
		Failures:     m.failures.Value(),
		Exact:        m.exact.Value(),
		Checkpoint:   m.checkpoint.Value(),
		Steady:       m.steady.Value(),
		Bounds:       m.bounds.Value(),

		BatchJobs:       m.batchJobs.Value(),
		BatchGroups:     m.batchGroups.Value(),
		BatchChainReuse: m.batchChainReuse.Value(),
	}
}

// StatusOf maps an error from Solve to its HTTP status code. The
// serve contract: 400 for model problems, 429 for overload, 503 for
// draining, fleet unavailability and numerical failures that survived
// the whole ladder, 504 for deadlines/cancellation, 200 otherwise
// (including degraded results).
func StatusOf(err error) int {
	switch {
	case err == nil, errors.Is(err, check.ErrDegraded):
		return http.StatusOK
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrJobUnknown):
		return http.StatusNotFound
	case errors.Is(err, ErrJobGone):
		return http.StatusGone
	case errors.Is(err, check.ErrInvalidModel):
		return http.StatusBadRequest
	case errors.Is(err, check.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, check.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, check.ErrSingular), errors.Is(err, check.ErrNumeric),
		errors.Is(err, check.ErrNotConverged):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// CodeOf maps an error to the machine-readable code carried in error
// bodies.
func CodeOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrJobUnknown):
		return "not_found"
	case errors.Is(err, ErrJobGone):
		return "gone"
	case errors.Is(err, check.ErrInvalidModel):
		return "invalid_model"
	case errors.Is(err, check.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, check.ErrCanceled):
		return "canceled"
	case errors.Is(err, check.ErrSingular):
		return "singular"
	case errors.Is(err, check.ErrNumeric):
		return "numeric"
	case errors.Is(err, check.ErrNotConverged):
		return "not_converged"
	case errors.Is(err, check.ErrDegraded):
		return "degraded"
	default:
		return "internal"
	}
}

// ErrorBody is the JSON error payload.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Handler returns the standard HTTP surface for this server — the
// reusable Front wired to the embedded solve engine and its async job
// store, exposing this server's registry concatenated with the
// process-wide solver-stage metrics on /metrics.
func (s *Server) Handler() http.Handler {
	return NewFront(s, s, FrontConfig{
		Logger:       s.cfg.Logger,
		MaxBatchJobs: s.cfg.MaxBatchJobs,
		Registries:   []*obs.Registry{s.reg, obs.Default},
	}).Handler()
}

// noteRejected lets the Front charge protocol-level rejections (batch
// over the job limit) to this server's admission-rejection counter.
func (s *Server) noteRejected() { s.m.rejected.Inc() }

// statsBody is the /stats payload.
type statsBody struct {
	Stats      Stats             `json:"stats"`
	ReplicaID  string            `json:"replica_id,omitempty"` // job-ID prefix; routers scrape it
	BudgetUsed int64             `json:"budget_used"`
	Budget     int64             `json:"budget"`
	Queued     int               `json:"queued"`
	CacheLen   int               `json:"cache_len"`
	SolverLen  int               `json:"solver_cache_len"`
	Breakers   map[string]string `json:"breakers"`
	Draining   bool              `json:"draining"`
}

// StatsPayload is the GET /stats response body (Service interface).
func (s *Server) StatsPayload() any {
	used, budget, queued := s.adm.snapshot()
	body := statsBody{
		Stats:      s.Snapshot(),
		ReplicaID:  s.replicaID,
		BudgetUsed: used,
		Budget:     budget,
		Queued:     queued,
		CacheLen:   s.cache.len(),
		SolverLen:  s.solvers.len(),
		Breakers:   make(map[string]string),
		Draining:   s.draining.Load(),
	}
	s.breakers.each(func(class string, br *Breaker) {
		body.Breakers[class] = br.State().String()
	})
	return body
}
