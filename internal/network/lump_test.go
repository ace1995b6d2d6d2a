package network_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"finwl/internal/alloc"
	"finwl/internal/cluster"
	"finwl/internal/core"
	"finwl/internal/ctmc"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
	"finwl/internal/workload"
)

func distributedNet(t *testing.T, k int, cv2 float64) *network.Network {
	t.Helper()
	net, err := cluster.Distributed(k, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(cv2)})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// symmetricNet is a random network with c exchangeable stations of
// the given kind behind a CPU pool: the CPU feeds each of them with
// one probability, each routes to a sibling with one probability, to
// itself with another, to a shared channel or back to the CPU. Every
// weight is random, the symmetry exact.
func symmetricNet(r *rand.Rand, c int, kind statespace.Kind, svc *phase.PH) *network.Network {
	m := c + 2
	comm := m - 1
	q := 0.1 + 0.3*r.Float64()
	toEach := (1 - q) / float64(c)
	self, sib := 0.1*r.Float64(), 0.2*r.Float64()/float64(c)
	toComm := r.Float64() * (1 - self - sib*float64(c-1))
	route := matrix.New(m, m)
	for i := 1; i <= c; i++ {
		route.Set(0, i, toEach)
		for j := 1; j <= c; j++ {
			if i == j {
				route.Set(i, j, self)
			} else {
				route.Set(i, j, sib)
			}
		}
		route.Set(i, comm, toComm)
		route.Set(i, 0, 1-self-sib*float64(c-1)-toComm)
	}
	route.Set(comm, 0, 1)
	stations := make([]network.Station, m)
	stations[0] = network.Station{Name: "CPU", Kind: statespace.Delay, Service: phase.MustErlang(2, 0.5+r.Float64())}
	for i := 1; i <= c; i++ {
		stations[i] = network.Station{Name: fmt.Sprintf("S%d", i), Kind: kind, Service: svc, Servers: 2}
	}
	stations[comm] = network.Station{Name: "Comm", Kind: statespace.Queue, Service: phase.MustExpo(0.2 + r.Float64())}
	exit := make([]float64, m)
	exit[0] = q
	entry := make([]float64, m)
	entry[0], entry[comm] = 0.5, 0.5
	return &network.Network{Stations: stations, Route: route, Exit: exit, Entry: entry}
}

type lumpModel struct {
	name        string
	k           int
	net         *network.Network
	distributed bool // the paper's distributed cluster
}

// lumpModels lists the networks the lumped chain is checked on: the
// paper's distributed cluster at CV² 1/4/10 for K ≤ maxK, and random
// symmetric networks with exchangeable H2 queues, two-phase delay
// pools and two-server stations.
func lumpModels(t *testing.T, maxK int) []lumpModel {
	var out []lumpModel
	for _, cv2 := range []float64{1, 4, 10} {
		for k := 1; k <= maxK; k++ {
			out = append(out, lumpModel{fmt.Sprintf("distributed-cv%g/K=%d", cv2, k), k, distributedNet(t, k, cv2), true})
		}
	}
	r := rand.New(rand.NewSource(7))
	return append(out,
		lumpModel{"queues-h2", 4, symmetricNet(r, 3, statespace.Queue, phase.MustHyperExpFit(1.5, 6)), false},
		lumpModel{"delays-erlang", 4, symmetricNet(r, 3, statespace.Delay, phase.MustErlang(2, 1.2)), false},
		lumpModel{"multi", 4, symmetricNet(r, 2, statespace.Multi, phase.MustExpo(0.8)), false})
}

// lumpedIndex returns the lumped chain's index of a full-chain state.
func lumpedIndex(lumped *network.Chain, k int, state []int) int {
	buf := append([]int(nil), state...)
	lumped.Space.Canonicalize(buf)
	return lumped.Levels[k].States.MustIndex(buf)
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// The lumped levels are the strong lumping of the full ones: every
// full state's total rate equals its orbit's, and its P, Q and R rows,
// summed over each target orbit, equal its orbit's lumped rows.
func TestLumpedChainStronglyLumpable(t *testing.T) {
	for _, m := range lumpModels(t, 4) {
		t.Run(m.name, func(t *testing.T) {
			full, err := network.NewUnlumpedChain(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			lumped, err := network.NewChain(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			if m.k > 1 && !lumped.Space.Lumped() {
				t.Fatal("no exchangeable class detected")
			}
			for k := 1; k <= m.k; k++ {
				fl, ll := full.Levels[k], lumped.Levels[k]
				// aggregate sums a full row over the lumped states its
				// columns map to.
				aggregate := func(row []float64, to int, states *statespace.Level) []float64 {
					out := make([]float64, lumped.Levels[to].States.Count())
					for j, v := range row {
						if v != 0 {
							out[lumpedIndex(lumped, to, states.State(j))] += v
						}
					}
					return out
				}
				unit := func(n, i int) []float64 { e := make([]float64, n); e[i] = 1; return e }
				compare := func(what string, got, want []float64) {
					t.Helper()
					for j := range want {
						if math.Abs(got[j]-want[j]) > 1e-14 {
							t.Fatalf("level %d %s column %d: aggregated %v, lumped %v", k, what, j, got[j], want[j])
						}
					}
				}
				for i := 0; i < fl.States.Count(); i++ {
					li := lumpedIndex(lumped, k, fl.States.State(i))
					if !closeRel(fl.MDiag[i], ll.MDiag[li], 1e-15) {
						t.Fatalf("level %d state %d: rate %v, lumped %v", k, i, fl.MDiag[i], ll.MDiag[li])
					}
					ef, el := unit(fl.States.Count(), i), unit(ll.States.Count(), li)
					compare("P", aggregate(fl.P.VecMul(ef), k, fl.States), ll.P.VecMul(el))
					compare("Q", aggregate(fl.Q.VecMul(ef), k-1, full.Levels[k-1].States), ll.Q.VecMul(el))
				}
				prevF, prevL := full.Levels[k-1].States, lumped.Levels[k-1].States
				for i := 0; i < prevF.Count(); i++ {
					li := lumpedIndex(lumped, k-1, prevF.State(i))
					compare("R", aggregate(fl.R.VecMul(unit(prevF.Count(), i)), k, fl.States),
						ll.R.VecMul(unit(prevL.Count(), li)))
				}
			}
		})
	}
}

// drainVector returns D_k, the mean time to drain the system from each
// state of level k with no task left to enter, given D_{k−1} (nil at
// k = 1): D_k = τ'_k + Y_k·D_{k−1}, through the public Tau and Depart
// on each unit vector.
func drainVector(s *core.Solver, k int, prev []float64) []float64 {
	d := s.Tau(k)
	if k == 1 {
		return d
	}
	e := make([]float64, len(d))
	for i := range d {
		e[i] = 1
		d[i] += matrix.Dot(s.Depart(k, e), prev)
		e[i] = 0
	}
	return d
}

// E(T), the epoch series and the split E(T) of the lumped chain equal
// the full chain's, for distributed K ≤ 5 at CV² 1/4/10 and the random
// symmetric networks, within 1e-12 relative; so do the drain vectors
// of the random symmetric networks.
func TestLumpedAnswersMatchFullChain(t *testing.T) {
	maxK := 5
	if testing.Short() {
		maxK = 4
	}
	ctx := context.Background()
	for _, m := range lumpModels(t, maxK) {
		t.Run(m.name, func(t *testing.T) {
			fullChain, err := network.NewUnlumpedChain(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.NewSolverFromChain(fullChain)
			if err != nil {
				t.Fatal(err)
			}
			lumped, err := core.NewSolver(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			// The distributed cluster's drain vectors are compared in
			// core (TestLumpedDrainVectorsMatchFullChain), where the
			// solver's own D_k is readable; recomputing them here costs
			// one solve per state of levels up to 2,668 states.
			var df, dl []float64
			for k := 1; k <= m.k && !m.distributed; k++ {
				df, dl = drainVector(full, k, df), drainVector(lumped, k, dl)
				states := fullChain.Levels[k].States
				for i, v := range df {
					if w := dl[lumpedIndex(lumped.Chain, k, states.State(i))]; !closeRel(v, w, 1e-12) {
						t.Fatalf("D_%d[%d] = %v, lumped %v", k, i, v, w)
					}
				}
			}
			for _, n := range []int{1, m.k, m.k + 1, 3*m.k + 2, 60} {
				rf, err := full.Solve(n)
				if err != nil {
					t.Fatal(err)
				}
				rl, err := lumped.Solve(n)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rf.Epochs {
					if !closeRel(rf.Epochs[i], rl.Epochs[i], 1e-12) {
						t.Fatalf("n=%d epoch %d: full %v, lumped %v", n, i, rf.Epochs[i], rl.Epochs[i])
					}
				}
				if !closeRel(rf.TotalTime, rl.TotalTime, 1e-12) {
					t.Fatalf("n=%d: E(T) full %v, lumped %v", n, rf.TotalTime, rl.TotalTime)
				}
				split, err := lumped.SplitTotalTimeCtx(ctx, n)
				if err != nil {
					t.Fatal(err)
				}
				if !closeRel(rf.TotalTime, split, 1e-12) {
					t.Fatalf("n=%d: E(T) full %v, lumped split %v", n, rf.TotalTime, split)
				}
			}
		})
	}
}

// Per-station outputs of the lumped chain are equal within each class
// and equal the full chain's per-station values: core's occupancy and
// busy servers at the entry vector and the time-stationary
// distribution, and ctmc's occupancy at a time point.
func TestLumpedPerStationOutputs(t *testing.T) {
	for _, m := range lumpModels(t, 3) {
		if m.k < 2 {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			fullChain, err := network.NewUnlumpedChain(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			full, err := core.NewSolverFromChain(fullChain)
			if err != nil {
				t.Fatal(err)
			}
			lumped, err := core.NewSolver(m.net, m.k)
			if err != nil {
				t.Fatal(err)
			}
			classes := lumped.Chain.Space.Classes()
			check := func(what string, got, want []float64) {
				t.Helper()
				for st := range want {
					if math.Abs(got[st]-want[st]) > 1e-12*math.Max(1, math.Abs(want[st])) {
						t.Fatalf("%s station %d: lumped %v, full %v", what, st, got[st], want[st])
					}
				}
				for _, cl := range classes {
					for _, st := range cl {
						if got[st] != got[cl[0]] {
							t.Fatalf("%s: class %v not equal: %v", what, cl, got)
						}
					}
				}
			}
			pf, pl := full.EntryVector(m.k), lumped.EntryVector(m.k)
			check("occupancy at p_K", lumped.Occupancy(m.k, pl), full.Occupancy(m.k, pf))
			check("busy at p_K", lumped.BusyServers(m.k, pl), full.BusyServers(m.k, pf))
			tf, err := full.TimeStationary()
			if err != nil {
				t.Fatal(err)
			}
			tl, err := lumped.TimeStationary()
			if err != nil {
				t.Fatal(err)
			}
			check("stationary occupancy", lumped.Occupancy(m.k, tl), full.Occupancy(m.k, tf))
			check("stationary busy", lumped.BusyServers(m.k, tl), full.BusyServers(m.k, tf))
			cf, err := ctmc.Build(fullChain, 2*m.k)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := ctmc.Build(lumped.Chain, 2*m.k)
			if err != nil {
				t.Fatal(err)
			}
			of, err := cf.OccupancyAt(3)
			if err != nil {
				t.Fatal(err)
			}
			ol, err := cl.OccupancyAt(3)
			if err != nil {
				t.Fatal(err)
			}
			check("ctmc occupancy", ol, of)
		})
	}
}

// The orbit-counting DP prices every lumped level exactly: for the
// distributed cluster at K ≤ 10 and CV² 1/4/10 it equals the
// enumerated count at every level, and the top levels are the known
// orbit counts.
func TestLumpedLevelSizesMatchEnumeration(t *testing.T) {
	top := map[[2]float64]int64{
		{4, 4}: 68, {4, 5}: 142, {4, 6}: 281, {4, 8}: 964, {4, 10}: 2913,
		{10, 5}: 142, {10, 6}: 281, {10, 8}: 964, {10, 10}: 2913,
		{1, 8}: 187,
	}
	full := map[[2]float64]int64{{4, 4}: 501, {4, 5}: 2668, {4, 6}: 14407, {1, 6}: 1716, {1, 7}: 6435}
	for _, cv2 := range []float64{1, 4, 10} {
		for k := 1; k <= 10; k++ {
			net := distributedNet(t, k, cv2)
			space := net.Space()
			if k > 1 && (len(space.Classes()) != 1 || len(space.Classes()[0]) != k) {
				t.Fatalf("cv2=%g K=%d: classes %v, want the %d disks", cv2, k, space.Classes(), k)
			}
			for lvl := 0; lvl <= k; lvl++ {
				if got, want := space.LevelSize(lvl), int64(space.Enumerate(lvl).Count()); got != want {
					t.Fatalf("cv2=%g K=%d level %d: DP %d, enumerated %d", cv2, k, lvl, got, want)
				}
			}
			if want, ok := top[[2]float64{cv2, float64(k)}]; ok {
				if got := space.LevelSize(k); got != want {
					t.Fatalf("cv2=%g K=%d: lumped top level %d, want %d", cv2, k, got, want)
				}
			}
			if want, ok := full[[2]float64{cv2, float64(k)}]; ok {
				unlumped := statespace.NewSpace(shapesOf(net))
				if got := unlumped.LevelSize(k); got != want {
					t.Fatalf("cv2=%g K=%d: full top level %d, want %d", cv2, k, got, want)
				}
			}
		}
	}
}

func shapesOf(net *network.Network) []statespace.StationShape {
	out := make([]statespace.StationShape, len(net.Stations))
	for i, st := range net.Stations {
		out[i] = statespace.StationShape{Kind: st.Kind, Phases: st.Service.Dim(), Servers: st.Servers}
	}
	return out
}

// Stations lump only when every swap within a class maps the network
// onto itself: the central cluster and a non-uniform data allocation
// have no class, and breaking one disk's symmetry in routing or in
// service drops it from the class.
func TestExchangeClassDetection(t *testing.T) {
	app := workload.Default(30)
	central, err := cluster.Central(4, app, cluster.Dists{Remote: cluster.WithCV2(4)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := central.Space().Classes(); c != nil {
		t.Fatalf("central cluster lumped: %v", c)
	}
	split, err := alloc.DistributedAlloc(3, app, cluster.Dists{}, []float64{0.5, 0.3, 0.2}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := split.Space().Classes(); c != nil {
		t.Fatalf("non-uniform allocation lumped: %v", c)
	}
	half, err := alloc.DistributedAlloc(4, app, cluster.Dists{}, []float64{0.4, 0.2, 0.2, 0.2}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := half.Space().Classes(); len(c) != 1 || fmt.Sprint(c[0]) != "[2 3 4]" {
		t.Fatalf("allocation with three equal disks: classes %v, want [[2 3 4]]", c)
	}

	// Disk 1 of four sends a sliver of its traffic to disk 2: swapping
	// disks 1 and 2 (or 1 and any other) now changes the routing.
	net := distributedNet(t, 4, 4)
	net.Route.Set(1, 2, 1e-3)
	net.Route.Set(1, 5, 1-1e-3)
	if c := net.Space().Classes(); len(c) != 1 || fmt.Sprint(c[0]) != "[3 4]" {
		t.Fatalf("asymmetric routing: classes %v, want [[3 4]]", c)
	}
	// A service rate one ulp off splits a disk out.
	net = distributedNet(t, 3, 4)
	svc := *net.Stations[3].Service
	svc.Rates = append([]float64(nil), svc.Rates...)
	svc.Rates[0] = math.Nextafter(svc.Rates[0], 2*svc.Rates[0])
	net.Stations[3].Service = &svc
	if c := net.Space().Classes(); len(c) != 1 || fmt.Sprint(c[0]) != "[1 2]" {
		t.Fatalf("one-ulp service change: classes %v, want [[1 2]]", c)
	}
}

// A network with the same zero pattern as a lumped one but no
// exchangeable pair never replays the lumped tape: the memo key
// carries the class partition.
func TestShapeMemoKeepsLumpedApart(t *testing.T) {
	network.ResetShapeMemo()
	sym := distributedNet(t, 2, 4)
	lumped, err := network.NewChain(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	asym := distributedNet(t, 2, 4)
	// The second disk gets a different H2: no pair is exchangeable.
	svc := *asym.Stations[2].Service
	svc.Rates = append([]float64(nil), svc.Rates...)
	svc.Rates[1] *= 1.5
	asym.Stations[2].Service = &svc
	full, err := network.NewChain(asym, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := network.NewUnlumpedChain(asym, 2)
	if err != nil {
		t.Fatal(err)
	}
	if full.Space.Lumped() || full.D(2) != ref.D(2) || full.D(2) <= lumped.D(2) {
		t.Fatalf("asymmetric network built %d states (lumped %v), full chain %d, symmetric %d",
			full.D(2), full.Space.Lumped(), ref.D(2), lumped.D(2))
	}
	sameChains(t, full, ref)
}
