// Package network models a closed finite-workload queueing network at
// the station level and constructs the LAQT matrices the transient
// solver consumes: the single-customer <p, B> representation (§3.1)
// and, for each population level k, the completion-rate matrix M_k,
// the internal transition matrix P_k, the exit matrix Q_k, and the
// entrance matrix R_k (§5.4).
//
// Stations are either Delay stations (dedicated servers — every
// customer present is in service, the paper's load-dependent CPU and
// local-disk pools) or Queue stations (shared single-server FCFS —
// the communication channel and shared disks). Each station serves
// with a phase-type distribution; Erlang and hyperexponential servers
// are therefore just stations with more than one phase, exactly the
// constructions of §5.4.1–5.4.2.
package network

import (
	"fmt"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// Station is one service station. Servers is used only by
// multi-server (statespace.Multi) stations and gives the number of
// parallel exponential servers.
type Station struct {
	Name    string
	Kind    statespace.Kind
	Service *phase.PH
	Servers int
}

// Network is a set of stations plus station-level routing: on
// completing service at station i a task moves to station j with
// probability Route[i][j] or leaves the system with probability
// Exit[i] (rows of Route plus Exit sum to one). A task entering the
// system starts at station i with probability Entry[i].
type Network struct {
	Stations []Station
	Route    *matrix.Matrix
	Exit     []float64
	Entry    []float64
}

// Validate checks the structural invariants of the network: station
// shapes, per-station service laws (delegated to phase.Validate),
// stochastic routing+exit rows, and a probability entry vector — all
// with NaN/Inf screens, every failure matching check.ErrInvalidModel.
func (n *Network) Validate() error {
	if n == nil {
		return check.Invalid("network: nil network")
	}
	m := len(n.Stations)
	if m == 0 {
		return check.Invalid("network: no stations")
	}
	if n.Route == nil {
		return check.Invalid("network: nil routing matrix")
	}
	if n.Route.Rows() != m || n.Route.Cols() != m {
		return check.Invalid("network: routing matrix %dx%d for %d stations", n.Route.Rows(), n.Route.Cols(), m)
	}
	if len(n.Exit) != m || len(n.Entry) != m {
		return check.Invalid("network: exit/entry vectors sized %d/%d for %d stations", len(n.Exit), len(n.Entry), m)
	}
	for i, st := range n.Stations {
		if st.Service == nil {
			return check.Invalid("network: station %d (%s) has no service distribution", i, st.Name)
		}
		if err := st.Service.Validate(); err != nil {
			return fmt.Errorf("network: station %d (%s): %w", i, st.Name, err)
		}
		switch st.Kind {
		case statespace.Delay, statespace.Queue:
		case statespace.Multi:
			if st.Servers < 1 {
				return check.Invalid("network: multi-server station %d (%s) needs Servers >= 1", i, st.Name)
			}
			if st.Service.Dim() != 1 {
				return check.Invalid("network: multi-server station %d (%s) must have exponential service", i, st.Name)
			}
		default:
			return check.Invalid("network: station %d (%s) has unknown kind %v", i, st.Name, st.Kind)
		}
		// Routing row i plus the exit probability must be stochastic.
		row := make([]float64, 0, m+1)
		row = append(row, n.Route.RawRow(i)...)
		row = append(row, n.Exit[i])
		if err := check.StochasticRow(fmt.Sprintf("network: station %d routing+exit", i), row); err != nil {
			return err
		}
	}
	if err := check.ProbVec("network: entry probabilities", n.Entry); err != nil {
		return err
	}
	return nil
}

// Space returns the reduced-product state space layout for the
// network's stations, lumped over every class of exchangeable stations
// (exchangeClasses). It is the space NewChain builds over, so its
// LevelSize and ChainPrice price that chain exactly.
func (n *Network) Space() *statespace.Space {
	return statespace.NewLumpedSpace(n.shapes(), n.exchangeClasses())
}

// shapes lists the stations' state layouts.
func (n *Network) shapes() []statespace.StationShape {
	shapes := make([]statespace.StationShape, len(n.Stations))
	for i, st := range n.Stations {
		shapes[i] = statespace.StationShape{Kind: st.Kind, Phases: st.Service.Dim(), Servers: st.Servers}
	}
	return shapes
}

// position indexes the single-customer chain: (station, phase) pairs
// flattened station-major.
func (n *Network) positions() (offsets []int, total int) {
	offsets = make([]int, len(n.Stations))
	for i, st := range n.Stations {
		offsets[i] = total
		total += st.Service.Dim()
	}
	return offsets, total
}

// AsPH returns the single-task system representation <p, B> of §3.1:
// with one customer the whole network is itself a phase-type
// distribution over (station, phase) positions whose completion is
// the task leaving the system. Its mean is the no-contention task
// flow time, and p·V gives the per-position time components vector
// the paper uses to calibrate routing probabilities.
func (n *Network) AsPH() *phase.PH {
	offsets, total := n.positions()
	alpha := make([]float64, total)
	rates := make([]float64, total)
	trans := matrix.New(total, total)
	for i, st := range n.Stations {
		svc := st.Service
		m := svc.Dim()
		for ph := 0; ph < m; ph++ {
			pos := offsets[i] + ph
			alpha[pos] = n.Entry[i] * svc.Alpha[ph]
			rates[pos] = svc.Rates[ph]
			// Internal phase movement within the station.
			for ph2 := 0; ph2 < m; ph2++ {
				if v := svc.Trans.At(ph, ph2); v != 0 {
					trans.Inc(pos, offsets[i]+ph2, v)
				}
			}
			// Service completion: route to the entry phase of the next
			// station, or leave the system (no transition entry).
			done := svc.ExitProb(ph)
			if done == 0 {
				continue
			}
			for j, st2 := range n.Stations {
				r := n.Route.At(i, j)
				if r == 0 {
					continue
				}
				for ph2, a := range st2.Service.Alpha {
					if a != 0 {
						trans.Inc(pos, offsets[j]+ph2, done*r*a)
					}
				}
			}
		}
	}
	return &phase.PH{Name: "network", Alpha: alpha, Rates: rates, Trans: trans}
}

// TimeComponents returns p·V of the single-task chain aggregated by
// station: the expected total time a lone task spends at each station
// over its life in the system (the paper's pV vector, e.g.
// [CX, (1−C)X, BY, Y] for the central cluster). It fails with a typed
// error when the single-task chain is not absorbing (a task can get
// trapped, making B singular).
func (n *Network) TimeComponents() ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	ph := n.AsPH()
	// p·V = SolveLeft of B with p, through the robust ladder so a
	// stiff but solvable chain still yields its components.
	pv, _, err := matrix.SolveLeftRobust(ph.B(), ph.Alpha)
	if err != nil {
		return nil, fmt.Errorf("network: time components (is the network absorbing?): %w", err)
	}
	offsets, _ := n.positions()
	out := make([]float64, len(n.Stations))
	for i, st := range n.Stations {
		for k := 0; k < st.Service.Dim(); k++ {
			out[i] += pv[offsets[i]+k]
		}
	}
	return out, nil
}

// VisitRatios solves the traffic equations v = Entry + v·Route and
// returns the expected number of visits a task makes to each station.
// It fails with a typed error when the routing chain is not absorbing
// (I−Route singular: some tasks never leave).
func (n *Network) VisitRatios() ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	m := len(n.Stations)
	a := matrix.Identity(m).Sub(n.Route)
	v, _, err := matrix.SolveLeftRobust(a, n.Entry)
	if err != nil {
		return nil, fmt.Errorf("network: traffic equations (is the routing chain absorbing?): %w", err)
	}
	return v, nil
}
