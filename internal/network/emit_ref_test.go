package network

import "finwl/internal/statespace"

// levelSink receives the numeric weights of one level. Tests plug in a
// dense sink to hold the production chain to a dense reference.
type levelSink interface {
	setM(i int, rate float64)
	addP(i, j int, w float64)
	addQ(i, jPrev int, w float64)
	addR(iPrev, j int, w float64)
}

// emitLevel generates every M/P/Q/R weight of one population level
// into sink straight from the network's parameters — Entry, Exit,
// Route, and each station's Alpha, Rates, Trans and ExitProb — without
// the θ layout, the walker or the tape the production build goes
// through. It is the reference those are checked against. scratch and
// depart are state-width work vectors. Weights for the same (row,
// column) pair are emitted in a fixed order, so accumulating sinks
// agree bitwise whatever their storage.
func emitLevel(net *Network, space *statespace.Space, prev, cur *statespace.Level, sink levelSink, scratch, depart []int) {
	d := cur.Count()
	dPrev := prev.Count()

	// addArrival distributes weight w over the states reached when a
	// task arrives at station dst with the system in state, calling
	// emit for each target state. It builds targets in scratch and
	// never writes state, so callers may pass the depart buffer.
	addArrival := func(state []int, dst int, w float64, emit func(target []int, w float64)) {
		st := net.Stations[dst]
		switch st.Kind {
		case statespace.Delay:
			for ph, a := range st.Service.Alpha {
				if a == 0 {
					continue
				}
				copy(scratch, state)
				space.SetDelayCount(scratch, dst, ph, space.DelayCount(scratch, dst, ph)+1)
				emit(scratch, w*a)
			}
		case statespace.Queue:
			n := space.QueueCount(state, dst)
			if n == 0 {
				// The arriving task goes straight into service.
				for ph, a := range st.Service.Alpha {
					if a == 0 {
						continue
					}
					copy(scratch, state)
					space.SetQueue(scratch, dst, 1, ph)
					emit(scratch, w*a)
				}
			} else {
				copy(scratch, state)
				space.SetQueue(scratch, dst, n+1, space.QueuePhase(state, dst))
				emit(scratch, w)
			}
		case statespace.Multi:
			copy(scratch, state)
			space.SetMultiCount(scratch, dst, space.MultiCount(state, dst)+1)
			emit(scratch, w)
		}
	}

	// R_k: arrivals into level k−1 states.
	for i := 0; i < dPrev; i++ {
		state := prev.State(i)
		for e, pe := range net.Entry {
			if pe == 0 {
				continue
			}
			addArrival(state, e, pe, func(target []int, w float64) {
				sink.addR(i, cur.MustIndex(target), w)
			})
		}
	}

	// M_k, P_k, Q_k: events out of level k states. The total rate
	// accumulates over the active units in the order the emission loop
	// then visits them.
	type unit struct {
		st, ph int
		rate   float64
	}
	var units []unit
	for si := 0; si < d; si++ {
		state := cur.State(si)

		var total float64
		units = units[:0]
		refActiveUnits(net, space, state, func(st, ph int, rate float64) {
			units = append(units, unit{st: st, ph: ph, rate: rate})
			total += rate
		})
		sink.setM(si, total)

		for _, u := range units {
			st, ph := u.st, u.ph
			w0 := u.rate / total
			svc := net.Stations[st].Service

			// Internal phase movement within the station.
			for ph2 := 0; ph2 < svc.Dim(); ph2++ {
				tp := svc.Trans.At(ph, ph2)
				if tp == 0 {
					continue
				}
				moved := moveWithinStation(net, space, state, st, ph, ph2, depart)
				sink.addP(si, cur.MustIndex(moved), w0*tp)
			}

			done := svc.ExitProb(ph)
			if done == 0 {
				continue
			}
			// Remove the completing customer from the station; for a
			// queue with waiting customers the successor's starting
			// phase fans out over the entry vector. base is the depart
			// buffer, which addArrival leaves untouched.
			refPostCompletion(net, space, state, st, ph, depart, func(base []int, bw float64) {
				// Route to the next station …
				for dst := 0; dst < len(net.Stations); dst++ {
					r := net.Route.At(st, dst)
					if r == 0 {
						continue
					}
					addArrival(base, dst, w0*done*bw*r, func(target []int, w float64) {
						sink.addP(si, cur.MustIndex(target), w)
					})
				}
				// … or leave the system.
				if e := net.Exit[st]; e > 0 {
					sink.addQ(si, prev.MustIndex(base), w0*done*bw*e)
				}
			})
		}
	}
}

// refActiveUnits visits every independently-completing exponential
// phase in the state with its aggregate rate: each occupied phase of
// a delay station (rate count·µ), the in-service phase of each
// non-empty queue station (rate µ), and the busy servers of each
// multi-server station (rate busy·µ).
func refActiveUnits(net *Network, space *statespace.Space, state []int, f func(st, ph int, rate float64)) {
	for st := range net.Stations {
		svc := net.Stations[st].Service
		switch net.Stations[st].Kind {
		case statespace.Delay:
			for ph := 0; ph < svc.Dim(); ph++ {
				if c := space.DelayCount(state, st, ph); c > 0 {
					f(st, ph, float64(c)*svc.Rates[ph])
				}
			}
		case statespace.Queue:
			if n := space.QueueCount(state, st); n > 0 {
				ph := space.QueuePhase(state, st)
				f(st, ph, svc.Rates[ph])
			}
		case statespace.Multi:
			if n := space.MultiCount(state, st); n > 0 {
				busy := min(n, net.Stations[st].Servers)
				f(st, 0, float64(busy)*svc.Rates[0])
			}
		}
	}
}

// refPostCompletion removes the customer completing service at
// (st, ph) and emits the resulting station state(s) with their weight:
// a single state (weight 1) for delay and multi-server stations and
// empty-after queues, and one state per successor entry phase (weight
// α) for queues with waiting customers.
func refPostCompletion(net *Network, space *statespace.Space, state []int, st, ph int, buf []int, emit func(base []int, w float64)) {
	switch net.Stations[st].Kind {
	case statespace.Delay:
		copy(buf, state)
		space.SetDelayCount(buf, st, ph, space.DelayCount(buf, st, ph)-1)
		emit(buf, 1)
	case statespace.Queue:
		n := space.QueueCount(state, st)
		if n == 1 {
			copy(buf, state)
			space.SetQueue(buf, st, 0, 0)
			emit(buf, 1)
			return
		}
		for ph2, a := range net.Stations[st].Service.Alpha {
			if a == 0 {
				continue
			}
			copy(buf, state)
			space.SetQueue(buf, st, n-1, ph2)
			emit(buf, a)
		}
	case statespace.Multi:
		copy(buf, state)
		space.SetMultiCount(buf, st, space.MultiCount(state, st)-1)
		emit(buf, 1)
	}
}
