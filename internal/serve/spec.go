package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
	"finwl/internal/workload"
)

// Num is a float64 whose JSON form round-trips non-finite values:
// ordinary numbers are numbers, and NaN/±Inf — which encoding/json
// rejects — are the strings "NaN", "+Inf", "-Inf". The serve boundary
// must be able to *carry* degenerate values so that the validators
// behind it are the ones rejecting them (and the fault-injection
// campaign can prove they do); silently refusing them at decode time
// would leave that path untested.
type Num float64

// MarshalJSON writes finite values as numbers and non-finite values
// as quoted strings.
func (n Num) MarshalJSON() ([]byte, error) {
	f := float64(n)
	switch {
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// UnmarshalJSON accepts a JSON number or one of the strings "NaN",
// "Inf", "+Inf", "-Inf".
func (n *Num) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch strings.ToLower(s) {
		case "nan":
			*n = Num(math.NaN())
		case "inf", "+inf":
			*n = Num(math.Inf(1))
		case "-inf":
			*n = Num(math.Inf(-1))
		default:
			return check.Invalid("serve: number %q is not a number or NaN/±Inf", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*n = Num(f)
	return nil
}

func nums(v []float64) []Num {
	if v == nil {
		return nil
	}
	out := make([]Num, len(v))
	for i, x := range v {
		out[i] = Num(x)
	}
	return out
}

func floats(v []Num) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// Kind wraps statespace.Kind with a JSON form that is either a name
// ("delay", "queue", "multi") or a raw integer, so out-of-range kinds
// can travel to network.Validate where they are rejected typed.
type Kind struct{ statespace.Kind }

// MarshalJSON writes known kinds by name and unknown ones as numbers.
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k.Kind {
	case statespace.Delay, statespace.Queue, statespace.Multi:
		return json.Marshal(k.String())
	}
	return json.Marshal(int(k.Kind))
}

// UnmarshalJSON accepts a kind name or integer.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch strings.ToLower(s) {
		case "delay":
			k.Kind = statespace.Delay
		case "queue":
			k.Kind = statespace.Queue
		case "multi":
			k.Kind = statespace.Multi
		default:
			return check.Invalid("serve: unknown station kind %q", s)
		}
		return nil
	}
	var i int
	if err := json.Unmarshal(b, &i); err != nil {
		return err
	}
	k.Kind = statespace.Kind(i)
	return nil
}

// PHSpec is the wire form of a phase-type service distribution.
type PHSpec struct {
	Alpha []Num   `json:"alpha"`
	Rates []Num   `json:"rates"`
	Trans [][]Num `json:"trans"`
}

// StationSpec is the wire form of one station.
type StationSpec struct {
	Name    string  `json:"name,omitempty"`
	Kind    Kind    `json:"kind"`
	Servers int     `json:"servers,omitempty"`
	Service *PHSpec `json:"service"`
}

// NetworkSpec is the wire form of a raw station-level network — the
// power-user (and fault-injection) alternative to the cluster form.
type NetworkSpec struct {
	Stations []StationSpec `json:"stations"`
	Route    [][]Num       `json:"route"`
	Exit     []Num         `json:"exit"`
	Entry    []Num         `json:"entry"`
}

// AppSpec is the wire form of the workload application model; zero
// fields inherit the paper's default workload.
type AppSpec struct {
	X          *float64 `json:"x,omitempty"`
	C          *float64 `json:"c,omitempty"`
	Y          *float64 `json:"y,omitempty"`
	B          *float64 `json:"b,omitempty"`
	Cycles     *float64 `json:"cycles,omitempty"`
	RemoteFrac *float64 `json:"remote_frac,omitempty"`
}

// CV2Spec overrides the squared coefficient of variation of each
// cluster component's service distribution (0 = exponential default).
type CV2Spec struct {
	CPU    float64 `json:"cpu,omitempty"`
	Disk   float64 `json:"disk,omitempty"`
	Comm   float64 `json:"comm,omitempty"`
	Remote float64 `json:"remote,omitempty"`
}

// Request is one solve request. Exactly one model form is used: the
// cluster form (Arch + optional App/CV2) or the raw Network form,
// which takes precedence when present.
type Request struct {
	Arch      string       `json:"arch,omitempty"` // "central" | "distributed"
	K         int          `json:"k"`              // max concurrency / workstations
	N         int          `json:"n"`              // workload size (tasks)
	App       *AppSpec     `json:"app,omitempty"`
	CV2       *CV2Spec     `json:"cv2,omitempty"`
	Network   *NetworkSpec `json:"network,omitempty"`
	TimeoutMS int          `json:"timeout_ms,omitempty"` // per-request deadline
}

// buildMatrix converts a [][]Num into a dense matrix, rejecting
// ragged rows with a typed error. Empty input yields nil (the
// validators reject nil with their own message).
func buildMatrix(name string, rows [][]Num) (*matrix.Matrix, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, check.Invalid("serve: %s row 0 is empty", name)
	}
	m := matrix.New(len(rows), cols)
	for i, row := range rows {
		if len(row) != cols {
			return nil, check.Invalid("serve: %s row %d has %d entries, want %d", name, i, len(row), cols)
		}
		for j, v := range row {
			m.Set(i, j, float64(v))
		}
	}
	return m, nil
}

// buildPH converts a PHSpec into a phase-type distribution without
// panicking on malformed dimensions; deeper invariants are left to
// phase.Validate, which network.Validate runs.
func (p *PHSpec) buildPH(name string) (*phase.PH, error) {
	if p == nil {
		return nil, nil
	}
	trans, err := buildMatrix(name+" trans", p.Trans)
	if err != nil {
		return nil, err
	}
	return &phase.PH{
		Name:  name,
		Alpha: floats(p.Alpha),
		Rates: floats(p.Rates),
		Trans: trans,
	}, nil
}

// buildNetwork converts a NetworkSpec into a network.Network. It only
// guards against conversions that would panic (ragged matrices); all
// model invariants are network.Validate's job.
func (ns *NetworkSpec) buildNetwork() (*network.Network, error) {
	route, err := buildMatrix("route", ns.Route)
	if err != nil {
		return nil, err
	}
	stations := make([]network.Station, len(ns.Stations))
	for i, st := range ns.Stations {
		svc, err := st.Service.buildPH(st.Name)
		if err != nil {
			return nil, err
		}
		stations[i] = network.Station{
			Name:    st.Name,
			Kind:    st.Kind.Kind,
			Service: svc,
			Servers: st.Servers,
		}
	}
	return &network.Network{
		Stations: stations,
		Route:    route,
		Exit:     floats(ns.Exit),
		Entry:    floats(ns.Entry),
	}, nil
}

// SpecFromNetwork converts a network back into its wire form — the
// inverse of buildNetwork, used to push programmatically-built
// (including degenerate) networks through the HTTP surface and to
// derive canonical cache keys.
func SpecFromNetwork(net *network.Network) *NetworkSpec {
	if net == nil {
		return &NetworkSpec{}
	}
	spec := &NetworkSpec{
		Exit:  nums(net.Exit),
		Entry: nums(net.Entry),
	}
	if net.Route != nil {
		spec.Route = make([][]Num, net.Route.Rows())
		for i := range spec.Route {
			spec.Route[i] = nums(net.Route.RawRow(i))
		}
	}
	spec.Stations = make([]StationSpec, len(net.Stations))
	for i, st := range net.Stations {
		ss := StationSpec{Name: st.Name, Kind: Kind{st.Kind}, Servers: st.Servers}
		if st.Service != nil {
			ph := &PHSpec{Alpha: nums(st.Service.Alpha), Rates: nums(st.Service.Rates)}
			if st.Service.Trans != nil {
				ph.Trans = make([][]Num, st.Service.Trans.Rows())
				for r := range ph.Trans {
					ph.Trans[r] = nums(st.Service.Trans.RawRow(r))
				}
			}
			ss.Service = ph
		}
		spec.Stations[i] = ss
	}
	return spec
}

// buildApp resolves the workload model: paper defaults overridden by
// any AppSpec fields present.
func (r *Request) buildApp() workload.App {
	app := workload.Default(r.N)
	if s := r.App; s != nil {
		if s.X != nil {
			app.X = *s.X
		}
		if s.C != nil {
			app.C = *s.C
		}
		if s.Y != nil {
			app.Y = *s.Y
		}
		if s.B != nil {
			app.B = *s.B
		}
		if s.Cycles != nil {
			app.Cycles = *s.Cycles
		}
		if s.RemoteFrac != nil {
			app.RemoteFrac = *s.RemoteFrac
		}
	}
	return app
}

func (r *Request) dists() cluster.Dists {
	var d cluster.Dists
	if c := r.CV2; c != nil {
		if c.CPU > 0 {
			d.CPU = cluster.WithCV2(c.CPU)
		}
		if c.Disk > 0 {
			d.Disk = cluster.WithCV2(c.Disk)
		}
		if c.Comm > 0 {
			d.Comm = cluster.WithCV2(c.Comm)
		}
		if c.Remote > 0 {
			d.Remote = cluster.WithCV2(c.Remote)
		}
	}
	return d
}

// maxWorkload bounds a request's n. A /batch or /jobs sweep holds two
// n-long result slices per job, so the cap keeps one request field
// from sizing an allocation beyond the process (2^20 tasks is 16 MiB
// of epochs). /solve's split E(T) holds none, but still takes O(n)
// time.
const maxWorkload = 1 << 20

// BuildNetwork resolves the request into a validated network. Every
// failure matches a check sentinel (ErrInvalidModel for model
// problems).
func (r *Request) BuildNetwork() (*network.Network, error) {
	if err := check.Count("serve: workload n", r.N, 1); err != nil {
		return nil, err
	}
	if r.N > maxWorkload {
		return nil, check.Invalid("serve: workload %d exceeds the supported maximum %d", r.N, maxWorkload)
	}
	if err := check.Count("serve: population k", r.K, 1); err != nil {
		return nil, err
	}
	if r.K > network.MaxPopulation {
		return nil, check.Invalid("serve: population %d exceeds the supported maximum %d", r.K, network.MaxPopulation)
	}
	var (
		net *network.Network
		err error
	)
	switch {
	case r.Network != nil:
		net, err = r.Network.buildNetwork()
	case r.Arch == "central" || r.Arch == "":
		net, err = cluster.Central(r.K, r.buildApp(), r.dists(), cluster.Options{})
	case r.Arch == "distributed":
		net, err = cluster.Distributed(r.K, r.buildApp(), r.dists())
	default:
		return nil, check.Invalid("serve: unknown arch %q (want central or distributed)", r.Arch)
	}
	if err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// CacheKey returns the canonical identity of a solve: the fully
// resolved network (cluster requests and equivalent raw-network
// requests collapse to the same key) plus (k, n). Deadlines are
// deliberately excluded — only full-fidelity results are cached, and
// those are valid under any deadline.
func CacheKey(net *network.Network, k, n int) string {
	return fmt.Sprintf("%s|k=%d|n=%d", networkKey(net), k, n)
}

// ShardKey is the canonical identity of a factored chain: the
// resolved network plus the population K, with the workload size n
// excluded — every n over the same chain reuses one factorization.
// It keys the server's solver cache, the batch scheduler's grouping,
// and the fleet router's consistent-hash placement, so the replica a
// request hashes to is exactly the replica whose caches are warm for
// its model.
func ShardKey(net *network.Network, k int) string {
	return fmt.Sprintf("%s|K=%d", networkKey(net), k)
}

// networkKey is the canonical JSON of the network's wire form.
func networkKey(net *network.Network) string {
	b, err := json.Marshal(SpecFromNetwork(net))
	if err != nil {
		// Num/Kind marshalers cannot fail; any other failure would be a
		// programming error in the spec types themselves.
		panic(fmt.Sprintf("serve: canonical network marshal: %v", err))
	}
	return string(b)
}
