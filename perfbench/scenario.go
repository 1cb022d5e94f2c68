package main

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Run lengths. They size one cold pass at a second or two of host time
// on two cores, so a run holds several.
const (
	table3Insts     = 60_000
	populationInsts = 2_000
)

// Service mix parameters.
const (
	zipfS      = 1.1  // Zipf exponent over the population's popularity ranks
	missEvery  = 49   // every 49th request names a never-seen spec (about 2%)
	missCycles = 2000 // about how many cycles a never-seen spec simulates
)

// scenario is one named workload: the specs a cold pass simulates and a
// warm pass replays (set-up materialises their traces), and the
// single-spec requests the service phases send.
type scenario struct {
	name  string
	seed  int64
	specs []engine.Spec
	// table3 marks the Table 3 workload, whose cold and warm passes build
	// the report through experiments.Table3.
	table3 bool
	// zipf draws requests from a Zipf law over a seeded popularity order;
	// otherwise they are uniform over the specs. Either way a share of
	// them name never-seen specs.
	zipf bool
}

// The applications the cycle budget records: a loud (violating) and a
// quiet one.
const loudApp, quietApp = "swim", "gzip"

func workloadNames() []string { return []string{"table3", "service-zipf"} }

func newScenario(name string, seed int64) (*scenario, error) {
	sc := &scenario{name: name, seed: seed}
	switch name {
	case "table3":
		sc.specs = table3Specs(table3Insts)
		sc.table3 = true
	case "service-zipf":
		for _, app := range workload.Names() {
			sc.specs = append(sc.specs, gridSpecs(app, populationInsts)...)
		}
		sc.zipf = true
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
	}
	return sc, nil
}

// table3Specs rebuilds the 182 specs experiments.Table3 submits: the
// base machine and six resonance-tuning variants over the 26 Table 2
// applications, in the same order.
func table3Specs(insts uint64) []engine.Spec {
	sweeps := []struct{ initial, delay int }{{75, 0}, {100, 0}, {125, 0}, {150, 0}, {200, 0}, {100, 5}}
	variants := []engine.Spec{{}}
	for _, sw := range sweeps {
		c := engine.DefaultTuningConfig(sw.initial)
		c.ResponseDelayCycles = sw.delay
		variants = append(variants, engine.Spec{Technique: engine.TechniqueTuning, Tuning: &c})
	}
	var specs []engine.Spec
	for _, v := range variants {
		for _, app := range workload.Names() {
			s := v
			s.App = app
			s.Instructions = insts
			specs = append(specs, s)
		}
	}
	return specs
}

// gridSpecs is every registered technique on every registered network
// kind for app, keeping the combinations the registry validates.
func gridSpecs(app string, insts uint64) []engine.Spec {
	var specs []engine.Spec
	for _, kind := range circuit.NetworkKinds() {
		for _, tech := range engine.Kinds() {
			s := engine.Spec{App: app, Instructions: insts, Technique: tech, PDN: &circuit.NetworkConfig{Kind: kind}}
			if s.Validate() == nil {
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// request is one single-spec request: an index into the scenario's
// specs, or, for a miss, a never-seen spec.
type request struct {
	idx  int
	miss *engine.Spec
}

// requestStream draws the deterministic request sequence of one service
// phase.
type requestStream struct {
	sc     *scenario
	r      *rand.Rand
	zipf   *rand.Zipf
	rank   []int               // popularity rank (or, cached, send order) → spec index
	combos []engine.Spec       // the applications and networks misses cycle through
	known  map[engine.Key]bool // the workload's keys and the misses drawn
	sent   int
	misses int  // never-seen specs drawn so far
	cached bool // cycle through the workload's own specs, no never-seen ones
}

// newRequestStream starts the request sequence of service phase 1 or 2.
// With cached, the stream cycles through the workload's own specs in a
// seeded order, so every seed sends the same mix of specs.
func (sc *scenario) newRequestStream(phase int64, cached bool) *requestStream {
	rs := &requestStream{sc: sc, cached: cached, r: rand.New(rand.NewSource(sc.seed*1000 + phase)), known: map[engine.Key]bool{}}
	rs.rank = rand.New(rand.NewSource(sc.seed)).Perm(len(sc.specs))
	if sc.zipf && !cached {
		rs.zipf = rand.NewZipf(rs.r, zipfS, 1, uint64(len(sc.specs)-1))
	}
	seen := map[string]bool{}
	for _, s := range sc.specs {
		if k, err := s.Key(); err == nil {
			rs.known[k] = true
		}
		k := s.App
		if s.PDN != nil {
			k += "/" + s.PDN.Kind
		}
		if !seen[k] {
			seen[k] = true
			rs.combos = append(rs.combos, s)
		}
	}
	rs.r.Shuffle(len(rs.combos), func(i, j int) { rs.combos[i], rs.combos[j] = rs.combos[j], rs.combos[i] })
	return rs
}

func (rs *requestStream) next() request {
	rs.sent++
	if rs.cached {
		return request{idx: rs.rank[(rs.sent-1)%len(rs.rank)]}
	}
	if rs.sent%missEvery == 0 {
		// A never-seen spec: resonance tuning for about missCycles
		// cycles on the next application and network of a seeded cycle
		// through the workload's own. Two more instructions per earlier
		// miss and skipping keys already known make its key new to every
		// tier. Evenly spaced misses of one technique and one length make
		// the tail they cause alike from seed to seed.
		s := rs.combos[rs.misses%len(rs.combos)]
		rs.misses++
		s.Technique = engine.TechniqueTuning
		s.Tuning = nil
		s.Instructions = uint64(missCycles*appIPC(s.App)) + uint64(2*rs.misses)
		for {
			k, err := s.Key()
			if err != nil || !rs.known[k] {
				rs.known[k] = true
				break
			}
			s.Instructions += 2 // the workload or this stream has it already
		}
		return request{idx: -1, miss: &s}
	}
	if rs.zipf == nil {
		return request{idx: rs.r.Intn(len(rs.sc.specs))}
	}
	return request{idx: rs.rank[rs.zipf.Uint64()]}
}

// appIPC is an application's Table 2 IPC, which its model reproduces.
func appIPC(name string) float64 {
	app, err := workload.ByName(name)
	if err != nil {
		panic(err) // scenario application names come from the workload package
	}
	return app.PaperIPC
}
