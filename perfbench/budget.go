package main

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cycle-budget parameters: the run length each recorded application
// streams, and how many times each layer replays a recording (the
// fastest replay is reported).
const (
	budgetInsts  = 30_000
	budgetRounds = 9
	forkSamples  = 21
)

// techniqueMetric names the per-cycle metric of each technique kind; the
// base machine has no technique to time.
var techniqueMetric = map[engine.TechniqueKind]string{
	engine.TechniqueTuning:         "tuning.resonance.ns_per_cycle",
	engine.TechniqueDualBand:       "tuning.dual-band.ns_per_cycle",
	engine.TechniqueDomainTuning:   "tuning.domain-tuning.ns_per_cycle",
	engine.TechniqueVoltageControl: "baselines.voltctl.ns_per_cycle",
	engine.TechniqueDamping:        "baselines.damping.ns_per_cycle",
	engine.TechniqueConvolution:    "baselines.convctl.ns_per_cycle",
	engine.TechniqueWavelet:        "baselines.wavelet.ns_per_cycle",
}

// recording is one run of a trace-fed sim.Machine under a technique:
// the decisions it stepped under and everything each cycle produced.
type recording struct {
	app    string
	cfg    sim.Config
	nd     int
	th     []cpu.Throttle
	ph     []sim.Phantom
	act    []cpu.Activity
	obs    []sim.Observation // Activity and PerDomain point into act and dom
	dom    []sim.DomainObservation
	draws  []float64 // nd per cycle: the current each domain drew
	sensed []float64 // nd per cycle: each rail sensor's reading
	devs   []float64 // nd per cycle: each domain's deviation
	result sim.Result
}

func (r *recording) cycles() int { return len(r.th) }

// record runs app on a machine built from cfg under the technique spec
// selects, keeping every cycle.
func record(app string, cfg sim.Config, spec engine.Spec) (*recording, error) {
	tech, _, err := engine.BuildTechnique(spec)
	if err != nil {
		return nil, err
	}
	m, err := sim.NewMachine(cfg, workload.SharedTraces().Source(appParams(app), budgetInsts))
	if err != nil {
		return nil, err
	}
	r := &recording{app: app, cfg: cfg, nd: m.Domains()}
	for !m.Done() && m.Cycles() < m.CycleLimit() {
		th, ph := tech.Next()
		o := m.Step(th, ph)
		tech.Observe(o)
		r.th = append(r.th, th)
		r.ph = append(r.ph, ph)
		r.act = append(r.act, *o.Activity)
		c := *o
		c.Activity, c.PerDomain = nil, nil
		r.obs = append(r.obs, c)
		if o.PerDomain != nil {
			r.draws = append(r.draws, o.PerDomain.Amps...)
			r.sensed = append(r.sensed, o.PerDomain.SensedAmps...)
			r.devs = append(r.devs, o.PerDomain.DeviationVolts...)
		} else {
			r.draws = append(r.draws, o.TotalAmps)
			r.sensed = append(r.sensed, o.SensedAmps)
			r.devs = append(r.devs, o.DeviationVolts)
		}
	}
	r.result = m.Result(app, "")
	if r.nd > 1 {
		r.dom = make([]sim.DomainObservation, r.cycles())
	}
	for i := range r.obs {
		r.obs[i].Activity = &r.act[i]
		if r.nd > 1 {
			lo, hi := i*r.nd, (i+1)*r.nd
			r.dom[i] = sim.DomainObservation{SensedAmps: r.sensed[lo:hi], Amps: r.draws[lo:hi], DeviationVolts: r.devs[lo:hi]}
			r.obs[i].PerDomain = &r.dom[i]
		}
	}
	return r, nil
}

// layer is one leaf layer of the cycle budget: prep builds the layer's
// state for one recording (untimed) and returns the replay to time.
type layer struct {
	name string
	recs []*recording
	prep func(r *recording) (func(), error)
}

// timeLayers replays every layer over its recordings budgetRounds times,
// interleaving the layers so drifts in machine speed hit them alike, and
// returns each layer's fastest replay in host nanoseconds per recorded
// cycle.
func timeLayers(layers []layer) (map[string]float64, error) {
	best := map[string]float64{}
	for round := 0; round < budgetRounds; round++ {
		for _, l := range layers {
			var runs []func()
			cycles := 0
			for _, r := range l.recs {
				run, err := l.prep(r)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", l.name, err)
				}
				runs = append(runs, run)
				cycles += r.cycles()
			}
			t := time.Now()
			for _, run := range runs {
				run()
			}
			ns := float64(time.Since(t)) / float64(cycles)
			if b, ok := best[l.name]; !ok || ns < b {
				best[l.name] = ns
			}
		}
	}
	return best, nil
}

// cycleBudget records a loud and a quiet application on the lumped and
// on the multidomain machine, replays the recordings through each leaf
// layer's public step, and reports each layer's host time per cycle and
// the share of Machine.Step the layers leave unattributed.
func cycleBudget(chk *checker, out metrics) error {
	multi := sim.DefaultConfig()
	multi.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	var lumped, multis []*recording
	for _, app := range []string{loudApp, quietApp} {
		r, err := record(app, sim.DefaultConfig(), engine.Spec{App: app, Technique: engine.TechniqueTuning})
		if err != nil {
			return err
		}
		lumped = append(lumped, r)
		r, err = record(app, multi, engine.Spec{App: app, Technique: engine.TechniqueDomainTuning, PDN: multi.PDN})
		if err != nil {
			return err
		}
		multis = append(multis, r)
	}
	for _, r := range append(append([]*recording(nil), lumped...), multis...) {
		if err := checkReplays(r, chk); err != nil {
			return err
		}
	}

	layers := []layer{
		// workload: instruction delivery from the trace store.
		{"workload.source_ns_per_inst", lumped, func(r *recording) (func(), error) {
			src := workload.SharedTraces().Source(appParams(r.app), budgetInsts)
			return func() {
				for _, ok := src.Next(); ok; _, ok = src.Next() {
				}
			}, nil
		}},
		// sim: the whole machine step under the recorded decisions.
		{"sim.machine_step_ns", lumped, machineReplay},
		{"sim.machine_step_multi_ns", multis, machineReplay},
		// cpu: the pipeline under the recorded throttles, fed from the
		// trace store.
		{"cpu.step_ns", lumped, coreReplay},
		{"cpu.step_multi_ns", multis, coreReplay},
		// power: the recorded activity, so the memo sees its real hit rate.
		{"power.step_ns", lumped, func(r *recording) (func(), error) {
			pm := power.New(r.cfg.Power, r.cfg.CPU)
			return func() {
				for i := range r.act {
					pm.Step(&r.act[i], 0)
				}
			}, nil
		}},
		{"power.step_domains_ns", multis, func(r *recording) (func(), error) {
			pm := domainModel(r)
			domJ := make([]float64, r.nd)
			return func() {
				for i := range r.act {
					pm.StepDomains(&r.act[i], domJ)
				}
			}, nil
		}},
		// sensor: the whole-amp current sensor and the per-rail bank.
		{"sensor.read_ns", lumped, func(r *recording) (func(), error) {
			s := sensor.NewCurrent()
			return func() {
				for i := range r.obs {
					s.Read(r.obs[i].TotalAmps)
				}
			}, nil
		}},
		{"sensor.bank_read_ns", multis, func(r *recording) (func(), error) {
			b := sensor.NewBank(r.nd, 1, r.cfg.SensorDelayCycles)
			return func() {
				for i := 0; i < r.cycles(); i++ {
					for d := 0; d < r.nd; d++ {
						b.Read(d, r.draws[i*r.nd+d])
					}
				}
			}, nil
		}},
	}
	// circuit: every registered network kind on recorded draws (the
	// multidomain kind on the multidomain machine's per-domain draws).
	for _, kind := range circuit.NetworkKinds() {
		recs := lumped
		if kind == circuit.NetworkMultiDomain {
			recs = multis
		}
		layers = append(layers, layer{"circuit." + kind + ".step_ns", recs, func(r *recording) (func(), error) {
			net, err := buildNetwork(kind, r)
			devs := make([]float64, r.nd)
			return func() {
				for i := 0; i < r.cycles(); i++ {
					net.Step(r.draws[i*r.nd:(i+1)*r.nd], devs)
				}
			}, err
		}})
	}
	// tuning and baselines: each technique's Next/Observe on recorded
	// observations (domain-tuning on the multidomain machine's).
	for _, kind := range engine.Kinds() {
		name, ok := techniqueMetric[kind]
		if !ok {
			continue
		}
		recs := lumped
		if kind == engine.TechniqueDomainTuning {
			recs = multis
		}
		layers = append(layers, layer{name, recs, func(r *recording) (func(), error) {
			tech, _, err := engine.BuildTechnique(engine.Spec{App: r.app, Technique: kind, PDN: r.cfg.PDN})
			return func() {
				for i := range r.obs {
					tech.Next()
					tech.Observe(&r.obs[i])
				}
			}, err
		}})
	}

	ns, err := timeLayers(layers)
	if err != nil {
		return err
	}
	for _, l := range layers {
		out.set(l.name, ns[l.name], "ns")
	}
	// Instruction delivery is timed per recorded cycle like the rest;
	// report it per instruction.
	var insts uint64
	for _, r := range lumped {
		insts += r.result.Instructions
	}
	src := "workload.source_ns_per_inst"
	out.set(src, ns[src]*float64(cyclesOf(lumped))/float64(insts), "ns")
	leaves := ns["cpu.step_ns"] + ns["power.step_ns"] + ns["circuit."+circuit.NetworkLumped+".step_ns"] + ns["sensor.read_ns"]
	leavesMulti := ns["cpu.step_multi_ns"] + ns["power.step_domains_ns"] + ns["circuit."+circuit.NetworkMultiDomain+".step_ns"] + ns["sensor.bank_read_ns"]
	out.set("sim.unattributed_share", 1-leaves/ns["sim.machine_step_ns"], "share")
	out.set("sim.unattributed_share_multi", 1-leavesMulti/ns["sim.machine_step_multi_ns"], "share")

	forkUs, err := timeFork(lumped[0])
	if err != nil {
		return err
	}
	out.set("sim.fork_us", forkUs, "us")
	return nil
}

// machineReplay steps a fresh machine under a recording's decisions.
func machineReplay(r *recording) (func(), error) {
	m, err := sim.NewMachine(r.cfg, workload.SharedTraces().Source(appParams(r.app), budgetInsts))
	return func() {
		for i := range r.th {
			m.Step(r.th[i], r.ph[i])
		}
	}, err
}

// coreReplay steps a fresh pipeline under a recording's throttles.
func coreReplay(r *recording) (func(), error) {
	core := newCore(r)
	var act cpu.Activity
	return func() {
		for i := range r.th {
			core.StepInto(r.th[i], &act)
		}
	}, nil
}

func cyclesOf(recs []*recording) int {
	n := 0
	for _, r := range recs {
		n += r.cycles()
	}
	return n
}

// newCore builds the pipeline a recording's machine ran, fed from the
// shared trace store.
func newCore(r *recording) *cpu.Core {
	core := cpu.New(r.cfg.CPU, workload.SharedTraces().Source(appParams(r.app), budgetInsts))
	core.SetClassCurrentEstimates(power.New(r.cfg.Power, r.cfg.CPU).ClassAmps())
	return core
}

// domainModel builds the per-domain power model of a multidomain
// recording's network.
func domainModel(r *recording) *power.Model {
	pm := power.New(r.cfg.Power, r.cfg.CPU)
	p := circuit.Table1TwoDomain()
	if r.cfg.PDN.MultiDomain != nil {
		p = *r.cfg.PDN.MultiDomain
	}
	lists := make([][]string, len(p.Domains))
	for d, dp := range p.Domains {
		lists[d] = dp.PowerUnits
	}
	assign, err := power.AssignmentFromNames(lists)
	if err != nil {
		panic(err) // the same configuration built the recording
	}
	pm.EnableDomains(len(lists), assign)
	return pm
}

// buildNetwork builds a network of the given kind at the DC steady state
// the recording's machine started from.
func buildNetwork(kind string, r *recording) (circuit.Network, error) {
	i0 := make([]float64, r.nd)
	if r.nd > 1 {
		pm := domainModel(r)
		for d := range i0 {
			i0[d] = pm.DomainIdleAmps(d)
		}
	} else {
		i0[0] = power.New(r.cfg.Power, r.cfg.CPU).IdleAmps()
	}
	return circuit.BuildNetwork(circuit.NetworkConfig{Kind: kind}, i0)
}

// checkReplays replays a recording once through the layers whose output
// the recording holds and checks each reproduces it exactly: the
// pipeline's activity, the power model's energy, the network's
// deviations, the rail sensors and the whole machine's result.
func checkReplays(r *recording, chk *checker) error {
	core := newCore(r)
	var act cpu.Activity
	same := true
	for i := range r.th {
		core.StepInto(r.th[i], &act)
		same = same && act == r.act[i]
	}
	chk.check(same, "%s: replayed pipeline activity differs from the recording", r.app)

	var pm *power.Model
	if r.nd > 1 {
		pm = domainModel(r)
		domJ := make([]float64, r.nd)
		for i := range r.act {
			pm.StepDomains(&r.act[i], domJ)
		}
	} else {
		pm = power.New(r.cfg.Power, r.cfg.CPU)
		for i := range r.act {
			pm.Step(&r.act[i], 0)
		}
	}
	chk.check(pm.TotalJoules() == r.result.EnergyJ-r.result.PhantomJ, "%s: replayed power %g J, recorded %g J", r.app, pm.TotalJoules(), r.result.EnergyJ-r.result.PhantomJ)

	kind := circuit.NetworkLumped
	if r.nd > 1 {
		kind = circuit.NetworkMultiDomain
	}
	net, err := buildNetwork(kind, r)
	if err != nil {
		return err
	}
	devs := make([]float64, r.nd)
	same = true
	for i := 0; i < r.cycles(); i++ {
		net.Step(r.draws[i*r.nd:(i+1)*r.nd], devs)
		for d := range devs {
			same = same && devs[d] == r.devs[i*r.nd+d]
		}
	}
	chk.check(same, "%s: replayed %s deviations differ from the recording", r.app, kind)

	if r.nd > 1 {
		b := sensor.NewBank(r.nd, 1, r.cfg.SensorDelayCycles)
		same = true
		for i := 0; i < r.cycles(); i++ {
			for d := 0; d < r.nd; d++ {
				same = same && b.Read(d, r.draws[i*r.nd+d]) == r.sensed[i*r.nd+d]
			}
		}
		chk.check(same, "%s: replayed rail sensors differ from the recording", r.app)
	}

	m, err := sim.NewMachine(r.cfg, workload.SharedTraces().Source(appParams(r.app), budgetInsts))
	if err != nil {
		return err
	}
	for i := range r.th {
		m.Step(r.th[i], r.ph[i])
	}
	got := m.Result(r.app, "")
	chk.check(got == r.result, "%s: replayed machine result %+v, recorded %+v", r.app, got, r.result)
	return nil
}

// timeFork steps a fresh machine halfway through a recording and returns
// the median host time of one Machine.Fork there, in microseconds.
func timeFork(r *recording) (float64, error) {
	m, err := sim.NewMachine(r.cfg, workload.SharedTraces().Source(appParams(r.app), budgetInsts))
	if err != nil {
		return 0, err
	}
	for i := 0; i < r.cycles()/2; i++ {
		m.Step(r.th[i], r.ph[i])
	}
	var per []float64
	for k := 0; k < forkSamples; k++ {
		t := time.Now()
		if _, err := m.Fork(); err != nil {
			return 0, fmt.Errorf("fork: %w", err)
		}
		per = append(per, us(time.Since(t)))
	}
	return median(per), nil
}
