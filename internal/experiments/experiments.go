// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the impedance curve of Figure 1(c), the
// known-waveform stimulation of Figure 3, the parser violation anatomy of
// Figure 4, the application classification of Table 2, the resonance-
// tuning sweep of Table 3, the voltage-control sweep of Table 4
// (technique of [10]), the pipeline-damping sweep of Table 5, the
// comparison of Figure 5, and the repo's own ablation studies.
//
// Every experiment is deterministic. Every technique-vs-base comparison
// (see compare) submits all of its runs as one engine batch, which fans
// them out across the engine's worker pool and joins before reporting,
// so reports are reproducible bit-for-bit.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Options tunes how experiments run. The zero value is usable: it selects
// the paper's Table 1 system, a scaled-down instruction budget, and a
// private engine.
type Options struct {
	// Instructions is the per-application instruction budget. Zero
	// means 1,000,000 (the paper runs 500M; see EXPERIMENTS.md for the
	// scaling discussion).
	Instructions uint64
	// Engine, when non-nil, executes the experiment's simulations,
	// sharing its worker pool and result cache with every other
	// experiment run through it (the 26-app baseline suite then
	// simulates once per process instead of once per table). Nil means
	// a private engine with default options.
	Engine *engine.Engine
}

func (o Options) instructions() uint64 {
	if o.Instructions == 0 {
		return 1_000_000
	}
	return o.Instructions
}

// engine returns the shared engine, or a private one for this
// experiment.
func (o Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return engine.New(engine.Options{})
}

// Report is the outcome of one experiment: a human-readable text block
// plus experiment-specific structured data for programmatic use.
type Report struct {
	ID   string
	Text string
	// Data holds the experiment's structured results: *Fig1cData,
	// *Fig3Data, *Fig4Data, *Table2Data, *Table3Data, *Table4Data,
	// *Table5Data, *Fig5Data, *AblationData, *RelatedData,
	// *LowFreqData, *ScalingData, *SpectrumData, or *MultiDomainData.
	Data any
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) (Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1c", "power-supply impedance vs frequency (Figure 1c)", Fig1c},
		{"fig3", "stimulation at the resonant frequency (Figure 3)", Fig3},
		{"fig4", "voltage and current variation in parser (Figure 4)", Fig4},
		{"table2", "classification of SPEC2K applications (Table 2)", Table2},
		{"table3", "resonance tuning response-time sweep (Table 3)", Table3},
		{"table4", "technique of [10], threshold/noise/delay sweep (Table 4)", Table4},
		{"table5", "pipeline damping delta sweep (Table 5)", Table5},
		{"fig5", "energy-delay comparison of the techniques (Figure 5)", Fig5},
		{"ablations", "design-choice ablations (band coverage, thresholds, tiers, sensors, integrator)", Ablations},
		{"related", "five-way related-technique comparison incl. convolution [8] and wavelet [11]", Related},
		{"lowfreq", "low-frequency resonance on the two-stage supply (Section 2.2)", LowFreq},
		{"scaling", "technology-scaling trend: tuning vs resonant period (Section 3.2)", Scaling},
		{"spectra", "per-application current spectra vs the resonance band", Spectra},
		{"multidomain", "shared package resonance on the two-domain PDN with per-domain tuning", MultiDomain},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

// comparison is one technique-vs-base batch: the base configuration's
// results, each variant's results (both in application order), and each
// variant's summary against the base — the paper's whole evaluation
// method, relative slowdown and energy-delay over the uncontrolled
// machine.
type comparison struct {
	base     []sim.Result
	variants [][]sim.Result
	sums     []metrics.Summary
}

// compare runs base and every variant over apps (App and Instructions
// are filled in per application) as one RunAll: the base configuration
// first, then each variant, in application order within each. Every
// application's configurations that share a simulated system therefore
// share a MachineKey, and the engine packs them into one lockstep group.
func compare(opts Options, apps []string, base engine.Spec, variants ...engine.Spec) (comparison, error) {
	specs := make([]engine.Spec, 0, (1+len(variants))*len(apps))
	for _, cfg := range append([]engine.Spec{base}, variants...) {
		for _, app := range apps {
			cfg.App = app
			cfg.Instructions = opts.instructions()
			specs = append(specs, cfg)
		}
	}
	all, err := opts.engine().RunAll(context.Background(), specs, nil)
	if err != nil {
		return comparison{}, err
	}
	n := len(apps)
	c := comparison{base: all[:n]}
	for v := range variants {
		results := all[(v+1)*n : (v+2)*n]
		rels, err := metrics.Compare(c.base, results)
		if err != nil {
			return comparison{}, err
		}
		c.variants = append(c.variants, results)
		c.sums = append(c.sums, metrics.Summarize(rels))
	}
	return c, nil
}
