// Package resonance is a Go reproduction of "Exploiting Resonant Behavior
// to Reduce Inductive Noise" (Powell & Vijaykumar, ISCA 2004).
//
// Inductive (di/dt) noise turns processor current variation into
// supply-voltage glitches through the power-distribution network's
// impedance, which peaks at RLC resonant frequencies. Only repeated
// current variations inside the resonance band build up to noise-margin
// violations; the paper's technique, resonance tuning, detects such
// nascent resonance by counting chained resonant events in the sensed
// core current and then moves the frequency of current variations out of
// the band with a gentle two-tier pipeline response.
//
// This package is the public face of the reproduction. It exposes:
//
//   - the second-order power-supply model and its calibration
//     (resonant frequency, quality factor, resonance band, resonant
//     current variation threshold, maximum repetition tolerance);
//   - a cycle-level 8-wide out-of-order processor with a Wattch-style
//     power model and the Table 1 design point;
//   - synthetic models of the 26 SPEC2K applications of Table 2;
//   - resonance tuning plus the two prior techniques the paper compares
//     against (voltage-threshold control [10] and pipeline damping [14]);
//   - runners that regenerate every table and figure of the paper's
//     evaluation.
//
// Quick start:
//
//	res, err := resonance.Simulate(resonance.SimulationSpec{App: "parser"})
//	rep, err := resonance.RunExperiment("table3", resonance.Options{})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// versus published numbers.
package resonance

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/batchkernel"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Core simulation types, re-exported for callers.
type (
	// SupplyParams describes the RLC power-distribution network.
	SupplyParams = circuit.Params
	// SupplyCalibration holds the Section 2.1.3 design-time values.
	SupplyCalibration = circuit.Calibration
	// CPUConfig holds the processor's structural parameters.
	CPUConfig = cpu.Config
	// PowerConfig holds the electrical envelope (Vdd, peak/idle power).
	PowerConfig = power.Config
	// SimConfig assembles a full system.
	SimConfig = sim.Config
	// Result summarises one application run.
	Result = sim.Result
	// TracePoint is one cycle of a captured waveform.
	TracePoint = sim.TracePoint
	// TuningConfig parameterises resonance tuning.
	TuningConfig = tuning.Config
	// VoltageControlConfig parameterises the technique of [10].
	VoltageControlConfig = voltctl.Config
	// DampingConfig parameterises pipeline damping [14].
	DampingConfig = damping.Config
	// ConvolutionConfig parameterises the convolution predictor [8].
	ConvolutionConfig = convctl.Config
	// WaveletConfig parameterises the Haar-wavelet detector [11].
	WaveletConfig = wavelet.Config
	// DualBandConfig parameterises dual-band resonance tuning (§2.2).
	DualBandConfig = engine.DualBandConfig
	// NetworkConfig selects which power-distribution network a run
	// simulates (lumped RLC, two-stage, or multi-domain).
	NetworkConfig = circuit.NetworkConfig
	// MultiDomainParams describes a multi-domain PDN stack: per-domain
	// die networks under shared package and board tiers.
	MultiDomainParams = circuit.MultiDomainParams
	// DomainTuningConfig parameterises per-domain resonance tuning (one
	// controller per supply domain).
	DomainTuningConfig = engine.DomainTuningConfig
	// App is one synthetic SPEC2K application model.
	App = workload.App
	// Options tunes experiment execution.
	Options = experiments.Options
	// Report is an experiment's outcome.
	Report = experiments.Report
	// Experiment couples an identifier with its runner.
	Experiment = experiments.Experiment
)

// Table1Supply returns the paper's evaluated power supply (Table 1):
// 1.0 V, 10 GHz, 105/35 A, R = 375 µΩ, L = 1.69 pH, C = 1500 nF.
func Table1Supply() SupplyParams { return circuit.Table1() }

// Section2Supply returns the present-day package example of Section 2.1.
func Section2Supply() SupplyParams { return circuit.Section2Example() }

// Table1System returns the full Table 1 simulation configuration.
func Table1System() SimConfig { return sim.DefaultConfig() }

// CalibrateSupply runs the Section 2.1.3 procedure: it determines the
// resonant current variation threshold, the band-edge tolerance, and the
// maximum repetition tolerance by stimulating the simulated supply.
func CalibrateSupply(p SupplyParams) (SupplyCalibration, error) {
	return circuit.Calibrate(p)
}

// Apps returns the 26 synthetic SPEC2K application models in Table 2
// order.
func Apps() []App { return workload.Apps() }

// AppByName returns one application model.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// TechniqueKind selects an inductive-noise control scheme.
type TechniqueKind = engine.TechniqueKind

// Available techniques.
const (
	// TechniqueNone runs the uncontrolled base processor.
	TechniqueNone = engine.TechniqueNone
	// TechniqueTuning is resonance tuning, the paper's contribution.
	TechniqueTuning = engine.TechniqueTuning
	// TechniqueVoltageControl is the voltage-threshold scheme of [10].
	TechniqueVoltageControl = engine.TechniqueVoltageControl
	// TechniqueDamping is pipeline damping [14].
	TechniqueDamping = engine.TechniqueDamping
	// TechniqueConvolution is the convolution-based predictor of [8].
	TechniqueConvolution = engine.TechniqueConvolution
	// TechniqueWavelet is the Haar-wavelet detector in the spirit of [11].
	TechniqueWavelet = engine.TechniqueWavelet
	// TechniqueDualBand is Section 2.2's dual-band resonance tuning.
	TechniqueDualBand = engine.TechniqueDualBand
	// TechniqueDomainTuning runs one resonance-tuning controller per
	// supply domain of a multi-domain PDN.
	TechniqueDomainTuning = engine.TechniqueDomainTuning
)

// TechniqueKinds returns every registered technique kind, in the
// registry's canonical order (base first, then the paper's technique,
// then the related-work baselines).
func TechniqueKinds() []TechniqueKind { return engine.Kinds() }

// SimulationSpec describes one run for Simulate. It is the engine's Spec,
// plain data: batch drivers hand the same value to Engine.RunAll to run
// many of them through the shared worker pool and result cache. A
// per-cycle waveform is not part of a spec; capture one with
// SimulateTraced.
type SimulationSpec = engine.Spec

// Engine is the shared run-execution subsystem: a bounded worker pool
// plus a content-addressed result cache over SimulationSpecs. See
// internal/engine for the batch APIs (Run, RunAll, RunAllKeyed).
type Engine = engine.Engine

// NewEngine returns an engine bounding concurrent simulations to
// parallelism (<= 0 means GOMAXPROCS). Drivers that share one engine
// share its cache: identical (app, technique, config) points — baselines
// especially — are simulated once per process.
func NewEngine(parallelism int) *Engine {
	return engine.New(engine.Options{Parallelism: parallelism})
}

// EngineOptions configures an Engine beyond its parallelism: a
// DiskCacheDir adds the persistent result-cache tier, shared across
// processes (each result is found under its spec content address's file
// name; the results of one simulated lockstep group share one file,
// hard-linked under every member's name), and DiskCacheGC sweeps that
// directory's stale entries once at construction.
type EngineOptions = engine.Options

// EngineCacheStats is an engine's tier-labelled cache traffic (memory
// hits, disk hits, simulations executed, disk writes).
type EngineCacheStats = engine.CacheStats

// NewEngineWithOptions returns an engine with full control over its
// options, e.g. a persistent disk cache tier:
//
//	eng := resonance.NewEngineWithOptions(resonance.EngineOptions{DiskCacheDir: "results/.cache"})
func NewEngineWithOptions(o EngineOptions) *Engine {
	return engine.New(o)
}

// WorkloadTraceStats is the shared trace store's traffic (streams built
// from scratch, streams extended, replay hits, budget bypasses,
// evictions) and its contents (one entry per application, and the
// resident bytes of its arrays at capacity). Its String method renders
// the command-line tools' trace-stats line.
type WorkloadTraceStats = workload.TraceStats

// TraceStoreStats reports the process-wide trace store's counters. Every
// simulation routed through an Engine (or Simulate) draws its
// instruction stream from this store. It keeps one stream per
// application, the longest any run has asked for: a shorter run replays
// a prefix of it, and a longer one extends it in place, into arrays
// grown geometrically, whose whole capacity the resident bytes count.
func TraceStoreStats() WorkloadTraceStats { return workload.SharedTraces().Stats() }

// SetTraceStoreBudget bounds the resident bytes of the process-wide
// trace store (<= 0 restores the 1 GiB default). Streams that alone
// exceed the budget are generated live instead of materialized; results
// are bit-identical either way.
func SetTraceStoreBudget(bytes int64) { workload.SharedTraces().SetBudget(bytes) }

// DefaultTuningConfig returns the paper's evaluated resonance-tuning
// configuration (Section 5.2) with the given initial response time.
func DefaultTuningConfig(initialResponseCycles int) TuningConfig {
	return engine.DefaultTuningConfig(initialResponseCycles)
}

// Simulate runs one application under one technique on the Table 1 system
// and returns the run summary. It executes on the calling goroutine; use
// an Engine to run batches in parallel with caching, and SimulateTraced
// to capture the per-cycle waveform.
func Simulate(spec SimulationSpec) (Result, error) {
	return engine.Execute(spec)
}

// SimulateTraced is Simulate with trace receiving every cycle's waveform
// point: core current, supply deviation and, where the technique has
// them, its resonant event count and response level. Like Simulate it
// runs on the calling goroutine and touches no result cache.
func SimulateTraced(spec SimulationSpec, trace func(TracePoint)) (Result, error) {
	p, err := engine.Prepare(spec)
	if err != nil {
		return Result{}, err
	}
	return p.Run(trace)
}

// Experiments lists every paper table/figure runner.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper table or figure by id ("fig1c",
// "fig3", "fig4", "table2", "table3", "table4", "table5", "fig5",
// "ablations").
func RunExperiment(id string, opts Options) (Report, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return Report{}, err
	}
	return e.Run(opts)
}

// Figures renders an experiment report's structured data as standalone
// SVG documents keyed by file stem; experiments without a graphical form
// return an empty map.
func Figures(rep Report) map[string]string { return experiments.Figures(rep) }

// RecordWorkload serialises an application's instruction stream so it can
// be replayed (or inspected, or replaced with an external trace) later.
// It returns the number of instructions written.
func RecordWorkload(w io.Writer, appName string, instructions uint64) (uint32, error) {
	app, err := workload.ByName(appName)
	if err != nil {
		return 0, err
	}
	if instructions == 0 {
		instructions = 1_000_000
	}
	return trace.Write(w, workload.NewGenerator(app.Params, instructions))
}

// ReplayWorkload runs a previously recorded instruction stream on the
// Table 1 system under the given technique kind (empty = base machine).
// The stream is decoded into a trace the core fetches in place, as it
// does every stored workload trace.
func ReplayWorkload(r io.Reader, kind TechniqueKind) (Result, error) {
	src, err := trace.Read(r)
	if err != nil {
		return Result{}, err
	}
	// The technique is constructed through the engine's registry — the
	// same defaulting, validation, and envelope as Simulate — so every
	// registered kind (including the related-work baselines) replays
	// without a bespoke construction path here, and it runs as a one-lane
	// kernel group, like every engine run.
	tech, _, err := engine.BuildTechnique(engine.Spec{Technique: kind})
	if err != nil {
		return Result{}, err
	}
	m, err := sim.NewMachine(sim.DefaultConfig(), src)
	if err != nil {
		return Result{}, err
	}
	outs, _ := batchkernel.Run(m, "replayed-trace", []batchkernel.Lane{{Tech: tech}})
	return outs[0].Result, outs[0].Err
}

// HTMLReport renders a set of experiment reports as one self-contained
// HTML page with the text blocks and SVG figures inlined.
func HTMLReport(reps []Report) string { return experiments.HTMLReport(reps) }

// SpectrumSummary condenses a current-trace spectral analysis.
type SpectrumSummary struct {
	// TotalVarianceA2 is the trace variance in A².
	TotalVarianceA2 float64
	// BandPowerA2 is the variance inside the resonance band.
	BandPowerA2 float64
	// BandFraction is BandPowerA2 over the total variance.
	BandFraction float64
	// PeakPeriodCycles is the period of the strongest spectral bin.
	PeakPeriodCycles float64
}

// AnalyzeSpectrum Welch-analyses a per-cycle current trace against the
// Table 1 resonance band (84-119 cycles).
func AnalyzeSpectrum(currentTrace []float64) (SpectrumSummary, error) {
	supply := circuit.Table1()
	band := supply.ResonanceBandCycles()
	sp, err := spectrum.Analyze(currentTrace, supply.ClockHz, 10, 4*float64(band.Hi))
	if err != nil {
		return SpectrumSummary{}, err
	}
	return SpectrumSummary{
		TotalVarianceA2:  sp.TotalVariance,
		BandPowerA2:      sp.BandPower(float64(band.Lo), float64(band.Hi)),
		BandFraction:     sp.BandFraction(float64(band.Lo), float64(band.Hi)),
		PeakPeriodCycles: sp.Peak().PeriodCycles,
	}, nil
}

// TwoStageParams describes the Section 2.2 two-loop power-distribution
// network with both the low- and medium-frequency resonances.
type TwoStageParams = circuit.TwoStageParams

// TwoStageSupply returns the Table 1 design extended with a
// representative off-chip stage, placing the low-frequency peak near
// 4 MHz.
func TwoStageSupply() TwoStageParams { return circuit.Table1TwoStage() }

// TwoDomainPDN returns the Table 1 processor split into core and
// floating-point/memory supply domains under shared package and board
// tiers — the reference multi-domain power-distribution network. Select
// it for a run via SimulationSpec.PDN:
//
//	pdn := resonance.TwoDomainPDN()
//	spec.PDN = &resonance.NetworkConfig{Kind: "multidomain", MultiDomain: &pdn}
func TwoDomainPDN() MultiDomainParams { return circuit.Table1TwoDomain() }

// DefaultDomainTuningConfig derives the per-domain tuning configuration
// the domain-tuning technique uses when a spec leaves it unset: one
// controller per domain of the spec's PDN, each parameterised from its
// own domain's electrical constants.
func DefaultDomainTuningConfig(pdn *NetworkConfig, initialResponseCycles int) DomainTuningConfig {
	return engine.DefaultDomainTuningConfig(pdn, initialResponseCycles)
}

// AutoTuningConfig designs a resonance-tuning configuration for an
// arbitrary supply from first principles: it derives the detector band
// from the supply's resonance characteristics, measures the resonant
// current variation threshold and maximum repetition tolerance by
// simulation (Section 2.1.3), sizes the second-level hold from the
// damping rate, and applies the paper's response-threshold rules. The
// initialResponseCycles knob trades first-level effectiveness against
// performance exactly as Table 3 sweeps it.
func AutoTuningConfig(p SupplyParams, c CPUConfig, initialResponseCycles int) (TuningConfig, error) {
	cal, err := circuit.Calibrate(p)
	if err != nil {
		return TuningConfig{}, err
	}
	if cal.ThresholdAmps >= p.MaxCurrentSwing() {
		return TuningConfig{}, fmt.Errorf(
			"resonance: supply is overdesigned for this processor (threshold %g A ≥ max swing %g A); no tuning needed",
			cal.ThresholdAmps, p.MaxCurrentSwing())
	}
	cfg := tuning.FromSupply(p, cal, c, initialResponseCycles, (p.IMax+p.IMin)/2)
	if err := cfg.Validate(); err != nil {
		return TuningConfig{}, err
	}
	return cfg, nil
}

// EnergyShare is one row of an energy breakdown.
type EnergyShare struct {
	// Unit names the consumer ("floor", "phantom", or an architectural
	// unit such as "window" or "l1d").
	Unit string
	// Joules is the energy consumed; Percent its share of the total.
	Joules  float64
	Percent float64
}

// EnergyBreakdown runs the given simulation — technique, network and
// workload included, built exactly as Simulate builds it — and returns
// the run summary with a report of where the energy went: the ungated
// clock floor, each architectural unit's dynamic share, and phantom
// operations, sorted by consumption. The rows sum to the run's EnergyJ
// up to the energy still spreading in the power model's ring when the
// run ends. trace, when non-nil, receives every cycle's waveform point
// as in SimulateTraced; nil runs untraced. Like SimulateTraced, it runs
// on the calling goroutine and touches no result cache.
func EnergyBreakdown(spec SimulationSpec, trace func(TracePoint)) ([]EnergyShare, Result, error) {
	p, err := engine.Prepare(spec)
	if err != nil {
		return nil, Result{}, err
	}
	res, err := p.Run(trace)
	if err != nil {
		return nil, Result{}, err
	}
	floorJ, unitJ := p.Machine().Power().Breakdown()

	total := res.EnergyJ
	rows := []EnergyShare{{Unit: "floor", Joules: floorJ}}
	for u := power.Unit(0); u < power.NumUnits; u++ {
		rows = append(rows, EnergyShare{Unit: u.String(), Joules: unitJ[u]})
	}
	if res.PhantomJ > 0 {
		rows = append(rows, EnergyShare{Unit: "phantom", Joules: res.PhantomJ})
	}
	for i := range rows {
		if total > 0 {
			rows[i].Percent = 100 * rows[i].Joules / total
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Joules > rows[j].Joules })
	return rows, res, nil
}

// ViolationReport describes one noise-margin violation burst and its
// context (warning lead time, response state, surrounding current swing).
type ViolationReport = sim.ViolationReport

// Postmortem runs the simulation described by spec with a violation
// analyser attached and returns the per-burst reports alongside the run
// summary. warningLevel is the resonant event count treated as advance
// warning (the paper's initial response threshold, 2); lookback bounds
// how far back warnings are attributed (a few resonant periods). Bursts
// are measured against the noise margin of the network the spec
// simulates (on a multi-domain network, the tightest domain's).
func Postmortem(spec SimulationSpec, warningLevel, lookback int) ([]ViolationReport, Result, error) {
	p, err := engine.Prepare(spec)
	if err != nil {
		return nil, Result{}, err
	}
	net := p.Machine().Network()
	margin := net.DomainInfo(0).NoiseMarginVolts
	for d := 1; d < net.Domains(); d++ {
		margin = math.Min(margin, net.DomainInfo(d).NoiseMarginVolts)
	}
	pm := sim.NewPostmortem(margin, warningLevel, lookback)
	res, err := p.Run(pm.Observe)
	if err != nil {
		return nil, Result{}, err
	}
	return pm.Reports(), res, nil
}
