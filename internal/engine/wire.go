package engine

import (
	"repro/internal/baselines/convctl"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// SpecWire is the JSON wire form of a Spec: every field except the
// Trace callback, which is process-local and cannot cross a process
// boundary. Zero-valued fields resolve to the same defaults every other
// driver uses (Table 1 system, DefaultInstructions, base technique), so
// a wire spec round-trips to the same content address as the Spec it
// was rendered from (pinned by TestSpecWireRoundTripPreservesKey).
//
// It is the one serialized spec schema in the repo: the HTTP server's
// request body (internal/server.SpecRequest aliases it) and the
// sharded-sweep grid manifest (internal/shard) both speak it, so a
// manifest entry could be replayed against the service verbatim.
type SpecWire struct {
	App            string                 `json:"app,omitempty"`
	Instructions   uint64                 `json:"instructions,omitempty"`
	Technique      string                 `json:"technique,omitempty"`
	Workload       *workload.Params       `json:"workload,omitempty"`
	System         *sim.Config            `json:"system,omitempty"`
	PDN            *circuit.NetworkConfig `json:"pdn,omitempty"`
	Tuning         *tuning.Config         `json:"tuning,omitempty"`
	VoltageControl *voltctl.Config        `json:"voltage_control,omitempty"`
	Damping        *DampingConfig         `json:"damping,omitempty"`
	Convolution    *convctl.Config        `json:"convolution,omitempty"`
	Wavelet        *wavelet.Config        `json:"wavelet,omitempty"`
	DualBand       *DualBandConfig        `json:"dual_band,omitempty"`
	DomainTuning   *DomainTuningConfig    `json:"domain_tuning,omitempty"`
}

// Spec converts the wire form into an engine spec.
func (w SpecWire) Spec() Spec {
	return Spec{
		App:            w.App,
		Instructions:   w.Instructions,
		Technique:      TechniqueKind(w.Technique),
		Workload:       w.Workload,
		System:         w.System,
		PDN:            w.PDN,
		Tuning:         w.Tuning,
		VoltageControl: w.VoltageControl,
		Damping:        w.Damping,
		Convolution:    w.Convolution,
		Wavelet:        w.Wavelet,
		DualBand:       w.DualBand,
		DomainTuning:   w.DomainTuning,
	}
}

// WireSpec renders a spec in its wire form. The Trace callback is
// dropped: a replay of the wire spec computes the same Result (the
// callback is not part of the content address either, see Spec.Key).
func WireSpec(s Spec) SpecWire {
	return SpecWire{
		App:            s.App,
		Instructions:   s.Instructions,
		Technique:      string(s.Technique),
		Workload:       s.Workload,
		System:         s.System,
		PDN:            s.PDN,
		Tuning:         s.Tuning,
		VoltageControl: s.VoltageControl,
		Damping:        s.Damping,
		Convolution:    s.Convolution,
		Wavelet:        s.Wavelet,
		DualBand:       s.DualBand,
		DomainTuning:   s.DomainTuning,
	}
}
