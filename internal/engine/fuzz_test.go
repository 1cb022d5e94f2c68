package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// specFromFuzz builds a Spec from fuzzed primitives, exercising every
// optional section. Selectors deliberately produce out-of-range and
// junk values: the key must be total over junk specs too (only an
// unknown technique kind is unkeyable, and that consistently).
func specFromFuzz(app string, insts uint64, techSel, variant uint8, f1, f2 float64, i1, i2 int) Spec {
	s := Spec{App: app, Instructions: insts}
	switch techSel % 9 {
	case 0: // base, left implicit
	case 1:
		s.Technique = TechniqueNone
	case 2:
		s.Technique = TechniqueTuning
		if variant%2 == 1 {
			tc := DefaultTuningConfig(i1)
			tc.PhantomTargetAmps = f1
			tc.ResponseDelayCycles = i2
			s.Tuning = &tc
		}
	case 3:
		s.Technique = TechniqueVoltageControl
		if variant%2 == 1 {
			vc := defaultVoltageControl()
			vc.TargetThresholdVolts = f1
			vc.SensorNoiseVolts = f2
			vc.SensorDelayCycles = i1
			s.VoltageControl = &vc
		}
	case 4:
		s.Technique = TechniqueDamping
		if variant%2 == 1 {
			dc := defaultDamping()
			dc.DeltaAmps = f1
			dc.WindowCycles = i1
			dc.LowerScale = f2
			s.Damping = &dc
		}
	case 5:
		s.Technique = TechniqueConvolution
		if variant%2 == 1 {
			cc := convctl.Config{ThresholdVolts: f1, Horizon: i1, EstimateErrorAmps: f2, Seed: uint64(i2)}
			s.Convolution = &cc
		}
	case 6:
		s.Technique = TechniqueWavelet
		if variant%2 == 1 {
			wc := wavelet.Config{Scales: []int{i1, i2}, ThresholdAmpCycles: f1, Repetitions: i2}
			s.Wavelet = &wc
		}
	case 7:
		s.Technique = TechniqueDualBand
		if variant%2 == 1 {
			db := DualBandConfig{DecimationFactor: i1}
			db.Medium = DefaultTuningConfig(i2)
			db.Medium.PhantomTargetAmps = f1
			db.Low = DefaultTuningConfig(100)
			db.Low.Detector.ThresholdAmps = f2
			s.DualBand = &db
		}
	case 8:
		s.Technique = TechniqueDomainTuning
		if variant%2 == 1 {
			pdn := circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
			dt := DefaultDomainTuningConfig(&pdn, i1)
			dt.Domains[0].PhantomTargetAmps = f1
			dt.Domains[len(dt.Domains)-1].Detector.ThresholdAmps = f2
			s.DomainTuning = &dt
		}
	}
	if variant%4 >= 2 {
		cfg := *mustNormalize(Spec{App: app}).System
		cfg.SensorDelayCycles = i2
		cfg.Power.PeakWatts += f2
		s.System = &cfg
	}
	// A PDN section, cycling through every network kind and
	// attaching explicit (sometimes perturbed) parameters half the time;
	// the key must fold it into the system section and stay total.
	if variant%16 >= 8 {
		kinds := circuit.NetworkKinds()
		kind := kinds[((i1%len(kinds))+len(kinds))%len(kinds)]
		pdn := circuit.NetworkConfig{Kind: kind}
		if variant%2 == 1 && kind == circuit.NetworkMultiDomain {
			p := circuit.Table1TwoDomain()
			p.Lpkg += f1
			pdn.MultiDomain = &p
		}
		s.PDN = &pdn
		if s.System != nil {
			s.System.SensorDomain = ((i2 % 3) + 3) % 3
		}
	}
	if variant%8 >= 4 {
		w := workload.Params{
			Name: app, Seed: uint64(i1),
			Mix:     workload.Mix{IntALU: 1},
			DepProb: f1, L1MissRate: f2,
		}
		w.Burst.Enabled = variant%2 == 1
		w.Burst.BurstInsts = i2
		s.Workload = &w
	}
	return s
}

func mustNormalize(s Spec) Spec {
	n, _, err := s.normalized()
	if err != nil {
		panic(err)
	}
	return n
}

// FuzzSpecKey asserts the cache key's defining property: two specs hash
// equal exactly when their canonical encodings are equal. Seeds come
// from the specs the experiments actually run.
func FuzzSpecKey(f *testing.F) {
	// Seed corpus: baseline, Table 3 tuning points, Table 4 voltage
	// control, Table 5 damping, and mirrored pairs that must collide.
	f.Add("swim", uint64(0), uint8(0), uint8(0), 0.0, 0.0, 0, 0,
		"swim", uint64(1_000_000), uint8(1), uint8(0), 0.0, 0.0, 0, 0)
	f.Add("lucas", uint64(300_000), uint8(2), uint8(1), 70.0, 0.0, 75, 0,
		"lucas", uint64(300_000), uint8(2), uint8(1), 70.0, 0.0, 100, 5)
	f.Add("parser", uint64(500_000), uint8(3), uint8(1), 0.020, 0.010, 5, 0,
		"parser", uint64(500_000), uint8(3), uint8(1), 0.020, 0.015, 3, 0)
	f.Add("bzip", uint64(1_000_000), uint8(4), uint8(1), 16.0, 0.0, 50, 0,
		"bzip", uint64(1_000_000), uint8(4), uint8(1), 8.0, 0.0, 50, 0)
	f.Add("art", uint64(42), uint8(2), uint8(3), -1.5, 3.25, -7, 9,
		"art", uint64(42), uint8(2), uint8(3), -1.5, 3.25, -7, 9)
	// Convolution, wavelet, and dual-band sections, plus custom-workload
	// variants (variant ≥ 4 attaches a Workload section).
	f.Add("swim", uint64(200_000), uint8(5), uint8(1), 0.03, 2.0, 6, 42,
		"swim", uint64(200_000), uint8(5), uint8(1), 0.03, 2.0, 8, 42)
	f.Add("lucas", uint64(200_000), uint8(6), uint8(1), 8.0, 0.0, 32, 2,
		"lucas", uint64(200_000), uint8(6), uint8(1), 8.0, 0.0, 64, 2)
	f.Add("bzip", uint64(150_000), uint8(7), uint8(1), 70.0, 40.0, 25, 100,
		"bzip", uint64(150_000), uint8(7), uint8(1), 70.0, 44.0, 25, 100)
	f.Add("lowosc", uint64(120_000), uint8(7), uint8(5), 70.0, 40.0, 25, 4000,
		"lowosc", uint64(120_000), uint8(0), uint8(5), 70.0, 40.0, 25, 4000)
	// Domain-tuning sections and PDN-bearing variants (variant%16 ≥ 8
	// attaches a PDN cycling through the network kinds).
	f.Add("swim", uint64(100_000), uint8(8), uint8(9), 70.0, 40.0, 2, 1,
		"swim", uint64(100_000), uint8(8), uint8(9), 70.0, 40.0, 2, 1)
	f.Add("lucas", uint64(100_000), uint8(0), uint8(8), 0.0, 0.0, 0, 2,
		"lucas", uint64(100_000), uint8(0), uint8(8), 0.0, 0.0, 1, 2)

	f.Fuzz(func(t *testing.T,
		appA string, instsA uint64, techA, varA uint8, f1A, f2A float64, i1A, i2A int,
		appB string, instsB uint64, techB, varB uint8, f1B, f2B float64, i1B, i2B int) {
		a := specFromFuzz(appA, instsA, techA, varA, f1A, f2A, i1A, i2A)
		b := specFromFuzz(appB, instsB, techB, varB, f1B, f2B, i1B, i2B)

		ca, errA := a.Canonical()
		cb, errB := b.Canonical()
		if errA != nil || errB != nil {
			t.Fatalf("canonical encoding failed on constructible specs: %v, %v", errA, errB)
		}
		ka, err := a.Key()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b.Key()
		if err != nil {
			t.Fatal(err)
		}
		if (ka == kb) != bytes.Equal(ca, cb) {
			t.Errorf("hash/encoding disagreement:\nspec A %+v\nspec B %+v\nkeys equal %v, encodings equal %v",
				a, b, ka == kb, bytes.Equal(ca, cb))
		}

		// ValidKey is Validate then Key, from one normalization.
		for _, s := range []struct {
			spec Spec
			key  Key
		}{{a, ka}, {b, kb}} {
			vk, verr := s.spec.ValidKey()
			if werr := s.spec.Validate(); fmt.Sprint(verr) != fmt.Sprint(werr) || (verr == nil && vk != s.key) {
				t.Errorf("ValidKey = %v, %v; Validate = %v, Key = %v\nspec %+v", vk, verr, werr, s.key, s.spec)
			}
		}

		// Re-hashing is stable, and copying the spec by value (fresh
		// pointer targets) must not change the key.
		aCopy := a
		if a.Tuning != nil {
			tc := *a.Tuning
			aCopy.Tuning = &tc
		}
		if a.VoltageControl != nil {
			vc := *a.VoltageControl
			aCopy.VoltageControl = &vc
		}
		if a.Damping != nil {
			dc := *a.Damping
			aCopy.Damping = &dc
		}
		if a.System != nil {
			sc := *a.System
			aCopy.System = &sc
		}
		if a.Convolution != nil {
			cc := *a.Convolution
			aCopy.Convolution = &cc
		}
		if a.Wavelet != nil {
			wc := *a.Wavelet
			wc.Scales = append([]int(nil), wc.Scales...)
			aCopy.Wavelet = &wc
		}
		if a.DualBand != nil {
			db := *a.DualBand
			aCopy.DualBand = &db
		}
		if a.DomainTuning != nil {
			dt := *a.DomainTuning
			dt.Domains = append([]tuning.Config(nil), dt.Domains...)
			aCopy.DomainTuning = &dt
		}
		if a.PDN != nil {
			p := *a.PDN
			if p.MultiDomain != nil {
				md := *p.MultiDomain
				md.Domains = append([]circuit.DomainParams(nil), md.Domains...)
				p.MultiDomain = &md
			}
			aCopy.PDN = &p
		}
		if a.Workload != nil {
			w := *a.Workload
			aCopy.Workload = &w
		}
		kc, err := aCopy.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kc != ka {
			t.Errorf("pointer identity leaked into the key:\n%+v", a)
		}
	})
}
