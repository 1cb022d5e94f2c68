package experiments

import (
	"strings"
	"testing"

	"repro/internal/circuit"
)

// testOpts keeps experiment tests fast; classification-sensitive tests
// override Instructions where needed.
var testOpts = Options{Instructions: 120_000}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1c", "fig3", "fig4", "table2", "table3", "table4", "table5", "fig5", "ablations", "related", "lowfreq", "scaling", "spectra", "multidomain"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil || e.ID != "fig3" {
		t.Errorf("ByID(fig3) = %v, %v", e.ID, err)
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.instructions() != 1_000_000 {
		t.Errorf("default instructions %d", o.instructions())
	}
	o = Options{Instructions: 5}
	if o.instructions() != 5 {
		t.Error("explicit options not honoured")
	}
}

func TestFig1c(t *testing.T) {
	rep, err := Fig1c(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := rep.Data.(*Fig1cData)
	if !ok {
		t.Fatalf("wrong data type %T", rep.Data)
	}
	// The example supply peaks near 100 MHz with ~20 mΩ; Table 1 near
	// 100 MHz with ~3 mΩ.
	if f := data.Example.Peak.FrequencyHz / 1e6; f < 95 || f > 106 {
		t.Errorf("example peak at %g MHz", f)
	}
	if z := data.Table1.Peak.Ohms * 1e3; z < 2.5 || z > 4 {
		t.Errorf("table-1 peak %g mΩ, want ≈ 3.2", z)
	}
	if !strings.Contains(rep.Text, "impedance") {
		t.Error("report text missing")
	}
}

func TestFig3MatchesPaperStory(t *testing.T) {
	rep, err := Fig3(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Fig3Data)
	if data.FirstViolationCycle < 100 {
		t.Fatalf("no violation during stimulation (cycle %d)", data.FirstViolationCycle)
	}
	// The paper's headline: the violation happens when the resonant
	// event count reaches the maximum repetition tolerance (4).
	if data.CountAtViolation != 4 {
		t.Errorf("violation at event count %d, want 4", data.CountAtViolation)
	}
	// Dissipation ~66% per period.
	if data.DissipationPerPeriod < 0.55 || data.DissipationPerPeriod > 0.8 {
		t.Errorf("dissipation %g, want ≈ 0.66", data.DissipationPerPeriod)
	}
	// Events chain upward through the stimulation.
	max := 0
	for _, ev := range data.Events {
		if ev.Count > max {
			max = ev.Count
		}
	}
	if max < 4 {
		t.Errorf("event count only reached %d", max)
	}
}

func TestFig4ShowsAdvanceWarning(t *testing.T) {
	rep, err := Fig4(Options{Instructions: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Fig4Data)
	if len(data.Deviations) == 0 || len(data.Deviations) != len(data.Current) {
		t.Fatal("window traces missing or mismatched")
	}
	// Count 2 must be reached well before the violation (the paper
	// reports ~150 cycles of advance warning).
	lead2, ok := data.LeadCycles[2]
	if !ok {
		t.Fatal("count 2 never reached before the violation")
	}
	if lead2 < 20 {
		t.Errorf("count-2 warning only %d cycles ahead", lead2)
	}
	// Higher counts arrive later (shorter lead).
	if lead3, ok := data.LeadCycles[3]; ok && lead3 > lead2 {
		t.Errorf("count 3 lead %d exceeds count 2 lead %d", lead3, lead2)
	}
}

func TestTable2Classification(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	// The default budget is what guarantees every violating app's
	// episode cadence fires.
	rep, err := Table2(Options{Instructions: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Table2Data)
	if len(data.Rows) != 26 {
		t.Fatalf("%d rows, want 26", len(data.Rows))
	}
	for _, row := range data.Rows {
		if row.Violating != row.PaperViolating {
			t.Errorf("%s: classified violating=%v, paper says %v (frac %.2e)",
				row.App, row.Violating, row.PaperViolating, row.ViolationFrac)
		}
	}
	// lucas must be the heaviest violator, as in the paper.
	var worst string
	var worstFrac float64
	for _, row := range data.Rows {
		if row.ViolationFrac > worstFrac {
			worstFrac = row.ViolationFrac
			worst = row.App
		}
	}
	if worst != "lucas" {
		t.Errorf("heaviest violator is %s, want lucas", worst)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rep, err := Table3(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Table3Data)
	if len(data.Rows) != 6 { // 5 response times + delay variant
		t.Fatalf("%d rows, want 6", len(data.Rows))
	}
	first := data.Rows[0]
	last := data.Rows[4]
	// Longer initial response ⇒ more first-level cycles, more slowdown.
	if last.FirstLevelFraction <= first.FirstLevelFraction {
		t.Errorf("first-level fraction did not grow: %g → %g",
			first.FirstLevelFraction, last.FirstLevelFraction)
	}
	if last.AvgSlowdown <= first.AvgSlowdown {
		t.Errorf("slowdown did not grow: %g → %g", first.AvgSlowdown, last.AvgSlowdown)
	}
	for _, r := range data.Rows {
		// Second-level response stays rare (paper: 0.003-0.004).
		if r.SecondLevelFraction > 0.02 {
			t.Errorf("initial=%d: second-level fraction %g too high", r.InitialResponseCycles, r.SecondLevelFraction)
		}
		// Tuning prevents the vast majority of violations.
		if r.BaseViolations > 0 && float64(r.ViolationsRemaining) > 0.25*float64(r.BaseViolations) {
			t.Errorf("initial=%d: %d of %d violations remain", r.InitialResponseCycles,
				r.ViolationsRemaining, r.BaseViolations)
		}
		// Energy-delay within the paper's ballpark (5-9%); allow a wide
		// scaled-run band.
		if r.AvgEnergyDelay < 1.0 || r.AvgEnergyDelay > 1.2 {
			t.Errorf("initial=%d: avg energy-delay %g out of range", r.InitialResponseCycles, r.AvgEnergyDelay)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rep, err := Table4(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Table4Data)
	if len(data.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(data.Rows))
	}
	ideal30 := data.Rows[0]
	worstRow := data.Rows[4] // 20mV target, 15mV noise, 3-cycle delay
	if ideal30.ResponseFraction >= worstRow.ResponseFraction {
		t.Errorf("response fraction should explode with noise+delay: %g vs %g",
			ideal30.ResponseFraction, worstRow.ResponseFraction)
	}
	if ideal30.AvgEnergyDelay >= worstRow.AvgEnergyDelay {
		t.Errorf("energy-delay should grow with noise+delay: %g vs %g",
			ideal30.AvgEnergyDelay, worstRow.AvgEnergyDelay)
	}
	// Actual thresholds are target minus half the noise.
	if data.Rows[2].ActualThresholdMV != 22.5 {
		t.Errorf("30/15 actual threshold %g, want 22.5", data.Rows[2].ActualThresholdMV)
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rep, err := Table5(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Table5Data)
	if len(data.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(data.Rows))
	}
	// Tighter δ ⇒ more slowdown and energy-delay, monotonically.
	for i := 1; i < len(data.Rows); i++ {
		if data.Rows[i].AvgSlowdown <= data.Rows[i-1].AvgSlowdown {
			t.Errorf("slowdown not monotone at δ=%g", data.Rows[i].DeltaRelative)
		}
		if data.Rows[i].AvgEnergyDelay <= data.Rows[i-1].AvgEnergyDelay {
			t.Errorf("energy-delay not monotone at δ=%g", data.Rows[i].DeltaRelative)
		}
	}
}

func TestFig5TuningWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rep, err := Fig5(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*Fig5Data)
	if len(data.Bars) != 6 {
		t.Fatalf("%d bars, want 6", len(data.Bars))
	}
	// The paper's headline: resonance tuning's energy-delay beats both
	// baselines at their realistic design points.
	tuningWorst := 0.0
	othersBest := 1e9
	for _, bar := range data.Bars {
		if bar.Technique == "resonance-tuning" {
			if bar.AvgEnergyDelay > tuningWorst {
				tuningWorst = bar.AvgEnergyDelay
			}
		} else if bar.AvgEnergyDelay < othersBest {
			othersBest = bar.AvgEnergyDelay
		}
	}
	if tuningWorst == 0 || othersBest == 1e9 {
		t.Fatal("bars missing techniques")
	}
	if tuningWorst >= othersBest {
		t.Errorf("resonance tuning (worst %.3f) does not beat the baselines (best %.3f)",
			tuningWorst, othersBest)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rep, err := Ablations(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*AblationData)
	if len(data.Rows) != 9 {
		t.Fatalf("%d ablation rows, want 9", len(data.Rows))
	}
	// Heun must be far more accurate than Euler.
	if data.IntegratorErrHeun >= data.IntegratorErrEuler/5 {
		t.Errorf("integrator errors: Heun %g vs Euler %g", data.IntegratorErrHeun, data.IntegratorErrEuler)
	}
	byVariant := map[string]AblationRow{}
	for _, r := range data.Rows {
		byVariant[r.Study+"/"+r.Variant] = r
	}
	full := byVariant["band-coverage/full band 42-60 (paper)"]
	narrow := byVariant["band-coverage/resonant half-period only (50)"]
	if narrow.ViolationsRemaining <= full.ViolationsRemaining {
		t.Errorf("narrow-band detector should miss more violations: %d vs %d",
			narrow.ViolationsRemaining, full.ViolationsRemaining)
	}
	eager := byVariant["initial-threshold/threshold 1 (eager)"]
	paper := byVariant["initial-threshold/threshold 2 (paper)"]
	if eager.AvgSlowdown <= paper.AvgSlowdown {
		t.Errorf("eager threshold should cost more: %g vs %g", eager.AvgSlowdown, paper.AvgSlowdown)
	}
}

func TestRelatedComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rep, err := Related(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*RelatedData)
	if len(data.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(data.Rows))
	}
	// Every technique must cut violations substantially on the heavy
	// violators.
	for _, r := range data.Rows {
		if r.BaseViolations == 0 {
			t.Fatal("no base violations to compare against")
		}
		if float64(r.ViolationsRemaining) > 0.3*float64(r.BaseViolations) {
			t.Errorf("%s left %d of %d violations", r.Technique, r.ViolationsRemaining, r.BaseViolations)
		}
		if r.AvgSlowdown < 1.0 {
			t.Errorf("%s reports speedup %g", r.Technique, r.AvgSlowdown)
		}
	}
}

func TestLowFreqDemonstratesSection22(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rep, err := LowFreq(Options{Instructions: 600_000})
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*LowFreqData)
	if len(data.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(data.Rows))
	}
	// Two distinct impedance peaks, low at a few MHz.
	if data.LowPeak.FrequencyHz > 20e6 || data.MediumPeak.FrequencyHz < 80e6 {
		t.Errorf("peaks at %.1f / %.1f MHz", data.LowPeak.FrequencyHz/1e6, data.MediumPeak.FrequencyHz/1e6)
	}
	base, medOnly, dual := data.Rows[0], data.Rows[1], data.Rows[2]
	if base.Violations == 0 {
		t.Fatal("no low-frequency violations to prevent")
	}
	// The medium-band detector barely helps (it cannot see 2500-cycle
	// periods)...
	if float64(medOnly.Violations) < 0.7*float64(base.Violations) {
		t.Errorf("medium-only removed too many violations (%d → %d): not blind as expected",
			base.Violations, medOnly.Violations)
	}
	// ...while the dual-band controller prevents most of them.
	if float64(dual.Violations) > 0.5*float64(base.Violations) {
		t.Errorf("dual-band left %d of %d violations", dual.Violations, base.Violations)
	}
}

func TestScalingTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rep, err := Scaling(Options{Instructions: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*ScalingData)
	if len(data.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(data.Rows))
	}
	// Controlled sweep: same threshold and tolerance at every point,
	// quarter period doubling each step.
	for i, r := range data.Rows {
		if r.ThresholdAmps != data.Rows[0].ThresholdAmps || r.Tolerance != data.Rows[0].Tolerance {
			t.Errorf("row %d: electrical severity not held fixed (%g A, tol %d)",
				i, r.ThresholdAmps, r.Tolerance)
		}
		if r.BaseViolations == 0 {
			t.Errorf("row %d (f0=%.0f MHz): no base violations to prevent", i, r.ResonantFreqMHz)
			continue
		}
		prevented := 1 - float64(r.ViolationsRemaining)/float64(r.BaseViolations)
		if prevented < 0.7 {
			t.Errorf("f0=%.0f MHz: only %.0f%% of violations prevented", r.ResonantFreqMHz, prevented*100)
		}
		if r.Slowdown > 1.5 {
			t.Errorf("f0=%.0f MHz: slowdown %.2f too high", r.ResonantFreqMHz, r.Slowdown)
		}
	}
	if q0, q2 := data.Rows[0].QuarterPeriodCycles, data.Rows[2].QuarterPeriodCycles; q2 < 3*q0 {
		t.Errorf("quarter period did not grow: %d → %d", q0, q2)
	}
}

func TestMultiDomainSharedResonance(t *testing.T) {
	rep, err := MultiDomain(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*MultiDomainData)
	// The die-node profile must show one peak per resonant tier — at
	// least two distinct resonances, one of them the shared package tier.
	if len(data.Peaks) < 2 {
		t.Fatalf("%d impedance peaks, want ≥ 2", len(data.Peaks))
	}
	pkgRes := circuit.Table1TwoDomain().PackageResonantFrequency()
	foundPkg := false
	for _, p := range data.Peaks {
		if r := p.FrequencyHz / pkgRes; r > 0.7 && r < 1.4 {
			foundPkg = true
		}
	}
	if !foundPkg {
		t.Errorf("no impedance peak near the %.1f MHz package resonance (peaks %+v)",
			pkgRes/1e6, data.Peaks)
	}
	if len(data.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(data.Rows))
	}
	lumped, multiBase, tuned := data.Rows[0], data.Rows[1], data.Rows[2]
	// The package-resonant workload is electrically invisible on the
	// lumped model but violates heavily on the multi-domain stack.
	if multiBase.Violations == 0 {
		t.Fatal("no multi-domain base violations to prevent")
	}
	if float64(lumped.Violations) > 0.05*float64(multiBase.Violations) {
		t.Errorf("lumped model sees %d violations vs %d multi-domain: not a multi-domain-only effect",
			lumped.Violations, multiBase.Violations)
	}
	// Per-domain tuning prevents the vast majority of them.
	if float64(tuned.Violations) > 0.25*float64(multiBase.Violations) {
		t.Errorf("domain tuning left %d of %d violations", tuned.Violations, multiBase.Violations)
	}
	if tuned.Slowdown < 1.0 {
		t.Errorf("domain tuning reports speedup %g", tuned.Slowdown)
	}
	// Each domain violates on its own rail, and each domain's controller
	// both detects the oscillation and engages its response independently.
	if len(data.Domains) < 2 {
		t.Fatalf("%d domain rows, want ≥ 2", len(data.Domains))
	}
	for _, d := range data.Domains {
		if d.BaseViolations == 0 {
			t.Errorf("domain %s: no base violations on its rail", d.Name)
		}
		if d.Events == 0 {
			t.Errorf("domain %s: controller never detected the oscillation", d.Name)
		}
		if d.ResponseCycles == 0 {
			t.Errorf("domain %s: controller never engaged a response", d.Name)
		}
		if d.TunedViolations > d.BaseViolations {
			t.Errorf("domain %s: tuning made things worse (%d → %d)",
				d.Name, d.BaseViolations, d.TunedViolations)
		}
	}
}

func TestSpectraSeparateClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	rep, err := Spectra(Options{Instructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data.(*SpectrumData)
	if len(data.Rows) != 26 {
		t.Fatalf("%d rows, want 26", len(data.Rows))
	}
	var vio, clean float64
	var nv, nc int
	for _, r := range data.Rows {
		if r.BandPowerA2 < 0 || r.BandFraction < 0 || r.BandFraction > 1 {
			t.Errorf("%s: implausible band stats %+v", r.App, r)
		}
		if r.PaperViolating {
			vio += r.BandPowerA2
			nv++
		} else {
			clean += r.BandPowerA2
			nc++
		}
	}
	if nv != 12 || nc != 14 {
		t.Fatalf("class counts %d/%d", nv, nc)
	}
	// The violating class must carry clearly more in-band energy.
	if vio/float64(nv) < 1.5*clean/float64(nc) {
		t.Errorf("violating mean %.2f A² not well above clean mean %.2f A²",
			vio/float64(nv), clean/float64(nc))
	}
}
