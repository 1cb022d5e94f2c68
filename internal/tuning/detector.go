// Package tuning implements resonance tuning, the paper's contribution
// (Section 3): architectural detection of nascent resonant behaviour in
// the processor current and a two-tier response that moves the frequency
// of current variations out of the resonance band.
//
// Detection (Section 3.1) keeps a history of per-cycle sensed core
// current and, for every half-period in the resonance band, compares the
// sum of the most recent quarter-period of current samples against the
// quarter-period before it. A difference larger than M·T/8 (M being the
// resonant current variation threshold) marks a high→low or low→high
// resonant event. Events are recorded in per-polarity history shift
// registers; a new event chains with an opposite-polarity event half a
// period earlier, incrementing the resonant event count. Same-polarity
// events on consecutive cycles are one physical transition and are
// counted once.
//
// Prevention (Section 3.2) engages a gentle first-level response (halved
// issue width, one cache port) when the count reaches the initial
// response threshold, and a second-level response (issue stall with
// phantom operations holding a medium current level) one below the
// maximum repetition tolerance, guaranteeing the count never reaches the
// violating value.
//
// The controllers are the techniques the simulation loop runs: Controller
// implements sim.Technique directly, and so do its two compositions,
// DualBand (a medium-band controller plus a decimated low-band one,
// Section 2.2) and PerDomain (one controller per supply domain of a
// multi-domain PDN). The engine's technique table constructs them.
package tuning

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// DetectorConfig parameterises resonant-event detection.
type DetectorConfig struct {
	// HalfPeriodLo and HalfPeriodHi bound, in cycles, the half-periods
	// of the resonance band (42–60 for the Table 1 supply). One
	// quarter-period adder is instantiated per half-period.
	HalfPeriodLo, HalfPeriodHi int
	// ThresholdAmps is the resonant current variation threshold M.
	ThresholdAmps float64
	// MaxRepetitionTolerance is the resonant event count at which a
	// noise-margin violation can occur.
	MaxRepetitionTolerance int
}

// DetectorFromSupply derives a detector configuration from a power
// supply's characteristics and its Section 2.1.3 calibration.
func DetectorFromSupply(p circuit.Params, cal circuit.Calibration) DetectorConfig {
	lo, hi := p.ResonanceBandCycles().HalfPeriods()
	return DetectorConfig{
		HalfPeriodLo:           lo,
		HalfPeriodHi:           hi,
		ThresholdAmps:          cal.ThresholdAmps,
		MaxRepetitionTolerance: cal.MaxRepetitionTolerance,
	}
}

// Validate reports whether the configuration is usable.
func (c DetectorConfig) Validate() error {
	switch {
	case c.HalfPeriodLo < 2 || c.HalfPeriodHi < c.HalfPeriodLo:
		return fmt.Errorf("tuning: bad half-period range %d-%d", c.HalfPeriodLo, c.HalfPeriodHi)
	case c.ThresholdAmps <= 0:
		return fmt.Errorf("tuning: threshold must be positive (got %g)", c.ThresholdAmps)
	case c.MaxRepetitionTolerance < 2:
		return fmt.Errorf("tuning: repetition tolerance must be at least 2 (got %d)", c.MaxRepetitionTolerance)
	}
	return nil
}

// Polarity labels the direction of a resonant event.
type Polarity uint8

// Event polarities.
const (
	HighLow Polarity = iota // high current followed by low current
	LowHigh                 // low current followed by high current
)

// String names the polarity.
func (p Polarity) String() string {
	if p == HighLow {
		return "high-low"
	}
	return "low-high"
}

// Event describes a resonant event detected in some cycle.
type Event struct {
	Cycle    uint64
	Polarity Polarity
	// Count is the resonant event count after chaining: 1 for an
	// isolated event, higher when opposite-polarity events precede it
	// at half-period distances.
	Count int
}

// adder is one precomputed half-period comparator: the quarter-period
// window it sums over and its threshold M·T/8 (with T = 2·hp).
type adder struct {
	qp  uint64
	thr float64
}

// Detector implements Section 3.1. Feed it one sensed current sample per
// cycle with Step.
//
// Both internal rings are sized to powers of two so every per-cycle index
// is a mask, not a division: the adder loop runs with no integer division
// or modulo at all, and each adder costs three loads and three
// subtractions. Window sums still come from the same cumulative-sum
// differences as before, so detected events are bit-identical to the
// modulo-indexed implementation (see detector_equivalence_test.go).
type Detector struct {
	cfg    DetectorConfig
	adders []adder

	// cum is a ring of cumulative current sums; cum[c&cumMask] holds
	// the total current through cycle c, letting any window sum be
	// formed with one subtraction per half-period "adder".
	cum     []float64
	cumMask uint64
	total   float64
	cycle   uint64
	warmup  int

	// Polarity history shift registers (Section 3.1.2), one bit per
	// cycle, long enough to cover the maximum repetition tolerance,
	// plus the chained count memo for each recorded event cycle.
	histMask uint64
	highLow  []bool
	lowHigh  []bool
	countAt  []uint16
	lastSeen [2]uint64 // most recent event cycle per polarity (+1, 0 = none)

	lastEvent      Event
	lastEventValid bool
	eventsDetected uint64
}

// ceilPow2 returns the smallest power of two ≥ n (n ≥ 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewDetector returns a detector for the given configuration. It panics
// if the configuration is invalid (a design-time error).
func NewDetector(cfg DetectorConfig) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("tuning.NewDetector: %v", err))
	}
	ringLen := ceilPow2(2*cfg.HalfPeriodHi + 2)
	histLen := ceilPow2(cfg.MaxRepetitionTolerance*2*cfg.HalfPeriodHi + 1)
	// Consecutive half-periods share a quarter-period (qp = hp/2 truncates),
	// so their adders see the identical window difference. The detection
	// loop keeps the first adder that fires (later same-magnitude adders
	// lose the mag <= maxMag comparison) and the later duplicate's larger
	// threshold can never fire when the first one's didn't — so only the
	// first adder per distinct quarter-period can affect the outcome, and
	// the duplicates are dropped here. Detected events stay bit-identical
	// to the one-adder-per-half-period build (detector_equivalence_test.go).
	adders := make([]adder, 0, (cfg.HalfPeriodHi-cfg.HalfPeriodLo)/2+1)
	for hp := cfg.HalfPeriodLo; hp <= cfg.HalfPeriodHi; hp++ {
		qp := uint64(hp / 2)
		if n := len(adders); n > 0 && adders[n-1].qp == qp {
			continue
		}
		adders = append(adders, adder{
			qp:  qp,
			thr: cfg.ThresholdAmps * float64(hp) / 4,
		})
	}
	return &Detector{
		cfg:      cfg,
		adders:   adders,
		cum:      make([]float64, ringLen),
		cumMask:  uint64(ringLen - 1),
		histMask: uint64(histLen - 1),
		highLow:  make([]bool, histLen),
		lowHigh:  make([]bool, histLen),
		countAt:  make([]uint16, histLen),
	}
}

// Config returns the detector's configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// EventsDetected returns the number of resonant events recorded so far.
func (d *Detector) EventsDetected() uint64 { return d.eventsDetected }

// Step feeds one cycle of sensed core current to the detector. It returns
// the resonant event recorded this cycle, if any.
func (d *Detector) Step(sensedAmps float64) (Event, bool) {
	d.total += sensedAmps
	d.cum[d.cycle&d.cumMask] = d.total

	// Clear the history slots being reused this cycle.
	slot := d.cycle & d.histMask
	d.highLow[slot] = false
	d.lowHigh[slot] = false
	d.countAt[slot] = 0

	var (
		found    bool
		pol      Polarity
		maxMag   float64
		detected Event
	)
	if d.warmup < 2*d.cfg.HalfPeriodHi {
		d.warmup++
	} else {
		// One "adder" per half-period in the band (Section 3.1.3), each
		// with a precomputed quarter-period and threshold M·T/8
		// (T = 2·hp). diff is the recent quarter-period's sum minus the
		// prior one's, subtracted in the original modulo-indexed order so
		// the result is bit-identical; cum[c&m] holds total (written
		// above), so the recent window ends at the running total instead
		// of a ring load. The loop reads d's fields from locals, which the
		// compiler keeps in registers rather than reloading per adder.
		// math.Abs, not a branch on the sign, which real current makes
		// unpredictable: every threshold is positive, so a −0 or NaN diff
		// compares the same either way.
		cum, m, c, total := d.cum, d.cumMask, d.cycle, d.total
		for _, a := range d.adders {
			mid := cum[(c-a.qp)&m]
			diff := (total - mid) - (mid - cum[(c-2*a.qp)&m])
			mag := math.Abs(diff)
			if mag <= a.thr || mag <= maxMag {
				continue
			}
			maxMag = mag
			found = true
			if diff < 0 {
				pol = HighLow
			} else {
				pol = LowHigh
			}
		}
	}
	if found {
		detected = d.record(pol)
		d.lastEvent = detected
		d.lastEventValid = true
		d.eventsDetected++
	}
	d.cycle++
	return detected, found
}

// record notes an event of the given polarity at the current cycle and
// computes its chained resonant event count.
func (d *Detector) record(pol Polarity) Event {
	slot := d.cycle & d.histMask
	count := 1

	// Dedup: a same-polarity event in the immediately preceding cycle
	// is the same physical transition seen by another adder
	// (Section 3.1.3); inherit its count instead of chaining.
	// lastSeen stores cycle+1, so equality with d.cycle means the
	// previous cycle had an event of this polarity.
	inherited := false
	if d.lastSeen[pol] == d.cycle {
		prevSlot := (d.cycle - 1) & d.histMask
		if d.polarityBit(pol, prevSlot) && d.countAt[prevSlot] > 0 {
			count = int(d.countAt[prevSlot])
			inherited = true
		}
	}
	if !inherited {
		// Chain: look for an opposite-polarity event at every
		// half-period distance in the band (fixed probe offsets, no
		// associative search).
		opposite := LowHigh
		if pol == LowHigh {
			opposite = HighLow
		}
		best := 0
		for hp := d.cfg.HalfPeriodLo; hp <= d.cfg.HalfPeriodHi; hp++ {
			if uint64(hp) > d.cycle {
				break
			}
			back := (d.cycle - uint64(hp)) & d.histMask
			if d.polarityBit(opposite, back) && int(d.countAt[back]) > best {
				best = int(d.countAt[back])
			}
		}
		count = best + 1
	}
	if count > d.cfg.MaxRepetitionTolerance+1 {
		count = d.cfg.MaxRepetitionTolerance + 1
	}

	if pol == HighLow {
		d.highLow[slot] = true
	} else {
		d.lowHigh[slot] = true
	}
	d.countAt[slot] = uint16(count)
	d.lastSeen[pol] = d.cycle + 1
	return Event{Cycle: d.cycle, Polarity: pol, Count: count}
}

func (d *Detector) polarityBit(pol Polarity, slot uint64) bool {
	if pol == HighLow {
		return d.highLow[slot]
	}
	return d.lowHigh[slot]
}

// CountNow returns the effective resonant event count at the present
// cycle for tracing: the count of the most recent event, decaying by one
// per half-period of quiet as events age out of the history registers.
func (d *Detector) CountNow() int {
	if !d.lastEventValid {
		return 0
	}
	age := int(d.cycle - d.lastEvent.Cycle)
	decay := age / d.cfg.HalfPeriodHi
	c := d.lastEvent.Count - decay
	if c < 0 {
		return 0
	}
	return c
}
