package tuning

import (
	"testing"

	"repro/internal/rng"
)

// The paired benchmarks below run the frozen modulo-indexed reference
// (detector_equivalence_test.go) and the prefix-sum detector on the same
// square wave, so the O(1)-adder rewrite's speedup stays measurable
// apples-to-apples; BenchmarkPrefixSumDetectorRandomWalk feeds the
// detector a current whose window differences change sign unpredictably,
// as real current does, where the square wave's do not:
//
//	go test -run '^$' -bench 'ModuloReference|PrefixSumDetector' ./internal/tuning

func benchWave(i int) float64 {
	if i%100 < 50 {
		return 110
	}
	return 30
}

func BenchmarkModuloReference(b *testing.B) {
	d := newRefDetector(DetectorConfig{HalfPeriodLo: 42, HalfPeriodHi: 60, ThresholdAmps: 32, MaxRepetitionTolerance: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Step(benchWave(i))
	}
}

func BenchmarkPrefixSumDetector(b *testing.B) {
	d := NewDetector(DetectorConfig{HalfPeriodLo: 42, HalfPeriodHi: 60, ThresholdAmps: 32, MaxRepetitionTolerance: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Step(benchWave(i))
	}
}

// BenchmarkPrefixSumDetectorRandomWalk steps the detector over a seeded
// whole-amp random walk between 35 and 105 A, the machine's current
// range, precomputed so the benchmark times only Step.
func BenchmarkPrefixSumDetectorRandomWalk(b *testing.B) {
	r := rng.New(7)
	walk := make([]float64, 1<<16)
	amps := 70
	for i := range walk {
		amps = min(105, max(35, amps+r.Range(-3, 3)))
		walk[i] = float64(amps)
	}
	d := NewDetector(DetectorConfig{HalfPeriodLo: 42, HalfPeriodHi: 60, ThresholdAmps: 32, MaxRepetitionTolerance: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(walk[i&(len(walk)-1)])
	}
}
