package engine

// Fuzzing for the batch packer, in the style of FuzzSpecKey: throw
// arbitrary spec lists (including junk specs) at packGroups and assert
// the packing invariants the lockstep kernel depends on.

import "testing"

// FuzzBatchPack asserts packGroups' contract over fuzzed spec lists:
// every index lands in exactly one group, multi-lane groups never mix
// specs with different MachineKeys, and unkeyable specs always ride
// alone.
func FuzzBatchPack(f *testing.F) {
	// Seeds: a compatible pair, an all-different list, duplicated
	// machines across techniques, and a junk spec mixed in.
	f.Add("swim", uint64(10_000), uint8(2), uint8(0), 50.0, 0.0, 75, 0,
		"swim", uint64(10_000), uint8(3), uint8(0), 0.0, 0.0, 0, 0, uint8(0))
	f.Add("lucas", uint64(20_000), uint8(2), uint8(1), 70.0, 0.0, 75, 0,
		"bzip", uint64(20_000), uint8(2), uint8(1), 70.0, 0.0, 75, 0, uint8(1))
	f.Add("art", uint64(5_000), uint8(4), uint8(3), 16.0, 1.0, 50, 2,
		"art", uint64(5_000), uint8(7), uint8(5), 70.0, 40.0, 25, 100, uint8(2))
	f.Add("parser", uint64(1_000), uint8(0), uint8(0), 0.0, 0.0, 0, 0,
		"parser", uint64(1_000), uint8(1), uint8(0), 0.0, 0.0, 0, 0, uint8(7))

	f.Fuzz(func(t *testing.T,
		appA string, instsA uint64, techA, varA uint8, f1A, f2A float64, i1A, i2A int,
		appB string, instsB uint64, techB, varB uint8, f1B, f2B float64, i1B, i2B int,
		shape uint8) {
		// Build a list mixing two fuzzed base specs, technique variants
		// of each (same machine, different control), and — depending on
		// shape — an unkeyable junk spec.
		a := specFromFuzz(appA, instsA, techA, varA, f1A, f2A, i1A, i2A)
		b := specFromFuzz(appB, instsB, techB, varB, f1B, f2B, i1B, i2B)
		aAlt := a
		aAlt.Technique = TechniqueNone
		clearSections(&aAlt)
		bAlt := b
		bAlt.Technique = TechniqueVoltageControl
		clearSections(&bAlt)
		specs := []Spec{a, b, aAlt, bAlt, a}
		if shape%2 == 1 {
			junk := b
			junk.Technique = TechniqueKind("no-such-technique")
			specs = append(specs, junk)
		}

		indices := make([]int, len(specs))
		for i := range indices {
			indices[i] = i
		}
		groups := packGroups(specs, indices)

		// Invariant 1: exact cover — every index in exactly one group.
		seen := make(map[int]int)
		for _, g := range groups {
			if len(g.indices) == 0 {
				t.Fatalf("empty group in %+v", groups)
			}
			for _, i := range g.indices {
				seen[i]++
			}
		}
		for i := range specs {
			if seen[i] != 1 {
				t.Fatalf("index %d packed %d times (want exactly once)", i, seen[i])
			}
		}

		// Invariant 2: no group mixes machines — all members of a
		// multi-lane group share one MachineKey.
		for gi, g := range groups {
			if len(g.indices) < 2 {
				continue
			}
			k0, err := specs[g.indices[0]].MachineKey()
			if err != nil {
				t.Fatalf("group %d: unkeyable spec %d in multi-lane group: %v", gi, g.indices[0], err)
			}
			for _, i := range g.indices[1:] {
				ki, err := specs[i].MachineKey()
				if err != nil {
					t.Fatalf("group %d: unkeyable spec %d in multi-lane group: %v", gi, i, err)
				}
				if ki != k0 {
					t.Fatalf("group %d mixes machine keys: spec %d vs spec %d", gi, g.indices[0], i)
				}
			}
		}

		// Invariant 3: unkeyable specs ride alone.
		for gi, g := range groups {
			for _, i := range g.indices {
				if _, keyErr := specs[i].MachineKey(); keyErr != nil && len(g.indices) != 1 {
					t.Fatalf("group %d: unkeyable spec %d shares a machine with %d others",
						gi, i, len(g.indices)-1)
				}
			}
		}
	})
}
