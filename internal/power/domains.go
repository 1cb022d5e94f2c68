package power

import (
	"fmt"

	"repro/internal/cpu"
)

// Multi-domain operation: a Model can split its per-cycle energy across
// supply domains by assigning each architectural unit to a domain
// (per-unit domain assignment). Step and StepDomains share one deposit
// loop, but StepDomains lays each unit's deposit into its domain's own
// spreading ring, so the single ring Step reads — and with it every
// single-domain simulation — is untouched.

// UnitByName resolves a unit name as rendered by Unit.String.
func UnitByName(name string) (Unit, bool) {
	for u := Unit(0); u < NumUnits; u++ {
		if u.String() == name {
			return u, true
		}
	}
	return 0, false
}

// AssignmentFromNames builds a per-unit domain assignment from
// per-domain unit-name lists (e.g. circuit.DomainParams.PowerUnits).
// Units listed nowhere default to domain zero; a unit may appear in at
// most one domain, and every name must be a known unit.
func AssignmentFromNames(domains [][]string) ([NumUnits]uint8, error) {
	var assign [NumUnits]uint8
	var taken [NumUnits]bool
	if len(domains) > 255 {
		return assign, fmt.Errorf("power: %d domains exceed the assignment range", len(domains))
	}
	for d, names := range domains {
		for _, name := range names {
			u, ok := UnitByName(name)
			if !ok {
				return assign, fmt.Errorf("power: unknown unit %q in domain %d", name, d)
			}
			if taken[u] {
				return assign, fmt.Errorf("power: unit %q assigned to more than one domain", name)
			}
			taken[u] = true
			assign[u] = uint8(d)
		}
	}
	return assign, nil
}

// EnableDomains switches the model into multi-domain accounting with the
// given per-unit assignment: StepDomains becomes usable, splitting each
// cycle's energy across domains. The ungated floor is split by each
// domain's share of the dynamic power budget. Call before the first
// Step; it panics on a bad assignment.
func (m *Model) EnableDomains(domains int, assign [NumUnits]uint8) {
	if domains < 1 {
		panic(fmt.Sprintf("power.EnableDomains: need at least one domain (got %d)", domains))
	}
	if m.cycles != 0 {
		panic("power.EnableDomains: model already stepped")
	}
	for u := Unit(0); u < NumUnits; u++ {
		if int(assign[u]) >= domains {
			panic(fmt.Sprintf("power.EnableDomains: unit %s assigned to domain %d of %d", u, assign[u], domains))
		}
	}
	m.nd = domains
	m.assign = assign
	m.pendingDom = make([][spreadRing]float64, domains)
	// Split the floor by budget share so each domain idles at its share
	// of IdleWatts; unassigned residue (if a domain owns no units) stays
	// zero and the weights renormalize over the full budget.
	m.floorDomJ = make([]float64, domains)
	for u := Unit(0); u < NumUnits; u++ {
		m.floorDomJ[assign[u]] += budgetFraction[u] * m.floorJ
	}
}

// Domains returns the number of supply domains (zero until
// EnableDomains).
func (m *Model) Domains() int { return m.nd }

// DomainShare returns domain d's share of the dynamic power budget,
// the weight used to split the floor (and, in the simulator, phantom
// current) across domains. Shares sum to one.
func (m *Model) DomainShare(d int) float64 {
	share := 0.0
	for u := Unit(0); u < NumUnits; u++ {
		if int(m.assign[u]) == d {
			share += budgetFraction[u]
		}
	}
	return share
}

// DomainIdleAmps returns the current domain d draws on a fully idle
// cycle; summed over domains it equals IdleAmps (up to rounding).
func (m *Model) DomainIdleAmps(d int) float64 {
	return m.floorDomJ[d] * m.cfg.ClockHz / m.cfg.Vdd
}

// StepDomains accounts one core cycle of activity like Step, but splits
// the cycle's energy per supply domain: domJ[d] receives domain d's
// joules (len(domJ) must equal Domains()) and the total is returned.
// Phantom current is not accounted here — the simulator injects it as
// per-domain amps at the network and tracks its energy separately,
// exactly as the single-domain loop does with Step(act, 0). Each unit's
// deposit comes from the same tables Step reads, laid into the ring of
// the unit's domain.
func (m *Model) StepDomains(act *cpu.Activity, domJ []float64) float64 {
	if m.nd == 0 {
		panic("power.StepDomains: EnableDomains was not called")
	}
	if len(domJ) != m.nd {
		panic(fmt.Sprintf("power.StepDomains: %d domain slots for %d domains", len(domJ), m.nd))
	}
	m.depositCycle(act, true)
	m.floorTot += m.floorJ
	e := 0.0
	for d := 0; d < m.nd; d++ {
		ed := m.floorDomJ[d] + m.pendingDom[d][m.slot]
		m.pendingDom[d][m.slot] = 0
		domJ[d] = ed
		e += ed
	}
	m.slot = (m.slot + 1) & (spreadRing - 1)
	m.totalJ += e
	m.cycles++
	return e
}
