package cpu

// Throttle carries the per-cycle pipeline controls that the inductive-
// noise techniques exercise. The zero value of the width fields means
// "use the configured width"; the zero value of IssueCurrentBudget means
// unlimited (use Unlimited to be explicit).
type Throttle struct {
	// IssueWidth, when positive, caps the number of instructions issued
	// this cycle (resonance tuning's first-level response halves it).
	IssueWidth int
	// CachePorts, when positive, caps the L1 data ports available this
	// cycle (first-level response reduces 2 → 1).
	CachePorts int
	// StallIssue suppresses all instruction issue (second-level
	// response and the low-voltage response of [10]).
	StallIssue bool
	// StallFetch suppresses instruction fetch (response of [10]).
	StallFetch bool
	// IssueCurrentBudget, when non-negative, bounds the summed
	// estimated current (amps) of the instructions issued this cycle;
	// pipeline damping [14] uses it. Negative means unlimited.
	IssueCurrentBudget float64
}

// Unlimited is the throttle that imposes no restrictions.
var Unlimited = Throttle{IssueCurrentBudget: -1}

// issueWidth resolves the effective issue width against the configured
// width full.
func (t *Throttle) issueWidth(full int) int {
	if t.StallIssue {
		return 0
	}
	if t.IssueWidth > 0 && t.IssueWidth < full {
		return t.IssueWidth
	}
	return full
}

// cachePorts resolves the effective L1 data port count against the
// configured count full.
func (t *Throttle) cachePorts(full int) int {
	if t.CachePorts > 0 && t.CachePorts < full {
		return t.CachePorts
	}
	return full
}

// budgeted reports whether an issue-current budget is in force.
func (t *Throttle) budgeted() bool { return t.IssueCurrentBudget >= 0 }
