package core

// The examination policy stage: the per-candidate decision between
// examining now (paying an exact-distance probe) and deferring to a later
// wave (hoping traversal tightens the bounds first). The paper's rule —
// examine once the error estimate ε_d = 1 - partial/lower (Eq. 9) drops
// to the threshold ε_θ — is the default; Options.ExamPolicy swaps it out.

// ExamDecision is the evidence available when deciding whether to examine
// a candidate. Candidates are offered in commit order (ascending lower
// bound, ties by doc ID), so declining one defers the whole rest of the
// wave — the policy answers "keep examining this wave?", not "skip just
// this one".
type ExamDecision struct {
	// Eps is the Eq. 9 error estimate 1 - Partial/Lower (0 when Lower is 0).
	Eps float64
	// Lower is the candidate's lower-bound distance (Eqs. 6, 8).
	Lower float64
	// Partial is the candidate's accumulated partial distance (Eqs. 5, 7).
	Partial float64
	// Forced marks a queue-limit pause: the paper examines the collected
	// candidates regardless of the threshold to cap memory.
	Forced bool
	// Exhausted marks a drained traversal: bounds can never tighten
	// further, so deferring is pointless.
	Exhausted bool
}

// ExamPolicy decides whether the commit loop examines the offered
// candidate or stops for this wave.
//
// A policy must be deterministic and effectively stateless, so that a
// query's results are reproducible. Exactness of the top-k is only
// guaranteed when the policy examines forced and exhausted candidates (as
// the default does); a policy that declines those trades exactness for
// latency.
type ExamPolicy interface {
	ShouldExamine(d ExamDecision) bool
}

// ThresholdPolicy returns the paper's default policy: examine while
// ε_d <= eps, and unconditionally on forced examinations or once
// traversal is exhausted.
func ThresholdPolicy(eps float64) ExamPolicy { return thresholdPolicy(eps) }

type thresholdPolicy float64

func (p thresholdPolicy) ShouldExamine(d ExamDecision) bool {
	return d.Forced || d.Exhausted || d.Eps <= float64(p)
}
