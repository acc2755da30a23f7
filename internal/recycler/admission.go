package recycler

import "sync"

// AdmissionKind selects the admission policy (paper §4.2).
type AdmissionKind int

// Admission policies.
const (
	// KeepAll admits every instruction instance advised for recycling.
	KeepAll AdmissionKind = iota
	// Credit applies the economical principle: every template
	// instruction starts with a number of credits, pays one per
	// admission, and earns them back on local reuse immediately or on
	// eviction of a globally reused instance.
	Credit
	// Adapt is the adaptive credit policy: after the first
	// CreditCount invocations of a template, instructions that were
	// reused at least once receive unlimited credits while the rest
	// stop being admitted.
	Adapt
)

// String names the policy.
func (k AdmissionKind) String() string {
	switch k {
	case KeepAll:
		return "keepall"
	case Credit:
		return "crd"
	case Adapt:
		return "adapt"
	}
	return "?"
}

// instrKey identifies a template instruction across invocations.
type instrKey struct {
	templ uint64
	pc    int
}

// creditState tracks the paper's credit bookkeeping for one template
// instruction.
type creditState struct {
	credits   int
	everUsed  bool // some instance was reused at least once
	unlimited bool // adapt promoted the instruction
	blocked   bool // adapt demoted the instruction
}

// admission implements the three policies over shared credit state.
// It carries its own mutex (a leaf in the recycler's lock hierarchy),
// so credit bookkeeping is safe both from under the writer lock
// (admit/refund/onEvict) and from the lock-free hit path
// (onLocalReuse/onGlobalReuse).
type admission struct {
	kind    AdmissionKind
	initial int // initial credit count (the policies' k parameter)

	mu    sync.Mutex
	state map[instrKey]*creditState
	// invocations counts query invocations per template, driving the
	// adapt policy's decision point.
	invocations map[uint64]int

	// Lifetime decision counters, exposed through AdmissionStats.
	granted  int64
	denied   int64
	refunded int64
	promoted int64 // adapt: instructions given unlimited credits
	demoted  int64 // adapt: instructions blocked from admission
}

func newAdmission(kind AdmissionKind, credits int) *admission {
	if credits <= 0 {
		credits = 3
	}
	return &admission{
		kind:        kind,
		initial:     credits,
		state:       make(map[instrKey]*creditState),
		invocations: make(map[uint64]int),
	}
}

// get resolves (or creates) the credit state for a template
// instruction. Caller holds a.mu.
func (a *admission) get(k instrKey) *creditState {
	s := a.state[k]
	if s == nil {
		s = &creditState{credits: a.initial}
		a.state[k] = s
	}
	return s
}

// beginQuery records a template invocation; for adapt it triggers the
// promotion/demotion decision after the first k invocations.
func (a *admission) beginQuery(templID uint64) {
	if a.kind != Adapt {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.invocations[templID]++
	if a.invocations[templID] == a.initial+1 {
		// Decision point: promote reused instructions, demote the rest.
		for k, s := range a.state {
			if k.templ != templID {
				continue
			}
			if s.everUsed {
				s.unlimited = true
				a.promoted++
			} else {
				s.blocked = true
				a.demoted++
			}
		}
	}
}

// admit decides whether the instruction's fresh result may enter the
// pool, paying one credit when applicable.
func (a *admission) admit(k instrKey) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ok := a.decide(k)
	if ok {
		a.granted++
	} else {
		a.denied++
	}
	return ok
}

// decide applies the policy. Caller holds a.mu.
func (a *admission) decide(k instrKey) bool {
	switch a.kind {
	case KeepAll:
		return true
	case Credit:
		s := a.get(k)
		if s.credits <= 0 {
			return false
		}
		s.credits--
		return true
	case Adapt:
		s := a.get(k)
		if s.unlimited {
			return true
		}
		if s.blocked || s.credits <= 0 {
			return false
		}
		s.credits--
		return true
	}
	return false
}

// onLocalReuse returns the credit immediately (paper §4.2). KeepAll
// keeps no state, so its hits take no lock.
func (a *admission) onLocalReuse(k instrKey) {
	if a.kind == KeepAll {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.get(k)
	s.everUsed = true
	if a.kind == Credit || a.kind == Adapt {
		s.credits++
	}
}

// onGlobalReuse only updates the reuse statistics, which only adapt
// reads, so the other policies' hits take no lock.
func (a *admission) onGlobalReuse(k instrKey) {
	if a.kind != Adapt {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.get(k).everUsed = true
}

// refund returns a paid credit when admission ultimately failed (e.g.
// the pool could not make room), so the instruction is not penalised
// for a result that never entered the pool.
func (a *admission) refund(k instrKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.refunded++
	if a.kind == Credit || a.kind == Adapt {
		a.get(k).credits++
	}
}

// onEvict returns the credit when a globally reused instance leaves
// the pool, giving useful instructions the chance to re-enter.
func (a *admission) onEvict(e *Entry) {
	if a.kind != Credit && a.kind != Adapt {
		return
	}
	if e.GlobalReuse.Load() {
		a.mu.Lock()
		a.get(instrKey{templ: e.TemplID, pc: e.PC}).credits++
		a.mu.Unlock()
	}
}

// snapshot captures the policy's lifetime decision counters.
func (a *admission) snapshot(policy string) AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Policy:   policy,
		Credits:  a.initial,
		Granted:  a.granted,
		Denied:   a.denied,
		Refunded: a.refunded,
		Promoted: a.promoted,
		Demoted:  a.demoted,
		Tracked:  len(a.state),
	}
}
