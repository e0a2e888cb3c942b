package instrument

import (
	"slices"

	"cbi/internal/interp"
	"cbi/internal/lang"
	"cbi/internal/report"
	"cbi/internal/sampling"
)

// Runtime implements the interpreter's observer interface.
var _ interp.Observer = (*Runtime)(nil)

// Runtime is the client-side instrumentation runtime: it receives raw
// events from the interpreter, applies site-level sampling, accumulates
// counters, and summarizes each run into a sparse feedback report
// (paper §2: "client-side summarization of the data").
//
// A Runtime is not safe for concurrent use; give each worker goroutine
// its own.
type Runtime struct {
	plan    *Plan
	sampler sampling.Sampler

	siteObs  []uint32
	predTrue []uint32
	// touched lists give O(touched) snapshot cost instead of
	// O(all predicates).
	touchedSites []int32
	touchedPreds []int32
}

// NewRuntime creates a runtime for the given plan and sampler.
func NewRuntime(plan *Plan, sampler sampling.Sampler) *Runtime {
	return &Runtime{
		plan:     plan,
		sampler:  sampler,
		siteObs:  make([]uint32, plan.NumSites()),
		predTrue: make([]uint32, plan.NumPreds()),
	}
}

// Plan returns the instrumentation plan.
func (rt *Runtime) Plan() *Plan { return rt.plan }

// BeginRun resets per-run counters and re-seeds the sampler.
func (rt *Runtime) BeginRun(seed int64) {
	for _, s := range rt.touchedSites {
		rt.siteObs[s] = 0
	}
	for _, p := range rt.touchedPreds {
		rt.predTrue[p] = 0
	}
	rt.touchedSites = rt.touchedSites[:0]
	rt.touchedPreds = rt.touchedPreds[:0]
	rt.sampler.Reset(seed)
}

func (rt *Runtime) observeSite(site int32) {
	if rt.siteObs[site] == 0 {
		rt.touchedSites = append(rt.touchedSites, site)
	}
	rt.siteObs[site]++
}

func (rt *Runtime) markTrue(pred int32) {
	if rt.predTrue[pred] == 0 {
		rt.touchedPreds = append(rt.touchedPreds, pred)
	}
	rt.predTrue[pred]++
}

// Branch implements interp.Observer.
func (rt *Runtime) Branch(id lang.NodeID, cond bool) {
	site := rt.plan.branchSite[id]
	if site < 0 || !rt.sampler.Sample(int(site)) {
		return
	}
	rt.observeSite(site)
	s := rt.plan.Sites[site]
	if cond {
		rt.markTrue(int32(s.FirstPred))
	} else {
		rt.markTrue(int32(s.FirstPred + 1))
	}
}

// IntReturn implements interp.Observer.
func (rt *Runtime) IntReturn(id lang.NodeID, val int64) {
	site := rt.plan.returnSite[id]
	if site < 0 || !rt.sampler.Sample(int(site)) {
		return
	}
	rt.observeSite(site)
	s := rt.plan.Sites[site]
	rt.markCmps(s, val, 0)
}

// markCmps records the six comparison predicates of site s for a vs b.
func (rt *Runtime) markCmps(s *Site, a, b int64) {
	for op := CmpLT; op <= CmpNE; op++ {
		if op.Eval(a, b) {
			rt.markTrue(int32(s.FirstPred + int(op)))
		}
	}
}

// ScalarAssign implements interp.Observer. The sampler skips the
// assignment's whole scalar-pairs group at once and stops at each
// sampled site; an unsampled assignment costs one group decision.
func (rt *Runtime) ScalarAssign(id lang.NodeID, newVal, oldVal int64, oldOK bool, read interp.SymReader) {
	sites := rt.plan.pairSites[id]
	for {
		i := rt.sampler.SampleGroup(sites)
		if i == len(sites) {
			return
		}
		site := sites[i]
		sites = sites[i+1:]
		s := rt.plan.Sites[site]
		var partner int64
		switch s.PairKind {
		case PairOld:
			if !oldOK {
				continue // the old value is not an integer; skip
			}
			partner = oldVal
		case PairVar:
			v, ok := read(s.Partner)
			if !ok {
				continue
			}
			partner = v
		case PairConst:
			partner = s.Const
		default:
			continue
		}
		rt.observeSite(site)
		rt.markCmps(s, newVal, partner)
	}
}

// PtrAssign implements interp.Observer: the nullness scheme.
func (rt *Runtime) PtrAssign(id lang.NodeID, isNull bool) {
	site := rt.plan.nullSite[id]
	if site < 0 || !rt.sampler.Sample(int(site)) {
		return
	}
	rt.observeSite(site)
	s := rt.plan.Sites[site]
	if isNull {
		rt.markTrue(int32(s.FirstPred))
	} else {
		rt.markTrue(int32(s.FirstPred + 1))
	}
}

// PtrDeref implements interp.Observer: the dereference half of the
// nullness scheme.
func (rt *Runtime) PtrDeref(id lang.NodeID, isNull bool) {
	site := rt.plan.derefSite[id]
	if site < 0 || !rt.sampler.Sample(int(site)) {
		return
	}
	rt.observeSite(site)
	s := rt.plan.Sites[site]
	if isNull {
		rt.markTrue(int32(s.FirstPred))
	} else {
		rt.markTrue(int32(s.FirstPred + 1))
	}
}

// Snapshot summarizes the counters accumulated since BeginRun into a
// feedback report with the given run label.
func (rt *Runtime) Snapshot(failed bool) *report.Report {
	rep := &report.Report{
		Failed:        failed,
		ObservedSites: make([]int32, len(rt.touchedSites)),
		TruePreds:     make([]int32, len(rt.touchedPreds)),
	}
	copy(rep.ObservedSites, rt.touchedSites)
	copy(rep.TruePreds, rt.touchedPreds)
	slices.Sort(rep.ObservedSites)
	slices.Sort(rep.TruePreds)
	return rep
}

// SiteObservedCount returns how many times the site was observed in the
// current run (for tests and rate training).
func (rt *Runtime) SiteObservedCount(site int) uint32 { return rt.siteObs[site] }

// TrueCount returns how many times the predicate was observed true in
// the current run.
func (rt *Runtime) TrueCount(pred int) uint32 { return rt.predTrue[pred] }
