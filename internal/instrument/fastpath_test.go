package instrument

import (
	"hash/fnv"
	"testing"

	"cbi/internal/interp"
	"cbi/internal/report"
	"cbi/internal/sampling"
	"cbi/internal/subjects"
	"cbi/internal/vm"
)

// identityRuns is how many MOSS runs each pinned report hash covers.
const identityRuns = 60

// mixedRates cycles the sites through four rates, so a Nonuniform
// sampler mixes always-sampled sites with sparse ones inside one
// assignment's site group.
func mixedRates(n int) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = []float64{1, 0.5, 0.05, 0.01}[i%4]
	}
	return rates
}

// reportHash runs identityRuns MOSS inputs under one runtime and hashes
// the encoded feedback reports in run order.
func reportHash(plan *Plan, s sampling.Sampler) uint64 {
	subj := subjects.Moss()
	rt := NewRuntime(plan, s)
	in := interp.New(plan.Prog, rt)
	h := fnv.New64a()
	var buf []byte
	for i := int64(0); i < identityRuns; i++ {
		rt.BeginRun(i + 1)
		out := in.Run(subj.Input(i))
		buf = report.AppendRecord(buf[:0], rt.Snapshot(out.Crashed))
		h.Write(buf)
	}
	return h.Sum64()
}

// TestReportIdentityPinned pins the encoded reports of MOSS runs under
// each sampler to hashes recorded with the per-site sampling loop, the
// decision stream every sampler must reproduce. Consuming one
// opportunity too many or too few anywhere in an assignment's site
// group shifts every later decision and changes the hash.
func TestReportIdentityPinned(t *testing.T) {
	plan := BuildPlan(subjects.Moss().Program(true))
	cases := []struct {
		name    string
		sampler sampling.Sampler
		want    uint64
	}{
		{"always", sampling.Always{}, 0x26dae818c668c302},
		{"never", sampling.Never{}, 0x4469036f2fe58c09},
		{"uniform-1pct", sampling.NewUniform(0.01), 0x6e146310bd087987},
		{"uniform-50pct", sampling.NewUniform(0.5), 0xb86b3f0b492b3828},
		{"nonuniform-mixed", sampling.NewNonuniform(mixedRates(plan.NumSites())), 0x852aea5488c4ccbb},
	}
	for _, c := range cases {
		if got := reportHash(plan, c.sampler); got != c.want {
			t.Errorf("%s: report hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// unsampledAllowance is the fixed per-run allocation budget of an
// instrumented run over an uninstrumented one under sampling.Never:
// Snapshot's report and its two (empty) id slices. BeginRun allocates
// nothing.
const unsampledAllowance = 3

// TestUnsampledEventsDoNotAllocate pins the rule that an unsampled
// instrumentation event costs no allocation, on both execution engines:
// a MOSS run under sampling.Never allocates what the uninstrumented run
// on the same input does, plus unsampledAllowance for BeginRun and
// Snapshot.
func TestUnsampledEventsDoNotAllocate(t *testing.T) {
	subj := subjects.Moss()
	prog := subj.Program(true)
	rt := NewRuntime(BuildPlan(prog), sampling.Never{})
	mod := vm.MustCompile(prog)
	type engine interface {
		Run(interp.Input) *interp.Outcome
	}
	engines := []struct {
		name         string
		plain, instr engine
	}{
		{"tree", interp.New(prog, nil), interp.New(prog, rt)},
		{"vm", vm.New(mod, nil), vm.New(mod, rt)},
	}
	for _, e := range engines {
		for _, idx := range []int64{0, 7, 42} {
			input := subj.Input(idx)
			base := testing.AllocsPerRun(20, func() { e.plain.Run(input) })
			got := testing.AllocsPerRun(20, func() {
				rt.BeginRun(1)
				out := e.instr.Run(input)
				rt.Snapshot(out.Crashed)
			})
			if got > base+unsampledAllowance {
				t.Errorf("%s, input %d: instrumented run under Never allocates %.0f, uninstrumented %.0f (allowance %d)",
					e.name, idx, got, base, unsampledAllowance)
			}
		}
	}
}
