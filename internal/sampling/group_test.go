package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sameState reports whether two samplers of one type hold identical
// decision state: the same future stream of decisions.
func sameState(a, b Sampler) bool {
	switch a := a.(type) {
	case *Uniform:
		return *a == *b.(*Uniform)
	case *Nonuniform:
		b := b.(*Nonuniform)
		return a.rng == b.rng && slices.Equal(a.countdowns, b.countdowns) && slices.Equal(a.rates, b.rates)
	default:
		return a == b
	}
}

// checkGroupMatchesSample drives s through SampleGroup and its twin
// through per-site Sample calls over random groups (lengths 0 to 40,
// site ids below numSites), requiring the same decision and the same
// state after every call.
func checkGroupMatchesSample(t *testing.T, name string, s, twin Sampler, numSites int, rng *rand.Rand) {
	t.Helper()
	for call := 0; call < 4000; call++ {
		sites := make([]int32, rng.Intn(41))
		for i := range sites {
			sites[i] = int32(rng.Intn(numSites))
		}
		got := s.SampleGroup(sites)
		want := len(sites)
		for i, site := range sites {
			if twin.Sample(int(site)) {
				want = i
				break
			}
		}
		if got != want {
			t.Fatalf("%s: call %d, group %v: SampleGroup = %d, per-site Sample = %d", name, call, sites, got, want)
		}
		if !sameState(s, twin) {
			t.Fatalf("%s: call %d, group %v: state diverged from per-site Sample", name, call, sites)
		}
	}
}

// TestSampleGroupMatchesPerSiteSample is the equivalence property of
// the group skip: for every sampler, SampleGroup makes the decisions
// per-site Sample calls make on a twin, and leaves the same state.
func TestSampleGroupMatchesPerSiteSample(t *testing.T) {
	const numSites = 64
	rng := rand.New(rand.NewSource(1))

	checkGroupMatchesSample(t, "always", Always{}, Always{}, numSites, rng)
	checkGroupMatchesSample(t, "never", Never{}, Never{}, numSites, rng)

	for _, rate := range []float64{1, 0.5, 0.01, 0.001} {
		s, twin := NewUniform(rate), NewUniform(rate)
		s.Reset(int64(rate * 1e6))
		twin.Reset(int64(rate * 1e6))
		checkGroupMatchesSample(t, fmt.Sprintf("uniform-%v", rate), s, twin, numSites, rng)
	}

	rates := make([]float64, numSites)
	for i := range rates {
		rates[i] = []float64{1, 0.5, 0.1, 0.01, 0.001}[rng.Intn(5)]
	}
	s, twin := NewNonuniform(rates), NewNonuniform(rates)
	s.Reset(9)
	twin.Reset(9)
	checkGroupMatchesSample(t, "nonuniform", s, twin, numSites, rng)

	slices.Reverse(rates)
	s.SetRates(rates)
	twin.SetRates(rates)
	checkGroupMatchesSample(t, "nonuniform after SetRates", s, twin, numSites, rng)
}
