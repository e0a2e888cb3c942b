// Package sampling implements the sparse random sampling strategies used
// by the Cooperative Bug Isolation instrumentation.
//
// The paper (§2) requires statistically fair sampling "equivalent to a
// Bernoulli process": each opportunity to observe an instrumentation
// site is taken or skipped randomly and independently. Simulating a coin
// flip per opportunity is slow, so — like the real CBI system — samplers
// here draw geometrically distributed countdowns: the number of skipped
// opportunities between samples of a Bernoulli(p) process is geometric,
// so counting down and sampling when the counter hits zero is exactly
// equivalent to independent coin flips. Property tests in this package
// verify the equivalence empirically.
//
// The countdown also makes unsampled stretches cheap, as in the paper's
// lineage (Liblit et al., PLDI'03): an assignment reaches all of its
// scalar-pairs sites at once, and SampleGroup decides the whole group
// with one countdown check when none of it is sampled. It consumes the
// same decision stream as calling Sample once per site in order, so a
// run's reports do not depend on which method the runtime calls.
//
// Two rate policies are provided:
//
//   - Uniform: a single rate (the paper's default 1/100) shared by all
//     sites, with one global countdown.
//   - Nonuniform: per-site rates (paper §4), set inversely proportional
//     to each site's expected execution frequency so every site expects
//     ~TargetSamples observations per run, clamped to [MinRate, 1].
package sampling

import "math"

// Sampler decides, opportunity by opportunity, whether instrumentation
// sites are observed.
type Sampler interface {
	// Sample reports whether the current reach of the given site should
	// be observed. Sites are identified by dense indices.
	Sample(site int) bool
	// SampleGroup consumes the opportunities of the given sites, in
	// order, up to and including the first one sampled, and returns
	// that site's index in sites, or len(sites) when none is sampled.
	// Its decisions and the sampler's state afterwards equal those of
	// calling Sample for each consumed site.
	SampleGroup(sites []int32) int
	// Reset re-seeds the sampler for a new run. Runs with equal seeds
	// make identical decisions.
	Reset(seed int64)
}

// Always samples every opportunity (the paper's "no sampling at all"
// validation configuration).
type Always struct{}

// Sample always returns true.
func (Always) Sample(int) bool { return true }

// SampleGroup samples the first site, or returns 0 for an empty group.
func (Always) SampleGroup([]int32) int { return 0 }

// Reset is a no-op.
func (Always) Reset(int64) {}

// Never samples nothing; useful to measure instrumentation overhead.
type Never struct{}

// Sample always returns false.
func (Never) Sample(int) bool { return false }

// SampleGroup skips every site.
func (Never) SampleGroup(sites []int32) int { return len(sites) }

// Reset is a no-op.
func (Never) Reset(int64) {}

// Uniform samples every site at the same rate using one global
// geometric countdown over all observation opportunities.
type Uniform struct {
	rate      float64
	rng       splitmix
	countdown int64
}

// NewUniform returns a sampler with the given rate in (0, 1].
func NewUniform(rate float64) *Uniform {
	if rate <= 0 || rate > 1 {
		panic("sampling: rate must be in (0, 1]")
	}
	u := &Uniform{rate: rate}
	u.Reset(1)
	return u
}

// Rate returns the sampling rate.
func (u *Uniform) Rate() float64 { return u.rate }

// Reset re-seeds the countdown stream.
func (u *Uniform) Reset(seed int64) {
	u.rng = splitmix{state: uint64(seed) ^ 0xa0761d6478bd642f}
	u.countdown = nextGeometric(&u.rng, u.rate)
}

// Sample implements Sampler.
func (u *Uniform) Sample(int) bool {
	u.countdown--
	if u.countdown > 0 {
		return false
	}
	u.countdown = nextGeometric(&u.rng, u.rate)
	return true
}

// SampleGroup implements Sampler with one compare-and-subtract when the
// countdown outlasts the group: the countdown-th opportunity from now
// is the next one sampled.
func (u *Uniform) SampleGroup(sites []int32) int {
	if u.countdown > int64(len(sites)) {
		u.countdown -= int64(len(sites))
		return len(sites)
	}
	i := int(u.countdown - 1)
	u.countdown = nextGeometric(&u.rng, u.rate)
	return i
}

// Nonuniform samples each site at its own rate with per-site countdowns.
type Nonuniform struct {
	rates      []float64
	rng        splitmix
	countdowns []int64
}

// NewNonuniform returns a sampler with the given per-site rates. Each
// rate must be in (0, 1].
func NewNonuniform(rates []float64) *Nonuniform {
	for i, r := range rates {
		if r <= 0 || r > 1 {
			panic("sampling: site rate out of range at " + itoa(i))
		}
	}
	n := &Nonuniform{rates: rates, countdowns: make([]int64, len(rates))}
	n.Reset(1)
	return n
}

// Rates returns the per-site rates (shared slice; do not modify).
func (n *Nonuniform) Rates() []float64 { return n.rates }

// SetRates replaces the per-site rates (copying the slice) and re-draws
// every countdown from the sampler's current PRNG state so the new
// rates take effect immediately; a subsequent Reset re-derives the
// countdowns deterministically from the new rates as usual. The rate
// vector's length must match and each rate must be in (0, 1].
func (n *Nonuniform) SetRates(rates []float64) {
	if len(rates) != len(n.rates) {
		panic("sampling: SetRates length mismatch: " + itoa(len(rates)) + " != " + itoa(len(n.rates)))
	}
	for i, r := range rates {
		if r <= 0 || r > 1 {
			panic("sampling: site rate out of range at " + itoa(i))
		}
	}
	n.rates = append([]float64(nil), rates...)
	for i, r := range n.rates {
		n.countdowns[i] = nextGeometric(&n.rng, r)
	}
}

// Reset re-seeds all countdowns.
func (n *Nonuniform) Reset(seed int64) {
	n.rng = splitmix{state: uint64(seed) ^ 0xe7037ed1a0b428db}
	for i, r := range n.rates {
		n.countdowns[i] = nextGeometric(&n.rng, r)
	}
}

// Sample implements Sampler.
func (n *Nonuniform) Sample(site int) bool {
	n.countdowns[site]--
	if n.countdowns[site] > 0 {
		return false
	}
	n.countdowns[site] = nextGeometric(&n.rng, n.rates[site])
	return true
}

// SampleGroup implements Sampler by counting down each site's own
// countdown in order.
func (n *Nonuniform) SampleGroup(sites []int32) int {
	for i, site := range sites {
		if n.Sample(int(site)) {
			return i
		}
	}
	return len(sites)
}

// PlanRates converts per-site expected reach counts (from a training
// set, paper §4: "Based on a training set of 1,000 executions") into
// per-site sampling rates targeting ~target samples per run:
//
//	rate = clamp(target / expectedReaches, minRate, 1)
//
// Sites never reached in training get rate 1 (they are rare by
// definition; the paper sets the rate to 1.0 when a site is expected to
// be reached fewer than target times).
func PlanRates(expectedReaches []float64, target float64, minRate float64) []float64 {
	rates := make([]float64, len(expectedReaches))
	for i, e := range expectedReaches {
		switch {
		case e <= target:
			rates[i] = 1
		default:
			r := target / e
			if r < minRate {
				r = minRate
			}
			rates[i] = r
		}
	}
	return rates
}

// SaturationFraction is the observed-run fraction above which a site's
// reach count is treated as unidentifiable from run-level membership
// counts: once nearly every retained run observes a site, the
// observation probability 1-(1-rate)^reaches carries no usable gradient
// (it is ~1 whether the site is reached 300 or 300,000 times per run).
const SaturationFraction = 0.95

// EstimateReaches inverts live aggregate observation counts into
// per-site expected reach counts, the input sampling.PlanRates wants.
//
// Under sampling at rate r, a run reaching a site k times observes it
// with probability f = 1-(1-r)^k, so from the observed-run fraction f
// the reach count is est = log(1-f)/log(1-r). At rate 1 observation
// equals reach, and for sites reached at most a handful of times per
// run (the only ones identifiable at rate 1) the observed fraction is
// ~1-e^-k, inverted as est = -log(1-f).
//
// identified[i] reports whether est[i] is trustworthy: false when the
// site is saturated (f >= SaturationFraction), where est is only a
// lower bound and callers should hold the site's current rate rather
// than plan from it. The observed fraction is capped below 1 at
// 1 - 1/(2*runs) so a site observed in every run still inverts to a
// finite bound.
//
// Panics if the slice lengths differ or a rate is outside (0, 1],
// matching this package's other input contracts.
func EstimateReaches(observed []int64, runs int64, rates []float64) (est []float64, identified []bool) {
	if len(observed) != len(rates) {
		panic("sampling: EstimateReaches length mismatch: " + itoa(len(observed)) + " != " + itoa(len(rates)))
	}
	est = make([]float64, len(rates))
	identified = make([]bool, len(rates))
	if runs <= 0 {
		return est, identified
	}
	fCap := 1 - 1/(2*float64(runs))
	for i, r := range rates {
		if r <= 0 || r > 1 {
			panic("sampling: site rate out of range at " + itoa(i))
		}
		f := float64(observed[i]) / float64(runs)
		if f <= 0 {
			identified[i] = true
			continue
		}
		sat := f >= SaturationFraction
		if f > fCap {
			f = fCap
		}
		if r >= 1 {
			est[i] = -math.Log(1 - f)
		} else {
			est[i] = math.Log(1-f) / math.Log(1-r)
		}
		identified[i] = !sat
	}
	return est, identified
}

// DefaultRate is the paper's default uniform sampling rate.
const DefaultRate = 1.0 / 100

// DefaultTargetSamples is the expected per-run sample count targeted by
// nonuniform rate planning (paper §4).
const DefaultTargetSamples = 100.0

// splitmix is a tiny deterministic PRNG (splitmix64).
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitmix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// nextGeometric draws the 1-based index of the next success in a
// Bernoulli(p) process: Geometric(p) on {1, 2, ...}.
func nextGeometric(rng *splitmix, p float64) int64 {
	if p >= 1 {
		return 1
	}
	u := rng.float64()
	for u == 0 {
		u = rng.float64()
	}
	g := int64(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if g < 1 {
		g = 1
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [24]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		buf[pos] = '-'
	}
	return string(buf[pos:])
}
