package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"cbi/internal/harness"
	"cbi/internal/instrument"
	"cbi/internal/report"
	"cbi/internal/subjects"
)

// batchSize is the number of reports in one generated batch, the
// collector client's default flush threshold.
const batchSize = 64

// gen derives every input the benchmark sends from one seed: a base
// pool of real MOSS runs under uniform 1/100 sampling, and an endless
// stream of well-formed perturbations of them.
type gen struct {
	plan    *instrument.Plan
	siteOf  []int32
	pool    []*report.Report
	rng     *rand.Rand
	seed    int64
	batches int // batches made so far; numbers the batch ids
}

// newGen runs poolRuns instrumented MOSS runs (seeded by seed) and
// returns a generator over them.
func newGen(seed int64, poolRuns int) *gen {
	res := harness.Run(harness.Config{
		Subject:  subjects.Moss(),
		Runs:     poolRuns,
		Mode:     harness.SampleUniform,
		SeedBase: seed * 1_000_003,
		Workers:  2,
	})
	siteOf := make([]int32, res.Plan.NumPreds())
	for i, p := range res.Plan.Preds {
		siteOf[i] = int32(p.Site)
	}
	return &gen{
		plan:   res.Plan,
		siteOf: siteOf,
		pool:   res.Set.Reports,
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
}

func (g *gen) numSites() int       { return g.plan.NumSites() }
func (g *gen) numPreds() int       { return g.plan.NumPreds() }
func (g *gen) fingerprint() uint64 { return g.plan.Fingerprint() }

// toggles is how many sites a perturbation flips between observed and
// unobserved.
const toggles = 3

// report returns a fresh report derived from a random pool report:
// toggles sites flip between observed and unobserved, and their
// predicates follow — a dropped site loses its true predicates, an
// added site gains a consistent set (one branch direction, or the three
// comparisons one ordering makes true). Ids stay ascending and in range,
// so the result decodes like a real client's report.
func (g *gen) report() *report.Report {
	out := &report.Report{}
	g.reportInto(out)
	return out
}

// reportInto is report writing into out, reusing its slices.
func (g *gen) reportInto(out *report.Report) {
	base := g.pool[g.rng.Intn(len(g.pool))]
	flip := make([]int32, 0, toggles)
	for len(flip) < toggles {
		s := int32(g.rng.Intn(g.numSites()))
		if !contains(flip, s) {
			flip = append(flip, s)
		}
	}
	sort.Slice(flip, func(i, j int) bool { return flip[i] < flip[j] })

	out.Failed = base.Failed
	out.ObservedSites = out.ObservedSites[:0]
	out.TruePreds = out.TruePreds[:0]
	// added collects the predicates of newly observed sites.
	var added []int32
	var dropped []int32
	i, j := 0, 0
	for i < len(base.ObservedSites) || j < len(flip) {
		switch {
		case j == len(flip) || (i < len(base.ObservedSites) && base.ObservedSites[i] < flip[j]):
			out.ObservedSites = append(out.ObservedSites, base.ObservedSites[i])
			i++
		case i == len(base.ObservedSites) || flip[j] < base.ObservedSites[i]:
			out.ObservedSites = append(out.ObservedSites, flip[j])
			added = append(added, g.truePreds(flip[j])...)
			j++
		default: // observed in the base: drop it
			dropped = append(dropped, flip[j])
			i++
			j++
		}
	}
	sort.Slice(added, func(a, b int) bool { return added[a] < added[b] })
	a := 0
	for _, p := range base.TruePreds {
		for a < len(added) && added[a] < p {
			out.TruePreds = append(out.TruePreds, added[a])
			a++
		}
		if len(dropped) == 0 || !contains(dropped, g.siteOf[p]) {
			out.TruePreds = append(out.TruePreds, p)
		}
	}
	out.TruePreds = append(out.TruePreds, added[a:]...)
}

// fork returns a generator over the same pool with its own random
// stream, for generating in parallel.
func (g *gen) fork(stream int64) *gen {
	f := *g
	f.rng = rand.New(rand.NewSource(g.seed*7919 + stream))
	f.batches = 0
	return &f
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Comparison outcomes over the six predicates <, <=, >, >=, ==, != (the
// instrument package's order): which are true when the left side is
// less than, equal to, or greater than the right.
var cmpOutcomes = [3][3]int32{{0, 1, 5}, {1, 3, 4}, {2, 3, 5}}

// truePreds returns a consistent set of true predicates for one
// observation of site s.
func (g *gen) truePreds(s int32) []int32 {
	site := g.plan.Sites[s]
	first := int32(site.FirstPred)
	if site.NumPreds == 6 {
		o := cmpOutcomes[g.rng.Intn(3)]
		return []int32{first + o[0], first + o[1], first + o[2]}
	}
	return []int32{first + int32(g.rng.Intn(site.NumPreds))}
}

// batch is one pre-encoded POST /v1/reports body with its identity.
type batch struct {
	id       string // X-CBI-Batch-ID
	clientID string // X-CBI-Client-ID: the routing key
	body     []byte // gzip "CBR1" binary batch
	rawBytes int    // uncompressed encoded size
}

// encodeBatches builds the next n batches. Reports are generated in
// order from the seeded stream; encoding runs on two goroutines.
func (g *gen) encodeBatches(n int) ([]*batch, error) {
	out := make([]*batch, n)
	errs := make([]error, n)
	type job struct {
		i   int
		set *report.Set
	}
	jobs := make(chan job, 4) // a few sets ahead of the encoders
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i], errs[j.i] = encodeBatch(j.set)
			}
		}()
	}
	ids := make([][2]string, n)
	for i := 0; i < n; i++ {
		set := &report.Set{NumSites: g.numSites(), NumPreds: g.numPreds(), Reports: make([]*report.Report, batchSize)}
		for k := range set.Reports {
			set.Reports[k] = g.report()
		}
		ids[i] = [2]string{fmt.Sprintf("bench-%d-%d", g.seed, g.batches), fmt.Sprintf("client-%016x", g.rng.Uint64())}
		g.batches++
		jobs <- job{i, set}
	}
	close(jobs)
	wg.Wait()
	for i, b := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		b.id, b.clientID = ids[i][0], ids[i][1]
	}
	return out, nil
}

// meanSites and meanPreds are the pool's mean observed sites and true
// predicates per report.
func (g *gen) meanSites() float64 {
	n := 0
	for _, r := range g.pool {
		n += len(r.ObservedSites)
	}
	return float64(n) / float64(len(g.pool))
}

func (g *gen) meanPreds() float64 {
	n := 0
	for _, r := range g.pool {
		n += len(r.TruePreds)
	}
	return float64(n) / float64(len(g.pool))
}

// encodeBatch gzips a set's binary encoding at the default level, as
// collector.Client does.
func encodeBatch(set *report.Set) (*batch, error) {
	var raw bytes.Buffer
	if err := set.MarshalBinary(&raw); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return &batch{body: buf.Bytes(), rawBytes: raw.Len()}, nil
}
