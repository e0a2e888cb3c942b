package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"cbi/internal/shard"
)

// The read path is measured by a phase of the ingest workload's traced
// run: a second, small deployment where one closed-loop reader
// alternates the two predictors requests on the gateway beside an
// open-loop background ingest through the router, so every query pulls
// a non-empty delta. (As a workload of its own, its answer times spread
// beyond any bound across runs on a host whose CPU speed changes state;
// see README.md.)

// queryScale fixes the read phase's sizes.
type queryScale struct {
	runLog int     // per-shard window: small, so one eliminate query stays well under a second
	bgRate float64 // background ingest, reports/s, well below capacity
	warmup int     // warm-up queries per engine
}

func querySizes(o options) queryScale {
	if o.small {
		return queryScale{runLog: 128, bgRate: 320, warmup: 1}
	}
	return queryScale{runLog: 1024, bgRate: 800, warmup: 2}
}

// engines are the two predictors requests the reader alternates, with
// k and affinity always explicit (the gateway and the collector default
// affinity differently): the cbi predictors defaults.
var engines = []struct{ name, query string }{
	{"eliminate", "engine=eliminate&k=12&affinity=3"},
	{"ochiai", "engine=ochiai&k=12&affinity=3"},
}

type queryEnv struct {
	g  *gen
	t  *topo
	bg []*batch // background traffic for the timed phase
	tr *tracer
}

// setupQuery starts the read phase's deployment with its windows full
// and the gateway's views warm. The tracer captures every snapshot
// answer from the start, so the delta replay can rebuild the views.
func setupQuery(o options, sc queryScale, g *gen) (*queryEnv, error) {
	e := &queryEnv{g: g, tr: newTracer()}
	e.tr.capture.Store(true)
	warm, err := e.g.encodeBatches(stepBatches(sc.bgRate, 0.5))
	if err != nil {
		return nil, err
	}
	if e.bg, err = e.g.encodeBatches(stepBatches(sc.bgRate, o.seconds)); err != nil {
		return nil, err
	}
	e.t, err = startTopo(topoConfig{dir: o.workdir + "/read", runLog: sc.runLog, g: e.g, tr: e.tr})
	if err != nil {
		return nil, err
	}
	if err := prefill(e.g, e.t, sc.runLog+4*batchSize); err != nil {
		e.t.close()
		return nil, err
	}
	// Warm-up: the gateway's first pulls are full; later ones are deltas
	// against its warm views.
	ol := &openLoop{t: e.t, hc: newHTTPClient(1), conns: 1}
	ol.run(context.Background(), warm, rateInterval(sc.bgRate))
	hc := newHTTPClient(1)
	for i := 0; i < sc.warmup; i++ {
		for _, q := range engines {
			if _, err := get(context.Background(), hc, e.t.gwURL+"/v1/predictors?"+q.query); err != nil {
				e.t.close()
				return nil, err
			}
		}
	}
	if err := e.t.quiesce(30 * time.Second); err != nil {
		e.t.close()
		return nil, err
	}
	return e, nil
}

// queryPhase is the timed run of the reader beside the background
// ingest.
type queryPhase struct {
	lat      map[string][]float64 // ms per engine
	answers  int
	failed   int
	elapsed  time.Duration
	bg       *phase
	bgFailed int
}

func (e *queryEnv) runPhase(ctx context.Context, bg []*batch, rate float64) *queryPhase {
	qp := &queryPhase{lat: map[string][]float64{}}
	ol := &openLoop{t: e.t, hc: newHTTPClient(1), conns: 1}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		qp.bg = ol.run(ctx, bg, rateInterval(rate))
		close(done)
	}()
	hc := newHTTPClient(1)
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-done:
			qp.elapsed = time.Since(start)
			wg.Wait()
			qp.bgFailed = len(qp.bg.res) - okCount(qp.bg.res)
			return qp
		default:
		}
		q := engines[i%len(engines)]
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.t.gwURL+"/v1/predictors?"+q.query, nil)
		if err != nil {
			qp.failed++
			continue
		}
		req.Header.Set(queryHeader, "q"+strconv.Itoa(i))
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			qp.failed++
			continue
		}
		_, rerr := readAll(resp)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			qp.failed++
			continue
		}
		qp.lat[q.name] = append(qp.lat[q.name], time.Since(t0).Seconds()*1e3)
		qp.answers++
	}
}

// readPhase runs the read path traced and reports its per-layer
// metrics: snapshot serving, delta pull and apply, the gateway's self
// time, scoring on the union window, and the answer times.
func readPhase(o options, res *result, g *gen) error {
	sc := querySizes(o)
	e, err := setupQuery(o, sc, g)
	if err != nil {
		return err
	}
	defer e.t.close()
	if err := steadyGuard(e.t, sc.runLog); err != nil {
		return err
	}
	ctx := context.Background()
	e.tr.on.Store(true)
	qp := e.runPhase(ctx, e.bg, sc.bgRate)
	if err := e.t.quiesce(30 * time.Second); err != nil {
		return err
	}
	e.tr.on.Store(false)
	e.tr.capture.Store(false)
	if err := checkWarmEqualsCold(ctx, e); err != nil {
		return err
	}
	res.attempted += int64(qp.answers+qp.failed) + int64(len(qp.bg.res))
	res.failed += int64(qp.failed + qp.bgFailed)
	for _, q := range engines {
		xs := qp.lat[q.name]
		if len(xs) == 0 {
			return fmt.Errorf("no %s answers in %v", q.name, qp.elapsed)
		}
		res.set("predictors_p50_ms."+q.name, quantile(xs, 0.5), len(xs))
		res.set("predictors_p90_ms."+q.name, quantile(xs, 0.9), len(xs))
	}
	res.prop("read phase", "%d shards x %d runs, %.0f reports/s background ingest, reader alternating %s and %s",
		numShards, sc.runLog, sc.bgRate, engines[0].query, engines[1].query)

	var buf bytes.Buffer
	e.t.gw.Metrics().WritePrometheus(&buf)
	deltas := promValue(buf.Bytes(), "cbi_gateway_delta_pulls_total")
	fulls := promValue(buf.Bytes(), "cbi_gateway_full_pulls_total")
	res.set("shard.delta_pull_ratio", deltas/(deltas+fulls), int(deltas+fulls))
	if err := writeSpans(o, e.tr, "read"); err != nil {
		return err
	}
	setReadSpanMetrics(res, e.tr.stats())
	urls := map[string]int{}
	for i, u := range e.t.shardURLs {
		urls[u[len("http://"):]] = i
	}
	return replayRead(res, e.g, e.tr.captures, urls)
}

// checkWarmEqualsCold compares the warm gateway's predictors answers
// with a cold gateway's (full fetches, no delta sync) over the same
// quiesced shards: delta sync must be invisible.
func checkWarmEqualsCold(ctx context.Context, e *queryEnv) error {
	cold, err := shard.NewGateway(shard.GatewayConfig{
		Shards:           e.t.shardURLs,
		NumSites:         e.g.numSites(),
		NumPreds:         e.g.numPreds(),
		SiteOf:           e.g.siteOf,
		Fingerprint:      e.g.fingerprint(),
		DisableDeltaSync: true,
		Logf:             discard,
	})
	if err != nil {
		return err
	}
	defer cold.Close()
	hc := newHTTPClient(1)
	for _, q := range engines {
		warm, err := get(ctx, hc, e.t.gwURL+"/v1/predictors?"+q.query)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		cold.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/predictors?"+q.query, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("cold gateway answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(warm, rec.Body.Bytes()) {
			return failCheck("query-warm-equals-cold", "%s: warm gateway answered %d bytes, cold %d, and they differ", q.name, len(warm), rec.Body.Len())
		}
	}
	return nil
}
