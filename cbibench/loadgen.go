package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// newHTTPClient returns a client limited to conns connections per host:
// the generator never holds more connections than the machine has
// cores.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// sent is the outcome of one scheduled batch.
type sent struct {
	late  time.Duration // actual send start minus scheduled time
	ack   time.Duration // scheduled time until the 202 (0 if failed)
	fresh time.Duration // scheduled time until the shard applied it
	shard int
	ok    bool
}

// openLoop sends batches on a fixed schedule — one every interval from
// start — through the router, from conns concurrent connections. Each
// batch is timed from its scheduled send time, so a stall delays the
// batches behind it and shows in their latency. Freshness is measured
// by polling the owning shard's applied count (StatsNow) until it
// covers the batch.
type openLoop struct {
	t     *topo
	hc    *http.Client
	conns int
}

// phase is one open-loop run's results plus the backlog samples taken
// while it ran.
type phase struct {
	res      []sent
	backlog  []int64
	reports  int64 // reports acked
	queueMax int   // deepest router backend queue seen
	applyMax int64
}

func (ol *openLoop) run(ctx context.Context, batches []*batch, interval time.Duration) *phase {
	ph := &phase{res: make([]sent, len(batches))}
	base := ol.t.applied()
	fr := newFreshness(ol.t, base)
	pollDone := make(chan struct{})
	stopPoll := make(chan struct{})
	go func() {
		defer close(pollDone)
		fr.poll(stopPoll, ph)
	}()

	type item struct {
		i     int
		sched time.Time
	}
	work := make(chan item, len(batches)) // sized to the sends: the scheduler never blocks
	var wg sync.WaitGroup
	for c := 0; c < ol.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				start := time.Now()
				r := &ph.res[it.i]
				r.late = start.Sub(it.sched)
				shard, err := ol.post(ctx, batches[it.i])
				if err != nil {
					continue
				}
				r.ack = time.Since(it.sched)
				r.shard = shard
				r.ok = true
				fr.acked(it.i, it.sched, shard, batchSize)
			}
		}()
	}
	start := time.Now()
	for i := range batches {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		work <- item{i, sched}
	}
	close(work)
	wg.Wait()
	close(stopPoll)
	<-pollDone
	fr.fill(ph.res)
	for _, r := range ph.res {
		if r.ok {
			ph.reports += batchSize
		}
	}
	return ph
}

// post sends one batch to the router and returns the shard it was
// routed to.
func (ol *openLoop) post(ctx context.Context, b *batch) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ol.t.routerURL+"/v1/reports", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-cbi-reports")
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set("X-CBI-Batch-ID", b.id)
	req.Header.Set("X-CBI-Client-ID", b.clientID)
	resp, err := ol.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := readAll(resp)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("router answered %d: %.200s", resp.StatusCode, body)
	}
	// {"routed_to":N}
	const key = `"routed_to":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("router ack without routed_to: %.200s", body)
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return strconv.Atoi(string(body[j:k]))
}

// freshness tracks, per shard, the acked batches not yet applied. A
// batch counts as applied once its shard's applied-report count reaches
// the shard's acked reports up to and including that batch.
type freshness struct {
	t       *topo
	mu      sync.Mutex
	target  []int64 // per shard: base + reports acked so far
	pending [][]pend
	fresh   map[int]time.Duration
}

type pend struct {
	i      int
	sched  time.Time
	target int64
}

func newFreshness(t *topo, base []int64) *freshness {
	return &freshness{
		t:       t,
		target:  append([]int64(nil), base...),
		pending: make([][]pend, len(base)),
		fresh:   map[int]time.Duration{},
	}
}

func (f *freshness) acked(i int, sched time.Time, shard, n int) {
	f.mu.Lock()
	f.target[shard] += int64(n)
	f.pending[shard] = append(f.pending[shard], pend{i, sched, f.target[shard]})
	f.mu.Unlock()
}

// poll resolves pending batches every millisecond until stop closes and
// nothing is pending (or 30s pass), and samples the backlog every
// 100ms.
func (f *freshness) poll(stop <-chan struct{}, ph *phase) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	stopped := false
	var giveUp time.Time
	lastSample := time.Time{}
	for {
		select {
		case <-stop:
			stopped = true
			giveUp = time.Now().Add(30 * time.Second)
			stop = nil
		case now := <-tick.C:
			if !stopped && now.Sub(lastSample) >= 100*time.Millisecond {
				lastSample = now
				ph.backlog = append(ph.backlog, f.t.backlog())
				for _, b := range f.t.router.StatsNow().Backends {
					ph.queueMax = max(ph.queueMax, b.QueueDepth)
				}
				for _, s := range f.t.shards {
					st := s.StatsNow()
					ph.applyMax = max(ph.applyMax, st.ReportsEnqueued-st.ReportsApplied)
				}
			}
			if f.resolve() == 0 && stopped {
				return
			}
			if stopped && now.After(giveUp) {
				return
			}
		}
	}
}

// resolve marks every pending batch its shard has applied and returns
// how many remain pending.
func (f *freshness) resolve() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	left := 0
	for s, p := range f.pending {
		if len(p) == 0 {
			continue
		}
		applied := f.t.shards[s].StatsNow().ReportsApplied
		// Read the clock after the count: a tick's own timestamp can
		// predate batches acked while the poller was busy.
		now := time.Now()
		k := 0
		for k < len(p) && p[k].target <= applied {
			f.fresh[p[k].i] = now.Sub(p[k].sched)
			k++
		}
		f.pending[s] = p[k:]
		left += len(p) - k
	}
	return left
}

func (f *freshness) fill(res []sent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, d := range f.fresh {
		res[i].fresh = d
	}
}
