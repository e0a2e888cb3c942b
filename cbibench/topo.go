package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cbi/internal/collector"
	"cbi/internal/shard"
)

// numShards is the size of the collector ring the benchmark drives.
const numShards = 3

// topoConfig sizes one in-process deployment.
type topoConfig struct {
	dir    string // WAL and checkpoint files
	runLog int    // per-shard RunLogSize
	g      *gen   // dimensions and plan fingerprint
	tr     *tracer
}

// topo is the production topology on loopback listeners: numShards
// collectors with the WAL on, a router in front of them and a gateway
// over them, each behind its own http.Server.
type topo struct {
	shards    []*collector.Server
	shardURLs []string
	router    *shard.Router
	routerURL string
	gw        *shard.Gateway
	gwURL     string
	servers   []*http.Server
	done      chan error // one Serve result per server
	dir       string
}

func discard(string, ...any) {}

func startTopo(cfg topoConfig) (*topo, error) {
	t := &topo{done: make(chan error, numShards+2), dir: cfg.dir}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < numShards; i++ {
		srv, err := collector.New(collector.Config{
			NumSites:     cfg.g.numSites(),
			NumPreds:     cfg.g.numPreds(),
			SiteOf:       cfg.g.siteOf,
			Fingerprint:  cfg.g.fingerprint(),
			RunLogSize:   cfg.runLog,
			SnapshotPath: filepath.Join(cfg.dir, "shard"+strconv.Itoa(i)+".ckpt"),
			WALPath:      filepath.Join(cfg.dir, "shard"+strconv.Itoa(i)+".wal"),
			// No checkpoint runs in a benchmark run, so every run has the
			// same checkpoints: none. A checkpoint of a full 65,536-run
			// window gzips about 128 MB at the default level, which takes
			// longer than a whole run on a 2-vCPU machine.
			CheckpointEvery: 24 * time.Hour,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		t.shards = append(t.shards, srv)
		u, err := t.serve(cfg.tr.wrap("collector", srv.Handler()))
		if err != nil {
			return nil, err
		}
		t.shardURLs = append(t.shardURLs, u)
	}
	r, err := shard.NewRouter(shard.RouterConfig{Backends: t.shardURLs, Logf: discard})
	if err != nil {
		return nil, err
	}
	t.router = r
	if t.routerURL, err = t.serve(cfg.tr.wrap("router", r.Handler())); err != nil {
		return nil, err
	}
	gw, err := shard.NewGateway(shard.GatewayConfig{
		Shards:      t.shardURLs,
		NumSites:    cfg.g.numSites(),
		NumPreds:    cfg.g.numPreds(),
		SiteOf:      cfg.g.siteOf,
		Fingerprint: cfg.g.fingerprint(),
		Logf:        discard,
	})
	if err != nil {
		return nil, err
	}
	t.gw = gw
	if t.gwURL, err = t.serve(cfg.tr.wrap("gateway", gw.Handler())); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// serve mounts h on a fresh loopback listener and returns its base URL.
func (t *topo) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	t.servers = append(t.servers, hs)
	go func() { t.done <- hs.Serve(l) }()
	return "http://" + l.Addr().String(), nil
}

// close stops every server and component, waits for them, and removes
// their files.
func (t *topo) close() {
	for _, hs := range t.servers {
		hs.Close()
	}
	for range t.servers {
		if err := <-t.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cbibench: serve:", err)
		}
	}
	t.servers = nil
	if t.gw != nil {
		t.gw.Close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, s := range t.shards {
		s.Close()
	}
	if err := os.RemoveAll(t.dir); err != nil {
		fmt.Fprintln(os.Stderr, "cbibench:", err)
	}
}

// applied returns the reports each shard has applied.
func (t *topo) applied() []int64 {
	out := make([]int64, len(t.shards))
	for i, s := range t.shards {
		out[i] = s.StatsNow().ReportsApplied
	}
	return out
}

// backlog is the write path's outstanding work: router queue depths
// plus, per shard, queued batches and reports enqueued but not applied.
func (t *topo) backlog() int64 {
	var n int64
	for _, b := range t.router.StatsNow().Backends {
		n += int64(b.QueueDepth) + b.Inflight
	}
	for _, s := range t.shards {
		st := s.StatsNow()
		n += int64(st.QueueDepth) + st.ReportsEnqueued - st.ReportsApplied
	}
	return n
}

// quiesce waits until the router has forwarded everything and every
// shard has applied everything it accepted.
func (t *topo) quiesce(timeout time.Duration) error {
	if err := t.router.Drain(timeout); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for t.backlog() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog of %d did not drain within %v", t.backlog(), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// get fetches url and returns the body, failing on any non-200 status.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}
